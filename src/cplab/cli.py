"""Batch front end: cplab <subcommand> --config <path> [--out <dir>] [--seed <u64>].

Configs are JSON, schema-validated with unknown keys rejected and every
number a finite float; reports are JSON with complex numbers as [re, im]
pairs, trajectories CSV.  Identical config + seed produce byte-identical
reports apart from the "meta" block (timestamp/runtime), which determinism
comparisons must drop.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 numerical error
(every other package error: each comes from a failed computation).
"""
from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import numpy as np

from .dynamics import integrate, monitor_invariants, step_count
from .errors import CplabError, ConfigError, DimensionMismatch, UnsupportedSystem
from .lax import default_lambda_grid, spectral_duality, spectral_table
from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import ReducedPoint, Slice
from .sampling import random_level_set_point, random_reduced
from .selfcheck import (check_appendix_traces, check_confluence, check_mmkdv,
                        run_selfcheck)

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _schema() -> dict:
    text = importlib.resources.files("cplab").joinpath("config_schema.json") \
        .read_text()
    return json.loads(text)


def _finite(parse):
    """A JSON number parser that rejects numbers which are not finite floats."""
    def checked(text: str):
        if not math.isfinite(float(text)):
            raise ConfigError(f"config number {text} is not a finite float")
        return parse(text)
    return checked


def load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    if cfg["command"] != command:
        raise ConfigError(
            f"config command {cfg['command']!r} does not match subcommand "
            f"{command!r}")
    return cfg


def as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def cvector(values) -> np.ndarray:
    return np.array([as_complex(v) for v in values])


def cmatrix(rows) -> np.ndarray:
    return np.array([[as_complex(v) for v in row] for row in rows])


def system_spec(cfg: dict) -> SystemSpec:
    sy = cfg.get("system")
    if sy is None:
        raise ConfigError("this command needs a 'system' block")
    kw = {}
    for name in ("theta", "theta0", "theta1"):
        if name in sy:
            kw[name] = as_complex(sy[name])
    if "tau" in sy:
        kw["tau"] = sy["tau"]
    if "omega" in sy:
        kw["omega"] = sy["omega"]
    try:
        return SystemSpec(SystemKind(sy["kind"]),
                          autonomous=sy.get("autonomous", False), **kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def lambda_grid(cfg: dict) -> list[complex]:
    lg = cfg.get("lambda_grid")
    if lg is None:
        return default_lambda_grid()
    if "values" in lg:
        return [as_complex(v) for v in lg["values"]]
    return default_lambda_grid(lg.get("points_per_circle", 10),
                               tuple(lg.get("radii", (0.5, 2.0))))


def initial_state(cfg: dict, rng: np.random.Generator):
    init = cfg.get("initial", {"random": True})
    g = cfg.get("g", 1.0)
    t = cfg.get("t", 0.0)
    sl = Slice(cfg.get("slice", "Q_DIAG"))
    try:
        if "reduced" in init:
            red = init["reduced"]
            return ReducedPoint(cvector(red["positions"]), cvector(red["momenta"]),
                                g, t, sl)
        if "matrix" in init:
            return MatrixPhasePoint(cmatrix(init["matrix"]["q"]),
                                    cmatrix(init["matrix"]["p"]), t)
    except (ValueError, DimensionMismatch) as exc:
        raise ConfigError(f"initial state rejected: {exc}") from exc
    n = cfg.get("n")
    if n is None:
        raise ConfigError("random initial data needs 'n'")
    return random_reduced(rng, n, g, sl, t)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (Slice, SystemKind)):
        return obj.value
    return obj


def write_report(report: dict, out_dir: Path, name: str, runtime: float) -> Path:
    payload = {
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": round(runtime, 3),
        },
        "report": _jsonable(report),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_trajectory_csv(traj, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        first = traj.states[0]
        if isinstance(first, ReducedPoint):
            def flatten(s):
                return np.concatenate([s.positions, s.momenta])
        else:
            def flatten(s):
                return np.concatenate([s.q.ravel(), s.p.ravel()])
        k = flatten(first).size
        header = ["t"]
        for i in range(1, k + 1):
            header += [f"re(x_{i})", f"im(x_{i})"]
        writer.writerow(header)
        for t, s in zip(traj.times, traj.states):
            row = [repr(float(t))]
            for z in flatten(s):
                row += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(row)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, rng, out):
    spec = system_spec(cfg)
    tm = cfg.get("time")
    if tm is None:
        raise ConfigError("simulate needs a 'time' block")
    try:
        step_count(tm["t0"], tm["t1"], tm["h"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    start = initial_state(cfg, rng)
    traj = integrate(spec, start, tm["t0"], tm["t1"], tm["h"],
                     g=cfg.get("g"))
    monitors = [as_complex(v) for v in cfg.get("monitor_lambdas", [])]
    report = {
        "operation": "integrate (RK4, fixed step)",
        "steps": len(traj.times) - 1,
        "final_time": traj.times[-1],
        "energy_initial": traj.diagnostics["energy"][0],
        "energy_final": traj.diagnostics["energy"][-1],
    }
    if monitors and spec.kind is not SystemKind.P_II_POLY:
        report["invariants"] = monitor_invariants(spec, traj, monitors)
    csv_name = cfg.get("output", {}).get("trajectory_csv", "trajectory.csv")
    write_trajectory_csv(traj, out, csv_name)
    report["trajectory_csv"] = csv_name
    return report, True


def cmd_verify_duality(cfg, rng, out):
    spec = system_spec(cfg)
    n = cfg.get("n", 3)
    g = cfg.get("g", 1.0)
    tol = cfg.get("tolerances", {}).get("duality", 1e-8)
    grid = lambda_grid(cfg)
    pt = random_level_set_point(rng, n, g, t=cfg.get("t", 0.0))
    devs = spectral_duality(spec, pt, g, grid)
    worst = float(np.max(list(devs.values())))  # a NaN deviation is the worst
    report = {
        "operation": "spectral_match: det(mu - L) ratios on a mu circle",
        "tolerance": tol,
        "lambda_grid_size": len(grid),
        "max_deviation": worst,
        "deviations": devs,
        "pass": worst < tol,
    }
    return report, report["pass"]


def cmd_spectral(cfg, rng, out):
    spec = system_spec(cfg)
    obj = initial_state(cfg, rng)
    grid = lambda_grid(cfg)
    table = spectral_table(spec, obj, grid)
    return {
        "operation": "char_poly over lambda grid",
        "samples": [{"lambda": lam, "coeffs": list(c)} for lam, c in zip(grid, table)],
    }, True


def run_check(check, rng, **sizes):
    """A selfcheck entry as the report; sizes left unset keep their defaults."""
    entry = check(rng, **{k: v for k, v in sizes.items() if v is not None})
    return entry, entry["pass"]


def cmd_confluence(cfg, rng, out):
    theta = cfg.get("conf_theta")
    return run_check(check_confluence, rng, eps=cfg.get("eps_sweep"),
                     theta=None if theta is None else as_complex(theta),
                     n=cfg.get("n"), g=cfg.get("g"))


def cmd_traces(cfg, rng, out):
    tr = cfg.get("trace", {})
    return run_check(check_appendix_traces, rng, n_max=tr.get("n_max"),
                     trials=tr.get("trials"), max_l=tr.get("max_even_l"))


def cmd_mmkdv(cfg, rng, out):
    return run_check(check_mmkdv, rng)


def cmd_selfcheck(cfg, rng, out):
    seed = cfg.get("seed", 0)
    report = run_selfcheck(seed)
    return report, report["summary"]["failed"] == 0


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-duality": cmd_verify_duality,
    "spectral": cmd_spectral,
    "confluence": cmd_confluence,
    "traces": cmd_traces,
    "mmkdv": cmd_mmkdv,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cplab",
        description="matrix Painlevé / Calogero reduction laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            cfg["seed"] = args.seed
        rng = np.random.default_rng(cfg.get("seed", 0))
        report, ok = COMMANDS[args.command](cfg, rng, Path(args.out))
    except (ConfigError, UnsupportedSystem) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CplabError as exc:  # every other package error is a failed computation
        print(f"numerical error in {args.command}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    report.setdefault("seed", cfg.get("seed", 0))
    name = cfg.get("output", {}).get("report_json", f"{args.command}.json")
    path = write_report(report, Path(args.out), name, time.perf_counter() - t0)
    print(f"{'PASS' if ok else 'FAIL'} {args.command} -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
