"""Batch front end: cplab <subcommand> --config <path> [--out <dir>] [--seed <u64>].

Configs are JSON, schema-validated with unknown keys rejected and every
number a finite float; reports are JSON with complex numbers as [re, im]
pairs, trajectories CSV.  Identical config + seed produce byte-identical
reports apart from the "meta" block (timestamp/runtime), which determinism
comparisons must drop.

Exit codes: 0 pass, 1 assertion failure, 2 config error (an output that
cannot be written included), 3 numerical error (every other package error
or Python ArithmeticError: each comes from a failed computation).
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
from .errors import CplabError, ConfigError, DimensionMismatch
from .hamiltonians import trace_hamiltonian
from .lax import (SPECTRAL_TOL, default_lambda_grid, spectral_duality, spectral_match,
                  spectral_table)
from .phase import MatrixPhasePoint, SystemKind, SystemSpec
from .reduction import ReducedPoint, Slice
from .sampling import random_level_set_point, random_reduced
from .selfcheck import (check_appendix_traces, check_confluence, check_mmkdv,
                        run_selfcheck)

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _validate(cfg) -> None:
    """Check cfg against config_schema.json; an integer is an int, not 3.0."""
    schema = json.loads(importlib.resources.files("cplab")
                        .joinpath("config_schema.json").read_text())
    base = jsonschema.Draft202012Validator
    ints = base.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    try:
        jsonschema.validators.extend(base, type_checker=ints)(schema).validate(cfg)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc


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
    _validate(cfg)
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

def _json_default(obj):
    """json.dumps' hook for the values of a report that JSON has no type for."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, (Slice, SystemKind)):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report(report: dict, out_dir: Path, name: str, runtime: float) -> Path:
    payload = {
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "runtime_seconds": round(runtime, 3),
        },
        "report": report,
    }
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


def write_trajectory_csv(traj, out_dir: Path, name: str) -> Path:
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        st = traj.states
        rows = np.concatenate([st.a.reshape(len(st), -1), st.b.reshape(len(st), -1)], axis=1)
        writer.writerow(["t"] + [f"{part}(x_{i})" for i in range(1, rows.shape[1] + 1)
                                 for part in ("re", "im")])
        # a complex row viewed as floats reads re, im of each entry in turn
        writer.writerows([repr(t)] + [repr(v) for v in row]
                         for t, row in zip(traj.times.tolist(), rows.view(float).tolist()))
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
    q, p = traj.states.matrices([0, -1])
    energy = trace_hamiltonian(spec, q, p, traj.times[[0, -1]])
    report = {
        "operation": "integrate (RK4, fixed step)",
        "steps": len(traj.times) - 1,
        "final_time": traj.times[-1],
        "energy_initial": energy[0],
        "energy_final": energy[1],
        "invariants": monitor_invariants(spec, traj),
        "trajectory_csv": cfg["output"]["trajectory_csv"],
    }
    write_trajectory_csv(traj, out, report["trajectory_csv"])
    return report, True


def cmd_verify_duality(cfg, rng, out):
    spec = system_spec(cfg)
    n = cfg.get("n", 3)
    g = cfg.get("g", 1.0)
    t = cfg.get("t", 0.0)
    pt = random_level_set_point(rng, n, g, t=t)
    # a second point of the same n, g and t, whose curve must differ: without
    # it, a deviation swamped to 0 (say by a huge time) would pass
    other = random_level_set_point(rng, n, g, t=t)
    devs = spectral_duality(spec, pt, g)
    worst = float(np.max(list(devs.values())))  # a NaN deviation is the worst
    control = spectral_match(spec, pt, other)[1]
    report = {
        "operation": "spectral_match: power traces Tr (L / s)^k, k = 1..2n",
        "tolerance": SPECTRAL_TOL,
        "lambda_grid_size": len(default_lambda_grid()),
        "max_deviation": worst,
        "deviations": devs,
        "negative_control": control,
        "pass": worst < SPECTRAL_TOL and control > SPECTRAL_TOL,
    }
    return report, report["pass"]


def cmd_spectral(cfg, rng, out):
    spec = system_spec(cfg)
    table = spectral_table(spec, initial_state(cfg, rng))
    return {
        "operation": "char_poly over lambda grid",
        "samples": [{"lambda": lam, "coeffs": list(c)}
                    for lam, c in zip(default_lambda_grid(), table)],
    }, True


def run_check(check, rng, **point):
    """A selfcheck entry as the report; arguments left unset keep their defaults."""
    entry = check(rng, **{k: v for k, v in point.items() if v is not None})
    return entry, entry["pass"]


def cmd_confluence(cfg, rng, out):
    theta = cfg.get("conf_theta")
    return run_check(check_confluence, rng,
                     theta=None if theta is None else as_complex(theta),
                     n=cfg.get("n"), g=cfg.get("g"))


def cmd_traces(cfg, rng, out):
    return run_check(check_appendix_traces, rng)


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
            _validate(cfg)
        rng = np.random.default_rng(cfg.get("seed", 0))
        # every name the run writes, defaults included, is checked before the computation
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cfg["output"] = {"report_json": f"{args.command}.json", **cfg.get("output", {})}
        if args.command == "simulate":
            cfg["output"].setdefault("trajectory_csv", "trajectory.csv")
        for name in cfg["output"].values():
            if (out / name).is_dir():
                raise ConfigError(f"output {name!r} is a directory under {out}")
            if not (out / name).parent.is_dir():
                raise ConfigError(f"output {name!r} names no directory under {out}")
        report, ok = COMMANDS[args.command](cfg, rng, out)
        report.setdefault("seed", cfg.get("seed", 0))
        path = write_report(report, out, cfg["output"]["report_json"], time.perf_counter() - t0)
    except (ConfigError, OSError) as exc:  # OSError: making an output
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CplabError, ArithmeticError) as exc:  # a failed computation
        print(f"numerical error in {args.command}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print(f"{'PASS' if ok else 'FAIL'} {args.command} -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
