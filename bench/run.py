#!/usr/bin/env python3
"""cplab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {selfcheck,flow,duality} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import os

# one single-threaded process: BLAS must not start threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
MAX_PASSES = 1000
PROBE_TIMEOUT_S = 60
# speed readings taken right before and right after each pass and set-up probe
REF_BRACKET = 3
# the n values reported per call, and the functions they are reported for
PER_CALL_NS = (2, 4, 8, 12)
PER_CALL_FUNCTIONS = ("reduction.reduce", "reduction.embed",
                      "hamiltonians.reduced_vector_field", "hamiltonians.reduced_hamiltonian",
                      "lax.lax_pair", "lax.char_poly", "lax.spectral_match")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one fresh-process set-up and print it (see setup_probe)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def build_workload(name: str, seed: int):
    """Import cplab and the workloads, then generate the inputs: the set-up."""
    import workloads

    if name not in workloads.WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](seed)


def setup_probe(args, meter) -> float:
    """Set-up time of a fresh process (import cplab, generate the inputs),
    rescaled by the speed readings right before and after it."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = statistics.median(meter.read() for _ in range(REF_BRACKET))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S)
    speed_s = (before + statistics.median(meter.read() for _ in range(REF_BRACKET))) / 2
    return float(out.stdout.strip().splitlines()[-1]) * speed.REF_NOMINAL_S / speed_s


def run_passes(wl, args, tracer, meter, setups):
    """Whole passes until the next one would overrun the measuring time.

    With tracing, passes alternate untraced and traced, so that the traced
    run also measures what tracing costs.  Checks run between passes, outside
    the timed region and with the tracer removed.  Set-up probes run between
    passes too, so that their median spans the run like the passes do.

    Every call's wall time is rescaled to the reference speed by the
    readings of speed.Speedometer around it; a pass's time is the sum over
    its calls.  Outputs are dropped once checked, so that peak memory is that
    of one pass.
    """
    trace = bool(args.trace)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MAX_PASSES:
        traced = trace and len(passes) % 2 == 1
        meter.clear()
        meter.read(REF_BRACKET)
        if traced:
            tracer.install()
        try:
            results = wl.run_pass(meter.tick)
        finally:
            if traced:
                tracer.uninstall()
        meter.read(REF_BRACKET)
        scaled = {r.name: r.seconds * meter.scale(r.start, r.start + r.seconds)
                  for r in results if r.seconds > 0}
        entry = {"traced": traced, "results": results,
                 "wall_s": sum(r.seconds for r in results),
                 "pass_s": sum(scaled.values()),
                 "rates": wl.rates(results, scaled),
                 "failures": wl.check(results), "layers": wl.layer_metrics(results)}
        for r in results:
            r.output = None
        if traced:
            entry["summary"] = tracer.summary()
            entry["counts"] = dict(tracer.counts)
            entry["spans"] = list(tracer.spans)
            tracer.reset()
        passes.append(entry)
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe(args, meter))
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= max(wl.min_passes, 2 if trace else 1) \
                and time.perf_counter() + typical > deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(args, meter))
    return passes


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end_metrics(passes, setups):
    return {
        "setup_s": statistics.median(setups),
        "pass_s": median_of(passes, lambda p: p["pass_s"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(passes, names):
    import tracer as tr
    import workloads

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = {name: 0.0 for name in names
              if name.startswith(("steps_per_s.", "points_per_s.", "selfcheck."))}
    values["trace.overhead_s"] = (median_of(traced, lambda p: p["pass_s"])
                                  - median_of(plain, lambda p: p["pass_s"]))
    for key in plain[0]["rates"]:
        values[key] = median_of(plain, lambda p: p["rates"][key])
    for key in passes[0]["layers"]:
        values[key] = median_of(passes, lambda p: p["layers"][key])

    span_names = [f"{m}.{f}" for m, f in tr.SPAN_TARGETS]
    span_names += [f"selfcheck.{fn}" for fn, _ in workloads.SELFCHECK_CHECKS]

    def stat(p, span, key):
        return p["summary"].get(span, {}).get(key, 0)

    for span in span_names:
        values[f"{span}.calls"] = median_of(traced, lambda p: stat(p, span, "calls"))
        values[f"{span}.self_s"] = median_of(traced, lambda p: stat(p, span, "self_s"))
    for fn, report_name in workloads.SELFCHECK_CHECKS:
        values[f"selfcheck.{report_name}.s"] = median_of(
            traced, lambda p: stat(p, f"selfcheck.{fn}", "total_s"))
    for counter in ("phase.MatrixPhasePoint.constructions",
                    "reduction.ReducedPoint.constructions", "numpy.eigensolves"):
        values[counter] = median_of(traced, lambda p: p["counts"].get(counter, 0))
    for span in PER_CALL_FUNCTIONS:
        for n in PER_CALL_NS:
            calls = sum(p["summary"].get(span, {}).get("by_n", {}).get(n, (0, 0.0))[0]
                        for p in traced)
            total = sum(p["summary"].get(span, {}).get("by_n", {}).get(n, (0, 0.0))[1]
                        for p in traced)
            values[f"{span}.us_per_call.n{n}"] = 1e6 * total / calls if calls else 0.0
    return values


def write_spans(args, passes):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv"
    with open(path, "w") as fh:
        fh.write("pass,name,start_s,end_s,parent,n\n")
        for i, p in enumerate(passes):
            for name, start, end, parent, n in p.get("spans", ()):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{n}\n")
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cplab" / "__init__.py").is_file():
        fail(f"no cplab sources under {SRC}; run from the root of a cplab checkout")
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    wl = build_workload(args.workload, args.seed)
    first_setup = time.perf_counter() - start
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    import cplab
    if Path(cplab.__file__).resolve().parent != (SRC / "cplab").resolve():
        fail(f"cplab was imported from {cplab.__file__}, not from {SRC}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    import speed
    import tracer as tr
    import workloads

    tracer = tr.Tracer(extra_targets=[("selfcheck", fn) for fn, _ in workloads.SELFCHECK_CHECKS])
    setups = []
    passes = run_passes(wl, args, tracer, speed.Speedometer(), setups)

    if args.trace:
        values = per_layer_metrics(passes, [m["name"] for m in listed])
        print(f"bench: spans written to {write_spans(args, passes)}", file=sys.stderr)
    else:
        values = end_to_end_metrics(passes, setups)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}", 3)

    ops = [r for p in passes for r in wl.operations(p["results"])]
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"bench: check failed: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if not r.ok),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    print(f"bench: {len(passes)} passes of {[round(p['wall_s'], 3) for p in passes]} s "
          f"wall, {[round(p['pass_s'], 3) for p in passes]} s scaled; "
          f"setup samples {[round(s, 3) for s in setups]} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
