#!/usr/bin/env python3
"""Per-point cost of two layers, a point loop against one stack: BENCH_layers.json.

    python scripts/bench_layers.py

The layers are
  * embed_reduce: embed a reduced point and reduce it back at its slice,
    point by point (`reduce(embed(x))`) against one stack
    (`reduced_coordinates(*embedded_matrices(...))`);
  * closed_form_oracle: the closed-form reduced Hamiltonian and its trace
    oracle of each of the six kinds at both slices, point by point
    (`reduced_hamiltonian`, `reduced_hamiltonian_oracle`) against one stack
    each (`closed_form_hamiltonian`, `embedded_trace_hamiltonian`).
Each entry is the best of REPEATS timings of POINTS sampled points per n,
in microseconds per point (per point, kind and slice for the closed forms),
on one BLAS thread.  The result goes to BENCH_layers.json at the root of
the checkout.
"""
import os

# one single-threaded process: BLAS must not start threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from cplab.hamiltonians import (closed_form_hamiltonian,  # noqa: E402
                                embedded_trace_hamiltonian, reduced_hamiltonian,
                                reduced_hamiltonian_oracle)
from cplab.phase import SystemKind  # noqa: E402
from cplab.reduction import (ReducedPoint, Slice, embed,  # noqa: E402
                             embedded_matrices, reduce, reduced_coordinates)
from cplab.sampling import random_particles, spec_for  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_layers.json"
SIZES = (2, 4, 8, 12)
POINTS = 100
REPEATS = 5
G, T = 0.9, 0.4


def best_us(fn, repeats: int, per: int) -> float:
    """Best of `repeats` wall times of fn(), in microseconds per unit of work."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / per * 1e6


def layer_times(n: int, points: int, repeats: int) -> dict:
    """{layer: {"point_loop_us", "stack_us"}} at n particles."""
    pos, mom = random_particles(np.random.default_rng(n), points, n)
    sl = Slice.Q_DIAG
    xs = [ReducedPoint(a, b, G, T, sl) for a, b in zip(pos, mom)]

    def reduce_loop():
        for x in xs:
            reduce(embed(x), sl, G)

    def reduce_stack():
        reduced_coordinates(*embedded_matrices(pos, mom, G, sl), G, sl)

    cases = [(spec_for(kind), s) for kind in SystemKind for s in Slice]
    points_at = {s: [ReducedPoint(a, b, G, T, s) for a, b in zip(pos, mom)] for s in Slice}

    def hamiltonian_loop():
        for spec, s in cases:
            for x in points_at[s]:
                reduced_hamiltonian(spec, x)
                reduced_hamiltonian_oracle(spec, x)

    def hamiltonian_stack():
        for spec, s in cases:
            closed_form_hamiltonian(spec, pos, mom, G, spec.time(T), s)
            embedded_trace_hamiltonian(spec, pos, mom, G, spec.time(T), s)

    per_h = points * len(cases)
    return {
        "embed_reduce": {"point_loop_us": best_us(reduce_loop, repeats, points),
                         "stack_us": best_us(reduce_stack, repeats, points)},
        "closed_form_oracle": {"point_loop_us": best_us(hamiltonian_loop, repeats, per_h),
                               "stack_us": best_us(hamiltonian_stack, repeats, per_h)},
    }


def measure(sizes=SIZES, points: int = POINTS, repeats: int = REPEATS) -> dict:
    layers: dict = {}
    for n in sizes:
        for layer, t in layer_times(n, points, repeats).items():
            t["speedup"] = t["point_loop_us"] / t["stack_us"]
            layers.setdefault(layer, {})[f"n{n}"] = {k: round(v, 2) for k, v in t.items()}
    return {
        "unit": "us per point (per point, kind and slice for closed_form_oracle)",
        "method": f"best of {repeats} timings of {points} sampled points per n, "
                  "one process, one BLAS thread",
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"python {platform.python_version()}, numpy {np.__version__}",
        "layers": layers,
    }


if __name__ == "__main__":
    table = measure()
    OUT.write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(table["layers"], indent=2))
