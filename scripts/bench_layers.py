#!/usr/bin/env python3
"""Per-point cost of the layers of the lab: BENCH_layers.json.

    python scripts/bench_layers.py

Two layers compare a point loop against one stack:
  * embed_reduce: embed a reduced point and reduce it back at its slice,
    point by point (`reduce(embed(x))`) against one stack
    (`reduced_coordinates(*embedded_matrices(...))`);
  * closed_form_oracle: the closed-form reduced Hamiltonian and its trace
    oracle of each of the six kinds at both slices, point by point
    (`reduced_hamiltonian`, `reduced_hamiltonian_oracle`) against one stack
    each (`closed_form_hamiltonian`, `embedded_trace_hamiltonian`).
The others are one-point calls, looped over the points:
  * reduce: `reduce` of an embedded point at the q-slice;
  * reduced_vector_field_q / _p: `reduced_vector_field` of P_II at either slice;
  * rk4_step_matrix / rk4_step_reduced: one `rk4_step` of the P_II flow,
    on the embedded matrix pair and on the q-slice particles.
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
                                embedded_trace_hamiltonian, matrix_vector_field,
                                reduced_hamiltonian, reduced_hamiltonian_oracle,
                                reduced_vector_field, rk4_step)
from cplab.phase import SystemKind  # noqa: E402
from cplab.reduction import (ReducedPoint, Slice, embed,  # noqa: E402
                             embedded_matrices, reduce, reduced_coordinates)
from cplab.sampling import random_particles, spec_for  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_layers.json"
SIZES = (2, 4, 8, 12)
POINTS = 100
REPEATS = 5
G, T = 0.9, 0.4
H = 1e-3  # the RK4 step


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


def call_times(n: int, points: int, repeats: int) -> dict:
    """{layer: {"us_per_call"}} of the one-point layers at n particles."""
    pos, mom = random_particles(np.random.default_rng(n), points, n)
    spec = spec_for(SystemKind.P_II)
    sl = Slice.Q_DIAG
    pts = [embed(ReducedPoint(a, b, G, T, sl)) for a, b in zip(pos, mom)]

    def reduce_loop():
        for pt in pts:
            reduce(pt, sl, G)

    def field_loop(s):
        def loop():
            for a, b in zip(pos, mom):
                reduced_vector_field(spec, a, b, G, T, s)
        return loop

    def matrix_field(q, p, t):
        return matrix_vector_field(spec, q, p, t)

    def reduced_field(a, b, t):
        return reduced_vector_field(spec, a, b, G, t, sl)

    def step_loop(field, states):
        def loop():
            for y0, y1 in states:
                rk4_step(field, y0, y1, T, H)
        return loop

    loops = {
        "reduce": reduce_loop,
        "reduced_vector_field_q": field_loop(Slice.Q_DIAG),
        "reduced_vector_field_p": field_loop(Slice.P_DIAG),
        "rk4_step_matrix": step_loop(matrix_field, [(pt.q, pt.p) for pt in pts]),
        "rk4_step_reduced": step_loop(reduced_field, list(zip(pos, mom))),
    }
    return {layer: {"us_per_call": best_us(loop, repeats, points)}
            for layer, loop in loops.items()}


def measure(sizes=SIZES, points: int = POINTS, repeats: int = REPEATS) -> dict:
    layers: dict = {}
    for n in sizes:
        for layer, t in layer_times(n, points, repeats).items():
            t["speedup"] = t["point_loop_us"] / t["stack_us"]
            layers.setdefault(layer, {})[f"n{n}"] = {k: round(v, 2) for k, v in t.items()}
        for layer, t in call_times(n, points, repeats).items():
            layers.setdefault(layer, {})[f"n{n}"] = {k: round(v, 2) for k, v in t.items()}
    return {
        "unit": "us per point (per point, kind and slice for closed_form_oracle; "
                "per call for the us_per_call layers)",
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
