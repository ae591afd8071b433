#!/usr/bin/env python3
"""Per-point cost of the layers of the lab: BENCH_layers.json.

    python scripts/bench_layers.py

Three layers compare a point loop against one stack:
  * embed_reduce: embed a reduced point and reduce it back at its slice,
    point by point (`reduce(embed(x))`) against one stack
    (`reduced_coordinates(*embedded_matrices(...))`);
  * closed_form_oracle: the closed-form reduced Hamiltonian and its trace
    oracle of each of the six kinds at both slices, point by point
    (`reduced_hamiltonian`, `reduced_hamiltonian_oracle`) against one stack
    each (`closed_form_hamiltonian`, `embedded_trace_hamiltonian`);
  * trace_oracle: criterion 4's check of Tr Q^3 and Tr Q^4 against matrix
    powers, point by point (`ReducedPoint`, `tr_q3_closed`, `tr_q4_closed`
    and the one-row `trace_power_oracle`) against one stack (`particle_guard`,
    `tr_c3`, `tr_c4` and `trace_power_oracle`).
The others are one-point calls, looped over the points:
  * reduce: `reduce` of an embedded point at the q-slice;
  * reduced_vector_field_q / _p: `reduced_vector_field` of P_II at either slice;
  * rk4_step_matrix / rk4_step_reduced: one `rk4_step` of the P_II flow,
    on the embedded matrix pair and on the q-slice particles;
  * spectral_match: `spectral_match` of the autonomous P_II curves of an
    embedded point and of its p-slice reduction, embedded, on the default
    20-point lambda grid, over POINTS // 10 of the points.
Each entry times one loop over POINTS sampled points per n, in
microseconds per point (per point, kind and slice for the closed forms), on
one BLAS thread.  The loops are timed in REPEATS rounds, each round running
every loop of every layer and n once, so that a slow phase of the host
touches every entry alike.  Each entry reports the median of its rounds and
their interquartile range (the `_iqr` field beside it).  The result goes to
BENCH_layers.json at the root of the checkout.
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
from cplab.lax import spectral_match  # noqa: E402
from cplab.phase import SystemKind  # noqa: E402
from cplab.reduction import (ReducedPoint, Slice, embed,  # noqa: E402
                             embedded_matrices, inverse_square_kernel, particle_guard,
                             reduce, reduced_coordinates)
from cplab.sampling import random_particles, spec_for  # noqa: E402
from cplab.selfcheck import appendix_trace_points  # noqa: E402
from cplab.traces import (tr_c3, tr_c4, tr_q3_closed, tr_q4_closed,  # noqa: E402
                          trace_power_oracle)

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_layers.json"
SIZES = (2, 4, 8, 12)
POINTS = 100
REPEATS = 21
G, T = 0.9, 0.4
H = 1e-3  # the RK4 step


def layer_loops(n: int, points: int) -> dict:
    """{(layer, field): (loop, units of work)} of the stacked layers at n particles."""
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

    tpos, tmom, tg = appendix_trace_points(np.random.default_rng(n), n, points)

    def trace_loop():
        for a, b, g in zip(tpos, tmom, tg):
            x = ReducedPoint(a, b, g)
            tr_q3_closed(x)
            trace_power_oracle(x.positions, x.momenta, x.g, 3)
            tr_q4_closed(x)
            trace_power_oracle(x.positions, x.momenta, x.g, 4)

    def trace_stack():
        particle_guard(tpos, tmom)
        W = inverse_square_kernel(tpos)
        tr_c3(tmom, W, tg)
        trace_power_oracle(tpos, tmom, tg, 3)
        tr_c4(tmom, W, tg)
        trace_power_oracle(tpos, tmom, tg, 4)

    per_h = points * len(cases)
    return {
        ("embed_reduce", "point_loop_us"): (reduce_loop, points),
        ("embed_reduce", "stack_us"): (reduce_stack, points),
        ("closed_form_oracle", "point_loop_us"): (hamiltonian_loop, per_h),
        ("closed_form_oracle", "stack_us"): (hamiltonian_stack, per_h),
        ("trace_oracle", "point_loop_us"): (trace_loop, points),
        ("trace_oracle", "stack_us"): (trace_stack, points),
    }


def call_loops(n: int, points: int) -> dict:
    """{(layer, "us_per_call"): (loop, units of work)} of the one-point layers at n."""
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

    curve_spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
    curves = [(pt, embed(reduce(pt, Slice.P_DIAG, G, tol=1e-5)))
              for pt in pts[:max(1, points // 10)]]

    def match_loop():
        for a, b in curves:
            spectral_match(curve_spec, a, b)

    loops = {
        "reduce": reduce_loop,
        "reduced_vector_field_q": field_loop(Slice.Q_DIAG),
        "reduced_vector_field_p": field_loop(Slice.P_DIAG),
        "rk4_step_matrix": step_loop(matrix_field, [(pt.q, pt.p) for pt in pts]),
        "rk4_step_reduced": step_loop(reduced_field, list(zip(pos, mom))),
    }
    timed = {(layer, "us_per_call"): (loop, points) for layer, loop in loops.items()}
    timed["spectral_match", "us_per_call"] = (match_loop, len(curves))
    return timed


def measure(sizes=SIZES, points: int = POINTS, repeats: int = REPEATS) -> dict:
    entries = {(layer, f"n{n}", field): timed
               for n in sizes
               for loops in (layer_loops(n, points), call_loops(n, points))
               for (layer, field), timed in loops.items()}
    rounds = {key: [] for key in entries}
    for _ in range(repeats):
        for key, (loop, per) in entries.items():
            start = time.perf_counter()
            loop()
            rounds[key].append((time.perf_counter() - start) / per * 1e6)
    layers: dict = {}
    for (layer, n, field), us in rounds.items():
        q1, median, q3 = np.percentile(us, [25, 50, 75])
        row = layers.setdefault(layer, {}).setdefault(n, {})
        row[field], row[f"{field}_iqr"] = median, q3 - q1
        if field == "stack_us":  # the point loop's entry comes first
            row["speedup"] = row["point_loop_us"] / median
    layers = {layer: {n: {k: round(float(v), 2) for k, v in row.items()}
                      for n, row in rows.items()}
              for layer, rows in layers.items()}
    return {
        "unit": "us per point (per point, kind and slice for closed_form_oracle; "
                "per call for the us_per_call layers)",
        "method": f"median and interquartile range of {repeats} rounds, each timing every "
                  f"entry once, of {points} sampled points per n; one process, "
                  "one BLAS thread",
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"python {platform.python_version()}, numpy {np.__version__}",
        "layers": layers,
    }


if __name__ == "__main__":
    table = measure()
    OUT.write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(table["layers"], indent=2))
