#!/usr/bin/env python3
"""Per-point cost of the layers of the lab: BENCH_layers.json.

    python scripts/bench_layers.py

Three layers compare a point loop against one stack:
  * embed_reduce: embed a reduced point and reduce it back at its slice,
    point by point (`reduce(embed(x))`) against one stack
    (`reduced_coordinates(*embedded_matrices(...))`);
  * closed_form_oracle: the closed-form reduced Hamiltonian and its trace
    oracle of each of the six kinds at both slices, point by point
    (`reduced_hamiltonian`, and `embedded_trace_hamiltonian` of the point's
    fields) against one stack each (`closed_form_hamiltonian`,
    `embedded_trace_hamiltonian`);
  * trace_oracle: criterion 4's check of Tr Q^3 and Tr Q^4 against matrix
    powers, point by point (`ReducedPoint`, `tr_q3_closed`, `tr_q4_closed`
    and the one-row `trace_power_oracle`) against one stack (`particle_guard`,
    `tr_c3`, `tr_c4` and `trace_power_oracle`).
The others are one-point calls, looped over the points:
  * reduce: `reduce` of an embedded point at the q-slice;
  * reduced_vector_field_q / _p: `reduced_vector_field` of P_II at either slice;
  * rk4_step_matrix / rk4_step_reduced: one `rk4_step` of the P_II flow,
    on the embedded matrix pair and on the q-slice particles, each packed
    as one (2, ...) state;
  * zero_curvature_residual: `zero_curvature_residual` of the P_II pair at
    an embedded point, at lambda = ZC_LAMBDA (criterion 6's);
  * spectral_match: `spectral_match` of the autonomous P_II curves of an
    embedded point and of its p-slice reduction, embedded, on the default
    20-point lambda grid, over POINTS // 10 of the points: 2 * POINTS // 10
    distinct sides, more than lax.SIDE_CACHE_SIZE, so each call powers both
    of its sides;
  * spectral_duality: the three `spectral_match` calls of a duality triple
    (`spectral_duality` less its two `reduce` calls): a level-set point
    dressed by a stabilizer element against its q- and p-slice reductions,
    of the autonomous P_II curves, over POINTS // 10 such points, in
    microseconds per point (`us_per_point`); each triple powers 3 sides.
The two steps of one spectral side, alone:
  * lax_l: one side's `lax_l` build, the (20, 2n, 2n) stack of an embedded
    point on the 20-point lambda grid, for each kind with a pair (its
    autonomous spec), over the POINTS points, in microseconds per call
    (`<kind>_us`, e.g. `P_II_us`);
  * power_traces: `power_traces` of one spectral side, the autonomous P_II
    L of the first embedded point on the 20-point lambda grid scaled per
    lambda as `spectral_match` scales it, a (20, 2n, 2n) stack
    (`lambda_stack_us`); and of one monitor block, L at lambda = 1 of the
    first MONITOR_BLOCK = 256 states of the monitor_invariants flow below,
    scaled by the first state's, a (256, 2n, 2n) stack (`monitor_block_us`);
    each POINTS times, in microseconds per call.
These layers time a whole flow:
  * integrate_matrix / integrate_reduced: one `integrate` call of the P_II
    flow over POINTS steps from the first point, turned onto the imaginary
    axis about its mean (where the quartic potential confines), embedded
    and on the q-slice, in microseconds per accepted step (`us_per_step`);
  * monitor_invariants: `monitor_invariants` of the autonomous P_II
    matrix flow from that start over 10 * POINTS steps (1001 recorded
    states, as criterion 7 records), in microseconds per recorded state
    (`us_per_state`).
Each other entry times one loop over POINTS sampled points per n, in
microseconds per point (per point, kind and slice for the closed forms), on
one BLAS thread.  The loops are timed in REPEATS rounds, each round running
every loop of every layer and n once, so that a slow phase of the host
touches every entry alike.  Each round also times bench/speed.py's reference
kernel once and rescales its entries by REF_NOMINAL_S over the kernel's
seconds, as bench/run.py rescales a pass, so that tables written at different
times, of different commits, compare; `reference_kernel_s` is the kernel's
median.  Each entry reports the median of its rounds and their interquartile
range (the `_iqr` field beside it).  The result goes to BENCH_layers.json at
the root of the checkout.
"""
import os

# one single-threaded process: BLAS must not start threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from cplab.dynamics import (MONITOR_BLOCK, MONITOR_LAMBDAS, integrate,  # noqa: E402
                            monitor_invariants)
from cplab.hamiltonians import (closed_form_hamiltonian,  # noqa: E402
                                embedded_trace_hamiltonian, matrix_vector_field,
                                reduced_hamiltonian, reduced_vector_field, rk4_step)
from cplab.lax import (default_lambda_grid, lax_l, power_trace_scale,  # noqa: E402
                       power_traces, spectral_match, zero_curvature_residual)
from cplab.phase import SystemKind  # noqa: E402
from cplab.reduction import (ReducedPoint, Slice, embed,  # noqa: E402
                             embedded_matrices, inverse_square_kernel, particle_guard,
                             reduce, reduced_coordinates)
from cplab.sampling import random_level_set_point, random_particles, spec_for  # noqa: E402
from cplab.selfcheck import appendix_trace_points  # noqa: E402
from cplab.traces import (tr_c3, tr_c4, tr_q3_closed, tr_q4_closed,  # noqa: E402
                          trace_power_oracle)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
SIZES = (2, 3, 4, 8, 12)
POINTS = 100
REPEATS = 21
G, T = 0.9, 0.4
H = 1e-3  # the RK4 step
ZC_LAMBDA = 0.9 + 0.2j
LAX_KINDS = tuple(k for k in SystemKind if k is not SystemKind.P_II_POLY)  # with a pair


def load_speed():
    """bench/speed.py, loaded by path: the reference kernel and its nominal time."""
    spec = importlib.util.spec_from_file_location("speed", ROOT / "bench" / "speed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
                embedded_trace_hamiltonian(spec, x.positions, x.momenta, x.g, x.t,
                                           x.slice)

    def hamiltonian_stack():
        for spec, s in cases:
            closed_form_hamiltonian(spec, pos, mom, G, T, s)
            embedded_trace_hamiltonian(spec, pos, mom, G, T, s)

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

    def zero_curvature_loop():
        for pt in pts:
            zero_curvature_residual(spec, pt, ZC_LAMBDA)

    def matrix_field(y, t):
        return matrix_vector_field(spec, y[0], y[1], t)

    def reduced_field(y, t):
        return reduced_vector_field(spec, y[0], y[1], G, t, sl)

    def integrate_loop(start):
        def loop():
            integrate(spec, start, T, T + points * H, H, g=G)
        return loop

    def kernel_loop(stack):
        def loop():
            for _ in range(points):
                power_traces(stack)
        return loop

    def step_loop(field, states):
        def loop():
            for y in states:
                rk4_step(field, y, T, H, field(y, T))
        return loop

    curve_spec = spec_for(SystemKind.P_II, tau=1.0)
    curves = [(pt, embed(reduce(pt, Slice.P_DIAG, G, tol=1e-5)))
              for pt in pts[:max(1, points // 10)]]

    def match_loop():
        for a, b in curves:
            spectral_match(curve_spec, a, b)

    rng = np.random.default_rng(n)
    triples = []
    for _ in range(max(1, points // 10)):
        pt = random_level_set_point(rng, n, G)
        triples.append((pt, reduce(pt, Slice.Q_DIAG, G, tol=1e-5),
                        reduce(pt, Slice.P_DIAG, G, tol=1e-5)))

    def duality_loop():
        for pt, xq, xp in triples:
            for a, b in ((pt, xq), (pt, xp), (xq, xp)):
                spectral_match(curve_spec, a, b)

    loops = {
        "reduce": reduce_loop,
        "reduced_vector_field_q": field_loop(Slice.Q_DIAG),
        "reduced_vector_field_p": field_loop(Slice.P_DIAG),
        "rk4_step_matrix": step_loop(matrix_field, [np.stack((pt.q, pt.p)) for pt in pts]),
        "rk4_step_reduced": step_loop(reduced_field, list(np.stack((pos, mom), axis=1))),
        "zero_curvature_residual": zero_curvature_loop,
    }
    timed = {(layer, "us_per_call"): (loop, points) for layer, loop in loops.items()}
    timed["spectral_match", "us_per_call"] = (match_loop, len(curves))
    timed["spectral_duality", "us_per_point"] = (duality_loop, len(triples))
    grid = default_lambda_grid()

    def build_loop(kind_spec):
        def loop():
            for pt in pts:
                lax_l(kind_spec, pt.q, pt.p, pt.t, grid)
        return loop

    for kind in LAX_KINDS:
        timed["lax_l", f"{kind.value}_us"] = (build_loop(spec_for(kind, tau=1.0)), points)
    flow_start = ReducedPoint(1j * (pos[0] - pos[0].mean()), 1j * mom[0], G, T, sl)
    timed["integrate_matrix", "us_per_step"] = (integrate_loop(embed(flow_start)), points)
    timed["integrate_reduced", "us_per_step"] = (integrate_loop(flow_start), points)
    monitored = integrate(curve_spec, embed(flow_start), T, T + 10 * points * H, H, g=G)
    timed["monitor_invariants", "us_per_state"] = (
        lambda: monitor_invariants(curve_spec, monitored), len(monitored.states))
    side = lax_l(curve_spec, pts[0].q, pts[0].p, pts[0].t, grid)
    side *= 1 / power_trace_scale(side, axis=())
    rows = slice(0, MONITOR_BLOCK)
    block = lax_l(curve_spec, monitored.states.a[rows], monitored.states.b[rows],
                  monitored.times[rows], MONITOR_LAMBDAS[0])
    block /= power_trace_scale(block[0])
    timed["power_traces", "lambda_stack_us"] = (kernel_loop(side), points)
    timed["power_traces", "monitor_block_us"] = (kernel_loop(block), points)
    return timed


def measure(sizes=SIZES, points: int = POINTS, repeats: int = REPEATS) -> dict:
    entries = {(layer, f"n{n}", field): timed
               for n in sizes
               for loops in (layer_loops(n, points), call_loops(n, points))
               for (layer, field), timed in loops.items()}
    speed = load_speed()
    rounds = {key: [] for key in entries}
    kernel_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        speed.reference_kernel()
        kernel_s.append(time.perf_counter() - start)
        scale = speed.REF_NOMINAL_S / kernel_s[-1]
        for key, (loop, per) in entries.items():
            start = time.perf_counter()
            loop()
            rounds[key].append((time.perf_counter() - start) / per * 1e6 * scale)
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
        "unit": "us at the reference kernel's nominal speed, per point (per point, "
                "kind and slice for closed_form_oracle; "
                "per call for the us_per_call layers; per level-set point for the "
                "us_per_point layer; per accepted step for the "
                "us_per_step layers; per recorded state for the us_per_state layer; "
                "per call for the lax_l and power_traces fields)",
        "method": f"median and interquartile range of {repeats} rounds, each timing every "
                  f"entry once, of {points} sampled points per n, rescaled by "
                  "REF_NOMINAL_S over the round's reference kernel seconds; one process, "
                  "one BLAS thread",
        "reference_kernel_s": round(float(np.median(kernel_s)), 6),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"python {platform.python_version()}, numpy {np.__version__}",
        "layers": layers,
    }


if __name__ == "__main__":
    table = measure()
    OUT.write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(table["layers"], indent=2))
