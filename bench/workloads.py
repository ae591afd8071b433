"""The benchmark's workloads: inputs made from a seed, one pass of operations,
and the checks that judge each pass's outputs.

A workload object is built from the seed (that is the set-up the benchmark
times), `run_pass` performs the fixed list of operations once, calls `tick`
after each timed call (run.py samples the machine's speed there) and returns
one `OpResult` per timed call, `operations` picks the results that count as
operations, `check` returns the failed correctness checks of a pass, and
`rates` / `layer_metrics` give the workload's own per-layer figures; `rates`
takes each call's time already rescaled to the reference speed (see run.py).  The
program only ever sees inputs generated here.
"""
from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from cplab import dynamics, lax, reduction, selfcheck
from cplab.errors import CplabError
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec
from cplab.reduction import ReducedPoint, Slice

import checks as ck


@dataclass
class OpResult:
    """One result of a pass: its group, wall time, verdict and output.

    `seconds` is the wall time of this result's own call, starting at `start`
    (time.perf_counter), or 0 when the result came out of a call timed in
    another result.
    """

    name: str
    group: str
    seconds: float
    ok: bool
    output: object = None
    start: float = 0.0


def _timed(fn, *args, **kwargs):
    """(output, error, start, seconds) of one call; a CplabError is returned."""
    start = time.perf_counter()
    try:
        out, err = fn(*args, **kwargs), None
    except CplabError as exc:
        out, err = None, exc
    return out, err, start, time.perf_counter() - start


KIND_PARAMS = {
    "Free": {},
    "HarmOsc": {"omega": 1.3},
    "P_I": {},
    "P_II": {"theta": 0.31 + 0.12j},
    "P_IV": {"theta0": 0.41 + 0.05j, "theta1": -0.63 + 0.21j},
}


def autonomous_spec(kind: str, tau: float) -> SystemSpec:
    return SystemSpec(SystemKind(kind), autonomous=True, tau=tau, **KIND_PARAMS[kind])


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

# selfcheck.ALL_CHECKS in order: (function name, name in the report)
SELFCHECK_CHECKS = (
    ("check_level_set_embedding", "level_set_embedding"),
    ("check_round_trip", "round_trip"),
    ("check_hamiltonian_oracle", "hamiltonian_oracle_equivalence"),
    ("check_appendix_traces", "appendix_traces"),
    ("check_spectral_duality", "spectral_duality"),
    ("check_zero_curvature", "zero_curvature"),
    ("check_isospectral_conservation", "isospectral_conservation"),
    ("check_equivariance", "equivariance"),
    ("check_ruijsenaars", "ruijsenaars_demo"),
    ("check_p4_selfduality", "p4_selfduality"),
    ("check_dual_p2_interaction_structure", "dual_p2_interaction_structure"),
    ("check_confluence", "confluence"),
    ("check_mmkdv", "mmkdv"),
    ("check_core_invariants", "core_invariants"),
    ("check_charpoly_cross", "charpoly_cross_check"),
)

# These two gates pass or fail depending on the seed: of seeds 0..259,
# confluence failed on 45, 107, 127, 170 and 239 and zero_curvature on 51, 84,
# 101, 102 and 166, while the other 13 checks passed on all.  They still run
# inside run_selfcheck, so their time counts, but their verdicts are not
# operations: a failure share that moves with the seed measures nothing.
SELFCHECK_UNCOUNTED = ("confluence", "zero_curvature")

SELFCHECK_SEEDS_PER_PASS = 2


def headroom(tolerance, measured):
    """log10(tol / measured), or None for a check without a numeric tolerance.

    A measurement below one unit of float64 roundoff (an exact 0 included)
    counts as that unit, so that an exact result reads as finite headroom.
    """
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        return None
    return math.log10(tolerance / max(float(measured), sys.float_info.epsilon))


class SelfcheckWorkload:
    """run_selfcheck over a few seeds; an operation is one counted check."""

    name = "selfcheck"
    min_passes = 2  # the second pass repeats the seeds of the first

    def __init__(self, seed: int):
        self.seeds = [SELFCHECK_SEEDS_PER_PASS * seed + k
                      for k in range(SELFCHECK_SEEDS_PER_PASS)]
        self.reference = {}

    def run_pass(self, tick):
        """run_selfcheck for each seed, with each check of the battery timed.

        The entries of selfcheck.ALL_CHECKS are wrapped for the call, so that
        every check is timed on its own and the speed is read between checks;
        a 5-second run_selfcheck call is too long for one speed reading.  If
        the battery is not run from ALL_CHECKS, the whole call is timed.
        """
        results = []
        for s in self.seeds:
            timed = []
            battery = selfcheck.ALL_CHECKS

            def clocked(fn, k):
                def call(rng):
                    start = time.perf_counter()
                    try:
                        return fn(rng)
                    finally:
                        timed.append(OpResult(f"seed{s}.check{k:02d}", "timing",
                                              time.perf_counter() - start, True, None, start))
                        tick()
                return call

            selfcheck.ALL_CHECKS = tuple(clocked(fn, k) for k, fn in enumerate(battery))
            try:
                start = time.perf_counter()
                report = selfcheck.run_selfcheck(s)
                whole = time.perf_counter() - start
            finally:
                selfcheck.ALL_CHECKS = battery
            results += timed or [OpResult(f"seed{s}.run", "timing", whole, True, None, start)]
            results.append(OpResult(f"seed{s}.report", "report", 0.0, True, report))
            results += [OpResult(f"seed{s}.{entry['name']}", "check", 0.0, entry["pass"], entry)
                        for entry in report["checks"]
                        if entry["name"] not in SELFCHECK_UNCOUNTED]
        return results

    @staticmethod
    def operations(results):
        return [r for r in results if r.group == "check"]

    def check(self, results):
        failures = [f"{r.name} failed its gate" for r in self.operations(results) if not r.ok]
        for r in results:
            if r.group != "report":
                continue
            if len(r.output["checks"]) != len(SELFCHECK_CHECKS):
                failures.append(f"{r.name}: {len(r.output['checks'])} checks, "
                                f"expected {len(SELFCHECK_CHECKS)}")
            text = json.dumps(r.output, sort_keys=True, default=repr)
            first = self.reference.setdefault(r.name, text)
            if text != first:
                failures.append(f"{r.name} differs from the first report for that seed")
        return failures

    def rates(self, results, scaled):
        return {}

    def layer_metrics(self, results):
        worst = {}
        for r in self.operations(results):
            h = headroom(r.output["tolerance"], r.output["measured"])
            if h is not None:
                name = r.output["name"]
                worst[name] = min(h, worst.get(name, math.inf))
        return {f"selfcheck.{name}.headroom": h for name, h in worst.items()}


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

FLOW_G = 0.1
FLOW_SPACING = 0.3
FLOW_TAU = 1.0
# n -> (step, steps), horizons 0.5 and 0.25.  Longer horizons run some
# seeds into close encounters that a fixed step cannot resolve (seed 200 at
# n = 3 met one at t = 0.7 on the P_I dual slice and lost half its energy).
FLOW_STEPS = {3: (0.00125, 400), 12: (0.0025, 100)}
FLOW_DRESS = 0.2
# (kind, state form): matrix states start at the dressed embedding of the
# q-slice start of the same kind and n, so the two can be compared at the end
FLOW_CASES = (
    ("P_I", "matrix"), ("P_II", "matrix"),
    ("P_I", "q"), ("P_II", "q"),
    ("P_I", "p"), ("P_II", "p"),
    ("Free", "q"),
)
FLOW_LAMBDAS = (1.0, 2.0j)

# Tolerances sit well above the RK4 error of these steps: on seeds 0..399 the
# energies drifted by 1.8e-9 at most
ENERGY_TOL = 1e-7
LEVEL_SET_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-7
COMMUTE_TOL = 1e-8
ACTION_TOL = 1e-8
MIN_MOTION = 1e-6


def flow_reduced_start(rng, kind: str, n: int, sl: Slice) -> ReducedPoint:
    """Particles on a 0.3-spaced line with small complex jitter and momenta.

    P_II starts are turned onto the imaginary axis, where its quartic
    potential confines instead of sending particles to infinity; P_I and
    Free stay near the real axis, where the horizon is short enough.
    """
    turn = 1j if kind == "P_II" else 1.0
    jitter = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    pos = FLOW_SPACING * (np.arange(n) - (n - 1) / 2 + 0.1 * jitter)
    mom = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return ReducedPoint(turn * pos, turn * mom, FLOW_G, 0.0, sl)


class FlowWorkload:
    """Long autonomous RK4 trajectories; an operation is one trajectory."""

    name = "flow"
    min_passes = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n, (h, steps) in FLOW_STEPS.items():
            q_starts = {}
            for kind, form in FLOW_CASES:
                if form == "matrix":
                    continue
                sl = Slice.Q_DIAG if form == "q" else Slice.P_DIAG
                x0 = flow_reduced_start(rng, kind, n, sl)
                if form == "q":
                    q_starts[kind] = x0
                self.cases.append(self._case(kind, form, n, h, steps, x0))
            for kind, form in FLOW_CASES:
                if form != "matrix":
                    continue
                x0 = q_starts[kind]
                q, p = ck.calogero_pair(x0.positions, x0.momenta, FLOW_G, True)
                G, Gi = ck.stabilizer_conjugator(rng, n, FLOW_DRESS)
                self.cases.append(self._case(kind, form, n, h, steps,
                                             MatrixPhasePoint(Gi @ q @ G, Gi @ p @ G, 0.0)))

    @staticmethod
    def _case(kind, form, n, h, steps, start):
        spec = (SystemSpec(SystemKind.FREE) if kind == "Free"
                else autonomous_spec(kind, FLOW_TAU))
        group = f"{'matrix' if form == 'matrix' else 'reduced'}_n{n}"
        return {"name": f"{kind}.{form}.n{n}", "kind": kind, "form": form, "n": n,
                "h": h, "steps": steps, "spec": spec, "start": start, "group": group}

    def run_pass(self, tick):
        results = []
        for c in self.cases:
            traj, err, start, dt = _timed(dynamics.integrate, c["spec"], c["start"], 0.0,
                                          c["h"] * c["steps"], c["h"], g=FLOW_G)
            results.append(OpResult(c["name"], c["group"], dt, err is None,
                                    (c, traj if err is None else repr(err)), start))
            tick()
        return results

    @staticmethod
    def operations(results):
        return results

    @staticmethod
    def _matrices(state):
        if isinstance(state, MatrixPhasePoint):
            return state.q, state.p
        return ck.calogero_pair(state.positions, state.momenta, state.g,
                                state.slice is Slice.Q_DIAG)

    @staticmethod
    def _lax(spec, state, lam):
        if isinstance(state, MatrixPhasePoint):
            return lax.lax_pair(spec, state, lam).L
        return lax.reduced_lax(spec, state, lam).L

    def check(self, results):
        failures = []
        finals = {}
        for r in results:
            c, traj = r.output
            if not r.ok:
                failures.append(f"{r.name}: integration failed: {traj}")
                continue
            t1 = c["h"] * c["steps"]
            if len(traj.states) != c["steps"] + 1 or abs(traj.times[-1] - t1) > 1e-12:
                failures.append(f"{r.name}: trajectory stopped short")
                continue
            start, final = traj.states[0], traj.final
            finals[(c["kind"], c["form"], c["n"])] = final
            theta = c["spec"].theta
            e0 = ck.trace_hamiltonian(c["kind"], *self._matrices(start), FLOW_TAU, theta)
            e1 = ck.trace_hamiltonian(c["kind"], *self._matrices(final), FLOW_TAU, theta)
            if not ck.relative_change(e0, e1) < ENERGY_TOL:
                failures.append(f"{r.name}: energy drift {ck.relative_change(e0, e1):.2e}")
            for lam in FLOW_LAMBDAS:
                dev = ck.power_trace_deviation(self._lax(c["spec"], start, lam),
                                               self._lax(c["spec"], final, lam))
                if not dev < TRACE_DRIFT_TOL:
                    failures.append(f"{r.name}: power traces drift {dev:.2e} at {lam}")
            if c["form"] == "matrix":
                dev = max(ck.level_set_deviation(s.q, s.p, FLOW_G) for s in traj.states[::10]
                          + [final])
                if not dev < LEVEL_SET_TOL:
                    failures.append(f"{r.name}: moment map off the level set by {dev:.2e}")
                moved = float(np.abs(final.q - start.q).max())
            else:
                moved = float(np.abs(final.positions - start.positions).max())
            if not moved > MIN_MOTION:
                failures.append(f"{r.name}: state did not move")
            if c["kind"] == "Free":
                dev = ck.relative_matched_distance(
                    np.linalg.eigvals(self._matrices(start)[1]),
                    np.linalg.eigvals(self._matrices(final)[1]))
                if not dev < ACTION_TOL:
                    failures.append(f"{r.name}: eigenvalues of p drift {dev:.2e}")
        for (kind, form, n), final in finals.items():
            if form != "matrix" or (kind, "q", n) not in finals:
                continue
            dev = ck.relative_matched_distance(finals[(kind, "q", n)].positions,
                                               np.linalg.eigvals(final.q))
            if not dev < COMMUTE_TOL:
                failures.append(f"{kind}.n{n}: flow-then-reduce differs from "
                                f"reduce-then-flow by {dev:.2e}")
        return failures

    def rates(self, results, scaled):
        steps, seconds = {}, {}
        for r in results:
            if r.ok:
                steps[r.group] = steps.get(r.group, 0) + r.output[0]["steps"]
                seconds[r.group] = seconds.get(r.group, 0.0) + scaled[r.name]
        return {f"steps_per_s.{g}": steps[g] / seconds[g] for g in steps}

    def layer_metrics(self, results):
        return {}


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

DUALITY_KINDS = ("P_I", "P_II", "P_IV", "HarmOsc")
DUALITY_NS = (2, 4, 8, 12)
DUALITY_POINTS = 3
DUALITY_G = 1.0
DUALITY_TAU = 1.0
DUALITY_REDUCE_TOL = 1e-5
# The coefficient gate of spectral_match fails on exact dualities from n = 6
# up.  Points at n >= 8 are therefore drawn from this fixed seed, so that the
# failures they produce are the same in every run; smaller n follow --seed.
DUALITY_LARGE_N = 8
DUALITY_FIXED_SEED = 1912
EIGVAL_TOL = 1e-8
DUALITY_TRACE_TOL = 1e-9
NEGATIVE_MIN_DEV = 1e-3


def generic_level_set_point(rng, n: int, g: float) -> MatrixPhasePoint:
    """A level-set point diagonal in neither q nor p.

    Calogero representative of 1.5-spaced jittered complex positions with
    normal complex momenta, conjugated by a random stabilizer element.
    """
    pos = 1.5 * np.arange(n) + rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n)
    mom = rng.normal(size=n) + 1j * rng.normal(size=n)
    q, p = ck.calogero_pair(pos, mom, g, True)
    G, Gi = ck.stabilizer_conjugator(rng, n, 0.4)
    return MatrixPhasePoint(Gi @ q @ G, Gi @ p @ G, 0.0)


def duality_op(spec, pt):
    """Reduce at both slices and run spectral_match on the three pairs."""
    xq = reduction.reduce(pt, Slice.Q_DIAG, DUALITY_G, tol=DUALITY_REDUCE_TOL)
    xp = reduction.reduce(pt, Slice.P_DIAG, DUALITY_G, tol=DUALITY_REDUCE_TOL)
    verdicts = [lax.spectral_match(spec, a, b)
                for a, b in ((pt, xq), (pt, xp), (xq, xp))]
    return xq, xp, verdicts


class DualityWorkload:
    """Spectral-duality verdicts of generic points; an operation is one point."""

    name = "duality"
    min_passes = 3

    def __init__(self, seed: int):
        seeded = np.random.default_rng(seed)
        fixed = np.random.default_rng(DUALITY_FIXED_SEED)
        self.points = []
        for n in DUALITY_NS:
            rng = fixed if n >= DUALITY_LARGE_N else seeded
            for kind in DUALITY_KINDS:
                for k in range(DUALITY_POINTS):
                    self.points.append({
                        "name": f"{kind}.n{n}.{k}", "kind": kind, "n": n,
                        "group": "large" if n >= DUALITY_LARGE_N else "small",
                        "spec": autonomous_spec(kind, DUALITY_TAU),
                        "pt": generic_level_set_point(rng, n, DUALITY_G)})
        # negative control: two unrelated points of one size
        self.control = [generic_level_set_point(seeded, 4, DUALITY_G) for _ in range(2)]

    def run_pass(self, tick):
        results = []
        for c in self.points:
            out, err, start, dt = _timed(duality_op, c["spec"], c["pt"])
            if err is None:
                xq, xp, verdicts = out
                results.append(OpResult(c["name"], c["group"], dt,
                                        all(ok for ok, _ in verdicts), (c, xq, xp, verdicts),
                                        start))
            else:
                results.append(OpResult(c["name"], c["group"], dt, False,
                                        (c, repr(err), None, None), start))
            tick()
        return results

    @staticmethod
    def operations(results):
        return results

    def check(self, results):
        failures = []
        grid = lax.default_lambda_grid()
        lams = (grid[0], grid[len(grid) // 2])
        for r in results:
            c, xq, xp, verdicts = r.output
            if verdicts is None:
                failures.append(f"{r.name}: reduction failed: {xq}")
                continue
            pt, spec = c["pt"], c["spec"]
            for x, m in ((xq, pt.q), (xp, pt.p)):
                dev = ck.relative_matched_distance(np.linalg.eigvals(m), x.positions)
                if not dev < EIGVAL_TOL:
                    failures.append(f"{r.name}: {x.slice.value} positions miss the "
                                    f"eigenvalues by {dev:.2e}")
            for lam in lams:
                L = [lax.lax_pair(spec, pt, lam).L, lax.reduced_lax(spec, xq, lam).L,
                     lax.reduced_lax(spec, xp, lam).L]
                dev = max(ck.power_trace_deviation(L[0], L[1]),
                          ck.power_trace_deviation(L[0], L[2]))
                if not dev < DUALITY_TRACE_TOL:
                    failures.append(f"{r.name}: power traces differ by {dev:.2e} at {lam}")
        spec = autonomous_spec("P_II", DUALITY_TAU)
        a, b = self.control
        ok, _ = lax.spectral_match(spec, a, b)
        dev = min(ck.power_trace_deviation(lax.lax_pair(spec, a, lam).L,
                                           lax.lax_pair(spec, b, lam).L) for lam in lams)
        if ok or not dev > NEGATIVE_MIN_DEV:
            failures.append(f"negative control accepted (spectral_match {ok}, "
                            f"power traces {dev:.2e})")
        return failures

    def rates(self, results, scaled):
        count, seconds = {}, {}
        for r in results:
            count[r.group] = count.get(r.group, 0) + 1
            seconds[r.group] = seconds.get(r.group, 0.0) + scaled[r.name]
        return {f"points_per_s.{g}": count[g] / seconds[g] for g in count}

    def layer_metrics(self, results):
        return {}


WORKLOADS = {w.name: w for w in (SelfcheckWorkload, FlowWorkload, DualityWorkload)}
