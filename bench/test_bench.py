"""Each correctness check of the benchmark rejects a corrupted program output.

    python3 -m pytest -q bench/test_bench.py

The workloads are shrunk (fewer steps, fewer sizes) so the file runs in
seconds; the checks themselves are the ones the benchmark runs.
"""
import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from cplab import lax  # noqa: E402
from cplab.phase import MatrixPhasePoint  # noqa: E402
from cplab.reduction import ReducedPoint  # noqa: E402


def replace_result(results, name, **changes):
    return [dataclasses.replace(r, **changes) if r.name == name else r for r in results]


# ---------------------------------------------------------------------------
# checks.py
# ---------------------------------------------------------------------------

def test_matched_distance_is_permutation_free_and_sees_duplicates():
    a = np.array([1.0, 2.0, 3.0])
    assert ck.matched_distance(a, a[::-1]) == 0.0
    assert ck.matched_distance([1.0, 2.0, 2.0], [1.0, 1.0, 2.0]) == pytest.approx(1.0)


def test_power_traces_accept_conjugates_and_reject_swapped_blocks():
    rng = np.random.default_rng(3)
    pt = wl.generic_level_set_point(rng, 4, 1.0)
    L = lax.lax_pair(wl.autonomous_spec("P_II", 1.0), pt, 0.8 + 0.3j).L
    G = np.eye(8) + 0.2 * rng.normal(size=(8, 8))
    assert ck.power_trace_deviation(L, np.linalg.solve(G, L @ G)) < 1e-12
    swapped = L.copy()
    swapped[:4, 4:], swapped[4:, :4] = L[4:, :4], L[:4, 4:]
    # the swap only nearly negates the P_II spectrum: the check still sees it
    assert ck.power_trace_deviation(L, swapped) > 1000 * wl.DUALITY_TRACE_TOL


def test_stabilizer_conjugation_stays_on_the_level_set():
    rng = np.random.default_rng(5)
    x = np.arange(6) * 1.5 + 0.1j
    q, p = ck.calogero_pair(x, rng.normal(size=6), 0.7, True)
    G, Gi = ck.stabilizer_conjugator(rng, 6, 0.4)
    assert ck.level_set_deviation(q, p, 0.7) < 1e-13
    assert ck.level_set_deviation(Gi @ q @ G, Gi @ p @ G, 0.7) < 1e-10
    assert ck.level_set_deviation(q, p, 0.8) > 1e-2


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def flow_pass():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "FLOW_STEPS", {3: (0.0025, 40)})
        w = wl.FlowWorkload(7)
        return w, w.run_pass(lambda: None)


def with_final(results, name, final):
    r = next(r for r in results if r.name == name)
    case, traj = r.output
    traj = dataclasses.replace(traj, states=traj.states[:-1] + [final])
    return replace_result(results, name, output=(case, traj))


def final_of(results, name):
    return next(r for r in results if r.name == name).output[1].final


def test_flow_clean_pass_is_accepted(flow_pass):
    w, results = flow_pass
    assert all(r.ok for r in results)
    assert w.check(results) == []


def test_flow_rejects_perturbed_momentum(flow_pass):
    w, results = flow_pass
    x = final_of(results, "P_I.q.n3")
    bad = dataclasses.replace(x, momenta=x.momenta + np.array([1e-3, 0, 0]))
    failures = w.check(with_final(results, "P_I.q.n3", bad))
    assert any("energy drift" in f for f in failures)
    assert any("power traces" in f for f in failures)


def test_flow_rejects_wrong_coupling(flow_pass):
    w, results = flow_pass
    x = final_of(results, "P_II.p.n3")
    failures = w.check(with_final(results, "P_II.p.n3", dataclasses.replace(x, g=1.05 * x.g)))
    assert any(f.startswith("P_II.p.n3: energy drift") for f in failures)


def test_flow_rejects_moment_map_violation(flow_pass):
    w, results = flow_pass
    s = final_of(results, "P_II.matrix.n3")
    bad = MatrixPhasePoint(s.q, s.p + 1e-6 * np.eye(3)[::-1], s.t)
    assert any("level set" in f for f in w.check(with_final(results, "P_II.matrix.n3", bad)))


def test_flow_rejects_reduce_flow_mismatch(flow_pass):
    w, results = flow_pass
    x = final_of(results, "P_I.q.n3")
    bad = dataclasses.replace(x, positions=x.positions + np.array([0, 1e-4, 0]))
    assert any("flow-then-reduce" in f for f in w.check(with_final(results, "P_I.q.n3", bad)))


def test_flow_rejects_a_state_that_did_not_move(flow_pass):
    w, results = flow_pass
    start = next(r for r in results if r.name == "Free.q.n3").output[1].states[0]
    assert any("did not move" in f for f in w.check(with_final(results, "Free.q.n3", start)))


def test_flow_rejects_drifting_free_actions(flow_pass):
    w, results = flow_pass
    x = final_of(results, "Free.q.n3")
    bad = ReducedPoint(x.positions, x.momenta * (1 + 1e-6), x.g, x.t, x.slice)
    assert any("eigenvalues of p" in f for f in w.check(with_final(results, "Free.q.n3", bad)))


def test_flow_counts_a_failed_integration(flow_pass):
    w, results = flow_pass
    r = results[0]
    broken = replace_result(results, r.name, ok=False, output=(r.output[0], "Overflow()"))
    assert any("integration failed" in f for f in w.check(broken))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def duality_pass():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "DUALITY_NS", (2, 4))
        mp.setattr(wl, "DUALITY_POINTS", 1)
        w = wl.DualityWorkload(11)
        return w, w.run_pass(lambda: None)


def with_reduced(results, name, which, x):
    r = next(r for r in results if r.name == name)
    c, xq, xp, verdicts = r.output
    out = (c, x, xp, verdicts) if which == "q" else (c, xq, x, verdicts)
    return replace_result(results, name, output=out)


def reduced_of(results, name, which):
    return next(r for r in results if r.name == name).output[1 if which == "q" else 2]


def test_duality_clean_pass_is_accepted(duality_pass):
    w, results = duality_pass
    assert all(r.ok for r in results)
    assert w.check(results) == []


@pytest.mark.parametrize("which", ["q", "p"])
def test_duality_rejects_perturbed_momentum(duality_pass, which):
    w, results = duality_pass
    x = reduced_of(results, "P_II.n4.0", which)
    bad = dataclasses.replace(x, momenta=x.momenta + np.array([0, 1e-5, 0, 0]))
    failures = w.check(with_reduced(results, "P_II.n4.0", which, bad))
    assert any(f.startswith("P_II.n4.0: power traces") for f in failures)


def test_duality_rejects_wrong_coupling(duality_pass):
    w, results = duality_pass
    x = reduced_of(results, "P_IV.n4.0", "p")
    failures = w.check(with_reduced(results, "P_IV.n4.0", "p", dataclasses.replace(x, g=1.1)))
    assert any(f.startswith("P_IV.n4.0: power traces") for f in failures)


def test_duality_rejects_moved_positions(duality_pass):
    w, results = duality_pass
    x = reduced_of(results, "HarmOsc.n2.0", "q")
    bad = dataclasses.replace(x, positions=x.positions + 1e-6)
    failures = w.check(with_reduced(results, "HarmOsc.n2.0", "q", bad))
    assert any("miss the eigenvalues" in f for f in failures)


def test_duality_negative_control_must_be_rejected(duality_pass):
    w, results = duality_pass
    a = w.control[0]
    same = copy.copy(w)
    same.control = [a, MatrixPhasePoint(a.q, a.p, a.t)]
    assert any("negative control" in f for f in same.check(results))


def test_duality_failed_verdicts_are_operations_not_check_failures():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "DUALITY_NS", (12,))
        mp.setattr(wl, "DUALITY_KINDS", ("P_II",))
        mp.setattr(wl, "DUALITY_POINTS", 1)
        w = wl.DualityWorkload(0)
        results = w.run_pass(lambda: None)
    assert [r.ok for r in results] == [False]
    assert w.check(results) == []


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def selfcheck_pass():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl, "SELFCHECK_SEEDS_PER_PASS", 1)
        w = wl.SelfcheckWorkload(0)
        return w, w.run_pass(lambda: None)


def test_selfcheck_pass_counts_thirteen_checks(selfcheck_pass):
    w, results = selfcheck_pass
    fresh = wl.SelfcheckWorkload(0)
    assert len(w.operations(results)) == len(wl.SELFCHECK_CHECKS) - len(wl.SELFCHECK_UNCOUNTED)
    assert fresh.check(results) == []
    assert fresh.check(results) == []


def test_selfcheck_rejects_a_changed_report(selfcheck_pass):
    _, results = selfcheck_pass
    fresh = wl.SelfcheckWorkload(0)
    fresh.check(results)
    r = next(r for r in results if r.group == "report")
    changed = replace_result(results, r.name, output=dict(r.output, seed=99))
    assert any("differs" in f for f in fresh.check(changed))


def test_selfcheck_rejects_a_failed_check(selfcheck_pass):
    _, results = selfcheck_pass
    op = wl.SelfcheckWorkload.operations(results)[0]
    assert any("failed its gate" in f for f in wl.SelfcheckWorkload(0).check(
        replace_result(results, op.name, ok=False)))


def test_headroom_of_numeric_gates_only():
    assert wl.headroom(1e-8, 1e-12) == pytest.approx(4.0)
    assert wl.headroom("O(h^4)", 1e-3) is None
    assert wl.headroom(1e-8, 0.0) == pytest.approx(np.log10(1e-8 / np.finfo(float).eps))
