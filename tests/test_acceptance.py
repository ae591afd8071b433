"""Acceptance gate: each criterion is a selfcheck entry, run at its own seed.

The sampler, sizes and gate of every criterion are defined once, in
cplab.selfcheck; this module only fixes the seed of each criterion and
asserts the entry's verdict.  Run `pytest -s tests/test_acceptance.py` to
see one pass/fail line per criterion.  Criterion 11 as stated is marked
xfail (strict): the 4-index class of the quartic trace vanishes
identically (see CONVENTIONS.md), so ablating it cannot break oracle
agreement; the criterion contradicts criterion 3 and cannot pass.  The
true structural statements (quadruple class zero, triple class essential)
are the gate of the criterion-11 entry itself.
"""
import json
import math
import time

import numpy as np
import pytest

import cplab.dynamics
import cplab.lax
from cplab import selfcheck as sc
from cplab.lax import power_traces


def report(criterion, passed, detail):
    print(f"\n[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'} - {detail}")


def criterion_test(criterion, check, seed, budget_s=None):
    """One acceptance test: the entry of `check` at `seed` passes its gate."""
    def test():
        t0 = time.perf_counter()
        entry = check(np.random.default_rng(seed))
        elapsed = time.perf_counter() - t0
        report(criterion, entry["pass"], f"{entry['name']} (seed {seed}): "
                                         f"{entry['operation']}, measured "
                                         f"{entry['measured']} (tol {entry['tolerance']})")
        assert entry["pass"]
        if budget_s is not None:
            assert elapsed < budget_s, f"{elapsed:.2f}s over the {budget_s}s budget"
    return test


# criterion, registry entry, seed
test_criterion_01_level_set_embedding = criterion_test(
    1, sc.check_level_set_embedding, 1, budget_s=5.0)
test_criterion_02_round_trip = criterion_test(2, sc.check_round_trip, 2)
test_criterion_03_hamiltonian_oracle_equivalence = criterion_test(
    3, sc.check_hamiltonian_oracle, 3)
test_criterion_04_appendix_formulas = criterion_test(4, sc.check_appendix_traces, 4)
test_criterion_05_spectral_duality = criterion_test(5, sc.check_spectral_duality, 5)
test_criterion_06_zero_curvature = criterion_test(6, sc.check_zero_curvature, 6)
test_criterion_07_isospectral_conservation = criterion_test(
    7, sc.check_isospectral_conservation, 7)
test_criterion_08_equivariance = criterion_test(8, sc.check_equivariance, 8)
test_criterion_09_ruijsenaars_demo = criterion_test(9, sc.check_ruijsenaars, 9)
test_criterion_10_p4_selfduality = criterion_test(10, sc.check_p4_selfduality, 10)
test_criterion_11_replacement_interaction_structure = criterion_test(
    11, sc.check_dual_p2_interaction_structure, 11)
test_criterion_12_confluence = criterion_test(12, sc.check_confluence, 12)
test_criterion_13_mmkdv = criterion_test(13, sc.check_mmkdv, 13)
test_criterion_15_core_invariants = criterion_test(15, sc.check_core_invariants, 15)
test_criterion_16_charpoly_cross_check = criterion_test(
    16, sc.check_charpoly_cross, 16)


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: the 4-index class of Tr(A^4) is identically "
    "zero (the three cyclic chain orders of every 4-subset cancel), so "
    "ablating it never moves the dual P_II closed form away from the "
    "oracle; the criterion contradicts criterion 3 (see CONVENTIONS.md)"))
def test_criterion_11_quadruple_interaction_as_stated():
    entry = sc.check_dual_p2_interaction_structure(np.random.default_rng(11))
    report(11, entry["acceptance_criterion_11_as_stated"],
           f"as stated: 4-index ablation broke agreement on "
           f"{entry['quadruple_ablation_broken']}/{entry['trials']} points "
           f"(needs >= 95) - vacuous, class is 0")
    assert entry["acceptance_criterion_11_as_stated"]


def seed_sweep(checks, seeds=range(100)):
    """(failed (check, seed) pairs, CPU seconds of this process) over the seeds.

    The budget is CPU time of this process, so the load of the machine does
    not move it.
    """
    t0 = time.process_time()
    failed = [(check.__name__, s) for check in checks for s in seeds
              if not check(np.random.default_rng(s))["pass"]]
    return failed, time.process_time() - t0


def test_identity_gates_hold_on_seeds_0_to_99():
    # criteria 6 and 12 measure exact identities at roundoff, so their
    # verdicts do not move with the sampled point
    failed, elapsed = seed_sweep((sc.check_zero_curvature, sc.check_confluence))
    assert not failed
    assert elapsed < 3.0, f"{elapsed:.2f}s of CPU time over the 3s budget"


def test_equivariance_gate_holds_on_seeds_0_to_99():
    # criterion 8 measures the flow/reduce commutation at roundoff too
    failed, elapsed = seed_sweep((sc.check_equivariance,))
    assert not failed
    assert elapsed < 4.0, f"{elapsed:.2f}s of CPU time over the 4s budget"


def test_ruijsenaars_gate_holds_on_seeds_0_to_99():
    # criterion 9 reads the exact free flow and a 100-step RK4 leg at roundoff;
    # the budget also guards its cost, which a 1000-step flow would exceed
    failed, elapsed = seed_sweep((sc.check_ruijsenaars,))
    assert not failed
    assert elapsed < 4.0, f"{elapsed:.2f}s of CPU time over the 4s budget"


@pytest.mark.parametrize("readings, conditions, passed", [
    (0.5, (), True),
    (0.5, (True, True), True),
    (1.0, (), False),  # equality fails: the rule is strict
    (float("nan"), (), False),
    (0.5, (True, False), False),
    ([0.5, float("nan"), 0.25], (), False),  # a NaN reading is the worst one
    ([0.5, 0.25], (), True),
])
def test_one_verdict_rule(readings, conditions, passed):
    entry = sc._check("name", "operation", 1.0, readings, *conditions, extra=7)
    assert entry["pass"] is passed
    assert (entry["tolerance"], entry["extra"]) == (1.0, 7)


# criterion, check, module and name of a function it reads, the call that
# returns NaN (a later call where there is one: a running builtin max keeps
# a NaN that comes first, and drops one that comes later)
FAULTS = [
    ("01", sc.check_level_set_embedding, sc, "moment_deviation", 2),
    ("02", sc.check_round_trip, sc, "matched_deviation", 2),
    ("03", sc.check_hamiltonian_oracle, sc, "embedded_trace_hamiltonian", 2),
    ("04", sc.check_appendix_traces, sc, "trace_power_oracle", 2),
    ("05", sc.check_spectral_duality, sc, "spectral_duality", 2),
    ("06", sc.check_zero_curvature, sc, "zero_curvature_residual", 2),
    ("07", sc.check_isospectral_conservation, sc, "monitor_invariants", 2),
    ("08", sc.check_equivariance, sc, "equivariance_check", 2),
    ("08_control", sc.check_equivariance, sc, "field_deviation", 2),
    ("09", sc.check_ruijsenaars, sc, "dual_position_drift", 1),
    ("09_leg", sc.check_ruijsenaars, sc, "matched_deviation", 1),
    ("10", sc.check_p4_selfduality, sc, "closed_form_hamiltonian", 2),
    ("11", sc.check_dual_p2_interaction_structure, sc, "a4_quad_sum", 1),
    ("12", sc.check_confluence, sc.cf, "identity_defect", 2),
    ("12_breakdown", sc.check_confluence, sc.cf, "permuted_deviation", 2),
    # calibrate makes the first 48 calls of tw_residual
    ("13", sc.check_mmkdv, sc.mmkdv, "tw_residual", 50),
    ("13_deformation", sc.check_mmkdv, sc.mmkdv, "deformation_check", 1),
    ("13_sensitivity", sc.check_mmkdv, sc.mmkdv, "switch_sensitivity", 1),
    ("15", sc.check_core_invariants, sc, "symplectic_pairing", 2),
    ("16", sc.check_charpoly_cross, sc, "newton_charpoly", 1),
]


@pytest.mark.parametrize("case, check, module, name, call", FAULTS,
                         ids=[f[0] for f in FAULTS])
def test_a_nan_reading_fails_its_criterion(nan_on_call, case, check, module, name, call):
    calls = nan_on_call(module, name, call)
    entry = check(np.random.default_rng(int(case[:2])))
    assert len(calls) >= call
    assert entry["pass"] is False


def _odd_read_as_even(A):
    """Tr A^(k+1) in place of each odd Tr A^k, k >= 3."""
    powers = [1] + [k + k % 2 for k in range(2, A.shape[-1] + 1)]
    return np.stack([np.trace(np.linalg.matrix_power(A, k), axis1=-2, axis2=-1)
                     for k in powers], axis=-1)


def _with_zero(index):
    def mutant(A):
        traces = power_traces(A)
        traces[..., index] = 0
        return traces
    return mutant


# faults of the power-trace kernel that spectral_match and the monitor read
KERNEL_MUTANTS = {
    "odd_read_as_even": _odd_read_as_even,
    "first_trace_zero": _with_zero(0),
    "last_trace_zero": _with_zero(-1),
}


@pytest.mark.parametrize("mutant", [None, *KERNEL_MUTANTS], ids=str)
def test_criterion_16_sees_the_power_trace_kernel(monkeypatch, mutant):
    if mutant is not None:
        monkeypatch.setattr(cplab.lax, "power_traces", KERNEL_MUTANTS[mutant])
    entry = sc.check_charpoly_cross(np.random.default_rng(16))
    assert entry["pass"] is (mutant is None)


def _rk4_step_wrong_final_weight(field, y, t, h, k1):
    """hamiltonians.rk4_step with h/5 in place of h/6 on k4."""
    half = h / 2
    k2 = field(y + half * k1, t + half)
    k3 = field(y + half * k2, t + half)
    k4 = field(y + h * k3, t + h)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3) + (h / 5) * k4


@pytest.mark.parametrize("mutant", [None, "wrong_final_weight"], ids=str)
def test_criterion_09_sees_the_reduced_integrator(monkeypatch, mutant):
    # the 100-step leg is the battery's RK4 run of a reduced flow
    if mutant is not None:
        monkeypatch.setattr(cplab.dynamics, "rk4_step", _rk4_step_wrong_final_weight)
    entry = sc.check_ruijsenaars(np.random.default_rng(9))
    assert entry["pass"] is (mutant is None)


@pytest.mark.parametrize("key", ["energy_drift", "moment_deviation_max"])
def test_criterion_07_gates_the_monitor_drifts(monkeypatch, key):
    real = sc.monitor_invariants
    monkeypatch.setattr(sc, "monitor_invariants",
                        lambda spec, traj: {**real(spec, traj), key: 1e-5})
    assert sc.check_isospectral_conservation(np.random.default_rng(7))["pass"] is False


@pytest.mark.parametrize("gap", [float("nan"), 0.0])
def test_criterion_13_gates_its_deformation_control(monkeypatch, gap):
    real = sc.mmkdv.deformation_check
    monkeypatch.setattr(sc.mmkdv, "deformation_check",
                        lambda sw, samples: {**real(sw, samples), "max_unidentified_gap": gap})
    assert sc.check_mmkdv(np.random.default_rng(13))["pass"] is False


@pytest.fixture(scope="module")
def reports():
    """The run_selfcheck reports of seeds 0..2, computed once for this module."""
    return [sc.run_selfcheck(seed) for seed in range(3)]


def test_every_tolerance_is_a_finite_number(reports):
    for report in reports:
        for entry in report["checks"]:
            tol = entry["tolerance"]
            assert isinstance(tol, float) and math.isfinite(tol), entry["name"]


CONSTANT_READINGS = {
    sc.check_round_trip: "ROADMAP item 2: the embedded stack is already diagonal "
                         "in the matrix it reduces, so it reads 0.0 on every seed",
    sc.check_isospectral_conservation: "ROADMAP item 6: it integrates the fixed "
                                       "tame_flow_start and draws nothing",
}


@pytest.mark.parametrize("index", [
    pytest.param(i, id=check.__name__, marks=[pytest.mark.xfail(
        strict=True, reason=CONSTANT_READINGS[check])] if check in CONSTANT_READINGS else [])
    for i, check in enumerate(sc.ALL_CHECKS)])
def test_every_criterion_reads_distinct_values(reports, index):
    measured = {report["checks"][index]["measured"] for report in reports}
    assert len(measured) >= 2


def test_criterion_14_determinism():
    t0 = time.perf_counter()
    a = json.dumps(sc.run_selfcheck(42), sort_keys=True)
    b = json.dumps(sc.run_selfcheck(42), sort_keys=True)
    elapsed = time.perf_counter() - t0
    ok = a == b and elapsed < 300.0
    report(14, ok, f"selfcheck reports byte-identical: {a == b}; "
                   f"two runs took {elapsed:.1f}s (budget 300s)")
    assert ok
