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

from cplab import selfcheck as sc


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


@pytest.mark.parametrize("measured, conditions, passed", [
    (0.5, (), True),
    (0.5, (True, True), True),
    (1.0, (), False),  # equality fails: the rule is strict
    (float("nan"), (), False),
    (0.5, (True, False), False),
])
def test_one_verdict_rule(measured, conditions, passed):
    entry = sc._check("name", "operation", 1.0, measured, *conditions, extra=7)
    assert entry["pass"] is passed
    assert (entry["tolerance"], entry["extra"]) == (1.0, 7)


def test_every_tolerance_is_a_finite_number():
    for seed in range(3):
        for entry in sc.run_selfcheck(seed)["checks"]:
            tol = entry["tolerance"]
            assert isinstance(tol, float) and math.isfinite(tol), entry["name"]


def test_criterion_14_determinism():
    t0 = time.perf_counter()
    a = json.dumps(sc.run_selfcheck(42), sort_keys=True)
    b = json.dumps(sc.run_selfcheck(42), sort_keys=True)
    elapsed = time.perf_counter() - t0
    ok = a == b and elapsed < 300.0
    report(14, ok, f"selfcheck reports byte-identical: {a == b}; "
                   f"two runs took {elapsed:.1f}s (budget 300s)")
    assert ok
