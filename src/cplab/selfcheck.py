"""The acceptance criteria, each defined once: the checks behind `selfcheck`.

The 15 checks of ALL_CHECKS *are* the acceptance criteria: each one fixes
its sampler, its sizes and its gate, and records the operation it
exercises, the tolerance it asserts and the measured value.  The
acceptance suite (tests/test_acceptance.py) runs each check at its own
seed, and the `traces`, `mmkdv` and `confluence` subcommands return a
check's entry as their report.  The report is deterministic for a fixed
seed (no wall-clock content).
"""
from __future__ import annotations

import numpy as np

from . import confluence as cf
from . import mmkdv
from .dynamics import (dual_position_drift, equivariance_check, integrate,
                       monitor_invariants)
from .hamiltonians import (matrix_vector_field, p4_involution,
                           reduced_hamiltonian, reduced_hamiltonian_oracle)
from .lax import (char_poly, default_lambda_grid, spectral_match,
                  zero_curvature_residual)
from .phase import (MatrixPhasePoint, SystemKind, SystemSpec, TangentPair,
                    level_set_target, moment_map, symplectic_pairing)
from .reduction import ReducedPoint, Slice, embed, normalized_diagonalizer, \
    permuted_deviation, reduce
from .sampling import random_level_set_point, random_reduced, spec_for
from .traces import (CalogeroMatrixSpec, a4_quad_sum, a4_triple_sum,
                     evenness_check, tr_q3_closed, tr_q4_closed,
                     trace_power_oracle)

FOUR_KINDS = (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV, SystemKind.HARM_OSC)


def _check(name, operation, tolerance, measured, passed, **extra):
    entry = {"name": name, "operation": operation, "tolerance": tolerance,
             "measured": measured, "pass": bool(passed)}
    entry.update(extra)
    return entry


def check_level_set_embedding(rng, trials=100):
    worst = 0.0
    for n in range(1, 7):
        for g in (0.5, 1.0, 2.0):
            for _ in range(trials):
                x = random_reduced(rng, n, g)
                dev = float(np.abs(moment_map(embed(x))
                                   - level_set_target(n, g)).max())
                worst = max(worst, dev / g)
    return _check("level_set_embedding", "embed + moment_map", 1e-11, worst,
                  worst < 1e-11, grid="n in 1..6, g in {0.5,1,2}",
                  trials_per_cell=trials)


def check_round_trip(rng, trials=100):
    worst = 0.0
    for n in range(1, 7):
        for g in (0.5, 1.0, 2.0):
            for k in range(trials):
                sl = Slice.Q_DIAG if k % 2 == 0 else Slice.P_DIAG
                x = random_reduced(rng, n, g, sl)
                worst = max(worst, permuted_deviation(x, reduce(embed(x), sl, g)))
    return _check("round_trip", "reduce(embed(x))", 1e-10, worst, worst < 1e-10)


def check_hamiltonian_oracle(rng, trials=100):
    worst = {}
    kinds = FOUR_KINDS + (SystemKind.P_II_POLY,)
    for kind in kinds:
        spec = spec_for(kind)
        w = 0.0
        for sl in (Slice.Q_DIAG, Slice.P_DIAG):
            for k in range(trials):
                n = 1 + (k % 6)
                x = random_reduced(rng, n, 0.8, sl, t=0.4)
                a = reduced_hamiltonian(spec, x)
                b = reduced_hamiltonian_oracle(spec, x)
                w = max(w, abs(a - b) / max(1.0, abs(b)))
        worst[kind.value] = w
    measured = max(worst.values())
    return _check("hamiltonian_oracle_equivalence",
                  "reduced_hamiltonian vs Tr at embed", 1e-10, measured,
                  measured < 1e-10, per_kind=worst)


def _pair(z) -> list:
    """A complex number as the [re, im] pair of the JSON reports."""
    return [float(z.real), float(z.imag)]


def check_appendix_traces(rng, n_max=8, trials=50, max_l=12):
    worst = 0.0
    for n in range(1, n_max + 1):
        for _ in range(trials):
            spec = CalogeroMatrixSpec(rng.normal(size=n) + 1j * rng.normal(size=n),
                                      np.arange(n) * 1.4 + rng.uniform(-0.3, 0.3, n),
                                      float(rng.uniform(0.5, 2.0)))
            for l, closed in ((3, tr_q3_closed), (4, tr_q4_closed)):
                oracle = trace_power_oracle(spec, l)
                worst = max(worst, abs(closed(spec) - oracle) / max(1.0, abs(oracle)))
    worked = CalogeroMatrixSpec([1.0, 2.0], [1.0, 0.0], 1.0)
    worked3 = tr_q3_closed(worked)
    worked4 = tr_q4_closed(worked)
    evenness = {}
    for l in range(1, max_l + 1):
        spec3 = CalogeroMatrixSpec(rng.normal(size=3), [0.0, 1.3, 2.9], 1.0)
        evenness[l] = evenness_check(spec3, l, [0.5, 1.0, 2.0])
    even_ok = all(r["symmetry_deviation"] < 1e-11 and r["odd_over_even"] < 1e-9
                  for r in evenness.values())
    even_worst = max(max(r["symmetry_deviation"], r["odd_over_even"])
                     for r in evenness.values())
    ok = worst < 1e-10 and worked3 == 18 and worked4 == 47 and even_ok
    return _check("appendix_traces", "tr_q3/tr_q4 vs trace_power_oracle", 1e-10,
                  worst, ok,
                  worked_values={"l3": _pair(worked3), "l4": _pair(worked4)},
                  evenness_worst=even_worst, evenness=evenness)


def check_spectral_duality(rng):
    worst = {}
    grid = default_lambda_grid()
    for kind in FOUR_KINDS:
        spec = spec_for(kind, autonomous=True, tau=1.0)
        w = 0.0
        for n in (2, 3, 4):
            pt = random_level_set_point(rng, n, 1.0)
            xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-5)
            xp = reduce(pt, Slice.P_DIAG, 1.0, tol=1e-5)
            for other in (xq, xp):
                _, dev = spectral_match(spec, pt, other, grid)
                w = max(w, dev)
            _, dev = spectral_match(spec, xq, xp, grid)
            w = max(w, dev)
        worst[kind.value] = w
    spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
    a = random_reduced(rng, 3, 1.0)
    b = random_reduced(rng, 3, 1.0)
    _, neg = spectral_match(spec, a, b)
    measured = max(worst.values())
    return _check("spectral_duality", "spectral_match over 20-pt grid", 1e-8,
                  measured, measured < 1e-8 and neg > 1e-8, per_kind=worst,
                  negative_control=neg)


def check_zero_curvature(rng):
    detail = {}
    ok = True
    for kind in FOUR_KINDS:
        for autonomous in (False, True):
            spec = spec_for(kind, autonomous=autonomous,
                            tau=1.0 if autonomous else None)
            pt = MatrixPhasePoint(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                                  0.3)
            r1 = zero_curvature_residual(spec, pt, 0.9 + 0.2j, h=1e-2)
            r2 = zero_curvature_residual(spec, pt, 0.9 + 0.2j, h=5e-3)
            if r1 < 1e-12 and r2 < 1e-12:
                scaling_ok = True   # exactly compatible (linear flow), no h-term
                ratio = None
            else:
                ratio = r1 / r2
                scaling_ok = 12.0 <= ratio <= 20.0
            pert = TangentPair(1e-3 * np.eye(2), 1e-3 * np.eye(2))
            rp = zero_curvature_residual(spec, pt, 0.9 + 0.2j, h=1e-2, perturb=pert)
            entry_ok = scaling_ok and rp > 1e-4
            key = f"{kind.value}{'_aut' if autonomous else ''}"
            detail[key] = {"r_h": r1, "r_h2": r2, "ratio": ratio,
                           "perturbed": rp, "pass": entry_ok}
            ok = ok and entry_ok
    spec4 = spec_for(SystemKind.P_IV)
    pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.2)
    printed = zero_curvature_residual(spec4, pt, 1.1, h=1e-2, p4_variant="printed")
    corrected = zero_curvature_residual(spec4, pt, 1.1, h=1e-2)
    detail["P_IV_printed_pair_residual"] = printed
    detail["P_IV_corrected_pair_residual"] = corrected
    ok = ok and printed > 1e-2 and corrected < 1e-5
    return _check("zero_curvature", "zero_curvature_residual", "O(h^4)",
                  max(v["r_h"] for v in detail.values() if isinstance(v, dict)),
                  ok, detail=detail,
                  note=("P_IV published B-matrix fails compatibility; the "
                        "corrected pair (see CONVENTIONS.md) passes"))


def tame_flow_start(g: float = 0.3) -> ReducedPoint:
    """A level-set start whose autonomous P_I/P_II flows stay bounded on [0,1].

    Initial data is an artifact choice (none is published); generic large
    complex data runs into movable poles of the transcendents before t = 1.
    """
    pos = 0.6 * np.array([-1.0, 0.0, 1.0]) + 0.05j * np.array([1.0, -1.0, 0.5])
    mom = 0.2 * np.array([0.3, -0.2, 0.1]) + 0.2j * np.array([-0.1, 0.2, 0.1])
    return ReducedPoint(pos, mom, g, 0.0, Slice.Q_DIAG)


def check_isospectral_conservation(rng):
    worst = 0.0
    x0 = tame_flow_start()
    for kind in (SystemKind.P_I, SystemKind.P_II):
        spec = spec_for(kind, autonomous=True, tau=1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=x0.g)
        rep = monitor_invariants(spec, traj, [1.0, 2.0j], g=x0.g)
        worst = max(worst, max(rep["charpoly_drift"].values()))
    return _check("isospectral_conservation",
                  "monitor_invariants on autonomous matrix flows", 1e-6,
                  worst, worst < 1e-6)


def check_equivariance(rng):
    cases = {
        "Free_n3": (spec_for(SystemKind.FREE), 3, 1.0),
        "P_IV_n2": (spec_for(SystemKind.P_IV), 2, 0.3),
        "P_II_n2": (spec_for(SystemKind.P_II), 2, 0.3),
    }
    detail = {}
    for name, (spec, n, dt) in cases.items():
        # damped momenta keep the RK4 error of both flow legs below the bound
        x0 = random_reduced(rng, n, 1.0, mom_scale=0.5)
        detail[name] = equivariance_check(spec, x0, dt, 1e-3)
    worst = max(detail.values())
    return _check("equivariance", "flow/reduce commutation", 1e-6, worst,
                  worst < 1e-6, per_case=detail)


def check_ruijsenaars(rng):
    # gentle momenta: close Calogero encounters would need a finer step
    x0 = random_reduced(rng, 3, 1.0, spread=2.0, complex_positions=False,
                        mom_scale=0.5)
    traj = integrate(spec_for(SystemKind.FREE), x0, 0.0, 1.0, 1e-3)
    drift = dual_position_drift(traj)
    moved = float(np.abs(traj.final.positions - x0.positions).max())
    return _check("ruijsenaars_demo", "dual_position_drift on free flow", 1e-8,
                  drift, drift < 1e-8 and moved > 0.1, positions_moved=moved)


def check_p4_selfduality(rng):
    spec = spec_for(SystemKind.P_IV)
    worst = 0.0
    for n in range(1, 6):
        for _ in range(20):
            sl = Slice.P_DIAG if n % 2 else Slice.Q_DIAG
            x = random_reduced(rng, n, 1.0, sl, t=0.3)
            sx, th0s, th1s = p4_involution(x, spec.theta0, spec.theta1)
            h1 = reduced_hamiltonian(spec, x)
            h2 = reduced_hamiltonian(
                SystemSpec(SystemKind.P_IV, theta0=th0s, theta1=th1s, tau=None), sx)
            worst = max(worst, abs(h1 - h2) / max(1.0, abs(h1)))
    return _check("p4_selfduality", "p4_involution H-identity", 1e-10, worst,
                  worst < 1e-10,
                  derived_relabeling="theta0 -> theta0 + theta1, theta1 -> -theta1",
                  published_relabeling="theta0 -> theta1, theta1 -> theta0 - theta1")


def check_dual_p2_interaction_structure(rng, trials=100):
    """Index-class structure of the dual P_II interaction.

    The honest finding: the 4-index class of Tr(A^4) vanishes identically
    (the three cyclic chain orders of every 4-subset cancel; residue
    calculus shows the necklace sum is a pole-free rational function
    decaying at infinity).  The closed form therefore carries the pair and
    triple classes only: it *is* the quadruple-ablated Hamiltonian, and it
    agrees with the trace oracle, while ablating the 3-index class must
    break that agreement; both facts are measured here.  Acceptance
    criterion 11 as stated (the quadruple ablation breaks agreement on
    95/100 points) is recorded as measured, and is false.  See
    CONVENTIONS.md for the write-up.
    """
    spec = spec_for(SystemKind.P_II)
    quad_effect = 0.0
    quad_class_max = 0.0
    quad_broken = triple_broken = 0
    for _ in range(trials):
        x = random_reduced(rng, 4, 1.0, Slice.P_DIAG, t=0.2)
        oracle = reduced_hamiltonian_oracle(spec, x)
        scale = max(1.0, abs(oracle))
        closed = reduced_hamiltonian(spec, x)
        effect = abs(closed - oracle) / scale
        quad_effect = max(quad_effect, effect)
        if effect > 1e-6:
            quad_broken += 1
        quad_class_max = max(quad_class_max, abs(a4_quad_sum(x.positions)))
        triple_ablated = closed + (x.g ** 4 / 2) * a4_triple_sum(x.positions)
        if abs(triple_ablated - oracle) / scale > 1e-6:
            triple_broken += 1
    ok = quad_class_max < 1e-10 and quad_effect < 1e-10 and triple_broken >= 95
    return _check("dual_p2_interaction_structure",
                  "Tr(A^4) index classes vs trace oracle at n=4",
                  "quad class == 0; triple class required on 95/100",
                  quad_class_max, ok,
                  quadruple_ablation_effect=quad_effect,
                  quadruple_ablation_broken=quad_broken,
                  triple_ablation_broken=triple_broken, trials=trials,
                  acceptance_criterion_11_as_stated=quad_broken >= 95,
                  note=("the published 4-index interaction term is an "
                        "incomplete symmetrization; the full cyclic class "
                        "sums to zero identically, so the dual P_II system "
                        "has two- and three-body interactions only"))


def check_confluence(rng, eps=(0.1, 0.05, 0.025), theta=0.7 + 0.1j, n=2,
                     g=1.0):
    eps = list(eps)
    theta = complex(theta)
    pt = cf.sample_generic_point(rng, n)
    xq = cf.sample_generic_point(rng, n, g)
    xd = random_reduced(rng, n, g, Slice.P_DIAG, t=0.1)
    sweeps = {}
    for kind in ("conf", "conf1"):
        for label, point, reduced in (("matrix", pt, False), ("reduced", xq, True)):
            sweep = cf.residual_ratio_sweep(point, theta, eps, kind, reduced)
            sweeps[f"{kind}_{label}"] = {
                **sweep, "pass": all(3.5 <= r <= 4.5 for r in sweep["ratios"])}
    cp = cf.ConfluenceParams(eps[0], theta)
    b_full = cf.dual_confluence_breakdown(xd, cp)
    b_lin = cf.dual_confluence_breakdown(xd, cp, use_linear=True)
    if n > 1:
        full_ok = b_full["deviation"] > 1e-3
        tolerance = "ratio in [3.5, 4.5]; breakdown > 1e-3 (conf), < 1e-8 (conf1)"
    else:  # one particle: no interaction, so nothing obstructs either map
        full_ok = b_full["deviation"] < 1e-8
        tolerance = "ratio in [3.5, 4.5]; breakdown < 1e-8 (conf and conf1 at n = 1)"
    breakdown = {"conf": {**b_full, "pass": full_ok},
                 "conf1": {**b_lin, "pass": b_lin["deviation"] < 1e-8}}
    ok = all(v["pass"] for v in (*sweeps.values(), *breakdown.values()))
    return _check("confluence", "confluence_residual sweep + dual breakdown",
                  tolerance, sweeps["conf_matrix"]["ratios"], ok,
                  eps_sweep=eps, theta=_pair(theta),
                  sweeps=sweeps, breakdown=breakdown)


def check_mmkdv(rng):
    sw, calib_report = mmkdv.calibrate(seed=0)
    worst_tw = worst_ss = 0.0
    for _ in range(100):
        v, p = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = float(rng.normal())
        th = complex(rng.normal())
        worst_tw = max(worst_tw, mmkdv.tw_residual(v, p, z, th, sw))
        worst_ss = max(worst_ss, mmkdv.ss_residual(v, p, z, th, sw))
    samples = [(rng.normal(), rng.normal(), float(rng.normal()), rng.normal())
               for _ in range(100)]
    deform = mmkdv.deformation_check(sw, samples)
    d = np.diag(rng.normal(size=2)).astype(complex)
    e = np.diag(rng.normal(size=2)).astype(complex)
    commuting = mmkdv.tw_residual(d, e, 0.7, 0.2, sw)
    sens = mmkdv.switch_sensitivity(sw)
    ok = (worst_tw < 1e-12 and worst_ss < 1e-12
          and deform["max_deviation"] < 1e-10 and commuting < 1e-10
          and min(sens.values()) > 1e-3)
    return _check("mmkdv", "tw/ss residuals under calibrated convention",
                  1e-12, max(worst_tw, worst_ss), ok,
                  calibration=calib_report, deformation=deform,
                  commuting_matrix_residual=commuting,
                  switch_sensitivity=sens)


def check_core_invariants(rng):
    worst = 0.0
    # moment map trace / bilinearity; pairing antisymmetry
    for _ in range(20):
        n = int(rng.integers(1, 6))
        pt = MatrixPhasePoint(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                              rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        scale = max(1.0, float(np.abs(pt.q).max() * np.abs(pt.p).max()))
        worst = max(worst, abs(np.trace(moment_map(pt))) / scale)
        a = complex(rng.normal(), rng.normal())
        scaled = MatrixPhasePoint(a * pt.q, pt.p)
        worst = max(worst, float(np.abs(moment_map(scaled) - a * moment_map(pt)).max())
                    / max(1.0, abs(a) * scale))
        u = TangentPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        w = TangentPair(rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        worst = max(worst, abs(symplectic_pairing(u, w) + symplectic_pairing(w, u)))
    # level-set matrix spectrum: i*g with multiplicity n-1 (equivalently
    # target - i*g*1 is rank one); the target itself is full rank
    for n in range(2, 7):
        target = level_set_target(n, 1.0)
        eigs = np.sort_complex(np.linalg.eigvals(target))
        close = np.abs(eigs - 1j) < 1e-10
        if close.sum() != n - 1:
            worst = max(worst, 1.0)
        sv = np.linalg.svd(target - 1j * np.eye(n), compute_uv=False)
        if not (np.all(sv[1:] < 1e-12) and sv[0] > 1.0):
            worst = max(worst, 1.0)
    # diagonalizer row identity on level-set matrices
    for _ in range(5):
        pt = random_level_set_point(rng, 4, 1.0)
        diag = normalized_diagonalizer(pt.q)
        v = np.ones(4)
        worst = max(worst, float(np.abs(diag.C @ v - v).max()))
        worst = max(worst, diag.rank_one_residual)
    # moment-map conservation direction for every kind at a level-set point
    for kind in FOUR_KINDS + (SystemKind.FREE, SystemKind.P_II_POLY):
        spec = spec_for(kind)
        pt = random_level_set_point(rng, 3, 1.0, t=0.2)
        qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
        mu_dot = (pdot @ pt.q - pt.q @ pdot) + (pt.p @ qdot - qdot @ pt.p)
        worst = max(worst, float(np.abs(mu_dot).max()))
    return _check("core_invariants",
                  "pairing antisymmetry, mu bilinearity/trace, target rank, "
                  "vC=v consistency, d(mu)/dt = 0", 1e-8, worst, worst < 1e-8)


def check_charpoly_cross(rng):
    worst = 0.0
    for _ in range(10):
        L = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = char_poly(L, "eig")
        b = char_poly(L, "faddeev")
        scale = np.maximum(1.0, np.abs(b))
        worst = max(worst, float((np.abs(a - b) / scale).max()))
        G = np.eye(8) + 0.3 * rng.normal(size=(8, 8))
        c = char_poly(np.linalg.solve(G, L @ G), "eig")
        worst = max(worst, float((np.abs(a - c) / scale).max()))
    return _check("charpoly_cross_check",
                  "eig vs Faddeev-LeVerrier + conjugation invariance", 1e-8,
                  worst, worst < 1e-8)


# acceptance criteria 1-13, then 15 and 16 (14 is the determinism of this
# report, tested on run_selfcheck itself)
ALL_CHECKS = (
    check_level_set_embedding,
    check_round_trip,
    check_hamiltonian_oracle,
    check_appendix_traces,
    check_spectral_duality,
    check_zero_curvature,
    check_isospectral_conservation,
    check_equivariance,
    check_ruijsenaars,
    check_p4_selfduality,
    check_dual_p2_interaction_structure,
    check_confluence,
    check_mmkdv,
    check_core_invariants,
    check_charpoly_cross,
)


def run_selfcheck(seed: int = 0) -> dict:
    """Run the whole battery; the result is deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    checks = [fn(rng) for fn in ALL_CHECKS]
    return {
        "seed": int(seed),
        "rng": "numpy.random.default_rng(seed), PCG64",
        "initial_data": "seeded artifact choices (no published initial conditions)",
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": sum(1 for c in checks if c["pass"]),
            "failed": sum(1 for c in checks if not c["pass"]),
        },
    }
