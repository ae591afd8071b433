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
from .dynamics import (CONTOUR_NODES, dual_position_drift, equivariance_check,
                       field_deviation, free_projection, integrate, monitor_invariants)
from .hamiltonians import (closed_form_hamiltonian, embedded_trace_hamiltonian,
                           matrix_vector_field, p4_involution_coordinates,
                           reduced_vector_field)
from .lax import (SPECTRAL_TOL, char_poly, newton_charpoly, spectral_duality,
                  spectral_match, zero_curvature_residual)
from .phase import (MatrixPhasePoint, SystemKind, SystemSpec, coupling_value,
                    level_set_target, moment_deviation, moment_map, relative_deviation,
                    symplectic_pairing)
from .reduction import (ReducedPoint, Slice, dual_of, embed, embedded_matrices,
                        inverse_square_kernel, match_permutation, matched_deviation,
                        normalized_diagonalizer, particle_guard, reduced_coordinates)
from .sampling import (random_level_set_point, random_particle_stacks, random_particles,
                       random_reduced, spec_for)
from .traces import (a4_quad_sum, a4_triple_sum, evenness_check, tr_c3, tr_c4,
                     tr_q3_closed, tr_q4_closed, trace_power_oracle)

FOUR_KINDS = (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV, SystemKind.HARM_OSC)
TRIALS = 100  # random points per grid cell or kind of the sampled criteria


def _worst(readings) -> float:
    """The largest reading; a NaN reading is the worst, so it fails every gate."""
    return float(np.max(readings))


def _check(name, operation, tolerance, readings, *conditions, **extra):
    """A report entry that passes when its worst reading < tolerance and every condition holds.

    readings is one value or a list of them; the conditions are a criterion's
    controls, worked values and structural facts.
    """
    measured = _worst(readings)
    entry = {"name": name, "operation": operation, "tolerance": tolerance,
             "measured": measured, "pass": bool(measured < tolerance and all(conditions))}
    entry.update(extra)
    return entry


def check_level_set_embedding(rng):
    readings = []
    for n in range(1, 7):
        for g in (0.5, 1.0, 2.0):
            q, p = embedded_matrices(*random_particles(rng, TRIALS, n), g, Slice.Q_DIAG)
            readings.append(float(moment_deviation(q, p, g).max()) / g)
    return _check("level_set_embedding", "embed + moment_map", 1e-11, readings,
                  grid="n in 1..6, g in {0.5,1,2}", trials_per_cell=TRIALS)


def check_round_trip(rng):
    readings = []
    for n in range(1, 7):
        for g in (0.5, 1.0, 2.0):
            pos, mom = random_particles(rng, TRIALS, n)
            # even trials reduce at Q_DIAG, odd ones at P_DIAG
            for first, sl in ((0, Slice.Q_DIAG), (1, Slice.P_DIAG)):
                a, b = pos[first::2], mom[first::2]
                back = reduced_coordinates(*embedded_matrices(a, b, g, sl), g, sl)
                readings.append(float(matched_deviation(a, b, *back).max()))
    return _check("round_trip", "reduce(embed(x))", 1e-10, readings)


def check_hamiltonian_oracle(rng):
    per_kind = {}
    kinds = FOUR_KINDS + (SystemKind.P_II_POLY,)
    g = 0.8
    for kind in kinds:
        spec = spec_for(kind)
        readings = []
        for sl in (Slice.Q_DIAG, Slice.P_DIAG):
            # trial k has 1 + k % 6 particles; each size is one stack
            sizes = [1 + k % 6 for k in range(TRIALS)]
            for pos, mom in random_particle_stacks(rng, sizes).values():
                a = closed_form_hamiltonian(spec, pos, mom, g, 0.4, sl)
                b = embedded_trace_hamiltonian(spec, pos, mom, g, 0.4, sl)
                readings.append(_worst(relative_deviation(a, b)))
        per_kind[kind.value] = _worst(readings)
    return _check("hamiltonian_oracle_equivalence",
                  "reduced_hamiltonian vs Tr at embed", 1e-10, list(per_kind.values()),
                  per_kind=per_kind)


def _pair(z) -> list:
    """A complex number as the [re, im] pair of the JSON reports."""
    return [float(z.real), float(z.imag)]


def appendix_trace_points(rng, n: int, rows: int):
    """(positions, momenta, g) of `rows` random records of n particles, each a stack.

    Each trial draws, in this order, the real and imaginary momentum
    normals, the position jitter and the coupling, and the rows pass the
    checks of a ReducedPoint: finite coordinates, no collision, and a
    finite positive g.
    """
    pos = np.empty((rows, n), dtype=complex)
    mom = np.empty((rows, n), dtype=complex)
    g = np.empty(rows)
    for k in range(rows):
        mom[k] = rng.normal(size=n) + 1j * rng.normal(size=n)
        pos[k] = np.arange(n) * 1.4 + rng.uniform(-0.3, 0.3, n)
        g[k] = coupling_value(rng.uniform(0.5, 2.0))
    particle_guard(pos, mom)
    return pos, mom, g


def check_appendix_traces(rng):
    readings = []
    for n in range(1, 9):
        pos, mom, g = appendix_trace_points(rng, n, 50)
        W = inverse_square_kernel(pos)
        for l, closed in ((3, tr_c3), (4, tr_c4)):
            readings.append(_worst(relative_deviation(closed(mom, W, g),
                                                      trace_power_oracle(pos, mom, g, l))))
    worked = ReducedPoint([1.0, 0.0], [1.0, 2.0], 1.0)
    worked3 = tr_q3_closed(worked)
    worked4 = tr_q4_closed(worked)
    evenness = {}
    for l in range(1, 13):
        x3 = ReducedPoint([0.0, 1.3, 2.9], rng.normal(size=3), 1.0)
        evenness[l] = evenness_check(x3, l, [0.5, 1.0, 2.0])
    even_ok = all(r["symmetry_deviation"] < 1e-11 and r["odd_over_even"] < 1e-9
                  for r in evenness.values())
    even_worst = _worst([[r["symmetry_deviation"], r["odd_over_even"]]
                         for r in evenness.values()])
    return _check("appendix_traces", "tr_q3/tr_q4 vs trace_power_oracle", 1e-10,
                  readings, worked3 == 18, worked4 == 47, even_ok,
                  worked_values={"l3": _pair(worked3), "l4": _pair(worked4)},
                  evenness_worst=even_worst, evenness=evenness)


def check_spectral_duality(rng):
    per_kind = {}
    for kind in FOUR_KINDS:
        spec = spec_for(kind, tau=1.0)
        per_kind[kind.value] = _worst(
            [list(spectral_duality(spec, random_level_set_point(rng, n, 1.0), 1.0).values())
             for n in (2, 3, 4, 8)])
    spec = spec_for(SystemKind.P_II, tau=1.0)
    a = random_reduced(rng, 3, 1.0)
    b = random_reduced(rng, 3, 1.0)
    _, neg = spectral_match(spec, a, b)
    return _check("spectral_duality",
                  "spectral_match (power traces of L / s, k = 1..2n) over 20-pt grid",
                  SPECTRAL_TOL, list(per_kind.values()), neg > SPECTRAL_TOL,
                  per_kind=per_kind, negative_control=neg)


def check_zero_curvature(rng):
    tol = 1e-12
    detail = {}
    pert = (1e-3 * np.eye(2), 1e-3 * np.eye(2))
    for kind in FOUR_KINDS:
        for tau in (None, 1.0):
            spec = spec_for(kind, tau)
            pt = MatrixPhasePoint(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                                  rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                                  0.3)
            r = zero_curvature_residual(spec, pt, 0.9 + 0.2j)
            rp = zero_curvature_residual(spec, pt, 0.9 + 0.2j, perturb=pert)
            detail[f"{kind.value}{'_aut' if spec.autonomous else ''}"] = {
                "residual": r, "perturbed": rp, "pass": r < tol and rp >= 1e-6}
    spec4 = spec_for(SystemKind.P_IV)
    pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.2)
    printed = zero_curvature_residual(spec4, pt, 1.1, p4_variant="printed")
    corrected = zero_curvature_residual(spec4, pt, 1.1)
    detail["P_IV_pairs"] = {"residual": corrected, "printed": printed,
                            "pass": corrected < tol and printed >= 1e-6}
    return _check("zero_curvature", "zero_curvature_residual (exact stencil)",
                  tol, [v["residual"] for v in detail.values()],
                  all(v["pass"] for v in detail.values()), detail=detail,
                  note="perturbed flows and the printed P_IV pair must stay >= 1e-6")


def tame_flow_start() -> ReducedPoint:
    """A level-set start whose autonomous P_I/P_II flows stay bounded on [0,1].

    Initial data is an artifact choice (none is published); generic large
    complex data runs into movable poles of the transcendents before t = 1.
    """
    pos = 0.6 * np.array([-1.0, 0.0, 1.0]) + 0.05j * np.array([1.0, -1.0, 0.5])
    mom = 0.2 * np.array([0.3, -0.2, 0.1]) + 0.2j * np.array([-0.1, 0.2, 0.1])
    return ReducedPoint(pos, mom, 0.3, 0.0, Slice.Q_DIAG)


def check_isospectral_conservation(rng):
    readings = []
    x0 = tame_flow_start()
    for kind in (SystemKind.P_I, SystemKind.P_II):
        spec = spec_for(kind, tau=1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=x0.g)
        monitored = monitor_invariants(spec, traj)
        readings += monitored["power_trace_drift"].values()
        readings += [monitored["energy_drift"], monitored["moment_deviation_max"]]
    return _check("isospectral_conservation",
                  "monitor_invariants on autonomous matrix flows", 1e-6, readings)


def equivariance_control(spec, x: ReducedPoint) -> tuple:
    """A reduced field that contour_pushforward at x must not reproduce.

    The field at coupling 1.05 g; on the Free p-slice, whose Hamiltonian
    sum I_i^2 / 2 does not depend on g, the field with the slice roles
    swapped (the Q_DIAG convention at the p-slice coordinates).
    """
    if spec.kind is SystemKind.FREE and x.slice is Slice.P_DIAG:
        return reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, Slice.Q_DIAG)
    return reduced_vector_field(spec, x.positions, x.momenta, 1.05 * x.g, x.t, x.slice)


def check_equivariance(rng):
    cases = {
        "Free_n3": (spec_for(SystemKind.FREE), 3),
        "P_IV_n2": (spec_for(SystemKind.P_IV), 2),
        "P_II_n2": (spec_for(SystemKind.P_II), 2),
    }
    detail, control = {}, {}
    for name, (spec, n) in cases.items():
        # the draws of the earlier finite-time check, damped momenta included,
        # so that the rng stream of the later criteria does not move
        x0 = random_reduced(rng, n, 1.0, mom_scale=0.5)
        for x in (x0, dual_of(x0)):
            key = f"{name}_{x.slice.value}"
            detail[key], readings = equivariance_check(spec, x)
            control[key] = field_deviation(readings, equivariance_control(spec, x))
    return _check("equivariance", "contour pushforward of the matrix field vs "
                  "reduced field", 1e-11, list(detail.values()),
                  all(c > 1e-6 for c in control.values()), per_case=detail,
                  control=control, nodes=list(CONTOUR_NODES),
                  note="each control (coupling 1.05 g; slice roles swapped on "
                       "the Free p-slice) must exceed 1e-6")


def check_ruijsenaars(rng):
    # gentle momenta and wide gaps: RK4 truncation on the leg stays below roundoff
    x0 = random_reduced(rng, 3, 1.0, spread=2.0, complex_positions=False,
                        mom_scale=0.5)
    times = np.linspace(0.0, 1.0, 101)
    exact = free_projection(x0, times)
    drift = dual_position_drift(exact)
    final = exact.states.a[-1]
    moved = float(np.abs(np.take_along_axis(final, match_permutation(x0.positions, final), -1)
                         - x0.positions).max())
    at = 10  # the leg runs 100 steps of 1e-3 to times[at] = 0.1
    leg = integrate(spec_for(SystemKind.FREE), x0, 0.0, times[at], 1e-3)
    end = leg.states.a[-1], leg.states.b[-1]
    deviation = float(matched_deviation(*end, exact.states.a[at], exact.states.b[at]))
    # the exact flow at coupling 1.05 g: the leg must not reproduce it
    wrong = free_projection(ReducedPoint(x0.positions, x0.momenta, 1.05 * x0.g, x0.t,
                                         x0.slice), times[at:at + 1])
    control = float(matched_deviation(*end, wrong.states.a[0], wrong.states.b[0]))
    return _check("ruijsenaars_demo",
                  "dual_position_drift on the exact free flow + RK4 leg vs the exact flow",
                  1e-10, [drift, deviation], moved > 0.1, control > 1e-6,
                  drift=drift, leg_deviation=deviation, control=control,
                  positions_moved=moved, sample_times=len(times),
                  leg_steps=len(leg.times) - 1,
                  note="positions must move > 0.1 and the 1.05 g control exceed 1e-6")


def check_p4_selfduality(rng):
    spec = spec_for(SystemKind.P_IV)
    readings = []
    for n in range(1, 6):
        sl = Slice.P_DIAG if n % 2 else Slice.Q_DIAG
        pos, mom = random_particles(rng, 20, n)
        spos, smom, ssl, th0s, th1s = p4_involution_coordinates(
            pos, mom, sl, spec.theta0, spec.theta1)
        h1 = closed_form_hamiltonian(spec, pos, mom, 1.0, 0.3, sl)
        h2 = closed_form_hamiltonian(SystemSpec(SystemKind.P_IV, theta0=th0s, theta1=th1s),
                                     spos, smom, 1.0, 0.3, ssl)
        readings.append(_worst(relative_deviation(h2, h1)))
    return _check("p4_selfduality", "p4_involution H-identity", 1e-10, readings,
                  derived_relabeling="theta0 -> theta0 + theta1, theta1 -> -theta1",
                  published_relabeling="theta0 -> theta1, theta1 -> theta0 - theta1")


def check_dual_p2_interaction_structure(rng):
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
    tol = 1e-10
    spec = spec_for(SystemKind.P_II)
    g, t = 1.0, 0.2
    pos, mom = random_particles(rng, TRIALS, 4)
    oracle = embedded_trace_hamiltonian(spec, pos, mom, g, t, Slice.P_DIAG)
    closed = closed_form_hamiltonian(spec, pos, mom, g, t, Slice.P_DIAG)
    effect = relative_deviation(closed, oracle)
    quad_effect = float(effect.max())
    quad_broken = int(np.count_nonzero(effect > 1e-6))
    quad_class_max = float(np.abs(a4_quad_sum(pos)).max())
    triple_ablated = closed + (g ** 4 / 2) * a4_triple_sum(pos)
    triple_broken = int(np.count_nonzero(relative_deviation(triple_ablated, oracle) > 1e-6))
    return _check("dual_p2_interaction_structure",
                  "Tr(A^4) index classes vs trace oracle at n=4", tol,
                  quad_class_max, quad_effect < tol, triple_broken >= 95,
                  quadruple_ablation_effect=quad_effect,
                  quadruple_ablation_broken=quad_broken,
                  triple_ablation_broken=triple_broken, trials=TRIALS,
                  acceptance_criterion_11_as_stated=quad_broken >= 95,
                  note=("the published 4-index interaction term is an "
                        "incomplete symmetrization; the full cyclic class "
                        "sums to zero identically, so the dual P_II system "
                        "has two- and three-body interactions only"))


def check_confluence(rng, theta=0.7 + 0.1j, n=2, g=1.0):
    eps = [0.1, 0.05, 0.025]
    theta = complex(theta)
    pt = MatrixPhasePoint(rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)),
                          rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)),
                          0.1)
    xq = random_reduced(rng, n, g, t=0.1)
    xd = random_reduced(rng, n, g, Slice.P_DIAG, t=0.1)
    identity, sweeps = {}, {}
    for kind in ("conf", "conf1"):
        for label, point in (("matrix", pt), ("reduced", xq)):
            key = f"{kind}_{label}"
            identity[key] = cf.identity_defect(point, theta, kind)
            sweeps[key] = cf.residual_ratio_sweep(point, theta, eps, kind)
    b_full = cf.dual_confluence_breakdown(xd, cf.ConfluenceParams(eps[0], theta))
    b_lin = cf.dual_confluence_breakdown(xd, cf.ConfluenceParams(eps[0], theta, "conf1"))
    # one particle: no interaction, so nothing obstructs either map
    full_ok = b_full["deviation"] > 1e-3 if n > 1 else b_full["deviation"] < 1e-8
    breakdown = {"conf": {**b_full, "pass": full_ok},
                 "conf1": {**b_lin, "pass": b_lin["deviation"] < 1e-8}}
    return _check("confluence",
                  "confluence identity on |eps| = 1 + dual breakdown", 1e-12,
                  list(identity.values()), all(v["pass"] for v in breakdown.values()),
                  identity=identity, eps_sweep=eps,
                  theta=_pair(theta), sweeps=sweeps, breakdown=breakdown,
                  note=("breakdown > 1e-3 for conf at n > 1, else < 1e-8; "
                        "the eps sweeps are reported, not gated"))


def check_mmkdv(rng):
    sw, calib_report = mmkdv.calibrate()
    readings = []
    for _ in range(100):
        v, p = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = float(rng.normal())
        th = complex(rng.normal())
        readings += [mmkdv.tw_residual(v, p, z, th, sw), mmkdv.ss_residual(v, p, z, th, sw)]
    samples = [(rng.normal(), rng.normal(), float(rng.normal()), rng.normal())
               for _ in range(100)]
    deform = mmkdv.deformation_check(sw, samples)
    d = np.diag(rng.normal(size=2)).astype(complex)
    e = np.diag(rng.normal(size=2)).astype(complex)
    commuting = mmkdv.tw_residual(d, e, 0.7, 0.2, sw)
    sens = mmkdv.switch_sensitivity(sw)
    return _check("mmkdv", "tw/ss residuals under calibrated convention",
                  1e-12, readings, deform["max_deviation"] < 1e-10,
                  deform["max_unidentified_gap"] > 1e-3, commuting < 1e-10,
                  all(s > 1e-3 for s in sens.values()),
                  calibration=calib_report, deformation=deform,
                  commuting_matrix_residual=commuting,
                  switch_sensitivity=sens)


def check_core_invariants(rng):
    readings = []
    # moment map trace / bilinearity; pairing antisymmetry
    for _ in range(20):
        n = int(rng.integers(1, 6))
        pt = MatrixPhasePoint(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                              rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        scale = max(1.0, float(np.abs(pt.q).max() * np.abs(pt.p).max()))
        mu = moment_map(pt.q, pt.p)
        readings.append(abs(np.trace(mu)) / scale)
        a = complex(rng.normal(), rng.normal())
        readings.append(float(np.abs(moment_map(a * pt.q, pt.p) - a * mu).max())
                        / max(1.0, abs(a) * scale))
        u = (rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        w = (rng.normal(size=(n, n)), rng.normal(size=(n, n)))
        readings.append(abs(symplectic_pairing(u, w) + symplectic_pairing(w, u)))
    # level-set matrix spectrum: i*g with multiplicity n-1 (equivalently
    # target - i*g*1 is rank one); the target itself is full rank
    rank_facts = []
    for n in range(2, 7):
        target = level_set_target(n, 1.0)
        eigs = np.linalg.eigvals(target)
        sv = np.linalg.svd(target - 1j * np.eye(n), compute_uv=False)
        rank_facts += [np.count_nonzero(np.abs(eigs - 1j) < 1e-10) == n - 1,
                       np.all(sv[1:] < 1e-12) and sv[0] > 1.0]
    # level-set diagonalizer identities: C v = v and C^-1 (1-J) C = 1-J, J all ones
    proj = np.eye(4) - np.ones((4, 4), dtype=complex)
    for _ in range(5):
        pt = random_level_set_point(rng, 4, 1.0)
        C = normalized_diagonalizer(pt.q).C
        v = np.ones(4)
        readings += [float(np.abs(C @ v - v).max()),
                     np.abs(np.linalg.solve(C, proj @ C) - proj).max()]
    # moment-map conservation direction for every kind at a level-set point
    for kind in FOUR_KINDS + (SystemKind.FREE, SystemKind.P_II_POLY):
        spec = spec_for(kind)
        pt = random_level_set_point(rng, 3, 1.0, t=0.2)
        qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
        mu_dot = moment_map(pt.q, pdot) + moment_map(qdot, pt.p)
        readings.append(float(np.abs(mu_dot).max()))
    return _check("core_invariants",
                  "pairing antisymmetry, mu bilinearity/trace, target rank, "
                  "vC=v consistency, d(mu)/dt = 0", 1e-8, readings, *rank_facts)


def check_charpoly_cross(rng):
    readings = []
    for _ in range(10):
        L = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = char_poly(L)
        b = newton_charpoly(L)
        readings.append(_worst(relative_deviation(a, b)))
        # unitary conjugator: a draw with cond(G) ~ 1e4 would measure the
        # roundoff of forming G^-1 L G, not char_poly
        G = np.linalg.qr(np.eye(8) + 0.3 * rng.normal(size=(8, 8)))[0]
        c = char_poly(G.T @ L @ G)
        readings.append(_worst(relative_deviation(c, a)))
    return _check("charpoly_cross_check",
                  "eig vs Newton's identities on power_traces + conjugation invariance", 1e-8,
                  readings)


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
