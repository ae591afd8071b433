import tracemalloc

import numpy as np
import pytest

from cplab import dynamics
from cplab.dynamics import (CONTOUR_NODES, MONITOR_LAMBDAS, contour_pushforward,
                            dual_position_drift, equivariance_check, field_deviation,
                            free_projection, integrate, monitor_invariants, step_count)
from cplab.errors import Overflow, ParticleCollision
from cplab.hamiltonians import (matrix_hamiltonian, reduced_hamiltonian,
                                reduced_vector_field, trace_hamiltonian)
from cplab.lax import lax_pair, spectral_table
from cplab.phase import (MatrixPhasePoint, SystemKind, SystemSpec, level_set_target,
                         moment_deviation, moment_map)
from cplab.reduction import (ReducedPoint, Slice, dual_of, embed, embedded_matrices,
                             match_permutation, matched_deviation, matrix_point,
                             permuted_deviation, reduce, reduced_coordinates,
                             resolve_at_slice)
from cplab.sampling import random_reduced, spec_for
from cplab.selfcheck import check_equivariance, equivariance_control, tame_flow_start


def two_leg_deviation(spec, x0, dt, h=1e-3):
    """Flow-then-reduce versus reduce-then-flow over [t, t + dt], permutation matched.

    The finite-time form of the commutation that equivariance_check measures
    at one instant; the RK4 error of the matrix leg takes it off the level
    set, so its endpoint reduces with tol 1e-5.
    """
    t1 = x0.t + dt
    matrix_end = integrate(spec, embed(x0), x0.t, t1, h, g=x0.g).final
    reduced_end = integrate(spec, x0, x0.t, t1, h).final
    return permuted_deviation(reduced_end, reduce(matrix_end, x0.slice, x0.g, tol=1e-5))


class TestIntegrate:
    def test_free_flow_exact(self, rng):
        q0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        traj = integrate(spec_for(SystemKind.FREE),
                         MatrixPhasePoint(q0, p0, 0.0), 0.0, 1.0, 1e-2)
        assert np.abs(traj.final.q - (q0 + p0)).max() < 1e-12
        assert np.abs(traj.final.p - p0).max() < 1e-12

    def test_harmonic_period(self):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)
        traj = integrate(spec, MatrixPhasePoint([[1.0]], [[0.0]]),
                         0.0, 2 * np.pi, 1e-3)
        assert abs(traj.final.q[0, 0] - 1.0) < 1e-8

    def test_rk4_order(self):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)

        def endpoint_error(h):
            traj = integrate(spec, MatrixPhasePoint([[1.0]], [[0.0]]),
                             0.0, 1.0, h)
            return abs(traj.final.q[0, 0] - np.cos(1.0))

        ratio = endpoint_error(2e-2) / endpoint_error(1e-2)
        assert 16 * 0.8 < ratio < 16 * 1.2

    @pytest.mark.parametrize("t0, t1, h", [(0.0, 1.0, 1e-320), (-1e308, 1e308, 1.0),
                                           (0.0, 1.0, np.nan), (0.0, np.inf, 1.0)])
    def test_step_count_rejects_non_finite_ratio(self, t0, t1, h):
        # the step ratio overflows or is NaN: ValueError, not OverflowError
        with pytest.raises(ValueError, match="step count"):
            step_count(t0, t1, h)

    @pytest.mark.parametrize("t1", [0.0, 1.0])
    def test_rejects_reversed_or_empty_span(self, t1):
        with pytest.raises(ValueError, match="must exceed"):
            integrate(spec_for(SystemKind.FREE),
                      MatrixPhasePoint([[1.0]], [[0.0]]), 1.0, t1, 0.1)

    def test_autonomous_energy_conserved(self):
        spec = SystemSpec(SystemKind.P_II, autonomous=True, tau=0.0, theta=0.0)
        traj = integrate(spec, MatrixPhasePoint([[0.0]], [[1.0]]), 0.0, 1.0, 1e-3)
        assert monitor_invariants(spec, traj)["energy_drift"] < 1e-9

    def test_reduced_and_matrix_agree_scalar(self):
        # n=1: both paths integrate the same scalar ODE
        spec = SystemSpec(SystemKind.P_IV, theta0=0.2, theta1=-0.4)
        x0 = ReducedPoint([0.3], [0.1], 1.0, 0.0)
        assert two_leg_deviation(spec, x0, 0.5) < 1e-10

    def test_overflow_aborts_with_partial(self):
        spec = SystemSpec(SystemKind.P_I, autonomous=True, tau=0.0)
        start = MatrixPhasePoint([[50.0]], [[500.0]], 0.0)
        errstate = np.geterr()
        with pytest.raises(Overflow) as exc_info:
            integrate(spec, start, 0.0, 5.0, 1e-2)
        partial = exc_info.value.partial
        assert partial is not None
        assert len(partial.states) >= 1
        # every accepted step is kept with its time, all finite
        assert len(partial.times) == len(partial.states)
        assert np.allclose(partial.times, np.arange(len(partial.states)) * 1e-2)
        assert np.isfinite(partial.states.a).all() and np.isfinite(partial.states.b).all()
        assert np.geterr() == errstate  # the error state is restored on the way out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_inside_a_stage_raises_overflow(self):
        # from rest the huge theta overflows the third stage to inf; the
        # step's check reports it without a numpy warning
        spec = SystemSpec(SystemKind.P_II, theta=1e200)
        with pytest.raises(Overflow, match="non-finite") as exc_info:
            integrate(spec, MatrixPhasePoint([[0.0]], [[0.0]]), 0.0, 1.0, 0.5)
        assert len(exc_info.value.partial.states) == 1

    def test_non_finite_momenta_alone_raise_overflow(self, monkeypatch):
        # a field that leaves q at rest and sends p to NaN: the one norm check
        # of the packed state sees it at the first step
        def nan_momenta(spec, q, p, t):
            return np.stack((np.zeros_like(q), np.full_like(p, np.nan)))

        monkeypatch.setattr(dynamics, "matrix_vector_field", nan_momenta)
        start = MatrixPhasePoint([[0.5]], [[0.1]])
        with pytest.raises(Overflow, match="non-finite") as exc_info:
            integrate(spec_for(SystemKind.FREE), start, 0.0, 1.0, 0.25)
        assert len(exc_info.value.partial.states) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q0", [1e13, 1e80])
    def test_start_state_overflow_raises_before_any_step(self, q0):
        spec = SystemSpec(SystemKind.P_II)
        with pytest.raises(Overflow, match="exceeds") as exc_info:
            integrate(spec, MatrixPhasePoint([[q0]], [[0.0]]), 0.0, 1.0, 0.5)
        assert len(exc_info.value.partial.states) == 0

    def test_errors_outside_a_flow_carry_no_partial(self):
        # only integrate attaches a trajectory prefix to the error it raises
        colliding = embed(ReducedPoint([0.0, 1.0], [0.0, 2.0j], 1.0))  # p-spectrum
        with pytest.raises(ParticleCollision) as collision:
            reduce(colliding, Slice.P_DIAG, 1.0)
        with pytest.raises(Overflow) as overflow:
            spectral_table(SystemSpec(SystemKind.HARM_OSC, omega=1e300),
                           ReducedPoint([0.0, 1.0], [0.5, -0.5], 1.0))
        assert collision.value.partial is None
        assert overflow.value.partial is None

    def test_collision_guard_on_construction(self):
        with pytest.raises(ParticleCollision):
            ReducedPoint([0.0, 1e-12], [0.0, 0.0], 1.0)

    def test_reduced_collision_aborts_with_partial(self):
        # two nearly free particles meet at t = 0.5, inside the 0.4 -> 0.5 step
        start = ReducedPoint([0.0, 1.0], [1.0, -1.0], 1e-6)
        with pytest.raises(ParticleCollision) as exc_info:
            integrate(spec_for(SystemKind.FREE), start, 0.0, 1.0, 0.1)
        partial = exc_info.value.partial
        assert np.allclose(partial.times, [0.0, 0.1, 0.2, 0.3, 0.4])
        assert len(partial.states) == 5
        assert partial.g == start.g

    def test_collision_in_accepted_state_keeps_times_and_states_paired(self, monkeypatch):
        # the guard of the fourth accepted state fails: one-row guard calls
        # 1, 5, 9 and 13 are the stage-1 field evaluations that read the
        # accepted states, the others guard stage states; a reader of a
        # non-autonomous kind evaluates energies at the partial's times
        import cplab.reduction as reduction
        real, calls = reduction.guarded_differences, []

        def guarded(x):
            if x.ndim == 1:
                calls.append(x)
                if len(calls) == 13:
                    raise ParticleCollision("particle gap below threshold")
            return real(x)

        start = ReducedPoint([-1.0, 1.0], [0.0, 0.0], 0.3)
        spec = spec_for(SystemKind.P_II)
        monkeypatch.setattr(reduction, "guarded_differences", guarded)
        with pytest.raises(ParticleCollision) as exc_info:
            integrate(spec, start, 0.0, 1.0, 0.1)
        partial = exc_info.value.partial
        assert len(partial.times) == len(partial.states) == 3
        assert np.allclose(partial.times, [0.0, 0.1, 0.2])
        assert np.isfinite(monitor_invariants(spec, partial)["energy_drift"])


class TestMonitor:
    def test_autonomous_isospectral(self, rng):
        spec = spec_for(SystemKind.P_I, tau=1.0)
        x0 = ReducedPoint(0.6 * np.array([-1.0, 0.0, 1.0]) + 0.05j,
                          0.2 * rng.normal(size=3), 0.3, 0.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=0.3)
        rep = monitor_invariants(spec, traj)
        assert rep["conservation_asserted"]
        assert max(rep["power_trace_drift"].values()) < 1e-6
        assert rep["moment_deviation_max"] < 1e-8

    def test_nonautonomous_moment_map_still_conserved(self, rng):
        spec = spec_for(SystemKind.P_II)
        x0 = random_reduced(rng, 2, 1.0, spread=1.0)
        traj = integrate(spec, embed(x0), 0.0, 0.5, 1e-3, g=1.0)
        rep = monitor_invariants(spec, traj)
        assert not rep["conservation_asserted"]
        assert rep["moment_deviation_max"] < 1e-8

    def test_free_everything_constant(self, rng):
        spec = spec_for(SystemKind.FREE)
        x0 = random_reduced(rng, 2, 1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-2, g=1.0)
        rep = monitor_invariants(spec, traj)
        assert max(rep["power_trace_drift"].values()) < 1e-12
        assert rep["energy_drift"] < 1e-12

    def test_zero_lax_matrix_is_scaled_by_one(self, rng):
        # the free L is diag(p, -p): 0 along a flow from rest, so the
        # row-sum norm is 0 and the scale falls back to 1
        q0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        traj = integrate(spec_for(SystemKind.FREE),
                         MatrixPhasePoint(q0, np.zeros((2, 2))), 0.0, 0.1, 1e-2)
        drift = monitor_invariants(spec_for(SystemKind.FREE), traj)["power_trace_drift"]
        assert list(drift.values()) == [0.0] * len(MONITOR_LAMBDAS)


def per_state_monitor(spec, traj, lams, g):
    """The monitor as a loop over states: embed, Tr H, lax_pair, traces of matrix_power."""
    points = [matrix_point(s) for s in traj.states]
    target = 0.0 if g is None else level_set_target(points[0].n, g)
    dev = max(float(np.abs(moment_map(pt.q, pt.p) - target).max()) for pt in points)
    energy = np.array([matrix_hamiltonian(spec, pt) for pt in points])
    drift = {}
    for lam in lams:
        Ls = [lax_pair(spec, pt, lam).L for pt in points]
        norm = np.abs(Ls[0]).sum(axis=1).max()
        scale = norm if norm > 0 else 1.0
        traces = np.array([[np.trace(np.linalg.matrix_power(L / scale, k))
                            for k in range(1, len(L) + 1)] for L in Ls])
        drift[str(lam)] = float(np.abs(traces - traces[0]).max())
    return dev, drift, float(np.abs(energy - energy[0]).max() / max(1.0, abs(energy[0])))


def monitor_cases():
    """(spec, trajectory, g): matrix and reduced states, autonomous or not."""
    rng = np.random.default_rng(7)
    aut_p1 = spec_for(SystemKind.P_I, tau=1.0)
    aut_p2 = spec_for(SystemKind.P_II, tau=1.0)
    x0 = random_reduced(rng, 3, 0.6, mom_scale=0.3)
    xp = random_reduced(rng, 3, 0.6, Slice.P_DIAG, mom_scale=0.3)
    return {
        "matrix_autonomous": (aut_p1, integrate(aut_p1, embed(x0), 0.0, 0.1, 1e-3,
                                                g=0.6), 0.6),
        "reduced_q_slice": (aut_p2, integrate(aut_p2, x0, 0.0, 0.1, 1e-3), None),
        "reduced_p_slice": (aut_p1, integrate(aut_p1, xp, 0.0, 0.1, 1e-3), None),
        "matrix_nonautonomous": (spec_for(SystemKind.P_II),
                                 integrate(spec_for(SystemKind.P_II), embed(x0), 0.2,
                                           0.3, 1e-3, g=0.6), 0.6),
        "reduced_nonautonomous": (spec_for(SystemKind.P_IV),
                                  integrate(spec_for(SystemKind.P_IV), x0, 0.2, 0.3,
                                            1e-3), None),
    }


@pytest.fixture(scope="module")
def monitored():
    return monitor_cases()


class TestStackedMonitor:
    @pytest.mark.parametrize("case", ["matrix_autonomous", "reduced_q_slice",
                                      "reduced_p_slice", "matrix_nonautonomous",
                                      "reduced_nonautonomous"])
    def test_matches_per_state_power_traces(self, monitored, case):
        spec, traj, g = monitored[case]
        rep = monitor_invariants(spec, traj)
        dev, drift, energy_drift = per_state_monitor(spec, traj, MONITOR_LAMBDAS,
                                                     g if g is not None else traj.g)
        assert abs(rep["moment_deviation_max"] - dev) <= 1e-12
        assert abs(rep["energy_drift"] - energy_drift) <= 1e-12
        assert rep["power_trace_drift"].keys() == drift.keys()
        for lam in drift:
            assert abs(rep["power_trace_drift"][lam] - drift[lam]) <= 1e-12, lam

    @pytest.mark.parametrize("case", ["matrix_autonomous", "reduced_p_slice"])
    def test_makes_no_eigensolve(self, monkeypatch, monitored, case):
        spec, traj, g = monitored[case]

        def refuse(*args, **kwargs):
            raise AssertionError("monitor_invariants made an eigensolve")

        for solver in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, solver, refuse)
        assert monitor_invariants(spec, traj)["power_trace_drift"]

    def test_lax_stack_is_built_in_blocks(self, monkeypatch, monitored):
        # the first state's L for the scale, then one stack per block, each
        # at every lambda of MONITOR_LAMBDAS
        spec, traj, _ = monitored["matrix_autonomous"]
        monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 40)
        rows, real = [], dynamics.lax_l

        def counting(spec, q, *rest):
            rows.append(q.shape[:-2])
            return real(spec, q, *rest)

        monkeypatch.setattr(dynamics, "lax_l", counting)
        rep = monitor_invariants(spec, traj)
        assert len(traj.states) == 101
        assert rows == [(), (40,), (40,), (21,)]
        monkeypatch.setattr(dynamics, "MONITOR_BLOCK", 256)
        assert monitor_invariants(spec, traj)["power_trace_drift"] == \
            rep["power_trace_drift"]

    def test_monitor_peak_memory_is_l_only(self):
        # criterion 7's P_I flow: the stacked L, not M, is the monitor's to hold
        x0 = tame_flow_start()
        spec = spec_for(SystemKind.P_I, tau=1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=x0.g)
        tracemalloc.start()
        try:
            monitor_invariants(spec, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 1001
        assert peak <= 1.6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_dual_position_drift_one_eigensolve(self, monkeypatch, monitored):
        _, traj, _ = monitored["reduced_q_slice"]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(1) or eigvals(a))
        dual_position_drift(traj)
        assert len(calls) == 1


def scaled_momentum_field(factor):
    """matrix_vector_field with pdot scaled by factor: a flow that is not isospectral."""
    real = dynamics.matrix_vector_field

    def field(spec, q, p, t):
        out = real(spec, q, p, t)
        out[1] *= factor
        return out
    return field


class TestIsospectralResolution:
    """Criterion 7's 1e-6 gate passes true autonomous flows and fails a control.

    The control scales pdot by 1 + 1e-3.  At n = 12 the char-poly
    coefficients of the eigenvalues drift by up to 2.2e-5 along the true
    P_II flows, above the gate; the power traces stay near roundoff.
    """

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (12, 0)])
    @pytest.mark.parametrize("kind", [SystemKind.P_I, SystemKind.P_II])
    def test_true_flow_passes_and_control_fails(self, monkeypatch, kind, n, seed):
        spec = spec_for(kind, tau=1.0)
        x0 = random_reduced(np.random.default_rng(seed), n, 0.3, spread=1.0, mom_scale=0.2)

        def drift():
            traj = integrate(spec, embed(x0), 0.0, 0.05, 0.05 / 200, g=x0.g)
            assert len(traj.states) == 201
            return max(monitor_invariants(spec, traj)["power_trace_drift"].values())

        assert drift() < 1e-6
        monkeypatch.setattr(dynamics, "matrix_vector_field", scaled_momentum_field(1 + 1e-3))
        assert drift() > 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_drift_is_relative(self, seed):
        # |E| is about 2e4 on these n = 12 P_II flows: the RK4 truncation
        # reads 1.2e-6 to 1.5e-6 absolute, about 7e-11 relative to |E0|
        spec = spec_for(SystemKind.P_II, tau=1.0)
        x0 = random_reduced(np.random.default_rng(seed), 12, 0.3, spread=1.0, mom_scale=0.2)
        traj = integrate(spec, embed(x0), 0.0, 0.05, 0.05 / 200, g=x0.g)
        q, p = traj.states.matrices()
        energy = trace_hamiltonian(spec, q, p, traj.times)
        assert abs(energy[0]) > 1e3
        assert np.abs(energy - energy[0]).max() > 1e-6
        assert monitor_invariants(spec, traj)["energy_drift"] < 1e-9


class TestBatchedDiagnostics:
    """The readers' stacked energies and moment deviations of a record, state by state."""

    @staticmethod
    def _assert_per_state(spec, traj, g):
        q, p = traj.states.matrices()
        energy = trace_hamiltonian(spec, q, p, traj.times)
        assert len(energy) == len(traj.states)
        matrix_states = isinstance(traj.states[0], MatrixPhasePoint)
        hamiltonian = matrix_hamiltonian if matrix_states else reduced_hamiltonian
        ref = np.array([hamiltonian(spec, s) for s in traj.states])
        assert (np.abs(energy - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))).all()
        target = level_set_target(traj.states[0].n, g)
        ref_dev = [np.abs(moment_map(pt.q, pt.p) - target).max()
                   for pt in map(matrix_point, traj.states)]
        assert np.array_equal(moment_deviation(q, p, g), ref_dev)

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("autonomous", [False, True])
    @pytest.mark.parametrize("form", ["matrix", "q_slice", "p_slice"])
    def test_energies_equal_per_state_hamiltonian(self, rng, kind, autonomous, form):
        spec = spec_for(kind, tau=0.8 if autonomous else None)
        sl = Slice.P_DIAG if form == "p_slice" else Slice.Q_DIAG
        x0 = random_reduced(rng, 3, 1.0, sl, t=0.1, mom_scale=0.3)
        start = embed(x0) if form == "matrix" else x0
        traj = integrate(spec, start, 0.1, 0.15, 1e-2, g=1.0)
        self._assert_per_state(spec, traj, 1.0)

    def test_long_reduced_flow_memory_is_bounded(self):
        # the record holds (1001, 12) arrays; embedding them as one
        # (1001, 12, 12) stack would peak at 9.7 MiB
        x0 = random_reduced(np.random.default_rng(0), 12, 1.0, mom_scale=0.1)
        tracemalloc.start()
        try:
            traj = integrate(spec_for(SystemKind.FREE), x0, 0.0, 0.1, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 1001
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_overflow_partial_carries_a_value_per_state(self):
        spec = spec_for(SystemKind.P_II)
        start = MatrixPhasePoint([[12.0, 6.0], [-9.0, 18.0]], [[24.0, -12.0], [6.0, 30.0]])
        with pytest.raises(Overflow) as exc_info:
            integrate(spec, start, 0.0, 5.0, 1e-2, g=1.0)
        partial = exc_info.value.partial
        assert len(partial.states) > 2
        self._assert_per_state(spec, partial, 1.0)


class TestEquivariance:
    def test_free_n3(self, rng):
        x0 = random_reduced(rng, 3, 1.0)
        assert two_leg_deviation(spec_for(SystemKind.FREE), x0, 1.0) < 1e-6

    def test_p4_n2(self, rng):
        x0 = random_reduced(rng, 2, 1.0)
        assert two_leg_deviation(spec_for(SystemKind.P_IV), x0, 0.3) < 1e-6

    def test_p2_dual_slice(self, rng):
        x0 = ReducedPoint([0.1 + 0.2j, 1.4 - 0.1j], [0.4 - 0.3j, -0.2 + 0.1j],
                          1.0, 0.0, Slice.P_DIAG)
        assert two_leg_deviation(spec_for(SystemKind.P_II), x0, 0.3) < 1e-6


CONTOUR_CASES = [(SystemKind.FREE, 3), (SystemKind.P_IV, 2), (SystemKind.P_II, 2),
                 (SystemKind.P_I, 3), (SystemKind.HARM_OSC, 4), (SystemKind.P_II_POLY, 3)]


def both_slices(rng, n):
    x0 = random_reduced(rng, n, 1.0, t=0.3)
    return x0, dual_of(x0)


class TestContourPushforward:
    @pytest.mark.parametrize("kind, n", CONTOUR_CASES)
    def test_commutes_at_roundoff_on_both_slices(self, rng, kind, n):
        for x in both_slices(rng, n):
            assert equivariance_check(spec_for(kind), x)[0] < 1e-12

    @pytest.mark.parametrize("kind, n", CONTOUR_CASES)
    def test_controls_fail(self, rng, kind, n):
        spec = spec_for(kind)
        for x in both_slices(rng, n):
            assert field_deviation(contour_pushforward(spec, x),
                                   equivariance_control(spec, x)) > 1e-6

    def test_criterion_evaluates_each_contour_once(self, rng, monkeypatch):
        # three cases on both slices: one contour, one node stack resolved,
        # each for deviation and control
        calls = []

        def counted(q, p, sl):
            calls.append(sl)
            return resolve_at_slice(q, p, sl)

        monkeypatch.setattr(dynamics, "resolve_at_slice", counted)
        check_equivariance(rng)
        assert calls == [Slice.Q_DIAG, Slice.P_DIAG] * 3

    def test_free_p_slice_control_is_the_role_swap(self, rng):
        spec = spec_for(SystemKind.FREE)
        x = dual_of(random_reduced(rng, 3, 1.0))
        field = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, x.slice)
        rescaled = reduced_vector_field(spec, x.positions, x.momenta, 1.05 * x.g,
                                        x.t, x.slice)
        # H = sum I^2 / 2 does not see g: a rescaled coupling is no control here
        assert np.array_equal(np.array(field), np.array(rescaled))
        swapped = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t,
                                       Slice.Q_DIAG)
        assert np.array_equal(np.array(equivariance_control(spec, x)), np.array(swapped))

    @pytest.mark.parametrize("sl", list(Slice))
    def test_one_particle_reading_is_finite_and_exact(self, sl):
        spec = SystemSpec(SystemKind.P_IV, theta0=0.2, theta1=-0.4)
        x = ReducedPoint([0.3 - 0.1j], [0.1 + 0.2j], 1.0, 0.2, sl)
        D = contour_pushforward(spec, x)
        assert D.shape == (len(CONTOUR_NODES), 2, 1) and np.isfinite(D).all()
        assert equivariance_check(spec, x)[0] < 1e-13

    def test_resting_point_reads_zero(self):
        # a zero matrix field still defines the contour radius
        x = ReducedPoint([0.0], [0.0], 1.0)
        assert equivariance_check(SystemSpec(SystemKind.HARM_OSC, omega=1.0), x)[0] == 0.0

    @pytest.mark.parametrize("kind, n", CONTOUR_CASES)
    def test_node_counts_agree_to_roundoff(self, rng, kind, n):
        assert CONTOUR_NODES == (32, 64)
        for x in both_slices(rng, n):
            D = contour_pushforward(spec_for(kind), x)
            assert np.abs(D[0] - D[1]).max() / max(1.0, np.abs(D[1]).max()) < 1e-12

    @pytest.mark.parametrize("sl", list(Slice))
    def test_reading_is_the_derivative_of_reduce_along_the_matrix_flow(self, rng, sl):
        # one-sided second-order difference of reduce over two RK4 steps of h
        spec = spec_for(SystemKind.P_II)
        x = random_reduced(rng, 2, 1.0, sl, t=0.3)
        h = 1e-4
        traj = integrate(spec, embed(x), 0.3, 0.3 + 2 * h, h, g=x.g)
        c = []
        for pt in traj.states:
            y = reduce(pt, sl, x.g)
            perm = match_permutation(x.positions, y.positions)
            c.append(np.array([y.positions[perm], y.momenta[perm]]))
        difference = (-3 * c[0] + 4 * c[1] - c[2]) / (2 * h)
        D = contour_pushforward(spec, x)
        # the O(h^2) truncation reads 6e-8 to 3e-6 on sampled points at this h
        assert np.abs(D - difference).max() < 1e-4 * max(1.0, np.abs(D).max())


class TestRuijsenaars:
    def test_dual_positions_frozen_along_free_flow(self, rng):
        x0 = random_reduced(rng, 3, 1.0, complex_positions=False)
        traj = integrate(spec_for(SystemKind.FREE), x0, 0.0, 1.0, 1e-3)
        assert dual_position_drift(traj) < 1e-8
        assert np.abs(traj.final.positions - x0.positions).max() > 0.1

    def test_drift_matches_all_states_at_once_as_one_by_one(self, rng):
        x0 = random_reduced(rng, 3, 1.0, Slice.P_DIAG)
        traj = integrate(spec_for(SystemKind.P_II), x0, 0.0, 0.05, 1e-2)
        eigs = [np.sort_complex(np.linalg.eigvals(embed(x).q)) for x in traj.states]
        loop = max(float(np.abs(e[match_permutation(eigs[0], e)] - eigs[0]).max())
                   for e in eigs[1:])
        assert dual_position_drift(traj) == loop > 0

    def test_matrix_flow_is_a_type_error(self, rng):
        x0 = random_reduced(rng, 3, 1.0)
        traj = integrate(spec_for(SystemKind.FREE), embed(x0), 0.0, 0.05, 1e-2, g=x0.g)
        with pytest.raises(TypeError, match="reduced point.*MatrixPhasePoint"):
            dual_position_drift(traj)


class TestFreeProjection:
    """The exact Free reduced flow: the linear matrix lift, reduced row by row."""

    @pytest.mark.parametrize("sl", list(Slice))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rows_are_reductions_of_the_linear_lift(self, rng, n, sl):
        x = random_reduced(rng, n, 0.8, sl, t=0.3)
        times = np.linspace(0.3, 1.3, 11)
        traj = free_projection(x, times)
        q0, p0 = embedded_matrices(x.positions, x.momenta, x.g, sl)
        assert traj.g == x.g and traj.states.start is x
        for k, t in enumerate(times):
            pos, mom = reduced_coordinates(q0 + (t - x.t) * p0, p0, x.g, sl)
            assert np.array_equal(traj.states.a[k], pos)
            assert np.array_equal(traj.states.b[k], mom)

    @pytest.mark.parametrize("sl", list(Slice))
    def test_start_row_gives_the_start_back(self, rng, sl):
        x = random_reduced(rng, 4, 1.0, sl, t=0.3)
        first = free_projection(x, [0.3, 0.8]).states[0]
        assert first.t == x.t and first.slice is sl
        assert permuted_deviation(first, x) < 1e-14

    @pytest.mark.parametrize("sl", list(Slice))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_rk4_to_truncation(self, rng, n, sl):
        # criterion 9's draw: gentle momenta, real positions at wide gaps
        x = random_reduced(rng, n, 1.0, sl, spread=2.0, complex_positions=False,
                           mom_scale=0.5)
        traj = integrate(spec_for(SystemKind.FREE), x, 0.0, 1.0, 1e-3)
        rows = slice(None, None, 100)
        exact = free_projection(x, traj.times[rows])
        deviation = matched_deviation(traj.states.a[rows], traj.states.b[rows],
                                      exact.states.a, exact.states.b)
        assert deviation.max() < 1e-10

    @pytest.mark.parametrize("times", [[], np.zeros((2, 2))], ids=["empty", "2-D"])
    def test_times_must_be_a_nonempty_sequence(self, rng, times):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            free_projection(random_reduced(rng, 3, 1.0), times)


class TestArrayRecord:
    """Stages and steps run on arrays: integrate builds no point, states one per read."""

    @staticmethod
    def _count_constructions(monkeypatch):
        counts = []
        for cls in (MatrixPhasePoint, ReducedPoint):
            def counting(self, _orig=cls.__post_init__):
                counts.append(type(self).__name__)
                _orig(self)
            monkeypatch.setattr(cls, "__post_init__", counting)
        return counts

    @pytest.mark.parametrize("form", ["matrix", "reduced"])
    def test_points_are_built_on_access_only(self, monkeypatch, rng, form):
        spec = spec_for(SystemKind.P_II, tau=1.0)
        x0 = random_reduced(rng, 3, 1.0, mom_scale=0.5)
        start = embed(x0) if form == "matrix" else x0
        counts = self._count_constructions(monkeypatch)
        traj = integrate(spec, start, 0.0, 0.05, 1e-2, g=1.0)
        assert len(traj.states) == 6
        assert counts == []
        assert isinstance(traj.final, type(start)) and len(counts) == 1
        points = list(traj.states)
        assert len(counts) == 1 + len(points) == 7
        assert set(counts) == {type(start).__name__}

    def test_each_reduced_state_is_guarded_once(self, monkeypatch):
        # 10 steps: 40 field evaluations, each stage 1 the guard of the state
        # it reads, and one guard of the final state; nothing embeds the record
        import cplab.dynamics as dynamics
        import cplab.reduction as reduction
        real, rows = reduction.guarded_differences, []

        def counting(x):
            rows.append(x.shape[:-1])
            return real(x)

        x0 = random_reduced(np.random.default_rng(0), 3, 1.0, mom_scale=0.5)
        for module in (reduction, dynamics):
            monkeypatch.setattr(module, "guarded_differences", counting)
        integrate(spec_for(SystemKind.P_II), x0, 0.0, 0.1, 1e-2)
        assert rows.count(()) == 41
        assert [r for r in rows if r] == []

    @pytest.mark.parametrize("form", ["matrix", "q_slice", "p_slice"])
    def test_integrate_only_records(self, monkeypatch, form):
        # no Hamiltonian, no moment map, no embedding of the record: its
        # readers compute what they read
        import cplab.dynamics as dynamics
        import cplab.hamiltonians as hamiltonians
        import cplab.phase as phase
        import cplab.reduction as reduction

        def unread(*args, **kwargs):
            raise AssertionError("integrate evaluated a diagnostic")

        for module, name in ((dynamics, "trace_hamiltonian"),
                             (hamiltonians, "trace_hamiltonian"),
                             (dynamics, "moment_deviation"), (phase, "moment_deviation")):
            monkeypatch.setattr(module, name, unread)
        real, stacked = reduction.guarded_differences, []

        def counting(x):
            if x.ndim > 1:
                stacked.append(x.shape)
            return real(x)

        sl = Slice.P_DIAG if form == "p_slice" else Slice.Q_DIAG
        x0 = random_reduced(np.random.default_rng(0), 3, 1.0, sl, mom_scale=0.5)
        start = embed(x0) if form == "matrix" else x0
        for module in (reduction, dynamics):
            monkeypatch.setattr(module, "guarded_differences", counting)
        traj = integrate(spec_for(SystemKind.P_II), start, 0.0, 0.1, 1e-2, g=1.0)
        assert len(traj.states) == 11 and traj.g == 1.0
        assert stacked == []
