import tracemalloc

import numpy as np
import pytest

from cplab.dynamics import (DIAGNOSTIC_CHUNK, dual_position_drift,
                            equivariance_check, integrate, monitor_invariants,
                            step_count)
from cplab.errors import Overflow, ParticleCollision
from cplab.hamiltonians import matrix_hamiltonian, reduced_hamiltonian
from cplab.lax import lax_pair
from cplab.phase import (MatrixPhasePoint, SystemKind, SystemSpec, level_set_target,
                         moment_map)
from cplab.reduction import ReducedPoint, Slice, embed, match_permutation, matrix_point
from cplab.sampling import random_reduced, spec_for
from cplab.selfcheck import tame_flow_start


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
        drift = np.abs(traj.diagnostics["energy"]
                       - traj.diagnostics["energy"][0]).max()
        assert drift < 1e-9

    def test_reduced_and_matrix_agree_scalar(self):
        # n=1: both paths integrate the same scalar ODE
        spec = SystemSpec(SystemKind.P_IV, theta0=0.2, theta1=-0.4)
        x0 = ReducedPoint([0.3], [0.1], 1.0, 0.0)
        assert equivariance_check(spec, x0, 0.5) < 1e-10

    def test_overflow_aborts_with_partial(self):
        spec = SystemSpec(SystemKind.P_I, autonomous=True, tau=0.0)
        start = MatrixPhasePoint([[50.0]], [[500.0]], 0.0)
        errstate = np.geterr()
        with pytest.raises(Overflow) as exc_info:
            integrate(spec, start, 0.0, 5.0, 1e-2)
        partial = exc_info.value.partial
        assert partial is not None
        assert len(partial.states) >= 1
        # every accepted step is kept with its diagnostics, all finite
        assert len(partial.times) == len(partial.diagnostics["energy"]) \
            == len(partial.diagnostics["moment_deviation"]) == len(partial.states)
        assert np.allclose(partial.times, np.arange(len(partial.states)) * 1e-2)
        assert np.isfinite(partial.diagnostics["energy"]).all()
        assert np.geterr() == errstate  # the error state is restored on the way out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_inside_a_stage_raises_overflow(self):
        # from rest the huge theta overflows the third stage to inf; the
        # step's check reports it without a numpy warning
        spec = SystemSpec(SystemKind.P_II, theta=1e200)
        with pytest.raises(Overflow, match="non-finite") as exc_info:
            integrate(spec, MatrixPhasePoint([[0.0]], [[0.0]]), 0.0, 1.0, 0.5)
        assert len(exc_info.value.partial.states) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q0", [1e13, 1e80])
    def test_start_state_overflow_raises_before_any_step(self, q0):
        spec = SystemSpec(SystemKind.P_II)
        with pytest.raises(Overflow, match="exceeds") as exc_info:
            integrate(spec, MatrixPhasePoint([[q0]], [[0.0]]), 0.0, 1.0, 0.5)
        assert exc_info.value.partial.states == []

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
        assert len(partial.diagnostics["energy"]) == 5
        assert len(partial.diagnostics["moment_deviation"]) == 5
        assert partial.g == start.g

    def test_collision_in_accepted_state_keeps_times_and_states_paired(self, monkeypatch):
        # the fourth accepted state fails the ReducedPoint guard itself; a
        # non-autonomous kind evaluates energies at the partial's times
        import cplab.dynamics as dynamics
        real, calls = dynamics.ReducedPoint, []

        def guarded(*args):
            calls.append(args)
            if len(calls) == 4:
                raise ParticleCollision("particle gap below threshold")
            return real(*args)

        start = ReducedPoint([-1.0, 1.0], [0.0, 0.0], 0.3)
        monkeypatch.setattr(dynamics, "ReducedPoint", guarded)
        with pytest.raises(ParticleCollision) as exc_info:
            integrate(spec_for(SystemKind.P_II), start, 0.0, 1.0, 0.1)
        partial = exc_info.value.partial
        assert len(partial.times) == len(partial.states) == 3
        assert np.allclose(partial.times, [0.0, 0.1, 0.2])
        assert len(partial.diagnostics["energy"]) == 3
        assert np.isfinite(partial.diagnostics["energy"]).all()


class TestMonitor:
    def test_autonomous_isospectral(self, rng):
        spec = spec_for(SystemKind.P_I, autonomous=True, tau=1.0)
        x0 = ReducedPoint(0.6 * np.array([-1.0, 0.0, 1.0]) + 0.05j,
                          0.2 * rng.normal(size=3), 0.3, 0.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=0.3)
        rep = monitor_invariants(spec, traj, [1.0, 2.0j])
        assert rep["conservation_asserted"]
        assert max(rep["charpoly_drift"].values()) < 1e-6
        assert rep["moment_deviation_max"] < 1e-8

    def test_nonautonomous_moment_map_still_conserved(self, rng):
        spec = spec_for(SystemKind.P_II)
        x0 = random_reduced(rng, 2, 1.0, spread=1.0, jitter=0.1)
        traj = integrate(spec, embed(x0), 0.0, 0.5, 1e-3, g=1.0)
        rep = monitor_invariants(spec, traj, [1.0])
        assert not rep["conservation_asserted"]
        assert rep["moment_deviation_max"] < 1e-8

    def test_free_everything_constant(self, rng):
        spec = spec_for(SystemKind.FREE)
        x0 = random_reduced(rng, 2, 1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-2, g=1.0)
        rep = monitor_invariants(spec, traj, [1.0])
        assert max(rep["charpoly_drift"].values()) < 1e-12
        assert rep["energy_drift"] < 1e-12


def per_state_monitor(spec, traj, lams, g):
    """The monitor as a loop over states: embed, lax_pair, np.poly of eigvals."""
    points = [matrix_point(s) for s in traj.states]
    target = 0.0 if g is None else level_set_target(points[0].n, g)
    dev = max(float(np.abs(moment_map(pt) - target).max()) for pt in points)
    drift = {}
    for lam in lams:
        coeffs = np.array([np.poly(np.linalg.eigvals(lax_pair(spec, pt, lam).L))
                           for pt in points])
        scale = np.maximum(1.0, np.abs(coeffs[0]))
        drift[str(lam)] = float((np.abs(coeffs - coeffs[0]) / scale).max())
    return dev, drift


def monitor_cases():
    """(spec, trajectory, g): matrix and reduced states, autonomous or not."""
    rng = np.random.default_rng(7)
    aut_p1 = spec_for(SystemKind.P_I, autonomous=True, tau=1.0)
    aut_p2 = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
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
    LAMS = (1.0, 2.0j, 0.7 - 0.4j)

    @pytest.mark.parametrize("case", ["matrix_autonomous", "reduced_q_slice",
                                      "reduced_p_slice", "matrix_nonautonomous",
                                      "reduced_nonautonomous"])
    def test_matches_per_state_charpoly(self, monitored, case):
        spec, traj, g = monitored[case]
        rep = monitor_invariants(spec, traj, self.LAMS)
        dev, drift = per_state_monitor(spec, traj, self.LAMS,
                                       g if g is not None else traj.g)
        assert abs(rep["moment_deviation_max"] - dev) <= 1e-12
        assert rep["charpoly_drift"].keys() == drift.keys()
        for lam in drift:
            assert abs(rep["charpoly_drift"][lam] - drift[lam]) <= 1e-12, lam

    @pytest.mark.parametrize("case", ["matrix_autonomous", "reduced_p_slice"])
    def test_one_eigensolve_per_lambda(self, monkeypatch, monitored, case):
        spec, traj, g = monitored[case]
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        monitor_invariants(spec, traj, self.LAMS)
        assert len(calls) == len(self.LAMS)
        assert all(shape[0] == len(traj.states) for shape in calls)

    def test_monitor_peak_memory_is_l_only(self):
        # criterion 7's P_I flow: the stacked L, not M, is the monitor's to hold
        x0 = tame_flow_start()
        spec = spec_for(SystemKind.P_I, autonomous=True, tau=1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=x0.g)
        tracemalloc.start()
        try:
            monitor_invariants(spec, traj, [1.0, 2.0j])
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


class TestBatchedDiagnostics:
    @staticmethod
    def _assert_per_state(spec, traj, g):
        energy = traj.diagnostics["energy"]
        assert len(energy) == len(traj.states)
        matrix_states = isinstance(traj.states[0], MatrixPhasePoint)
        hamiltonian = matrix_hamiltonian if matrix_states else reduced_hamiltonian
        ref = np.array([hamiltonian(spec, s) for s in traj.states])
        assert (np.abs(energy - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))).all()
        target = level_set_target(traj.states[0].n, g)
        ref_dev = [np.abs(moment_map(matrix_point(s)) - target).max()
                   for s in traj.states]
        assert np.array_equal(traj.diagnostics["moment_deviation"], ref_dev)

    @pytest.mark.parametrize("kind", list(SystemKind))
    @pytest.mark.parametrize("autonomous", [False, True])
    @pytest.mark.parametrize("form", ["matrix", "q_slice", "p_slice"])
    def test_energies_equal_per_state_hamiltonian(self, rng, kind, autonomous, form):
        spec = spec_for(kind, autonomous=autonomous, tau=0.8 if autonomous else None)
        sl = Slice.P_DIAG if form == "p_slice" else Slice.Q_DIAG
        x0 = random_reduced(rng, 3, 1.0, sl, t=0.1, mom_scale=0.3)
        start = embed(x0) if form == "matrix" else x0
        traj = integrate(spec, start, 0.1, 0.15, 1e-2, g=1.0)
        self._assert_per_state(spec, traj, 1.0)

    @pytest.mark.parametrize("form", ["matrix", "p_slice"])
    def test_diagnostics_span_chunk_boundaries(self, rng, form):
        # 151 states: two full chunks of DIAGNOSTIC_CHUNK and a partial one
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=0.8)
        x0 = random_reduced(rng, 3, 1.0, Slice.P_DIAG, mom_scale=0.3)
        start = embed(x0) if form == "matrix" else x0
        traj = integrate(spec, start, 0.0, 0.15, 1e-3, g=1.0)
        assert len(traj.states) > 2 * DIAGNOSTIC_CHUNK
        self._assert_per_state(spec, traj, 1.0)

    def test_long_reduced_flow_memory_is_bounded(self):
        # unchunked, the stacked (1001, 12, 12) diagnostics peaked at 9.7 MiB
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
        assert equivariance_check(spec_for(SystemKind.FREE), x0, 1.0) < 1e-6

    def test_p4_n2(self, rng):
        x0 = random_reduced(rng, 2, 1.0)
        assert equivariance_check(spec_for(SystemKind.P_IV), x0, 0.3) < 1e-6

    def test_p2_dual_slice(self, rng):
        x0 = ReducedPoint([0.1 + 0.2j, 1.4 - 0.1j], [0.4 - 0.3j, -0.2 + 0.1j],
                          1.0, 0.0, Slice.P_DIAG)
        assert equivariance_check(spec_for(SystemKind.P_II), x0, 0.3) < 1e-6


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


class TestPointsAtStepBoundaries:
    """Stages run on arrays: integrate builds one point per step, plus t0."""

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
    def test_one_point_per_step(self, monkeypatch, rng, form):
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
        x0 = random_reduced(rng, 3, 1.0, mom_scale=0.5)
        start = embed(x0) if form == "matrix" else x0
        counts = self._count_constructions(monkeypatch)
        traj = integrate(spec, start, 0.0, 0.05, 1e-2, g=1.0)
        assert len(traj.states) == 6
        assert len(counts) == len(traj.states)
        assert set(counts) == {type(start).__name__}
