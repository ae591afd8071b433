import numpy as np
import pytest

from cplab.dynamics import (dual_position_drift, equivariance_check, integrate,
                            monitor_invariants)
from cplab.errors import Overflow, ParticleCollision
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec
from cplab.reduction import ReducedPoint, Slice, embed
from cplab.sampling import random_reduced, spec_for


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
        assert equivariance_check(spec, x0, 0.5, 1e-3) < 1e-10

    def test_overflow_aborts_with_partial(self):
        spec = SystemSpec(SystemKind.P_I, autonomous=True, tau=0.0)
        start = MatrixPhasePoint([[50.0]], [[500.0]], 0.0)
        with pytest.raises(Overflow) as exc_info:
            integrate(spec, start, 0.0, 5.0, 1e-2)
        assert exc_info.value.partial is not None
        assert len(exc_info.value.partial.states) >= 1

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


class TestMonitor:
    def test_autonomous_isospectral(self, rng):
        spec = spec_for(SystemKind.P_I, autonomous=True, tau=1.0)
        x0 = ReducedPoint(0.6 * np.array([-1.0, 0.0, 1.0]) + 0.05j,
                          0.2 * rng.normal(size=3), 0.3, 0.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-3, g=0.3)
        rep = monitor_invariants(spec, traj, [1.0, 2.0j], g=0.3)
        assert rep["conservation_asserted"]
        assert max(rep["charpoly_drift"].values()) < 1e-6
        assert rep["moment_deviation_max"] < 1e-8

    def test_nonautonomous_moment_map_still_conserved(self, rng):
        spec = spec_for(SystemKind.P_II)
        x0 = random_reduced(rng, 2, 1.0, spread=1.0, jitter=0.1)
        traj = integrate(spec, embed(x0), 0.0, 0.5, 1e-3, g=1.0)
        rep = monitor_invariants(spec, traj, [1.0], g=1.0)
        assert not rep["conservation_asserted"]
        assert rep["moment_deviation_max"] < 1e-8

    def test_free_everything_constant(self, rng):
        spec = spec_for(SystemKind.FREE)
        x0 = random_reduced(rng, 2, 1.0)
        traj = integrate(spec, embed(x0), 0.0, 1.0, 1e-2, g=1.0)
        rep = monitor_invariants(spec, traj, [1.0], g=1.0)
        assert max(rep["charpoly_drift"].values()) < 1e-12
        assert rep["energy_drift"] < 1e-12


class TestEquivariance:
    def test_free_n3(self, rng):
        x0 = random_reduced(rng, 3, 1.0)
        assert equivariance_check(spec_for(SystemKind.FREE), x0, 1.0, 1e-3) < 1e-6

    def test_p4_n2(self, rng):
        x0 = random_reduced(rng, 2, 1.0)
        assert equivariance_check(spec_for(SystemKind.P_IV), x0, 0.3, 1e-3) < 1e-6

    def test_p2_dual_slice(self, rng):
        x0 = ReducedPoint([0.1 + 0.2j, 1.4 - 0.1j], [0.4 - 0.3j, -0.2 + 0.1j],
                          1.0, 0.0, Slice.P_DIAG)
        assert equivariance_check(spec_for(SystemKind.P_II), x0, 0.3, 1e-3) < 1e-6


class TestRuijsenaars:
    def test_dual_positions_frozen_along_free_flow(self, rng):
        x0 = random_reduced(rng, 3, 1.0, complex_positions=False)
        traj = integrate(spec_for(SystemKind.FREE), x0, 0.0, 1.0, 1e-3)
        assert dual_position_drift(traj) < 1e-8
        assert np.abs(traj.final.positions - x0.positions).max() > 0.1


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
