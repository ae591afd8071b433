import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cplab.errors import PoleAtLambda, UnsupportedSystem
from cplab.lax import (char_poly, default_lambda_grid, gauge_F, lax_pair,
                       reduced_lax, reduced_m, spectral_match,
                       zero_curvature_residual)
from cplab.dynamics import integrate
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec, TangentPair
from cplab.reduction import ReducedPoint, Slice, embed, reduce
from cplab.sampling import random_level_set_point, random_reduced, spec_for


class TestLaxPair:
    def test_harmosc_worked(self):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)
        pt = MatrixPhasePoint([[4.0]], [[3.0]])
        sample = lax_pair(spec, pt, 0.7)
        assert np.abs(sample.L - np.array([[3.0, 4.0], [4.0, -3.0]])).max() == 0
        assert np.abs(char_poly(sample.L) - np.array([1.0, 0.0, -25.0])).max() < 1e-12

    def test_p2_vacuum(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        sample = lax_pair(spec, MatrixPhasePoint([[0.0]], [[0.0]], 0.0), 1.0)
        assert np.abs(sample.L - np.diag([0.5j, -0.5j])).max() < 1e-15

    def test_p1_blocks(self, rng):
        spec = SystemSpec(SystemKind.P_I)
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pt = MatrixPhasePoint(q, p, 0.3)
        L = lax_pair(spec, pt, 2.0).L
        assert np.abs(L[:2, 2:] - (2 * np.eye(2) - q)).max() < 1e-15
        expect = 4 * np.eye(2) + 2 * q + q @ q + 0.15 * np.eye(2)
        assert np.abs(L[2:, :2] - expect).max() < 1e-15

    def test_pole_at_zero(self):
        pt = MatrixPhasePoint([[0.1]], [[0.2]])
        for kind in (SystemKind.P_II, SystemKind.P_IV):
            with pytest.raises(PoleAtLambda):
                lax_pair(spec_for(kind), pt, 0.0)
        # P_I and HarmOsc are entire in lambda
        lax_pair(spec_for(SystemKind.P_I), pt, 0.0)
        lax_pair(spec_for(SystemKind.HARM_OSC), pt, 0.0)

    def test_p2_poly_unsupported(self):
        with pytest.raises(UnsupportedSystem):
            lax_pair(spec_for(SystemKind.P_II_POLY),
                     MatrixPhasePoint([[0.1]], [[0.2]]), 1.0)

    def test_free_spectrum_is_p(self, rng):
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        L = lax_pair(spec_for(SystemKind.FREE), pt, 1.0).L
        eig_l = np.linalg.eigvals(L)
        eig_p = np.linalg.eigvals(pt.p)
        expect = np.concatenate([eig_p, -eig_p])
        from cplab.reduction import match_permutation
        perm = match_permutation(expect, eig_l)
        assert np.abs(eig_l[perm] - expect).max() < 1e-10


class TestCharPoly:
    def test_identity(self):
        coeffs = char_poly(np.eye(3))
        assert np.abs(coeffs - np.array([1, -3, 3, -1])).max() < 1e-12

    @given(seed=st.integers(0, 10 ** 6))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = char_poly(L, "eig")
        b = char_poly(L, "faddeev")
        scale = np.maximum(1.0, np.abs(b))
        assert (np.abs(a - b) / scale).max() < 1e-10

    @given(seed=st.integers(0, 10 ** 6))
    def test_conjugation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        G = np.eye(6) + 0.4 * rng.normal(size=(6, 6))
        if np.linalg.cond(G) > 1e3:
            return
        a = char_poly(L)
        b = char_poly(np.linalg.solve(G, L @ G))
        scale = np.maximum(1.0, np.abs(a))
        assert (np.abs(a - b) / scale).max() < 1e-9


class TestReducedLax:
    def test_n1_equals_matrix_pair(self):
        spec = spec_for(SystemKind.P_II)
        x = ReducedPoint([0.4], [0.9], 1.0, t=0.2)
        a = reduced_lax(spec, x, 1.3)
        b = lax_pair(spec, embed(x), 1.3)
        assert np.abs(a.L - b.L).max() == 0

    def test_p2_offdiag_structure(self):
        # the reduced momentum blocks carry i*g/(q1-q2)
        spec = SystemSpec(SystemKind.P_II, autonomous=True, tau=1.0, theta=0.2)
        x = ReducedPoint([0.0, 1.0], [0.3, -0.4], 1.0)
        L = reduced_lax(spec, x, 1.1).L
        # L12 = lam q - i p - theta/lam: off-diagonal of q vanishes, so the
        # off-diagonal entries are -i * (i g / dq) = g / dq
        assert abs(L[0, 3] - (-1j) * (1j * 1.0 / (0.0 - 1.0))) < 1e-14

    def test_harmosc_dual_structure(self):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=2.0)
        x = ReducedPoint([0.0, 1.0], [0.2, 0.5], 1.0, slice=Slice.P_DIAG)
        L = reduced_lax(spec, x, 0.5).L
        assert np.abs(L[:2, :2] - np.diag([0.0, 1.0])).max() < 1e-15
        phi_01 = -1j * 1.0 / (0.0 - 1.0)
        assert abs(L[0, 3] - 2.0 * phi_01) < 1e-14


class TestSpectralMatch:
    def test_reduction_preserves_curve(self, rng):
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV,
                     SystemKind.HARM_OSC):
            spec = spec_for(kind, autonomous=True, tau=1.0)
            pt = random_level_set_point(rng, 3, 1.0)
            xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
            xp = reduce(pt, Slice.P_DIAG, 1.0, tol=1e-6)
            ok, dev = spectral_match(spec, pt, xq)
            assert ok, (kind, dev)
            ok, dev = spectral_match(spec, xq, xp)
            assert ok, (kind, dev)

    def test_negative_control(self, rng):
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
        a = random_reduced(rng, 3, 1.0)
        b = random_reduced(rng, 3, 1.0)
        ok, dev = spectral_match(spec, a, b)
        assert not ok and dev > 1e-4

    def test_nonautonomous_curves_match_too(self, rng):
        spec = spec_for(SystemKind.P_II)
        pt = random_level_set_point(rng, 2, 1.0, t=0.4)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
        ok, dev = spectral_match(spec, pt, xq)
        assert ok, dev

    def test_harmosc_curve_lambda_free(self):
        # n=1: det(L - mu) = mu^2 - (p^2 + w^2 q^2), no lambda dependence
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)
        pt = MatrixPhasePoint([[4.0]], [[3.0]])
        coeffs = [char_poly(lax_pair(spec, pt, lam).L)
                  for lam in default_lambda_grid()]
        spread = max(np.abs(c - coeffs[0]).max() for c in coeffs)
        assert spread == 0
        assert np.abs(coeffs[0] - np.array([1, 0, -25])).max() < 1e-12


class TestZeroCurvature:
    def test_order_four_scaling(self, rng):
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV):
            for autonomous in (False, True):
                spec = spec_for(kind, autonomous=autonomous,
                                tau=1.0 if autonomous else None)
                pt = MatrixPhasePoint(
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.3)
                r1 = zero_curvature_residual(spec, pt, 0.9 + 0.2j, h=1e-2)
                r2 = zero_curvature_residual(spec, pt, 0.9 + 0.2j, h=5e-3)
                assert 12.0 < r1 / r2 < 20.0, (kind, autonomous, r1, r2)

    def test_harmosc_exact(self, rng):
        spec = spec_for(SystemKind.HARM_OSC)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert zero_curvature_residual(spec, pt, 1.0, h=1e-3) < 1e-9

    def test_perturbation_detector(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        pt = MatrixPhasePoint([[0.4]], [[0.3]], 0.2)
        pert = TangentPair([[0.0]], [[1e-3]])
        r = zero_curvature_residual(spec, pt, 1.1, h=1e-2, perturb=pert)
        assert r > 0.1 * 1e-3

    def test_p4_printed_fails_corrected_passes(self, rng):
        spec = spec_for(SystemKind.P_IV)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.2)
        assert zero_curvature_residual(spec, pt, 1.1, h=1e-2,
                                       p4_variant="printed") > 1e-2
        assert zero_curvature_residual(spec, pt, 1.1, h=1e-2) < 1e-5


class TestGaugeF:
    def test_n1_vanishes(self):
        spec = spec_for(SystemKind.P_II)
        assert gauge_F(spec, ReducedPoint([0.4], [0.2], 1.0))[0, 0] == 0

    def test_small_coupling_limit(self):
        spec = SystemSpec(SystemKind.P_II, autonomous=True, tau=0.5, theta=0.1)
        for g in (1e-2, 1e-4, 1e-6):
            F = gauge_F(spec, ReducedPoint([0.0, 1.0], [0.3, -0.2], g))
            assert np.abs(F).max() < 10 * g

    def _reduced_pair_residual(self, spec, x, lam, h=1e-3):
        # Lax equation at the midpoint of a forward flow leg of length 2h:
        # central differences over +-h and +-h/2, then one Richardson step
        states = integrate(spec, x, x.t, x.t + 2 * h, h / 2).states
        L = [reduced_lax(spec, s, lam).L for s in states]
        d1 = (L[4] - L[0]) / (2 * h)
        d2 = (L[3] - L[1]) / h
        Lt = (4 * d2 - d1) / 3
        M = reduced_m(spec, states[2], lam)
        return np.abs(Lt + L[2] @ M - M @ L[2]).max()

    def test_reduced_pair_zero_curvature(self):
        spec = SystemSpec(SystemKind.P_II, autonomous=True, tau=0.7, theta=0.3)
        x = ReducedPoint(np.array([0.2, 1.4]) + 1j * np.array([0.1, -0.2]),
                         np.array([0.3, -0.5]), 1.0, 0.0, Slice.Q_DIAG)
        assert self._reduced_pair_residual(spec, x, 1.3 + 0.4j) < 1e-7

    def test_reduced_pair_dual_slice(self):
        spec = SystemSpec(SystemKind.P_I, autonomous=True, tau=0.5)
        x = ReducedPoint([0.4, 1.8], [0.2, -0.7], 1.0, 0.0, Slice.P_DIAG)
        assert self._reduced_pair_residual(spec, x, 0.9) < 1e-7


class TestLaurentExtraction:
    def test_harmosc_has_no_lambda_dependence(self):
        # Laurent coefficients of det(mu - L(lambda)) read off a circle in the
        # lambda plane: the HarmOsc L carries no spectral parameter, so only
        # order 0 survives and it is the lambda-free char poly.
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)
        pt = MatrixPhasePoint([[4.0]], [[3.0]])
        n_pts = 8
        lams = 1.5 * np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
        samples = np.array([char_poly(lax_pair(spec, pt, lam).L) for lam in lams])
        coeffs = np.fft.fft(samples, axis=0) / n_pts
        assert np.abs(coeffs[1:]).max() < 1e-12
        assert np.abs(coeffs[0] - np.array([1.0, 0.0, -25.0])).max() < 1e-12
        assert np.array_equal(lax_pair(spec, pt, 2.3 - 1.1j).L, lax_pair(spec, pt, 0.7).L)
