import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cplab.dynamics
import cplab.lax
from cplab.errors import DimensionMismatch, PoleAtLambda, UnsupportedSystem
from cplab.lax import (char_poly, charpoly_coefficients, default_lambda_grid,
                       faddeev_charpoly, gauge_F, lax_l, lax_m, lax_pair,
                       reduced_lax, reduced_m, spectral_duality, spectral_match,
                       spectral_table, zero_curvature_residual)
from cplab.dynamics import integrate, monitor_invariants
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec, TangentPair
from cplab.reduction import ReducedPoint, Slice, embed, matrix_point, reduce
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


def reference_pair(spec, pt, lam, p4_variant="corrected"):
    """The point-level np.block formulas that lax_l and lax_m replaced."""
    q, p, n = pt.q, pt.p, pt.n
    I = np.eye(n, dtype=complex)
    Z = np.zeros((n, n), dtype=complex)
    T = spec.time(pt.t)
    lam = complex(lam)
    k = spec.kind

    def blocks(a, b, c, d):
        return np.block([[a, b], [c, d]])

    if k is SystemKind.FREE:
        return blocks(p, Z, Z, -p), np.zeros((2 * n, 2 * n), dtype=complex)
    if k is SystemKind.HARM_OSC:
        om = spec.omega
        return blocks(p, om * q, om * q, -p), (om / 2) * blocks(Z, -I, I, Z)
    if k is SystemKind.P_I:
        return (blocks(p, lam * I - q,
                       lam ** 2 * I + lam * q + q @ q + (T / 2) * I, -p),
                blocks(Z, I / 2, (lam / 2) * I + q, Z))
    p2_m = blocks(1j * (lam / 2) * I, q, q, -1j * (lam / 2) * I)
    if k is SystemKind.P_II:
        d = 1j * (lam ** 2 / 2) * I + 1j * q @ q + 1j * (T / 2) * I
        return (blocks(d, lam * q - 1j * p - (spec.theta / lam) * I,
                       lam * q + 1j * p - (spec.theta / lam) * I, -d), p2_m)
    th0, th1 = spec.theta0, spec.theta1
    X = q @ p + (th0 + th1) * I
    res11 = (p @ q) / lam
    L = blocks(-res11 if p4_variant == "corrected" else res11,
               X - (p @ q @ p + th0 * p) / lam,
               I + q / lam,
               -lam * I + T * I + (q @ p + th0 * I) / lam)
    if p4_variant == "corrected":
        return L, blocks((T / 2) * I, -X, -I, lam * I - q - (T / 2) * I)
    return L, p2_m


# every kind with a pair, P_IV in both variants
PAIR_CASES = [(SystemKind.FREE, "corrected"), (SystemKind.HARM_OSC, "corrected"),
              (SystemKind.P_I, "corrected"), (SystemKind.P_II, "corrected"),
              (SystemKind.P_IV, "corrected"), (SystemKind.P_IV, "printed")]


def generic_spec(kind, autonomous=False):
    return SystemSpec(kind, autonomous=autonomous, tau=0.7 if autonomous else None,
                      theta=0.4 - 0.3j, theta0=0.6 + 0.2j, theta1=-0.9,
                      omega=1.3)


class TestLaxMatrices:
    @pytest.mark.parametrize("kind,variant", PAIR_CASES)
    @pytest.mark.parametrize("autonomous", [False, True])
    def test_stack_equals_point_loop(self, rng, kind, variant, autonomous):
        # 5 states at their own times, 3 lambdas: a (3, 5, 2n, 2n) stack
        spec = generic_spec(kind, autonomous)
        n = 3
        q = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        p = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        t = rng.normal(size=5)
        lams = np.array([0.8 + 0.3j, -1.7j, 2.1])
        L = lax_l(spec, q, p, spec.time(t), lams[:, None], variant)
        M = lax_m(spec, q, p, spec.time(t), lams[:, None], variant)
        assert L.shape == M.shape == (3, 5, 2 * n, 2 * n)
        for i, lam in enumerate(lams):
            for j in range(5):
                for build, stack in ((lax_l, L), (lax_m, M)):
                    want = build(spec, q[j], p[j], spec.time(t[j]), lam, variant)
                    scale = max(np.abs(want).max(), 1e-300)
                    assert np.abs(stack[i, j] - want).max() <= 1e-15 * scale

    @pytest.mark.parametrize("kind,variant", PAIR_CASES)
    def test_lax_pair_bitwise_as_before(self, kind, variant):
        # fixed inputs, real and complex times, n = 1..4
        rng = np.random.default_rng(2024)
        for n in range(1, 5):
            for t in (0.35, 0.2 - 0.6j):
                for autonomous in (False, True):
                    spec = generic_spec(kind, autonomous)
                    pt = MatrixPhasePoint(
                        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), t)
                    lam = complex(*rng.normal(size=2))
                    T = spec.time(pt.t)
                    L, M = reference_pair(spec, pt, lam, variant)
                    assert np.array_equal(lax_l(spec, pt.q, pt.p, T, lam, variant), L)
                    assert np.array_equal(lax_m(spec, pt.q, pt.p, T, lam, variant), M)
                    if variant == "corrected":
                        sample = lax_pair(spec, pt, lam)
                        assert np.array_equal(sample.L, L)
                        assert np.array_equal(sample.M, M)

    @pytest.mark.parametrize("kind", [SystemKind.P_II, SystemKind.P_IV])
    def test_stacked_lambda_at_the_pole_raises(self, rng, kind):
        q = rng.normal(size=(4, 2, 2))
        with pytest.raises(PoleAtLambda):
            lax_l(spec_for(kind), q, q, 0.0, np.array([[1.0], [0.0], [2j]]))

    @pytest.mark.parametrize("kind", [SystemKind.P_II, SystemKind.P_IV])
    def test_m_has_no_pole_at_lambda_zero(self, rng, kind):
        # M is polynomial in lambda; only L has the pole
        q = rng.normal(size=(4, 2, 2))
        lams = np.array([[1.0], [0.0], [2j]])
        M = lax_m(spec_for(kind), q, q, 0.0, lams)
        assert M.shape == (3, 4, 4, 4) and np.all(np.isfinite(M))
        with pytest.raises(PoleAtLambda):
            lax_l(spec_for(kind), q, q, 0.0, lams)

    def test_entire_pairs_accept_lambda_zero(self, rng):
        q = rng.normal(size=(4, 2, 2))
        for kind in (SystemKind.P_I, SystemKind.HARM_OSC):
            L = lax_l(spec_for(kind), q, q, 0.0, np.array([[1.0], [0.0], [2j]]))
            assert L.shape == (3, 4, 4, 4)

    def test_kinds_without_a_pair_raise(self):
        q = np.zeros((2, 1, 1))
        for build in (lax_l, lax_m):
            with pytest.raises(UnsupportedSystem):
                build(spec_for(SystemKind.P_II_POLY), q, q, 0.0, 1.0)

    def test_unknown_p4_variant_raises(self):
        q = np.zeros((1, 1))
        for build in (lax_l, lax_m):
            with pytest.raises(ValueError, match="variant"):
                build(spec_for(SystemKind.P_IV), q, q, 0.0, 1.0, "misprinted")


class TestCharPoly:
    def test_identity(self):
        coeffs = char_poly(np.eye(3))
        assert np.abs(coeffs - np.array([1, -3, 3, -1])).max() < 1e-12

    def test_stack_matches_np_poly(self, rng):
        L = rng.normal(size=(7, 6, 6)) + 1j * rng.normal(size=(7, 6, 6))
        coeffs = charpoly_coefficients(L)
        for c, Li in zip(coeffs, L):
            ref = np.poly(np.linalg.eigvals(Li))
            assert (np.abs(c - ref) / np.maximum(1.0, np.abs(ref))).max() < 1e-13

    @given(seed=st.integers(0, 10 ** 6))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = char_poly(L)
        b = faddeev_charpoly(L)
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

    @pytest.mark.parametrize("n", [8, 12])
    def test_exact_dualities_at_large_n(self, n):
        # the determinant ratio stays at roundoff where char-poly
        # coefficients of eigenvalues lost up to all digits
        rng = np.random.default_rng(n)
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV,
                     SystemKind.HARM_OSC):
            spec = spec_for(kind, autonomous=True, tau=1.0)
            pt = random_level_set_point(rng, n, 1.0)
            xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-5)
            xp = reduce(pt, Slice.P_DIAG, 1.0, tol=1e-5)
            for a, b in ((pt, xq), (pt, xp), (xq, xp)):
                ok, dev = spectral_match(spec, a, b)
                assert ok, (kind, dev)

    def test_empty_grid_raises(self, rng):
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
        x = random_reduced(rng, 2, 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            spectral_match(spec, x, x, [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_lax_matrices_fail(self):
        # a position of 1e200 overflows L (its square is inf, and inf - inf is
        # NaN): the deviation is NaN and the verdict False
        spec = spec_for(SystemKind.P_II)
        x = ReducedPoint([0.0, 1e200], [0.3, -0.2], 1.0)
        ok, dev = spectral_match(spec, x, x)
        assert not ok and np.isnan(dev)

    def test_different_sizes_raise(self, rng):
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
        with pytest.raises(DimensionMismatch):
            spectral_match(spec, random_reduced(rng, 2, 1.0),
                           random_reduced(rng, 3, 1.0))


def reference_match(spec, a, b):
    """spectral_match's deviation by a loop over lambda: one slogdet per side and lambda."""
    pa, pb = matrix_point(a), matrix_point(b)
    k = 2 * pa.n
    circle = np.exp(2j * np.pi * np.arange(k + 1) / (k + 1))[:, None, None] * np.eye(k)
    grid = default_lambda_grid()
    La = lax_l(spec, pa.q, pa.p, spec.time(pa.t), grid)
    Lb = lax_l(spec, pb.q, pb.p, spec.time(pb.t), grid)
    devs = []
    for la, lb in zip(La, Lb):
        radius = 2 * max(np.abs(la).sum(axis=1).max(), np.abs(lb).sum(axis=1).max())
        mu = (radius or 1.0) * circle
        sign_a, log_a = np.linalg.slogdet(mu - la)
        sign_b, log_b = np.linalg.slogdet(mu - lb)
        devs.append(np.abs(sign_a / sign_b * np.exp(log_a - log_b) - 1).max())
    return float(np.max(devs))


class TestStackedSpectralMatch:
    """One L build for both sides; slogdet over bounded stacks of (lambda, side) pairs."""

    @pytest.fixture
    def slogdet_sizes(self, monkeypatch):
        sizes = []
        slogdet = np.linalg.slogdet

        def counting(a):
            sizes.append(a.size)
            return slogdet(a)

        monkeypatch.setattr(np.linalg, "slogdet", counting)
        return sizes

    def cases(self, n):
        rng = np.random.default_rng(n)
        pt = random_level_set_point(rng, n, 1.0, t=0.3)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-5)
        control = random_reduced(rng, n, 1.0, t=0.5)  # another time: T differs by side
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV,
                     SystemKind.HARM_OSC):
            for autonomous in (False, True):
                spec = spec_for(kind, autonomous=autonomous,
                                tau=1.0 if autonomous else None)
                yield spec, pt, xq
                yield spec, xq, control

    @pytest.mark.parametrize("n, calls", [(2, 1), (12, 40)])
    def test_bitwise_the_per_lambda_loop(self, n, calls, slogdet_sizes):
        for spec, a, b in self.cases(n):
            slogdet_sizes.clear()
            ok, dev = spectral_match(spec, a, b)
            assert len(slogdet_sizes) == calls  # at n = 12 the grid splits across calls
            assert max(slogdet_sizes) <= 25 * 24 * 24
            assert dev == reference_match(spec, a, b)
            assert ok == (dev < 1e-8)

    def test_zero_radius(self):
        # the n = 1 free L at rest is 0, so the mu circle takes radius 1
        spec = spec_for(SystemKind.FREE)
        rest = ReducedPoint([0.0], [0.0], 1.0)
        assert spectral_match(spec, rest, MatrixPhasePoint([[0.0]], [[0.0]])) == (True, 0.0)
        moving = ReducedPoint([0.0], [0.7], 1.0)
        ok, dev = spectral_match(spec, rest, moving)
        assert not ok and dev == reference_match(spec, rest, moving)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_non_finite_side_fails(self):
        spec = spec_for(SystemKind.P_II)
        x = ReducedPoint([0.0, 1e200], [0.3, -0.2], 1.0)
        y = ReducedPoint([0.0, 1.0], [0.3, -0.2], 1.0)
        for a, b in ((x, y), (y, x)):
            ok, dev = spectral_match(spec, a, b)
            assert not ok and np.isnan(dev)


class TestLOnlyReaders:
    """The spectral curve det(mu - L) reads L only: no reader builds M."""

    @pytest.fixture(autouse=True)
    def no_m(self, monkeypatch):
        def stub(*args, **kwargs):
            raise AssertionError("lax_m called by a reader of L only")
        monkeypatch.setattr(cplab.lax, "lax_m", stub)
        monkeypatch.setattr(cplab.dynamics, "lax_m", stub, raising=False)

    def test_spectral_readers(self, rng):
        spec = spec_for(SystemKind.P_II, autonomous=True, tau=1.0)
        pt = random_level_set_point(rng, 3, 1.0)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
        assert spectral_match(spec, pt, xq)[0]
        assert spectral_table(spec, xq).shape == (20, 7)
        assert max(spectral_duality(spec, pt, 1.0).values()) < 1e-8

    def test_monitor(self, rng):
        spec = spec_for(SystemKind.P_I, autonomous=True, tau=1.0)
        x0 = random_reduced(rng, 2, 1.0)
        traj = integrate(spec, embed(x0), 0.0, 0.05, 1e-2, g=1.0)
        rep = monitor_invariants(spec, traj, [1.0, 2.0j])
        assert max(rep["charpoly_drift"].values()) < 1e-6


PAIR_KINDS = (SystemKind.FREE, SystemKind.HARM_OSC, SystemKind.P_I,
              SystemKind.P_II, SystemKind.P_IV)


class TestZeroCurvature:
    def test_exact_pairs_at_roundoff(self, rng):
        for kind in PAIR_KINDS:
            for autonomous in (False, True):
                spec = spec_for(kind, autonomous=autonomous,
                                tau=1.0 if autonomous else None)
                pt = MatrixPhasePoint(
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.3)
                r = zero_curvature_residual(spec, pt, 0.9 + 0.2j)
                assert r <= 1e-12, (kind, autonomous, r)

    def test_harmosc_exact(self, rng):
        spec = spec_for(SystemKind.HARM_OSC)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert zero_curvature_residual(spec, pt, 1.0) <= 1e-12

    def test_perturbation_detector(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        pt = MatrixPhasePoint([[0.4]], [[0.3]], 0.2)
        pert = TangentPair([[0.0]], [[1e-3]])
        r = zero_curvature_residual(spec, pt, 1.1, perturb=pert)
        assert r > 1e-4

    @pytest.mark.parametrize("autonomous", [False, True])
    def test_one_l_build_on_the_ray_and_one_m_build_at_the_point(
            self, rng, monkeypatch, autonomous):
        calls = []
        for name in ("lax_l", "lax_m"):
            build = getattr(cplab.lax, name)

            def counting(spec, q, p, T, lam, p4_variant, _name=name, _build=build):
                out = _build(spec, q, p, T, lam, p4_variant)
                calls.append((_name, out.shape))
                return out
            monkeypatch.setattr(cplab.lax, name, counting)
        spec = spec_for(SystemKind.P_II, autonomous=autonomous,
                        tau=1.0 if autonomous else None)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.3)
        assert zero_curvature_residual(spec, pt, 0.9 + 0.2j) <= 1e-12
        assert calls == [("lax_l", (5, 4, 4)), ("lax_m", (3, 4, 4))]

    def test_p4_printed_fails_corrected_passes(self, rng):
        spec = spec_for(SystemKind.P_IV)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.2)
        assert zero_curvature_residual(spec, pt, 1.1, p4_variant="printed") > 1e-2
        assert zero_curvature_residual(spec, pt, 1.1) <= 1e-12


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
