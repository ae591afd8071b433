import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cplab.dynamics
import cplab.lax
from cplab.errors import DimensionMismatch, PoleAtLambda, UnsupportedSystem
from cplab.lax import (char_poly, default_lambda_grid, gauge_F, l_coefficients, lax_l,
                       lax_m, lax_pair, newton_charpoly, power_trace_scale, power_traces,
                       reduced_lax, reduced_m, row_sum_norm, spectral_duality,
                       spectral_match, spectral_table, zero_curvature_residual)
from cplab.dynamics import MONITOR_LAMBDAS, integrate, monitor_invariants
from cplab.hamiltonians import trace_hamiltonian
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec
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
        L = lax_l(spec, q, p, t, lams[:, None], variant)
        M = lax_m(spec, q, p, t, lams[:, None], variant)
        assert L.shape == M.shape == (3, 5, 2 * n, 2 * n)
        for i, lam in enumerate(lams):
            for j in range(5):
                for build, stack in ((lax_l, L), (lax_m, M)):
                    want = build(spec, q[j], p[j], t[j], lam, variant)
                    scale = max(np.abs(want).max(), 1e-300)
                    assert np.abs(stack[i, j] - want).max() <= 1e-15 * scale

    @pytest.mark.parametrize("kind,variant", PAIR_CASES)
    def test_lax_pair_matches_the_block_formulas(self, kind, variant):
        # fixed inputs, real and complex times, n = 1..4: the tables read at
        # lambda agree with the block formulas to roundoff, and exactly for
        # the lambda-free Free and HarmOsc pairs
        rng = np.random.default_rng(2024)
        for n in range(1, 5):
            for t in (0.35, 0.2 - 0.6j):
                for autonomous in (False, True):
                    spec = generic_spec(kind, autonomous)
                    pt = MatrixPhasePoint(
                        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), t)
                    lam = complex(*rng.normal(size=2))
                    built = [lax_l(spec, pt.q, pt.p, pt.t, lam, variant),
                             lax_m(spec, pt.q, pt.p, pt.t, lam, variant)]
                    if variant == "corrected":
                        built += lax_pair(spec, pt, lam)
                    for got, want in zip(built, 2 * reference_pair(spec, pt, lam, variant)):
                        if kind in (SystemKind.FREE, SystemKind.HARM_OSC):
                            assert np.array_equal(got, want)
                        else:
                            scale = max(np.abs(want).max(), 1e-300)
                            assert np.abs(got - want).max() <= 1e-15 * scale

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
        # every kind whose table has no negative power
        for kind in (SystemKind.FREE, SystemKind.P_I, SystemKind.HARM_OSC):
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
        coeffs = char_poly(L)
        assert coeffs.shape == (7, 7)
        for c, Li in zip(coeffs, L):
            ref = np.poly(np.linalg.eigvals(Li))
            assert (np.abs(c - ref) / np.maximum(1.0, np.abs(ref))).max() < 1e-13

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3)])
    def test_non_square_raises(self, shape):
        with pytest.raises(ValueError, match="square"):
            char_poly(np.zeros(shape))

    def test_empty_matrix(self):
        for charpoly in (char_poly, newton_charpoly):
            assert np.array_equal(charpoly(np.zeros((0, 0))), [1.0])

    @given(seed=st.integers(0, 10 ** 6))
    def test_methods_agree(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = char_poly(L)
        b = newton_charpoly(L)
        scale = np.maximum(1.0, np.abs(b))
        assert (np.abs(a - b) / scale).max() < 1e-10

    @given(seed=st.integers(0, 10 ** 6))
    @example(seed=139951)
    def test_conjugation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        G = np.eye(6) + 0.4 * rng.normal(size=(6, 6))
        cond = np.linalg.cond(G)
        if cond > 1e3:
            return
        a = char_poly(L)
        b = char_poly(np.linalg.solve(G, L @ G))
        scale = np.maximum(1.0, np.abs(a))
        # the eigen route loses about cond(G) eps: over every seed drawn here
        # (994653 of 0..10^6 kept) the gap is at most 3.17e-12 cond(G), at
        # seed 139951 (cond(G) = 778); 1e-11 cond(G) is 1e-9 at cond(G) = 100
        assert (np.abs(a - b) / scale).max() < 1e-11 * cond


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
            spec = spec_for(kind, tau=1.0)
            pt = random_level_set_point(rng, 3, 1.0)
            xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
            xp = reduce(pt, Slice.P_DIAG, 1.0, tol=1e-6)
            ok, dev = spectral_match(spec, pt, xq)
            assert ok, (kind, dev)
            ok, dev = spectral_match(spec, xq, xp)
            assert ok, (kind, dev)

    def test_negative_control(self, rng):
        spec = spec_for(SystemKind.P_II, tau=1.0)
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
            spec = spec_for(kind, tau=1.0)
            pt = random_level_set_point(rng, n, 1.0)
            xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-5)
            xp = reduce(pt, Slice.P_DIAG, 1.0, tol=1e-5)
            for a, b in ((pt, xq), (pt, xp), (xq, xp)):
                ok, dev = spectral_match(spec, a, b)
                assert ok, (kind, dev)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_lax_matrices_fail(self):
        # a position of 1e200 overflows L (its square is inf, and inf - inf is
        # NaN): the deviation is NaN and the verdict False
        spec = spec_for(SystemKind.P_II)
        x = ReducedPoint([0.0, 1e200], [0.3, -0.2], 1.0)
        ok, dev = spectral_match(spec, x, x)
        assert not ok and np.isnan(dev)

    def test_different_sizes_raise(self, rng):
        spec = spec_for(SystemKind.P_II, tau=1.0)
        with pytest.raises(DimensionMismatch):
            spectral_match(spec, random_reduced(rng, 2, 1.0),
                           random_reduced(rng, 3, 1.0))

    @pytest.mark.parametrize("sl", list(Slice))
    def test_a_reduced_point_is_its_embedding(self, rng, sl):
        # both descriptions give one (q, p, t), so one side: an exact 0
        pt = random_level_set_point(rng, 3, 1.0)
        x = reduce(pt, sl, 1.0, tol=1e-6)
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV):
            for spec in (spec_for(kind), spec_for(kind, tau=1.0)):
                assert spectral_match(spec, x, embed(x)) == (True, 0.0)
                assert spectral_match(spec, embed(x), x) == (True, 0.0)

    def test_reduced_sides_build_no_point(self, rng, monkeypatch):
        pt = random_level_set_point(rng, 3, 1.0)
        built = []
        check = MatrixPhasePoint.__post_init__
        monkeypatch.setattr(MatrixPhasePoint, "__post_init__",
                            lambda self: built.append(self) or check(self))
        spectral_duality(spec_for(SystemKind.P_II, tau=1.0), pt, 1.0)
        assert built == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sl", list(Slice))
    def test_an_overflowing_embedding_is_refused(self, sl):
        # g / (x_i - x_j) overflows: the resolved block is not finite, and
        # spectral_match refuses it with the error a matrix point gives
        x = ReducedPoint([0.0, 0.5], [0.1, 0.2], 1e308, slice=sl)
        y = ReducedPoint([0.0, 1.0], [0.1, 0.2], 1.0, slice=sl)
        resolved = "p" if sl is Slice.Q_DIAG else "q"
        with pytest.raises(ValueError) as built:
            embed(x)
        assert str(built.value) == f"{resolved} contains non-finite entries"
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError) as refused:
                spectral_match(spec_for(SystemKind.P_II), a, b)
            assert str(refused.value) == str(built.value)


def test_lambda_grid_built_once():
    # the points of the expression that built the grid at every call,
    # bitwise, in a new list each call
    grid = default_lambda_grid()
    expr = [r * np.exp(1j * (2 * np.pi * k / 10 + 0.37)) for r in (0.5, 2.0)
            for k in range(10)]
    assert [z.tobytes() for z in grid] == [z.tobytes() for z in expr]
    grid.clear()
    assert len(default_lambda_grid()) == 20


def reference_match(spec, a, b):
    """spectral_match's deviation by a loop over lambda: traces of np.linalg.matrix_power."""
    pa, pb = matrix_point(a), matrix_point(b)
    k = 2 * pa.n
    grid = default_lambda_grid()
    La = lax_l(spec, pa.q, pa.p, pa.t, grid)
    Lb = lax_l(spec, pb.q, pb.p, pb.t, grid)
    devs = []
    for la, lb in zip(La, Lb):
        s = max(np.abs(la).sum(axis=1).max(), np.abs(lb).sum(axis=1).max()) or 1.0
        ta, tb = ([np.trace(np.linalg.matrix_power(m / s, j)) for j in range(1, k + 1)]
                  for m in (la, lb))
        devs.append(np.abs(np.subtract(ta, tb)).max())
    return float(np.max(devs))


class TestPowerTraces:
    # one giant step up to K = 8, then more, the last reading a single
    # trace at K = 9 and 17
    @pytest.mark.parametrize("K", [*range(1, 10), 12, 16, 17, 24])
    def test_match_matrix_powers(self, rng, K):
        A = rng.normal(size=(3, 2, K, K)) + 1j * rng.normal(size=(3, 2, K, K))
        A /= np.abs(A).sum(axis=-1).max()
        ref = np.trace(np.stack([np.linalg.matrix_power(A, k) for k in range(1, K + 1)],
                                axis=-3), axis1=-2, axis2=-1)
        assert np.abs(power_traces(A) - ref).max() < 1e-14

    @pytest.mark.parametrize("K, products", [(6, 2), (16, 5), (24, 7)])
    def test_batched_products(self, monkeypatch, rng, K, products):
        # K / 2 - 1 at K <= 8, one giant step; beyond, the babies A^2 .. A^4
        # and one product per giant after the first
        shapes = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *args, **kw: shapes.append(args[0].shape)
                            or matmul(*args, **kw))
        power_traces(rng.normal(size=(20, K, K)) + 0j)
        assert shapes == [(20, K, K)] * products

    def test_live_stacks(self, rng):
        # besides A, at most POWER_TRACE_STACKS stacks of its size: the
        # babies A^2 .. A^4 and the two giants
        A = rng.normal(size=(20, 24, 24)) + 0j
        tracemalloc.start()
        try:
            power_traces(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cplab.lax.POWER_TRACE_STACKS * A.nbytes + 2 ** 14

    def test_no_trace_at_K0(self):
        assert power_traces(np.zeros((5, 2, 0, 0), dtype=complex)).shape == (5, 2, 0)

    def test_one_kernel(self, monkeypatch):
        # the monitor reads the traces through this kernel, not one of its own,
        # and so does criterion 16's reference
        assert cplab.dynamics.power_traces is power_traces
        calls = []
        monkeypatch.setattr(cplab.lax, "power_traces",
                            lambda A: calls.append(A.shape) or power_traces(A))
        newton_charpoly(np.eye(3))
        assert calls == [(3, 3)]

    def test_one_scale(self, monkeypatch, rng):
        # one scale definition, shared by the monitor and spectral_match: each
        # side and the monitor make one pass of the row-sum norm, and no other
        assert cplab.dynamics.power_trace_scale is power_trace_scale
        calls = []
        monkeypatch.setattr(cplab.lax, "row_sum_norm",
                            lambda L, axis=None: calls.append((L.shape, axis))
                            or row_sum_norm(L, axis))
        spec = spec_for(SystemKind.P_I)
        pt = MatrixPhasePoint(np.eye(2), np.eye(2), 0.3)
        spectral_match(spec, pt, MatrixPhasePoint(pt.q, 2 * pt.p, 0.3))
        # one call per side, one norm per lambda of its (lambda, 2n, 2n) stack
        assert calls == [((len(default_lambda_grid()), 4, 4), ())] * 2
        calls.clear()
        q = rng.normal(size=(5, 2, 2)) + 0j
        cplab.dynamics.power_trace_drift(spec, q, 2 * q, np.linspace(0, 1, 5), (1.0,))
        # the monitor's one scale per lambda, of the first state's L at every
        # lambda in one call
        assert calls == [((1, 1, 4, 4), ())]
        calls.clear()
        cplab.dynamics.power_trace_drift(spec, q, 2 * q, np.linspace(0, 1, 5),
                                         MONITOR_LAMBDAS)
        assert calls == [((len(MONITOR_LAMBDAS), 1, 4, 4), ())]

    def test_side_norm_is_the_scale_where_l_is_not_zero(self, rng):
        # nu is the row-sum norm: 0 for a zero L, where the scale is 1, and
        # the scale itself wherever L is not zero
        side = cplab.lax._spectral_side
        q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        zero = np.zeros((3, 3), dtype=complex)
        nu, traces = side(spec_for(SystemKind.FREE), 3, q.tobytes(), zero.tobytes(), 0.0)
        assert nu.tolist() == [0.0] * len(default_lambda_grid())
        assert not traces.any()
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV):
            spec = spec_for(kind, tau=1.0)
            nu, _ = side(spec, 3, q.tobytes(), (2 * q).tobytes(), 0.0)
            L = lax_l(spec, q, 2 * q, 0.0, default_lambda_grid())
            assert L.any(axis=(-2, -1)).all()
            assert nu.tobytes() == power_trace_scale(L, axis=())[:, 0, 0].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scaling_by_the_reciprocal_is_division(self, rng):
        # L * (1 / s) is L / s: numpy divides a complex entry by a real s
        # through its reciprocal.  Bitwise on random stacks of every K of the
        # lab; the lab's own stacks hold exact zeros (the off-diagonal of an
        # embedded diagonal block, and its negative), whose signs may differ,
        # and no reader tells them apart: every reading goes through |.|.
        # A numpy that rounds the two differently fails here.
        for K in range(2, 25):
            L = rng.normal(size=(20, K, K)) + 1j * rng.normal(size=(20, K, K))
            L *= 10.0 ** rng.uniform(-8, 8, size=(20, 1, 1))
            s = power_trace_scale(L, axis=())
            assert (L * (1 / s)).tobytes() == (L / s).tobytes()
        grid = default_lambda_grid()
        for kind in (SystemKind.FREE, SystemKind.HARM_OSC, SystemKind.P_I,
                     SystemKind.P_II, SystemKind.P_IV):
            spec = spec_for(kind, tau=1.0)
            for n in (1, 2, 4, 12):
                pt = random_level_set_point(rng, n, 1.0)
                for x in (pt, *(embed(reduce(pt, sl, 1.0, tol=1e-5)) for sl in Slice)):
                    L = lax_l(spec, x.q, x.p, x.t, grid)
                    # a side's scales per lambda, and the monitor's one scale
                    for stack, s in ((L, power_trace_scale(L, axis=())),
                                     (L[:5], power_trace_scale(L[0]))):
                        a, b = stack * (1 / s), stack / s
                        assert (a + 0.0).tobytes() == (b + 0.0).tobytes()
        # non-finite entries give the same non-finite values
        L = np.array([[np.inf + 1j, np.nan], [1e308 + 1e308j, -2.0]])
        s = np.array([[3.0]])
        assert np.array_equal(L * (1 / s), L / s, equal_nan=True)

    def test_scale_is_the_largest_row_sum_norm(self):
        L = np.array([[1.0, -2j], [0.5, 0.25]])
        assert power_trace_scale(L).tolist() == [[3.0]]
        assert power_trace_scale(np.stack([L, 2 * L, -L])).shape == (1, 1, 1)
        assert power_trace_scale(np.stack([L, 2 * L, -L]))[0, 0, 0] == 6.0
        L[1, 1] = np.nan
        assert np.isnan(power_trace_scale(L)).all()

    def test_scale_of_a_zero_stack_is_one(self):
        assert power_trace_scale(np.zeros((3, 4, 4))).tolist() == [[[1.0]]]
        sides = np.zeros((5, 2, 4, 4), dtype=complex)
        assert (power_trace_scale(sides, axis=1) == 1.0).all()

    def test_scale_per_lambda_is_the_larger_side(self, rng):
        # (lambda, side, K, K): one scale per lambda, the larger side's
        L = rng.normal(size=(6, 2, 4, 4)) + 1j * rng.normal(size=(6, 2, 4, 4))
        L[2] = 0.0          # both sides zero at one lambda: the scale is 1 there
        L[4, 0] = 0.0       # one zero side: the other one's norm
        s = power_trace_scale(L, axis=1)
        assert s.shape == (6, 1, 1, 1)
        norms = np.abs(L).sum(axis=-1).max(axis=-1)  # (lambda, side)
        for k in range(6):
            expect = max(norms[k]) if k != 2 else 1.0
            assert s[k, 0, 0, 0] == expect
        assert s[4, 0, 0, 0] == norms[4, 1]


class TestStackedSpectralMatch:
    """One L build per side; sequential power traces of each side's lambda stack."""

    def cases(self, n):
        rng = np.random.default_rng(n)
        pt = random_level_set_point(rng, n, 1.0, t=0.3)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-5)
        control = random_reduced(rng, n, 1.0, t=0.5)  # another time: T differs by side
        for kind in (SystemKind.P_I, SystemKind.P_II, SystemKind.P_IV,
                     SystemKind.HARM_OSC):
            for tau in (None, 1.0):
                spec = spec_for(kind, tau)
                yield spec, pt, xq
                yield spec, xq, control

    @pytest.mark.parametrize("n", [2, 12])
    def test_matches_the_per_lambda_loop(self, n):
        # matrix_power multiplies by repeated squaring, spectral_match one
        # factor at a time: the same traces up to roundoff, not bitwise
        for spec, a, b in self.cases(n):
            ok, dev = spectral_match(spec, a, b)
            assert abs(dev - reference_match(spec, a, b)) <= 1e-14
            assert ok == (dev < 1e-8)

    def test_makes_no_determinant_or_eigensolve(self, monkeypatch):
        cases = list(self.cases(4))  # reduce diagonalizes: draw the points first

        def refuse(*args, **kwargs):
            raise AssertionError("spectral_match made a determinant or an eigensolve")

        for solver in ("slogdet", "det", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, solver, refuse)
        for spec, a, b in cases:
            spectral_match(spec, a, b)

    def test_peak_memory_at_n12(self):
        # one side's lambda stack of L, 0.18 MiB at n = 12, and the five stacks
        # of power_traces, three babies and two giants (1.09 MiB in all): the
        # second side is powered after the first one's stacks are freed
        spec = spec_for(SystemKind.P_II, tau=1.0)
        _, a, b = next(self.cases(12))
        tracemalloc.start()
        try:
            spectral_match(spec, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("kind", [SystemKind.P_I, SystemKind.P_II])
    @pytest.mark.parametrize("seed", range(5))
    def test_dressed_control_resolved_at_n12(self, kind, seed):
        # two level-set points of one n, g and t, each conjugated by a
        # stabilizer element, as verify-duality draws its control
        rng = np.random.default_rng(seed)
        a, b = (random_level_set_point(rng, 12, 1.0) for _ in range(2))
        ok, dev = spectral_match(spec_for(kind, tau=1.0), a, b)
        assert not ok and dev > 1e-6

    @pytest.mark.parametrize("speed", [0.5, 0.7])
    def test_zero_radius(self, speed):
        # the n = 1 free L at rest is 0, so the scale is 1
        spec = spec_for(SystemKind.FREE)
        rest = ReducedPoint([0.0], [0.0], 1.0)
        assert spectral_match(spec, rest, MatrixPhasePoint([[0.0]], [[0.0]])) == (True, 0.0)
        # the moving side, of norm below 1, sets the scale of both and scales
        # to diag(1, -1): Tr A^2 reads 2 against 0, in either order
        moving = ReducedPoint([0.0], [speed], 1.0)
        for a, b in ((rest, moving), (moving, rest)):
            assert spectral_match(spec, a, b) == (False, 2.0)
            assert reference_match(spec, a, b) == 2.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_non_finite_side_fails(self):
        spec = spec_for(SystemKind.P_II)
        x = ReducedPoint([0.0, 1e200], [0.3, -0.2], 1.0)
        y = ReducedPoint([0.0, 1.0], [0.3, -0.2], 1.0)
        for a, b in ((x, y), (y, x)):
            ok, dev = spectral_match(spec, a, b)
            assert not ok and np.isnan(dev)


class TestSpectralSides:
    """spectral_match powers each side once and holds SIDE_CACHE_SIZE sides."""

    @pytest.fixture
    def powered(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cplab.lax, "power_traces",
                            lambda A: calls.append(A.shape) or power_traces(A))
        return calls

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_duality_triple_powers_three_sides(self, powered, n):
        pt = random_level_set_point(np.random.default_rng(n), n, 1.0)
        spectral_duality(spec_for(SystemKind.P_II, tau=1.0), pt, 1.0)
        assert powered == [(len(default_lambda_grid()), 2 * n, 2 * n)] * 3

    def test_a_hit_is_the_miss(self, powered, rng):
        spec = spec_for(SystemKind.P_IV, tau=1.0)
        pt = random_level_set_point(rng, 3, 1.0)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
        key = spec, pt.n, pt.q.tobytes(), pt.p.tobytes(), pt.t
        miss = spectral_match(spec, pt, xq), cplab.lax._spectral_side(*key)
        hit = spectral_match(spec, pt, xq), cplab.lax._spectral_side(*key)
        assert len(powered) == 2
        cplab.lax._spectral_side.cache_clear()
        again = spectral_match(spec, pt, xq), cplab.lax._spectral_side(*key)
        assert len(powered) == 4
        for match, (nu, traces) in (hit, again):
            assert match == miss[0]
            assert nu.tobytes() == miss[1][0].tobytes()
            assert traces.tobytes() == miss[1][1].tobytes()

    def test_four_other_sides_evict_the_first(self, powered, rng):
        spec = spec_for(SystemKind.P_I, tau=1.0)
        p = [random_level_set_point(rng, 2, 1.0) for _ in range(5)]
        spectral_match(spec, p[0], p[1])
        spectral_match(spec, p[2], p[3])
        spectral_match(spec, p[1], p[3])  # held: no side is powered
        assert len(powered) == 4
        spectral_match(spec, p[4], p[0])  # p[4] is the fifth side: p[0] goes
        assert len(powered) == 6
        assert cplab.lax.SIDE_CACHE_SIZE == 4

    def test_held_sides_are_read_only(self):
        spec = spec_for(SystemKind.P_II, tau=1.0)
        pt = MatrixPhasePoint(np.eye(2), np.eye(2), 0.3)
        spectral_match(spec, pt, pt)
        nu, traces = cplab.lax._spectral_side(spec, 2, pt.q.tobytes(), pt.p.tobytes(),
                                               pt.t)
        for held in (nu, traces):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 1.0

    @pytest.mark.parametrize("kind, name", [(SystemKind.P_II, "theta"),
                                            (SystemKind.P_IV, "theta0"),
                                            (SystemKind.P_IV, "theta1")])
    def test_stacked_parameters_raise(self, kind, name):
        # a stack of parameters is many curves per side: refused before any
        # side is looked up
        spec = SystemSpec(kind, **{name: np.array([0.1, 0.2])})
        pt = MatrixPhasePoint(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match=f"{name} must be a scalar"):
            spectral_match(spec, pt, pt)


class TestLOnlyReaders:
    """The spectral curve det(mu - L) reads L only: no reader builds M."""

    @pytest.fixture(autouse=True)
    def no_m(self, monkeypatch):
        def stub(*args, **kwargs):
            raise AssertionError("lax_m called by a reader of L only")
        monkeypatch.setattr(cplab.lax, "lax_m", stub)
        monkeypatch.setattr(cplab.dynamics, "lax_m", stub, raising=False)

    def test_spectral_readers(self, rng):
        spec = spec_for(SystemKind.P_II, tau=1.0)
        pt = random_level_set_point(rng, 3, 1.0)
        xq = reduce(pt, Slice.Q_DIAG, 1.0, tol=1e-6)
        assert spectral_match(spec, pt, xq)[0]
        assert spectral_table(spec, xq).shape == (20, 7)
        assert max(spectral_duality(spec, pt, 1.0).values()) < 1e-8

    def test_monitor(self, rng):
        spec = spec_for(SystemKind.P_I, tau=1.0)
        x0 = random_reduced(rng, 2, 1.0)
        traj = integrate(spec, embed(x0), 0.0, 0.05, 1e-2, g=1.0)
        rep = monitor_invariants(spec, traj)
        assert max(rep["power_trace_drift"].values()) < 1e-6


PAIR_KINDS = (SystemKind.FREE, SystemKind.HARM_OSC, SystemKind.P_I,
              SystemKind.P_II, SystemKind.P_IV)


class TestZeroCurvature:
    def test_exact_pairs_at_roundoff(self, rng):
        for kind in PAIR_KINDS:
            for tau in (None, 1.0):
                spec = spec_for(kind, tau)
                pt = MatrixPhasePoint(
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.3)
                r = zero_curvature_residual(spec, pt, 0.9 + 0.2j)
                assert r <= 1e-12, (kind, tau, r)

    def test_harmosc_exact(self, rng):
        spec = spec_for(SystemKind.HARM_OSC)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        assert zero_curvature_residual(spec, pt, 1.0) <= 1e-12

    def test_perturbation_detector(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        pt = MatrixPhasePoint([[0.4]], [[0.3]], 0.2)
        pert = (np.array([[0.0]]), np.array([[1e-3]]))
        r = zero_curvature_residual(spec, pt, 1.1, perturb=pert)
        assert r > 1e-4

    @pytest.mark.parametrize("kind", ["P_I", "P_II", "P_IV", "HarmOsc"])
    def test_plain_pair_perturbation_fails_the_gate(self, rng, kind):
        # criterion 6's control: the flow moved by (1e-3 1, 1e-3 1)
        spec = spec_for(SystemKind(kind))
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                              rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.3)
        pert = (1e-3 * np.eye(2), 1e-3 * np.eye(2))
        assert zero_curvature_residual(spec, pt, 0.9 + 0.2j) <= 1e-12
        assert zero_curvature_residual(spec, pt, 0.9 + 0.2j, perturb=pert) > 1e-6

    @pytest.mark.parametrize("shapes", [((1, 1), (1, 1)), ((2, 2), (1, 1)),
                                        ((2, 2), (2,)), ((3, 3), (3, 3))])
    def test_perturbation_of_another_shape_is_a_dimension_mismatch(self, shapes):
        spec = spec_for(SystemKind.P_II)
        rng = np.random.default_rng(0)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                              rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.3)
        pert = tuple(1e-3 * np.ones(shape) for shape in shapes)
        with pytest.raises(DimensionMismatch, match="perturbation of shapes"):
            zero_curvature_residual(spec, pt, 0.9 + 0.2j, perturb=pert)

    @pytest.mark.parametrize("autonomous", [False, True])
    def test_one_l_build_on_the_ray_and_one_m_table_at_the_point(
            self, rng, monkeypatch, autonomous):
        # B_lambda is the table's lambda^1 coefficient: no M is built at
        # another lambda
        calls = []
        for name in ("lax_l", "lax_m", "m_coefficients"):
            build = getattr(cplab.lax, name)

            def counting(spec, q, p, t, *rest, _name=name, _build=build):
                out = _build(spec, q, p, t, *rest)
                calls.append((_name, np.shape(out[1] if _name == "m_coefficients" else out)))
                return out
            monkeypatch.setattr(cplab.lax, name, counting)
        spec = spec_for(SystemKind.P_II, tau=1.0 if autonomous else None)
        pt = MatrixPhasePoint(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), 0.3)
        assert zero_curvature_residual(spec, pt, 0.9 + 0.2j) <= 1e-12
        assert calls == [("lax_l", (5, 4, 4)), ("m_coefficients", (2, 4, 4))]

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


def tr_square_coefficient(table, m):
    """[lambda^m] Tr L^2 of a Laurent table (low, C): the sum of Tr(C_i C_j) over
    the index pairs whose powers add up to m."""
    low, C = table
    J = C.shape[-3]
    return sum(np.einsum("...ab,...ba->...", C[..., i, :, :], C[..., m - 2 * low - i, :, :])
               for i in range(J) if 0 <= m - 2 * low - i < J)


class TestHamiltonianOnTheCurve:
    """trace_hamiltonian as a coefficient of Tr L^2, read exactly off l_coefficients."""

    @staticmethod
    def reading(spec, pt):
        table = l_coefficients(spec, pt.q, pt.p, pt.t)
        if spec.kind is SystemKind.P_IV:  # the corrected pair's residue, plus a constant
            T = spec.time(pt.t)
            return -tr_square_coefficient(table, -1) / 2 + pt.n * spec.theta0 * T
        return tr_square_coefficient(table, 0) / 4

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("autonomous", [False, True])
    def test_trace_hamiltonian_is_a_coefficient(self, kind, autonomous):
        rng = np.random.default_rng(13)
        spec = generic_spec(kind, autonomous)
        for n in (1, 2, 3, 5, 8):
            pt = MatrixPhasePoint(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                                  rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                                  0.35 - 0.2j)
            H = trace_hamiltonian(spec, pt.q, pt.p, pt.t)
            reading = self.reading(spec, pt)
            assert abs(reading - H) <= 1e-12 * max(1.0, abs(H)), (n, reading, H)
            # the control: H of p + 0.1, which moves H by O(1)
            moved = trace_hamiltonian(spec, pt.q, pt.p + 0.1 * np.eye(n), pt.t)
            assert abs(reading - moved) > 1e-3, (n, reading, moved)
