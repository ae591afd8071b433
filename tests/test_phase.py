import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cplab.errors import DimensionMismatch
from cplab.phase import (MatrixPhasePoint, SystemKind, SystemSpec,
                         TangentPair, add_to_diagonal, coupling_value,
                         fill_diagonal, level_set_target, moment_deviation,
                         moment_map, symplectic_pairing)
from cplab.reduction import ReducedPoint


def cmat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestMomentMap:
    def test_scalars_commute(self):
        pt = MatrixPhasePoint([[2.0 + 1j]], [[-0.3]], 0.0)
        assert moment_map(pt)[0, 0] == 0

    def test_worked_2x2(self):
        pt = MatrixPhasePoint(np.diag([1.0, 2.0]),
                              [[3.0, -1j], [1j, 4.0]])
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(moment_map(pt) - expected).max() < 1e-15

    def test_traceless(self, rng):
        for n in range(1, 6):
            pt = MatrixPhasePoint(cmat(rng, n), cmat(rng, n))
            scale = np.abs(pt.p).max() * np.abs(pt.q).max()
            assert abs(np.trace(moment_map(pt))) < 1e-13 * max(1.0, scale)

    @given(a=st.complex_numbers(max_magnitude=5, allow_nan=False,
                                allow_infinity=False))
    def test_bilinear_in_q(self, a):
        rng = np.random.default_rng(7)
        pt = MatrixPhasePoint(cmat(rng, 4), cmat(rng, 4))
        scaled = MatrixPhasePoint(a * pt.q, pt.p)
        dev = np.abs(moment_map(scaled) - a * moment_map(pt)).max()
        assert dev < 1e-12 * max(1.0, abs(a)) * 50

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MatrixPhasePoint(np.eye(2), np.eye(3))

    def test_time_real_or_complex(self):
        # a real time stays a Python float (reports unchanged); the
        # confluence identity at complex eps needs complex times
        for t in (0.3, np.float64(0.3), 0.3 + 0j):
            assert type(MatrixPhasePoint(np.eye(2), np.eye(2), t).t) is float
            assert type(ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, t).t) is float
        assert MatrixPhasePoint(np.eye(2), np.eye(2), 0.3 + 0.2j).t == 0.3 + 0.2j
        assert ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, 0.3 + 0.2j).t == 0.3 + 0.2j


class TestDiagonalHelpers:
    def test_add_to_diagonal_adds_s_times_identity(self, rng):
        a = cmat(rng, 3)
        assert np.array_equal(add_to_diagonal(a.copy(), 0.3 - 0.2j),
                              a + (0.3 - 0.2j) * np.eye(3))
        stack = rng.normal(size=(2, 4, 3, 3)) + 0j
        s = rng.normal(size=(2, 4))
        assert np.array_equal(add_to_diagonal(stack.copy(), s),
                              stack + s[..., None, None] * np.eye(3))

    def test_writes_through_block_views(self):
        big = np.zeros((3, 4, 4), dtype=complex)
        add_to_diagonal(big[0, :2, 2:], 1.5)
        add_to_diagonal(big[:, 2:, :2], np.array([1.0, 2.0, 3.0]))
        fill_diagonal(big[1, :2, :2], [7.0, 8.0])
        assert big[0, 0, 2] == big[0, 1, 3] == 1.5
        assert [big[i, 3, 1] for i in range(3)] == [1.0, 2.0, 3.0]
        assert (big[1, 0, 0], big[1, 1, 1]) == (7.0, 8.0)
        assert np.count_nonzero(big) == 2 + 6 + 2

    def test_fill_diagonal_on_stacks(self):
        a = fill_diagonal(np.ones((2, 3, 3)), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert np.array_equal(np.diagonal(a, axis1=-2, axis2=-1), [[1, 2, 3], [4, 5, 6]])
        assert a[1, 0, 2] == 1.0


class TestLevelSet:
    def test_n1_is_zero(self):
        assert level_set_target(1, 1.0) == np.zeros((1, 1))

    def test_n2_worked(self):
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(level_set_target(2, 1.0) - expected).max() == 0

    def test_n3_entries(self):
        target = level_set_target(3, 2)
        assert np.all(np.diag(target) == 0)
        off = target[~np.eye(3, dtype=bool)]
        assert np.all(off == -2j)

    def test_spectrum_structure(self):
        # n-1 eigenvalues at i*g; target - i*g*1 is rank one
        for n in range(2, 7):
            target = level_set_target(n, 1.0)
            eigs = np.linalg.eigvals(target)
            assert (np.abs(eigs - 1j) < 1e-10).sum() == n - 1
            sv = np.linalg.svd(target - 1j * np.eye(n), compute_uv=False)
            assert np.all(sv[1:] < 1e-12) and sv[0] > 1.0

    def test_moment_deviation(self):
        pt = MatrixPhasePoint(np.eye(2), np.eye(2))
        assert abs(moment_deviation(pt.q, pt.p, 1.0) - 1.0) < 1e-15
        pt1 = MatrixPhasePoint([[0.3]], [[0.8]])
        assert moment_deviation(pt1.q, pt1.p, 5.0) == 0.0


class TestSymplecticPairing:
    def test_self_pairing_vanishes(self, rng):
        u = TangentPair(cmat(rng, 3), cmat(rng, 3))
        assert symplectic_pairing(u, u) == 0

    def test_canonical_n1(self):
        u = TangentPair([[1.0]], [[0.0]])
        w = TangentPair([[0.0]], [[1.0]])
        assert symplectic_pairing(u, w) == -1

    @given(seed=st.integers(0, 10 ** 6))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = TangentPair(cmat(rng, 3), cmat(rng, 3))
        w = TangentPair(cmat(rng, 3), cmat(rng, 3))
        assert abs(symplectic_pairing(u, w) + symplectic_pairing(w, u)) < 1e-15 * 100


class TestSystemSpec:
    def test_autonomous_requires_tau(self):
        with pytest.raises(ValueError):
            SystemSpec(SystemKind.P_II, autonomous=True)

    def test_time_dispatch(self):
        aut = SystemSpec(SystemKind.P_II, autonomous=True, tau=2.5)
        assert aut.time(17.0) == 2.5
        non = SystemSpec(SystemKind.P_II)
        assert non.time(17.0) == 17.0

    def test_irrelevant_params_stored(self):
        spec = SystemSpec(SystemKind.FREE, theta=3.0, omega=2.0)
        assert spec.theta == 3.0

    def test_coupling_positive(self):
        for bad in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                coupling_value(bad)
        g = coupling_value(2)
        assert type(g) is float and g == 2.0
