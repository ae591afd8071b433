import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cplab.dynamics
import cplab.phase
import cplab.selfcheck
import cplab.traces
from cplab.errors import DimensionMismatch
from cplab.phase import (MatrixPhasePoint, SystemKind, SystemSpec, add_to_diagonal,
                         coupling_value, fill_diagonal, level_set_target,
                         moment_deviation, moment_map, relative_deviation,
                         symplectic_pairing)
from cplab.reduction import ReducedPoint
from cplab.sampling import random_reduced


def cmat(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestMomentMap:
    def test_scalars_commute(self):
        pt = MatrixPhasePoint([[2.0 + 1j]], [[-0.3]], 0.0)
        assert moment_map(pt.q, pt.p)[0, 0] == 0

    def test_worked_2x2(self):
        pt = MatrixPhasePoint(np.diag([1.0, 2.0]),
                              [[3.0, -1j], [1j, 4.0]])
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(moment_map(pt.q, pt.p) - expected).max() < 1e-15

    def test_traceless(self, rng):
        for n in range(1, 6):
            pt = MatrixPhasePoint(cmat(rng, n), cmat(rng, n))
            scale = np.abs(pt.p).max() * np.abs(pt.q).max()
            assert abs(np.trace(moment_map(pt.q, pt.p))) < 1e-13 * max(1.0, scale)

    @given(a=st.complex_numbers(max_magnitude=5, allow_nan=False,
                                allow_infinity=False))
    def test_bilinear_in_q(self, a):
        rng = np.random.default_rng(7)
        q, p = cmat(rng, 4), cmat(rng, 4)
        dev = np.abs(moment_map(a * q, p) - a * moment_map(q, p)).max()
        assert dev < 1e-12 * max(1.0, abs(a)) * 50

    def test_stack_rows_equal_single_calls(self, rng):
        q = np.stack([cmat(rng, 3) for _ in range(4)])
        p = np.stack([cmat(rng, 3) for _ in range(4)])
        mu = moment_map(q, p)
        assert mu.shape == (4, 3, 3)
        for k in range(4):
            assert mu[k].tobytes() == moment_map(q[k], p[k]).tobytes()

    def test_moment_deviation_is_max_of_moment_map(self, rng):
        q = np.stack([cmat(rng, 3) for _ in range(5)])
        p = np.stack([cmat(rng, 3) for _ in range(5)])
        target = level_set_target(3, 0.7)
        dev = moment_deviation(q, p, 0.7)
        for k in range(5):
            assert dev[k] == np.abs(moment_map(q[k], p[k]) - target).max()
        assert np.array_equal(moment_deviation(q, p),
                              np.abs(moment_map(q, p)).max(axis=(-2, -1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MatrixPhasePoint(np.eye(2), np.eye(3))

    def test_no_particle_is_rejected(self):
        with pytest.raises(ValueError, match="at least one particle"):
            MatrixPhasePoint(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_time_real_or_complex(self):
        # a real time stays a Python float (reports unchanged); the
        # confluence identity at complex eps needs complex times
        for t in (0.3, np.float64(0.3), 0.3 + 0j):
            assert type(MatrixPhasePoint(np.eye(2), np.eye(2), t).t) is float
            assert type(ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, t).t) is float
        assert MatrixPhasePoint(np.eye(2), np.eye(2), 0.3 + 0.2j).t == 0.3 + 0.2j
        assert ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, 0.3 + 0.2j).t == 0.3 + 0.2j


class TestRelativeDeviation:
    def test_one_rule(self):
        # the energy drift, the evenness lemma and the criteria read this rule,
        # not copies of their own
        for module in (cplab.dynamics, cplab.selfcheck, cplab.traces):
            assert module.relative_deviation is cplab.phase.relative_deviation

    def test_entrywise_with_floor_one(self):
        a = np.array([1.5, 0.25 + 0.5j, 12.0, -3.0])
        b = np.array([1.0, 0.25, 10.0, 0.0])
        # |b| below 1 reads absolutely, above 1 relative to |b|
        assert relative_deviation(a, b).tolist() == [0.5, 0.5, 0.2, 3.0]
        assert relative_deviation(3.0, -4.0) == 7.0 / 4.0
        # the second argument is the reference
        assert relative_deviation(0.0, 4.0) == 1.0
        assert relative_deviation(4.0, 0.0) == 4.0

    def test_a_nan_entry_propagates(self):
        for a, b in ((np.nan, 1.0), (1.0, np.nan), (complex(np.nan, 0.0), 0.0)):
            assert np.isnan(relative_deviation(np.array([0.0, a]), np.array([0.0, b]))[1])
        assert np.isnan(np.max(relative_deviation(np.array([np.nan, 5.0]), 0.0)))


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

    @pytest.mark.parametrize("layout", ["C", "F", "block", "1x1", "1x1 block"])
    def test_one_matrix_adds_as_a_stack_of_one_in_place(self, rng, layout):
        big = cmat(rng, 6)
        a, contiguous = {"C": (cmat(rng, 3), True),
                         "F": (np.asfortranarray(cmat(rng, 3)), False),
                         "block": (big[1:6:2, 0:3], False),
                         "1x1": (cmat(rng, 1), True),
                         "1x1 block": (big[2:3, 4:5], True)}[layout]
        assert a.flags.c_contiguous == contiguous  # the path under test
        before, big_before = a.copy(), big.copy()
        s = 0.3 - 0.7j
        stacked = add_to_diagonal(before[None].copy(), s)[0]
        out = add_to_diagonal(a, s)
        assert out is a
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(stacked).tobytes()
        assert np.count_nonzero(a != before) == a.shape[0]
        if layout.endswith("block"):  # the write lands in the matrix viewed
            assert np.count_nonzero(big != big_before) == a.shape[0]

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
        u = (cmat(rng, 3), cmat(rng, 3))
        assert symplectic_pairing(u, u) == 0

    def test_canonical_n1(self):
        u = (np.array([[1.0]]), np.array([[0.0]]))
        w = (np.array([[0.0]]), np.array([[1.0]]))
        assert symplectic_pairing(u, w) == -1

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            symplectic_pairing((cmat(rng, 2), cmat(rng, 2)), (cmat(rng, 3), cmat(rng, 3)))

    @given(seed=st.integers(0, 10 ** 6))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = (cmat(rng, 3), cmat(rng, 3))
        w = (cmat(rng, 3), cmat(rng, 3))
        assert abs(symplectic_pairing(u, w) + symplectic_pairing(w, u)) < 1e-15 * 100


class TestSystemSpec:
    def test_autonomous_requires_tau(self):
        with pytest.raises(ValueError):
            SystemSpec(SystemKind.P_II, autonomous=True)

    def test_tau_requires_autonomous(self):
        # no formula reads tau of a non-autonomous spec
        with pytest.raises(ValueError, match="exactly when the system is autonomous"):
            SystemSpec(SystemKind.P_II, tau=1.0)

    def test_time_dispatch(self):
        aut = SystemSpec(SystemKind.P_II, autonomous=True, tau=2.5)
        assert aut.time(17.0) == 2.5
        non = SystemSpec(SystemKind.P_II)
        assert non.time(17.0) == 17.0

    @pytest.mark.parametrize("name", ["theta", "theta0", "theta1", "tau"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SystemSpec(SystemKind.P_II, autonomous=True, **{"tau": 0.0, name: bad})

    def test_irrelevant_params_stored(self):
        spec = SystemSpec(SystemKind.FREE, theta=3.0, omega=2.0)
        assert spec.theta == 3.0

    def test_coupling_positive(self):
        for bad in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                coupling_value(bad)
        g = coupling_value(2)
        assert type(g) is float and g == 2.0


class TestTime:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, complex(0.1, np.nan),
                                   complex(np.inf, 0.0), complex(0.0, -np.inf)])
    def test_points_reject_non_finite_time(self, t):
        with pytest.raises(ValueError, match="time must be finite"):
            MatrixPhasePoint([[1.0]], [[0.0]], t)
        with pytest.raises(ValueError, match="time must be finite"):
            ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, t)

    def test_sampler_rejects_nan_time(self):
        with pytest.raises(ValueError, match="time must be finite"):
            random_reduced(np.random.default_rng(0), 2, 1.0, t=np.nan)

    def test_real_and_complex_times_kept(self):
        assert type(MatrixPhasePoint([[1.0]], [[0.0]], 1).t) is float
        assert type(ReducedPoint([0.0], [0.0], 1.0, 0.3 + 0j).t) is float
        assert ReducedPoint([0.0], [0.0], 1.0, 0.3 - 0.2j).t == 0.3 - 0.2j
        assert MatrixPhasePoint([[1.0]], [[0.0]], 1e300j).t == 1e300j
