import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cplab import reduction, sampling
from cplab.errors import (DegenerateSpectrum, NonConvergedEigensolve, NotOnLevelSet,
                          OffDiagonalMismatch, ParticleCollision, ZeroColumnSum)
from cplab.hamiltonians import closed_form_hamiltonian, reduced_vector_field
from cplab.phase import MatrixPhasePoint, SystemKind, moment_map, level_set_target
from cplab.reduction import (ReducedPoint, Slice, calogero_block, dual_of, embed,
                             embedded_matrices, guarded_differences, match_permutation,
                             matched_deviation, matrix_point, normalized_diagonalizer,
                             pair_differences, particle_guard, permuted_deviation,
                             point_arrays, reduce, reduced_coordinates, resolve_at_slice)
from cplab.sampling import (JITTER, random_level_set_point, random_particle_stacks,
                            random_particles, random_reduced, spec_for)
from cplab.traces import tr_q3_closed, tr_q4_closed, trace_power_oracle


def smallest_gap(x):
    """min over i != j of |x_i - x_j| for each row of a stack (..., n); inf if n < 2."""
    return np.abs(pair_differences(x)).min(axis=(-2, -1), initial=np.inf)


class TestNormalizedDiagonalizer:
    def test_already_diagonal(self):
        diag = normalized_diagonalizer(np.diag([1.0, 2.0, 3.5]))
        assert np.abs(diag.C - np.eye(3)).max() == 0
        assert diag.residual == 0

    def test_pauli_like(self):
        A = np.array([[0, 1j], [-1j, 0]])
        diag = normalized_diagonalizer(A)
        assert np.abs(diag.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-12
        # columns scaled to unit entry sum
        assert np.abs(diag.C.sum(axis=0) - 1).max() < 1e-12
        D = np.linalg.solve(diag.C, A @ diag.C)
        assert np.abs(D - np.diag(diag.eigenvalues)).max() < 1e-12

    def test_degenerate_spectrum(self):
        A = np.diag([1.0, 1.0 + 1e-14, 2.0])
        with pytest.raises(DegenerateSpectrum):
            normalized_diagonalizer(A)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_no_particles_is_a_value_error(self, shape):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            normalized_diagonalizer(np.zeros(shape))

    def test_zero_column_sum(self):
        # eigenvector (1, -1) of a symmetric matrix has zero entry sum
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroColumnSum):
            normalized_diagonalizer(A)

    def test_level_set_row_identity(self, rng):
        # C v^T = v^T is a consequence of the level-set constraint, and with
        # v C = v it gives C^-1 (1 - J) C = 1 - J for the all-ones matrix J
        pt = random_level_set_point(rng, 5, 1.0)
        proj = np.eye(5) - np.ones((5, 5))
        for target in (pt.q, pt.p):
            C = normalized_diagonalizer(target).C
            v = np.ones(5)
            assert np.abs(C @ v - v).max() < 1e-8
            assert np.abs(np.linalg.solve(C, proj @ C) - proj).max() < 1e-8

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_one_solve_per_call(self, rng, monkeypatch, shape):
        # the residual's solve C^-1 A C is the only one, for a point and a stack
        q, _, _ = level_set_stack(rng, 4, 1.0, 3)
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)
        monkeypatch.setattr(np.linalg, "solve", counted)
        normalized_diagonalizer(q if shape else q[0])
        assert len(calls) == 1


class TestEmbed:
    def test_worked_n2(self):
        x = ReducedPoint([1.0, 2.0], [3.0, 4.0], 1.0)
        pt = embed(x)
        assert np.abs(pt.q - np.diag([1.0, 2.0])).max() == 0
        assert np.abs(pt.p - np.array([[3.0, -1j], [1j, 4.0]])).max() < 1e-15
        expected = np.array([[0, -1j], [-1j, 0]])
        assert np.abs(moment_map(pt.q, pt.p) - expected).max() < 1e-15

    def test_n1(self):
        pt = embed(ReducedPoint([0.3], [0.7], 2.0))
        assert pt.q[0, 0] == 0.3 and pt.p[0, 0] == 0.7
        assert moment_map(pt.q, pt.p)[0, 0] == 0

    def test_level_set_n5(self, rng):
        for sl in Slice:
            x = random_reduced(rng, 5, 1.7, sl)
            pt = embed(x)
            dev = np.abs(moment_map(pt.q, pt.p) - level_set_target(5, 1.7)).max()
            assert dev < 1e-12 * 1.7

    def test_collision_guard(self):
        with pytest.raises(ParticleCollision):
            ReducedPoint([1.0, 1.0 + 1e-12], [0.0, 0.0], 1.0)

    @pytest.mark.parametrize("sl", list(Slice))
    def test_stack_equals_per_point_embed(self, rng, sl):
        points = [random_reduced(rng, 4, 0.9, sl) for _ in range(6)]
        q, p = embedded_matrices(np.array([x.positions for x in points]),
                                 np.array([x.momenta for x in points]), 0.9, sl)
        assert q.shape == p.shape == (6, 4, 4)
        for i, x in enumerate(points):
            pt = embed(x)
            assert np.array_equal(q[i], pt.q) and np.array_equal(p[i], pt.p)

    def test_calogero_block_worked_and_stacked(self):
        x = np.array([0.0, 1.0, 3.0])
        K = calogero_block(pair_differences(x), 2.0, -1)
        expect = -2j / (x[:, None] - x[None, :] + np.eye(3))
        np.fill_diagonal(expect, 0.0)
        assert np.array_equal(K, expect)
        assert np.array_equal(calogero_block(pair_differences(np.array([x, x + 1.0])),
                                             2.0, -1),
                              np.array([K, K]))

    def test_smallest_gap_ignores_the_diagonal(self):
        assert smallest_gap(np.array([0.0, 2.5, 1.0 + 1j])) == np.sqrt(2.0)
        assert smallest_gap(np.array([4.0])) == np.inf


class TestPointArrays:
    """One dispatch on a description: point_arrays, and matrix_point over it."""

    def test_a_matrix_point_gives_its_own_arrays(self, rng):
        pt = random_level_set_point(rng, 3, 1.0, t=0.2)
        q, p, t = point_arrays(pt)
        assert q is pt.q and p is pt.p and t == pt.t
        assert matrix_point(pt) is pt

    @pytest.mark.parametrize("sl", list(Slice))
    def test_a_reduced_point_gives_its_embedding(self, rng, sl):
        x = random_reduced(rng, 4, 1.0, sl, t=0.3 - 0.1j)
        pt = embed(x)
        for q, p, t in (point_arrays(x), (lambda m: (m.q, m.p, m.t))(matrix_point(x))):
            assert q.tobytes() == pt.q.tobytes() and p.tobytes() == pt.p.tobytes()
            assert t == pt.t and type(t) is type(pt.t)

    def test_anything_else_is_a_type_error(self):
        for obj in ((np.eye(2), np.eye(2)), np.eye(2)):
            for read in (point_arrays, matrix_point):
                with pytest.raises(TypeError, match="matrix or reduced point"):
                    read(obj)


class TestSliceConvention:
    def test_sign_and_order(self):
        assert (Slice.Q_DIAG.sign, Slice.P_DIAG.sign) == (1, -1)
        assert Slice("P_DIAG").sign == -1
        assert Slice.Q_DIAG.order("a", "b") == ("a", "b")
        assert Slice.P_DIAG.order("a", "b") == ("b", "a")

    @pytest.mark.parametrize("sl", list(Slice))
    def test_order_is_an_involution(self, sl):
        a, b = object(), object()
        assert sl.order(*sl.order(a, b)) == (a, b)
        assert sl.order(*sl.order(b, a)) == (b, a)

    @pytest.mark.parametrize("sl", list(Slice))
    def test_sign_and_order_reproduce_the_embedding(self, rng, sl):
        pos, mom = random_particles(rng, 5, 4)
        diagonal = np.zeros((5, 4, 4), dtype=complex)
        resolved = calogero_block(pair_differences(pos), 0.7, sl.sign)
        for i in range(4):
            diagonal[:, i, i] = pos[:, i]
            resolved[:, i, i] = mom[:, i]
        q, p = embedded_matrices(pos, mom, 0.7, sl)
        want_q, want_p = sl.order(diagonal, resolved)
        assert np.array_equal(q, want_q) and np.array_equal(p, want_p)
        # the resolved block's off-diagonal is sign * i g / (x_i - x_j)
        K = sl.order(q, p)[1]
        assert K[0, 0, 1] == sl.sign * 0.7j / (pos[0, 0] - pos[0, 1])


class TestReduce:
    def test_round_trip(self, rng):
        for sl in Slice:
            for n in (1, 2, 4, 6):
                x = random_reduced(rng, n, 0.9, sl)
                assert permuted_deviation(x, reduce(embed(x), sl, 0.9)) < 1e-10

    def test_worked_q_diag(self):
        pt = MatrixPhasePoint(np.diag([1.0, 2.0]), [[3.0, -1j], [1j, 4.0]])
        x = reduce(pt, Slice.Q_DIAG, 1.0)
        assert np.abs(x.positions - np.array([1.0, 2.0])).max() < 1e-12
        assert np.abs(x.momenta - np.array([3.0, 4.0])).max() < 1e-12

    def test_n1_passthrough(self):
        pt = MatrixPhasePoint([[0.2 + 0.1j]], [[0.9]])
        x = reduce(pt, Slice.P_DIAG, 3.0)
        assert x.positions[0] == 0.9 and x.momenta[0] == 0.2 + 0.1j

    @pytest.mark.parametrize("sl", list(Slice))
    def test_n1_stack_passes_its_entries_through(self, rng, sl):
        # one particle runs the eigen core and the (empty) off-diagonal check
        q = rng.normal(size=(7, 1, 1)) + 1j * rng.normal(size=(7, 1, 1))
        p = rng.normal(size=(7, 1, 1)) + 1j * rng.normal(size=(7, 1, 1))
        pos, mom = reduced_coordinates(q, p, 2.5, sl)
        target, partner = sl.order(q[:, 0, 0], p[:, 0, 0])
        assert pos.tobytes() == target.tobytes() and mom.tobytes() == partner.tobytes()

    def test_not_on_level_set(self):
        pt = MatrixPhasePoint(np.eye(2), np.eye(2))
        with pytest.raises(NotOnLevelSet):
            reduce(pt, Slice.Q_DIAG, 1.0)

    def test_wrong_coupling_detected(self, rng):
        # a level-set point for g=1 is not on the g=2 level set
        pt = random_level_set_point(rng, 3, 1.0)
        with pytest.raises(NotOnLevelSet):
            reduce(pt, Slice.Q_DIAG, 2.0)

    def test_off_diagonal_mismatch(self):
        # slightly wrong g with a loose level-set tolerance: the 1/(q_i-q_j)
        # amplification trips the structure check first
        x = ReducedPoint([0.0, 0.2], [0.3, -0.4], 1.0)
        pt = embed(x)
        with pytest.raises(OffDiagonalMismatch):
            reduce(pt, Slice.Q_DIAG, 1.02, tol=0.05)

    def test_gl_conjugacy_of_reembedding(self, rng):
        # embed(reduce(pt)) has the same q and p char polys as pt
        pt = random_level_set_point(rng, 4, 1.0)
        for sl in Slice:
            back = embed(reduce(pt, sl, 1.0))
            for a, b in ((pt.q, back.q), (pt.p, back.p)):
                ca, cb = np.poly(a), np.poly(b)
                scale = np.maximum(1.0, np.abs(ca))
                assert (np.abs(ca - cb) / scale).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 3])
    def test_eigen_core_is_reduce_on_the_level_set_and_needs_no_level_set(self, rng, n):
        pt = random_level_set_point(rng, n, 1.0)
        for sl in Slice:
            pos, M = resolve_at_slice(pt.q, pt.p, sl)
            x = reduce(pt, sl, 1.0)
            assert np.array_equal(pos, x.positions)
            assert np.array_equal(np.diagonal(M), x.momenta)
            # off the level set: reduce refuses, the core still resolves
            off = MatrixPhasePoint(pt.q + 0.01 * rng.normal(size=(n, n)), pt.p)
            if n > 1:  # [p, q] = 0 = i g (1 - v^T v) for every 1 x 1 pair
                with pytest.raises(NotOnLevelSet):
                    reduce(off, sl, 1.0)
            pos, M = resolve_at_slice(off.q, off.p, sl)
            assert np.isfinite(pos).all() and M.shape == (n, n)

    def test_positions_are_exact_eigenvalues(self, rng):
        x = random_reduced(rng, 4, 1.0)
        pt = embed(x)
        assert np.abs(np.sort_complex(np.linalg.eigvals(pt.q))
                      - np.sort_complex(x.positions)).max() < 1e-12


class TestDualOf:
    def test_n1_swaps_roles(self):
        x = ReducedPoint([1.0], [2.0], 1.0, slice=Slice.Q_DIAG)
        d = dual_of(x)
        assert d.slice is Slice.P_DIAG
        assert d.positions[0] == 2.0 and d.momenta[0] == 1.0

    def test_involution(self, rng):
        x = random_reduced(rng, 3, 1.0)
        dd = dual_of(dual_of(x))
        assert dd.slice is x.slice
        assert permuted_deviation(x, dd) < 1e-8

    def test_collision_on_dual_side(self):
        # p-eigenvalues collide: (b1-b2)^2 = -4 g^2/(a1-a2)^2
        x = ReducedPoint([0.0, 1.0], [0.0, 2.0j], 1.0, slice=Slice.Q_DIAG)
        with pytest.raises(ParticleCollision):
            dual_of(x)


class TestPermutationMatching:
    @given(seed=st.integers(0, 10 ** 6))
    def test_recovers_random_permutation(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=6) + 1j * rng.normal(size=6)
        perm = rng.permutation(6)
        assert np.array_equal(match_permutation(ref, ref[perm]), np.argsort(perm)
                              ) or np.abs(ref[perm][match_permutation(ref, ref[perm])]
                                          - ref).max() < 1e-12


def level_set_stack(rng, n, g, count):
    """(q, p) stacks of `count` generic level-set points and the points themselves."""
    points = [random_level_set_point(rng, n, g) for _ in range(count)]
    return np.array([pt.q for pt in points]), np.array([pt.p for pt in points]), points


# each rejection of a stack check: (call, stacked arguments, the failing row k,
# error, a pattern matching the start of its text); the arguments' row k alone
# is the one point
FLOAT = r"\d\.\d{3}e[+-]\d{2}"  # a value formatted :.3e


def bad_level_set(rng):
    q, p, _ = level_set_stack(rng, 3, 1.0, 4)
    p[2] += 1e-3 * np.eye(3)[::-1]
    return (lambda q, p: reduced_coordinates(q, p, 1.0, Slice.Q_DIAG), (q, p), 2,
            NotOnLevelSet, "moment-map deviation")


def degenerate_spectrum(rng):
    # p-eigenvalues of this point collide: (b1-b2)^2 = -4 g^2/(a1-a2)^2
    pt = embed(ReducedPoint([0.0, 1.0], [0.0, 2.0j], 1.0))
    q, p, _ = level_set_stack(rng, 2, 1.0, 3)
    q[1], p[1] = pt.q, pt.p
    return (lambda q, p: reduced_coordinates(q, p, 1.0, Slice.P_DIAG), (q, p), 1,
            ParticleCollision, rf"eigenvalue gap {FLOAT} below threshold {FLOAT}$")


def zero_column_sum(rng):
    # eigenvector (1, -1) of q has zero entry sum; the loose level-set
    # tolerance lets the point reach the diagonalizer
    q, p, _ = level_set_stack(rng, 2, 1.0, 3)
    q[2], p[2] = [[0.0, 1.0], [1.0, 0.0]], np.eye(2)
    return (lambda q, p: reduced_coordinates(q, p, 1.0, Slice.Q_DIAG, tol=10.0), (q, p), 2,
            ZeroColumnSum, "an eigenvector")


def diagonalization_residual(rng):
    # eigenvalues 1 and 1 + 1e-6 of a Jordan-like block: the ill-conditioned
    # eigenvectors leave a residual above the tightest tolerance
    G = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    A = np.linalg.solve(G, np.array([[1.0, 1.0, 0.0], [0.0, 1.0 + 1e-6, 0.0],
                                     [0.0, 0.0, 3.0]]) @ G)
    stack = np.array([np.diag([1.0, 2.0, 3.0]), A, np.diag([4.0, 5.0, 6.0])])
    return (lambda A: normalized_diagonalizer(A, 1e-12), (stack,), 1,
            NonConvergedEigensolve, "diagonalization residual")


def off_diagonal(rng):
    # a slightly wrong g passes the loose level-set test but not the
    # 1/(q_i - q_j) structure check (see TestReduce)
    q, p, _ = level_set_stack(rng, 2, 1.02, 3)
    pt = embed(ReducedPoint([0.0, 0.2], [0.3, -0.4], 1.0))
    q[1], p[1] = pt.q, pt.p
    return (lambda q, p: reduced_coordinates(q, p, 1.02, Slice.Q_DIAG, tol=0.05), (q, p), 1,
            OffDiagonalMismatch, "off-diagonal deviates")


def collision(rng):
    pos, _ = random_particles(rng, 5, 3)
    pos[3, 2] = pos[3, 0] + 1e-12
    return (guarded_differences, (pos,), 3, ParticleCollision,
            rf"particle gap {FLOAT} below threshold {FLOAT}$")


def non_finite(rng):
    pos, mom = random_particles(rng, 4, 3)
    mom[1, 0] = np.nan
    return particle_guard, (pos, mom), 1, ValueError, "non-finite particle coordinates"


REJECTIONS = {f.__name__: f for f in (bad_level_set, degenerate_spectrum, zero_column_sum,
                                      diagonalization_residual, off_diagonal, collision,
                                      non_finite)}


class TestStackedReduce:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_stack_equals_point_loop(self, rng, n):
        q, p, points = level_set_stack(rng, n, 0.9, 6)
        for sl in Slice:
            pos, mom = reduced_coordinates(q, p, 0.9, sl)
            assert pos.shape == mom.shape == (6, n)
            for i, pt in enumerate(points):
                x = reduce(pt, sl, 0.9)
                assert np.array_equal(pos[i], x.positions)
                if n <= 6:
                    assert np.array_equal(mom[i], x.momenta)
                else:
                    # a batched solve may round differently from a 2-D one
                    # (it does not with this numpy and BLAS): allow roundoff
                    scale = max(1.0, float(np.abs(x.momenta).max()))
                    assert np.abs(mom[i] - x.momenta).max() <= 1e-12 * scale

    def test_round_trip_of_a_sampled_stack(self, rng):
        pos, mom = random_particles(rng, 20, 5)
        for sl in Slice:
            back = reduced_coordinates(*embedded_matrices(pos, mom, 1.3, sl), 1.3, sl)
            assert matched_deviation(pos, mom, *back).max() < 1e-10

    @pytest.mark.parametrize("case", list(REJECTIONS))
    def test_a_rejection_names_the_row_of_a_stack(self, rng, case):
        # the stack's row k is the one point: the same text, prefixed `row k: `
        call, stack, k, error, text = REJECTIONS[case](rng)
        with pytest.raises(error) as one:
            call(*(a[k] for a in stack))
        with pytest.raises(error) as rows:
            call(*stack)
        assert re.match(text, str(one.value))
        assert str(rows.value) == f"row {k}: {one.value}"

    def test_zero_row_stack(self):
        for n in (1, 3):
            empty = np.zeros((0, n, n), dtype=complex)
            for sl in Slice:
                pos, mom = reduced_coordinates(empty, empty, 1.0, sl)
                assert pos.shape == mom.shape == (0, n)
            rows = np.zeros((0, n), dtype=complex)
            assert smallest_gap(rows).shape == (0,)
            guarded_differences(rows)
            q, p = embedded_matrices(rows, rows, 1.0, Slice.Q_DIAG)
            assert q.shape == p.shape == (0, n, n)
            assert matched_deviation(rows, rows, rows, rows).shape == (0,)

    def test_stacked_diagonalizer_fields(self, rng):
        q, _, points = level_set_stack(rng, 4, 1.0, 3)
        diag = normalized_diagonalizer(q)
        for i, pt in enumerate(points):
            one = normalized_diagonalizer(pt.q)
            assert np.array_equal(diag.C[i], one.C)
            assert np.array_equal(diag.eigenvalues[i], one.eigenvalues)
            assert diag.residual[i] == one.residual


class TestStackedMatching:
    def test_stack_equals_row_loop(self, rng):
        ref = rng.normal(size=(50, 5)) + 1j * rng.normal(size=(50, 5))
        cand = np.array([r[rng.permutation(5)] for r in ref]) + 1e-3
        perm = match_permutation(ref, cand)
        for i in range(50):
            assert np.array_equal(perm[i], match_permutation(ref[i], cand[i]))
        assert np.abs(np.take_along_axis(cand, perm, -1) - ref).max() < 2e-3

    def test_greedy_order_and_first_of_equals(self):
        # reference 0 takes its nearest candidate first, even if reference 1
        # is nearer to it; equal distances go to the first candidate
        assert match_permutation(np.array([0.0, 0.1]), np.array([0.2, 0.05])).tolist() == [1, 0]
        assert match_permutation(np.array([0.0]), np.array([0.0])).tolist() == [0]
        assert match_permutation(np.array([0.0, 5.0]), np.array([1.0, -1.0])).tolist() == [0, 1]


class TestParticleCount:
    def test_no_particles_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one particle"):
            ReducedPoint([], [], 1.0)
        with pytest.raises(ValueError, match="at least one particle"):
            random_particles(rng, 3, 0)
        with pytest.raises(ValueError, match="at least one particle"):
            random_reduced(rng, 0, 1.0)

    def test_a_negative_trial_count_is_rejected(self, rng):
        # as n < 1 is: before any draw, and as a ValueError
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="trial count"):
            random_particles(rng, -1, 3)
        assert rng.bit_generator.state == state


class TestStackedSampler:
    @pytest.mark.parametrize("complex_positions", [True, False])
    def test_stack_draws_as_single_draws(self, complex_positions):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        pos, mom = random_particle_stacks(a, [4] * 7, complex_positions=complex_positions,
                                          mom_scale=0.5)[4]
        for i in range(7):
            x = random_reduced(b, 4, 1.0, complex_positions=complex_positions,
                               mom_scale=0.5)
            assert np.array_equal(pos[i], x.positions)
            assert np.array_equal(mom[i], x.momenta)
        assert a.uniform() == b.uniform()  # the generators stay in step

    @pytest.mark.parametrize("complex_positions", [True, False])
    def test_per_size_stacks_draw_as_one_trial_draws(self, complex_positions):
        sizes = [1 + k % 6 for k in range(40)] + [12, 3]
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        stacks = random_particle_stacks(a, sizes, spread=1.2,
                                        complex_positions=complex_positions, mom_scale=0.5)
        rows = {n: ([], []) for n in sizes}
        for n in sizes:  # one trial at a time, as the one-trial sampler drew them
            re_jit = b.uniform(-JITTER, JITTER, n)
            im_jit = b.uniform(-JITTER, JITTER, n) if complex_positions else np.zeros(n)
            re_mom, im_mom = b.normal(size=n), b.normal(size=n)
            rows[n][0].append(1.2 * np.arange(n) + re_jit + 1j * im_jit)
            rows[n][1].append(0.5 * (re_mom + 1j * im_mom))
        assert list(stacks) == sorted(rows)
        for n, (pos, mom) in stacks.items():
            assert pos.tobytes() == np.array(rows[n][0]).tobytes()
            assert mom.tobytes() == np.array(rows[n][1]).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("sizes", [[3] * 9, [2, 5, 1, 5, 2, 12, 3]])
    @pytest.mark.parametrize("complex_positions", [True, False])
    def test_draws_are_per_trial_uniform_and_normal_calls(self, sizes, complex_positions):
        # the batched fills give the values of one uniform call for a trial's
        # jitter rows and one normal call for its momentum rows, and leave
        # the generator where those calls leave it
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        stacks = random_particle_stacks(a, sizes, spread=1.1,
                                        complex_positions=complex_positions, mom_scale=0.7)
        rows = {n: ([], []) for n in sizes}
        jitter_rows = 2 if complex_positions else 1
        for n in sizes:
            jit = b.uniform(-JITTER, JITTER, jitter_rows * n).reshape(jitter_rows, n)
            nrm = b.normal(size=2 * n).reshape(2, n)
            im_jit = jit[1] if complex_positions else np.zeros(n)
            rows[n][0].append(1.1 * np.arange(n) + jit[0] + 1j * im_jit)
            rows[n][1].append(0.7 * (nrm[0] + 1j * nrm[1]))
        assert list(stacks) == sorted(rows)
        for n, (pos, mom) in stacks.items():
            assert pos.tobytes() == np.array(rows[n][0]).tobytes()
            assert mom.tobytes() == np.array(rows[n][1]).tobytes()
        assert a.standard_normal() == b.standard_normal()
        assert a.random() == b.random()

    def test_per_size_stacks_are_guarded_per_size(self, rng, monkeypatch):
        assert random_particle_stacks(rng, []) == {}
        with pytest.raises(ValueError, match="at least one particle"):
            random_particle_stacks(rng, [2, 0])
        monkeypatch.setattr(sampling, "JITTER", 0.0)
        with pytest.raises(ParticleCollision, match="^row 0: "):
            random_particle_stacks(rng, [1, 3, 1], spread=0.0)

    def test_zero_trials(self, rng):
        pos, mom = random_particles(rng, 0, 3)
        assert pos.shape == mom.shape == (0, 3)

    @pytest.mark.parametrize("sl", list(Slice))
    def test_a_true_collision_keeps_its_message(self, rng, sl, monkeypatch):
        monkeypatch.setattr(sampling, "JITTER", 0.0)
        with pytest.raises(ParticleCollision) as point:
            ReducedPoint([1.0, 1.0], [0.0, 0.0], 1.0, slice=sl)
        with pytest.raises(ParticleCollision) as sampled:
            random_particle_stacks(rng, [3] * 4, spread=0.0)
        with pytest.raises(ParticleCollision) as field:
            reduced_vector_field(spec_for(SystemKind.P_II), np.array([1.0, 1.0]),
                                 np.zeros(2), 1.0, 0.0, sl)
        message = "particle gap 0.000e+00 below threshold 2.000e-09"
        assert str(point.value) == str(field.value) == message
        assert str(sampled.value) == "row 0: particle gap 0.000e+00 below threshold 1.000e-09"


@pytest.fixture
def guard_calls(monkeypatch):
    """Shapes of the inputs of every guarded_differences call made from now on."""
    calls = []
    guard = reduction.guarded_differences

    def counting(x):
        calls.append(x.shape)
        return guard(x)
    monkeypatch.setattr(reduction, "guarded_differences", counting)
    return calls


class TestGuardPlacement:
    """The collision test runs where unchecked coordinates come in, once."""

    def test_checked_coordinates_are_not_guarded_again(self, rng, guard_calls):
        x = random_reduced(rng, 4, 0.9, Slice.P_DIAG, t=0.2)
        pos, mom = random_particles(rng, 5, 4)
        q, p = embedded_matrices(pos, mom, 0.9, Slice.Q_DIAG)
        guard_calls.clear()
        for kind in SystemKind:
            spec = spec_for(kind)
            for sl in Slice:
                closed_form_hamiltonian(spec, pos, mom, 0.9, 0.2, sl)
        trace_power_oracle(x.positions, x.momenta, x.g, 4)
        tr_q3_closed(x)
        tr_q4_closed(x)
        for sl in Slice:
            reduced_coordinates(q, p, 0.9, sl)
        assert guard_calls == []

    @pytest.mark.parametrize("sl", list(Slice))
    def test_unchecked_coordinates_are_guarded_once(self, rng, guard_calls, sl):
        pos, mom = random_particles(rng, 5, 4)
        guard_calls.clear()
        embedded_matrices(pos, mom, 0.9, sl)
        assert guard_calls == [(5, 4)]
        guard_calls.clear()
        reduced_vector_field(spec_for(SystemKind.P_IV), pos[0], mom[0], 0.9, 0.2, sl)
        assert guard_calls == [(4,)]
        guard_calls.clear()
        ReducedPoint(pos[1], mom[1], 0.9, 0.2, sl)
        assert guard_calls == [(4,)]
