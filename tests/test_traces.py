import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cplab import selfcheck, traces
from cplab.errors import ParticleCollision
from cplab.phase import fill_diagonal
from cplab.reduction import (ReducedPoint, calogero_block, inverse_square_kernel,
                             pair_differences)
from cplab.traces import (a4_quad_sum, a4_total, a4_triple_sum, diag_c2,
                          evenness_check, tr_c3, tr_c4, tr_q3_closed,
                          tr_q4_closed, trace_power_oracle)

WORKED = ReducedPoint([1.0, 0.0], [1.0, 2.0], 1.0)


def random_point(rng, n, g=None):
    diag = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ReducedPoint(np.arange(n) * 1.3 + rng.uniform(-0.3, 0.3, n), diag,
                        g if g is not None else float(rng.uniform(0.5, 2.0)))


def oracle(x, l, g=None):
    # the one-row call of the stacked oracle; an explicit g overrides x.g
    return trace_power_oracle(x.positions, x.momenta, x.g if g is None else g, l)


def assemble(x, g=None):
    # the Q that trace_power_oracle takes powers of
    return fill_diagonal(calogero_block(pair_differences(x.positions),
                                        x.g if g is None else g), x.momenta)


class TestAssemble:
    def test_n1(self):
        assert assemble(ReducedPoint([0.0], [2.0], 1.0))[0, 0] == 2.0

    def test_worked_n2(self):
        Q = assemble(WORKED)
        assert np.abs(Q - np.array([[1.0, 1j], [-1j, 2.0]])).max() == 0

    def test_zero_coupling_is_diagonal(self, rng):
        x = random_point(rng, 4)
        Q = assemble(x, g=0.0)
        assert np.abs(Q - np.diag(x.momenta)).max() == 0

    def test_collision(self):
        with pytest.raises(ParticleCollision):
            ReducedPoint([0.5, 0.5], [1.0, 2.0], 1.0)


class TestOracle:
    def test_n1(self):
        assert oracle(ReducedPoint([0.0], [2.0], 1.0), 1) == 2.0

    def test_worked_n2_matrix(self):
        # Q = [[1, i], [-i, 2]]: Tr Q^2 = 1 + 4 + 2
        assert abs(oracle(WORKED, 2) - 7) < 1e-12

    def test_zero_coupling_is_diagonal(self, rng):
        x = random_point(rng, 4)
        for l in (1, 2, 3, 4):
            ref = np.sum(x.momenta ** l)
            got = oracle(x, l, g=0.0)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_explicit_negative_coupling(self, rng):
        # the oracle takes -g unvalidated; Tr Q^l is even in g
        x = random_point(rng, 4)
        for l in (2, 3, 4):
            ref = oracle(x, l)
            got = oracle(x, l, g=-x.g)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_q_cubed_reduces(self):
        # zero momenta make Q^2 = 1, so Tr Q^3 = Tr Q = 0
        x = ReducedPoint([1.0, 0.0], [0.0, 0.0], 1.0)
        assert abs(oracle(x, 3)) < 1e-15

    def test_worked_values(self):
        assert abs(oracle(WORKED, 3) - 18) < 1e-12
        assert abs(oracle(WORKED, 4) - 47) < 1e-12


class TestStackedOracle:
    @pytest.mark.parametrize("l", [1, 3, 4, 7])
    def test_rows_are_one_row_calls(self, rng, l):
        pos = np.arange(4) * 1.3 + rng.uniform(-0.3, 0.3, (2, 3, 4)) + 0.1j
        mom = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        g = rng.uniform(0.5, 2.0, (2, 3))
        got = trace_power_oracle(pos, mom, g, l)
        assert got.shape == (2, 3)
        for i in np.ndindex(2, 3):
            assert got[i] == trace_power_oracle(pos[i], mom[i], g[i], l)
        # the g override broadcasts over one row, negative couplings taken as given
        gs = np.array([0.5, -0.5, 1.3, -2.0, 0.0])
        row = trace_power_oracle(pos[0, 0], mom[0, 0], gs, l)
        assert row.shape == (5,)
        for j, gv in enumerate(gs):
            assert row[j] == trace_power_oracle(pos[0, 0], mom[0, 0], gv, l)
        assert row[1] == pytest.approx(row[0], rel=1e-12)  # even in g

    def test_appendix_entry_evaluates_one_stack_per_n(self, monkeypatch):
        stacks = []

        def recording(positions, momenta, g, l):
            stacks.append(positions)
            return trace_power_oracle(positions, momenta, g, l)

        monkeypatch.setattr(selfcheck, "trace_power_oracle", recording)
        selfcheck.check_appendix_traces(np.random.default_rng(3))
        # one 50-row stack per particle number, at l = 3 and 4, drawn in order n = 1..8
        ref = np.random.default_rng(3)
        assert len(stacks) == 2 * 8
        for n in range(1, 9):
            pos = selfcheck.appendix_trace_points(ref, n, 50)[0]
            for got in stacks[2 * n - 2:2 * n]:
                assert np.array_equal(got, pos)


class TestClosedForms:
    def test_worked_l3(self):
        assert abs(tr_q3_closed(WORKED) - 18) < 1e-12

    def test_worked_l4(self):
        assert abs(tr_q4_closed(WORKED) - 47) < 1e-12

    def test_n1(self):
        x = ReducedPoint([0.0], [1.5 + 0.5j], 1.0)
        assert tr_q3_closed(x) == (1.5 + 0.5j) ** 3
        assert tr_q4_closed(x) == (1.5 + 0.5j) ** 4

    def test_zero_coupling(self, rng):
        x = random_point(rng, 5, g=1e-12)
        assert abs(tr_q3_closed(x) - np.sum(x.momenta ** 3)) < 1e-9

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 12))
    @example(seed=0, n=12)
    def test_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        x = random_point(rng, n)
        for l, closed in ((3, tr_q3_closed), (4, tr_q4_closed)):
            ref = oracle(x, l)
            assert abs(closed(x) - ref) <= 1e-10 * max(1.0, abs(ref))


class TestCalogeroTraces:
    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_against_matrix_powers(self, rng, n, sign):
        # sign -1 is the p-slice off-diagonal: even in g, one kernel serves both
        x = random_point(rng, n)
        W = inverse_square_kernel(x.positions)
        Q = calogero_block(pair_differences(x.positions), x.g, sign) + np.diag(x.momenta)
        for trace, ref in ((diag_c2, np.diagonal(Q @ Q)),
                           (tr_c3, np.trace(np.linalg.matrix_power(Q, 3))),
                           (tr_c4, np.trace(np.linalg.matrix_power(Q, 4)))):
            got = trace(x.momenta, W, x.g)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestQuadrupleClassCancellation:
    """The 4-index class of Tr(A^4) vanishes identically.

    For every 4-subset the reciprocals of the three cyclic chain products
    cancel: as a rational function of one variable the sum has zero residue
    at each pole and decays at infinity.  Consequence: the quartic trace
    (and hence the dual P_II Hamiltonian) carries no 4-body interaction.
    """

    @given(seed=st.integers(0, 10 ** 6))
    def test_necklace_sum_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)

        def chain(a, b, c, d):
            return (x[a] - x[b]) * (x[b] - x[c]) * (x[c] - x[d]) * (x[d] - x[a])

        s = 1 / chain(0, 1, 2, 3) + 1 / chain(0, 1, 3, 2) + 1 / chain(0, 2, 1, 3)
        assert abs(s) < 1e-10

    def test_a4_total_equals_brute_force(self, rng):
        for n in (4, 5, 6, 12):
            x = np.arange(n) * 1.2 + 1j * rng.normal(size=n) * 0.4
            A = 1j / (x[:, None] - x[None, :] + np.eye(n))
            np.fill_diagonal(A, 0)
            brute = np.trace(np.linalg.matrix_power(A, 4))
            closed = a4_total(inverse_square_kernel(x))
            assert abs(brute - closed) < 1e-10 * max(1.0, abs(brute))
            assert abs(a4_quad_sum(x)) < 1e-12

    def test_classes_match_their_index_sums(self, rng):
        # the kernel contractions against the index-class definitions
        for n in (1, 2, 3, 5, 12):
            x = np.arange(n) * 1.2 + 1j * rng.normal(size=n) * 0.4
            pairs = sum(2 / (x[i] - x[j]) ** 4
                        for i, j in itertools.combinations(range(n), 2))
            triples = sum(4 / ((x[a] - x[b]) ** 2 * (x[a] - x[c]) ** 2)
                          for i, j, k in itertools.combinations(range(n), 3)
                          for a, b, c in ((i, j, k), (j, i, k), (k, i, j)))
            pair_class = a4_total(inverse_square_kernel(x)) - a4_triple_sum(x)
            assert abs(pair_class - pairs) <= 1e-12 * max(1.0, abs(pairs))
            assert abs(a4_triple_sum(x) - triples) <= 1e-12 * max(1.0, abs(triples))

    def test_triple_class_is_essential(self, rng):
        x = np.arange(4) * 1.2 + 1j * rng.normal(size=4) * 0.4
        A = 1j / (x[:, None] - x[None, :] + np.eye(4))
        np.fill_diagonal(A, 0)
        brute = np.trace(np.linalg.matrix_power(A, 4))
        pair_class = a4_total(inverse_square_kernel(x)) - a4_triple_sum(x)
        assert abs(brute - pair_class) > 1e-3


class TestEvenness:
    @given(l=st.integers(1, 12))
    def test_symmetry_and_fit(self, l):
        rng = np.random.default_rng(l)
        x = random_point(rng, 3, g=1.0)
        rep = evenness_check(x, l, [0.5, 1.0, 2.0])
        assert rep["symmetry_deviation"] < 1e-11
        assert rep["odd_over_even"] < 1e-9

    def test_appendix_gate_sees_symmetry_deviation(self, monkeypatch):
        # 1e-10 passes an odd/even bound of 1e-9 but breaks the 1e-11 g -> -g gate
        def skewed(x, l, g_values):
            return {**evenness_check(x, l, g_values), "symmetry_deviation": 1e-10}

        monkeypatch.setattr(selfcheck, "evenness_check", skewed)
        entry = selfcheck.check_appendix_traces(np.random.default_rng(4))
        assert not entry["pass"]

    def test_a_nan_even_coefficient_is_not_read_as_zero(self, monkeypatch):
        # NaN traces at the fit's couplings, after the three g_values and their
        # negatives, make every fitted coefficient NaN
        def nan_fit(pos, mom, g, l):
            out = trace_power_oracle(pos, mom, g, l)
            out[6:] = np.nan
            return out

        monkeypatch.setattr(traces, "trace_power_oracle", nan_fit)
        rep = evenness_check(ReducedPoint([0.0, 1.3, 2.9], [0.4, -1.0, 0.7], 1.0), 4,
                             [0.5, 1.0, 2.0])
        assert rep["symmetry_deviation"] < 1e-11
        assert np.isnan(rep["odd_over_even"])

    def test_l1_independent_of_g(self):
        x = ReducedPoint([0.0, 1.0, 2.5], [1.0, 2.0, 3.0], 1.0)
        vals = {g: oracle(x, 1, g=g) for g in (0.5, 1.0, 2.0)}
        assert max(abs(v - 6.0) for v in vals.values()) < 1e-13

    def test_l2_pure_g_squared(self, rng):
        # Tr Q^2 = sum d^2 + 2 g^2 sum_{i<j} 1/dx^2
        x = random_point(rng, 4, g=1.3)
        expected = np.sum(x.momenta ** 2) + 2 * 1.3 ** 2 * sum(
            1.0 / (x.positions[i] - x.positions[j]) ** 2
            for i in range(4) for j in range(i + 1, 4))
        assert abs(oracle(x, 2) - expected) < 1e-10
