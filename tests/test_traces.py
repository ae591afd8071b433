import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cplab import selfcheck
from cplab.errors import ParticleCollision
from cplab.traces import (CalogeroMatrixSpec, a4_pair_sum, a4_quad_sum,
                          a4_triple_sum, assemble, evenness_check,
                          tr_q3_closed, tr_q4_closed, trace_power_oracle)

WORKED = CalogeroMatrixSpec([1.0, 2.0], [1.0, 0.0], 1.0)


def random_spec(rng, n, g=None):
    return CalogeroMatrixSpec(rng.normal(size=n) + 1j * rng.normal(size=n),
                              np.arange(n) * 1.3 + rng.uniform(-0.3, 0.3, n),
                              g if g is not None else float(rng.uniform(0.5, 2.0)))


class TestAssemble:
    def test_n1(self):
        assert assemble(CalogeroMatrixSpec([2.0], [0.0], 1.0))[0, 0] == 2.0

    def test_worked_n2(self):
        Q = assemble(WORKED)
        assert np.abs(Q - np.array([[1.0, 1j], [-1j, 2.0]])).max() == 0

    def test_zero_coupling_is_diagonal(self, rng):
        spec = random_spec(rng, 4)
        Q = assemble(spec, g=0.0)
        assert np.abs(Q - np.diag(spec.diag)).max() == 0

    def test_collision(self):
        with pytest.raises(ParticleCollision):
            CalogeroMatrixSpec([1.0, 2.0], [0.5, 0.5], 1.0)


class TestOracle:
    def test_q_cubed_reduces(self):
        # diag = 0 makes Q^2 = 1, so Tr Q^3 = Tr Q = 0
        spec = CalogeroMatrixSpec([0.0, 0.0], [1.0, 0.0], 1.0)
        assert abs(trace_power_oracle(spec, 3)) < 1e-15

    def test_worked_values(self):
        assert abs(trace_power_oracle(WORKED, 3) - 18) < 1e-12
        assert abs(trace_power_oracle(WORKED, 4) - 47) < 1e-12


class TestClosedForms:
    def test_worked_l3(self):
        assert abs(tr_q3_closed(WORKED) - 18) < 1e-12

    def test_worked_l4(self):
        assert abs(tr_q4_closed(WORKED) - 47) < 1e-12

    def test_n1(self):
        spec = CalogeroMatrixSpec([1.5 + 0.5j], [0.0], 1.0)
        assert tr_q3_closed(spec) == (1.5 + 0.5j) ** 3
        assert tr_q4_closed(spec) == (1.5 + 0.5j) ** 4

    def test_zero_coupling(self, rng):
        spec = random_spec(rng, 5, g=1e-12)
        assert abs(tr_q3_closed(spec) - np.sum(spec.diag ** 3)) < 1e-9

    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 12))
    @example(seed=0, n=12)
    def test_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, n)
        for l, closed in ((3, tr_q3_closed), (4, tr_q4_closed)):
            oracle = trace_power_oracle(spec, l)
            assert abs(closed(spec) - oracle) <= 1e-10 * max(1.0, abs(oracle))


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

    def test_pair_plus_triple_equals_brute_force(self, rng):
        for n in (4, 5, 6, 12):
            x = np.arange(n) * 1.2 + 1j * rng.normal(size=n) * 0.4
            A = 1j / (x[:, None] - x[None, :] + np.eye(n))
            np.fill_diagonal(A, 0)
            brute = np.trace(np.linalg.matrix_power(A, 4))
            closed = a4_pair_sum(x) + a4_triple_sum(x)
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
            assert abs(a4_pair_sum(x) - pairs) <= 1e-12 * max(1.0, abs(pairs))
            assert abs(a4_triple_sum(x) - triples) <= 1e-12 * max(1.0, abs(triples))

    def test_triple_class_is_essential(self, rng):
        x = np.arange(4) * 1.2 + 1j * rng.normal(size=4) * 0.4
        A = 1j / (x[:, None] - x[None, :] + np.eye(4))
        np.fill_diagonal(A, 0)
        brute = np.trace(np.linalg.matrix_power(A, 4))
        assert abs(brute - a4_pair_sum(x)) > 1e-3


class TestEvenness:
    @given(l=st.integers(1, 12))
    def test_symmetry_and_fit(self, l):
        rng = np.random.default_rng(l)
        spec = random_spec(rng, 3, g=1.0)
        rep = evenness_check(spec, l, [0.5, 1.0, 2.0])
        assert rep["symmetry_deviation"] < 1e-11
        assert rep["odd_over_even"] < 1e-9

    def test_appendix_gate_sees_symmetry_deviation(self, monkeypatch):
        # 1e-10 passes an odd/even bound of 1e-9 but breaks the 1e-11 g -> -g gate
        def skewed(spec, l, g_values):
            return {**evenness_check(spec, l, g_values), "symmetry_deviation": 1e-10}

        monkeypatch.setattr(selfcheck, "evenness_check", skewed)
        entry = selfcheck.check_appendix_traces(np.random.default_rng(4))
        assert not entry["pass"]

    def test_l1_independent_of_g(self):
        spec = CalogeroMatrixSpec([1.0, 2.0, 3.0], [0.0, 1.0, 2.5], 1.0)
        vals = {g: trace_power_oracle(spec, 1, g=g) for g in (0.5, 1.0, 2.0)}
        assert max(abs(v - 6.0) for v in vals.values()) < 1e-13

    def test_l2_pure_g_squared(self, rng):
        # Tr Q^2 = sum d^2 + 2 g^2 sum_{i<j} 1/dx^2
        spec = random_spec(rng, 4, g=1.3)
        expected = np.sum(spec.diag ** 2) + 2 * 1.3 ** 2 * sum(
            1.0 / (spec.denom[i] - spec.denom[j]) ** 2
            for i in range(4) for j in range(i + 1, 4))
        assert abs(trace_power_oracle(spec, 2) - expected) < 1e-10
