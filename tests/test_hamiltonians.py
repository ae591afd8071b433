import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cplab.hamiltonians import (dual_p2_interaction_blocks, harmosc_selfduality,
                                matrix_gradients, matrix_hamiltonian,
                                matrix_vector_field, p4_involution,
                                reduced_hamiltonian, reduced_hamiltonian_oracle,
                                reduced_vector_field)
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec
from cplab.reduction import ReducedPoint, Slice
from cplab.sampling import random_level_set_point, random_reduced, spec_for
from cplab.traces import a4_pair_sum, a4_quad_sum, a4_triple_sum

ALL_KINDS = (SystemKind.FREE, SystemKind.HARM_OSC, SystemKind.P_I,
             SystemKind.P_II, SystemKind.P_II_POLY, SystemKind.P_IV)


def every_kind_and_slice(**fixed):
    """Explicit hypothesis examples, one per kind x slice, run on every run."""
    def add(test):
        for kind in ALL_KINDS:
            for sl in Slice:
                test = example(kind=kind, sl=sl, **fixed)(test)
        return test
    return add


class TestMatrixHamiltonian:
    def test_p2_scalar(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        pt = MatrixPhasePoint([[1.0]], [[0.0]], 0.0)
        assert matrix_hamiltonian(spec, pt) == -0.5

    def test_p4_scalar(self):
        spec = SystemSpec(SystemKind.P_IV, theta0=0.0, theta1=0.0)
        pt = MatrixPhasePoint([[1.0]], [[1.0]], 0.0)
        assert matrix_hamiltonian(spec, pt) == 0.0

    def test_p1_diagonal(self):
        spec = SystemSpec(SystemKind.P_I)
        pt = MatrixPhasePoint(np.diag([1.0, 2.0]), np.zeros((2, 2)), 0.0)
        assert matrix_hamiltonian(spec, pt) == -4.5

    def test_adjoint_invariance(self, rng):
        for kind in ALL_KINDS:
            spec = spec_for(kind)
            pt = MatrixPhasePoint(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                                  rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                                  0.3)
            U = np.linalg.qr(rng.normal(size=(3, 3))
                             + 1j * rng.normal(size=(3, 3)))[0]
            moved = MatrixPhasePoint(U.conj().T @ pt.q @ U,
                                     U.conj().T @ pt.p @ U, 0.3)
            a, b = matrix_hamiltonian(spec, pt), matrix_hamiltonian(spec, moved)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def _fd_matrix_gradients(spec, pt, eps=1e-6):
    """Richardson central differences of Tr H wrt every matrix entry."""
    n = pt.n
    gq = np.zeros((n, n), dtype=complex)
    gp = np.zeros((n, n), dtype=complex)

    def h_at(dq, dp):
        return matrix_hamiltonian(spec, MatrixPhasePoint(pt.q + dq, pt.p + dp, pt.t))

    for which, grad in (("q", gq), ("p", gp)):
        for i in range(n):
            for j in range(n):
                E = np.zeros((n, n))
                E[i, j] = 1.0

                def f(s):
                    d = s * E
                    return h_at(d, 0 * E) if which == "q" else h_at(0 * E, d)

                d1 = (f(eps) - f(-eps)) / (2 * eps)
                d2 = (f(eps / 2) - f(-eps / 2)) / eps
                # pairing dH = Tr(G dq): perturbing entry (i, j) reads G[j, i]
                grad[j, i] = (4 * d2 - d1) / 3
    return gq, gp


class TestVectorFields:
    def test_p2_scalar(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        pt = MatrixPhasePoint([[1.0]], [[0.0]], 0.0)
        qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
        assert qdot[0, 0] == 0.0 and pdot[0, 0] == 2.0

    def test_free(self, rng):
        pt = MatrixPhasePoint(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        qdot, pdot = matrix_vector_field(spec_for(SystemKind.FREE), pt.q, pt.p, pt.t)
        assert np.abs(qdot - pt.p).max() == 0 and np.abs(pdot).max() == 0

    def test_gradients_match_finite_differences(self, rng):
        for kind in ALL_KINDS:
            spec = spec_for(kind)
            pt = MatrixPhasePoint(0.7 * rng.normal(size=(2, 2)) + 0.3j * rng.normal(size=(2, 2)),
                                  0.7 * rng.normal(size=(2, 2)) + 0.3j * rng.normal(size=(2, 2)),
                                  0.4)
            gq, gp = matrix_gradients(spec, pt.q, pt.p, pt.t)
            fq, fp = _fd_matrix_gradients(spec, pt)
            assert np.abs(gq - fq).max() < 1e-6
            assert np.abs(gp - fp).max() < 1e-6

    def test_moment_map_conserved_along_field(self, rng):
        for kind in ALL_KINDS:
            spec = spec_for(kind)
            pt = random_level_set_point(rng, 3, 1.0, t=0.2)
            qdot, pdot = matrix_vector_field(spec, pt.q, pt.p, pt.t)
            mu_dot = (pdot @ pt.q - pt.q @ pdot) + (pt.p @ qdot - qdot @ pt.p)
            assert np.abs(mu_dot).max() < 1e-10


class TestReducedHamiltonian:
    def test_p2_n1(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.4)
        x = ReducedPoint([1.2], [0.7], 1.0, t=0.3)
        expected = 0.7 ** 2 / 2 - (1.2 ** 2 + 0.15) ** 2 / 2 - 0.4 * 1.2
        assert abs(reduced_hamiltonian(spec, x) - expected) < 1e-14

    def test_harmosc_worked(self):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.0)
        x = ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0)
        assert abs(reduced_hamiltonian(spec, x) - 1.5) < 1e-14

    @given(seed=st.integers(0, 10 ** 6), kind=st.sampled_from(ALL_KINDS),
           sl=st.sampled_from(Slice), n=st.integers(1, 12))
    @every_kind_and_slice(seed=0, n=12)
    def test_oracle_equivalence(self, seed, kind, sl, n):
        rng = np.random.default_rng(seed)
        spec = spec_for(kind)
        x = random_reduced(rng, n, 0.9, sl, t=0.4)
        a = reduced_hamiltonian(spec, x)
        b = reduced_hamiltonian_oracle(spec, x)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_dual_p2_blocks_match_traces(self, rng):
        # the g^2/g^4 interaction blocks are the quartic-trace blocks
        spec = spec_for(SystemKind.P_II)
        x = random_reduced(rng, 4, 1.1, Slice.P_DIAG, t=0.2)
        blocks = dual_p2_interaction_blocks(x, spec)
        g4 = x.g ** 4
        assert abs(blocks["g4_pair"] + (g4 / 2) * a4_pair_sum(x.positions)) < 1e-12
        assert abs(blocks["g4_triple"] + (g4 / 2) * a4_triple_sum(x.positions)) < 1e-12
        assert abs(blocks["g4_quadruple"] + (g4 / 2) * a4_quad_sum(x.positions)) < 1e-12

    def test_quadruple_block_vanishes_identically(self, rng):
        spec = spec_for(SystemKind.P_II)
        x = random_reduced(rng, 5, 1.0, Slice.P_DIAG)
        quadruple = dual_p2_interaction_blocks(x, spec)["g4_quadruple"]
        assert abs(quadruple) < 1e-12
        # the closed form leaves the class out; putting it back moves nothing
        oracle = reduced_hamiltonian_oracle(spec, x)
        assert abs(reduced_hamiltonian(spec, x) + quadruple - oracle) \
            <= 1e-10 * max(1.0, abs(oracle))


class TestReducedVectorField:
    def test_scalar_painleve(self):
        spec = SystemSpec(SystemKind.P_II, theta=0.2)
        x = ReducedPoint([0.5], [0.8], 1.0, t=0.1)
        da, db = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, x.slice)
        assert abs(da[0] - 0.8) < 1e-14
        assert abs(db[0] - (2 * 0.5 ** 3 + 0.1 * 0.5 + 0.2)) < 1e-14

    def test_p2_interaction_term(self):
        # pdot gains +2 g^2 sum 2/(q_i - q_j)^3 from the pair potential
        spec = SystemSpec(SystemKind.P_II, theta=0.0)
        x = ReducedPoint([0.0, 1.0], [0.0, 0.0], 1.0, t=0.0)
        _, db = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, x.slice)
        bare = np.array([0.0, 2.0])  # 2 q^3 + t q + theta at q = 0, 1
        inter0 = 2 * 1.0 * 1.0 / (0.0 - 1.0) ** 3
        assert abs(db[0] - (bare[0] + inter0)) < 1e-12
        assert abs(db[1] - (bare[1] - inter0)) < 1e-12

    def test_free_is_calogero(self, rng):
        spec = spec_for(SystemKind.FREE)
        x = random_reduced(rng, 3, 1.0)
        da, db = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, x.slice)
        assert np.abs(da - x.momenta).max() < 1e-12
        for i in range(3):
            expected = sum(2 * x.g ** 2 / (x.positions[i] - x.positions[j]) ** 3
                           for j in range(3) if j != i)
            assert abs(db[i] - expected) < 1e-10

    def test_matches_fd_of_oracle(self, rng):
        for kind in ALL_KINDS:
            spec = spec_for(kind)
            for sl in Slice:
                x = random_reduced(rng, 3, 0.8, sl, t=0.2)
                da, db = reduced_vector_field(spec, x.positions, x.momenta,
                                              x.g, x.t, x.slice)
                eps = 1e-5

                def h(pos, mom):
                    return reduced_hamiltonian_oracle(
                        spec, ReducedPoint(pos, mom, x.g, x.t, sl))

                for i in range(3):
                    e = np.zeros(3)
                    e[i] = eps
                    dpos = (h(x.positions + e, x.momenta)
                            - h(x.positions - e, x.momenta)) / (2 * eps)
                    dmom = (h(x.positions, x.momenta + e)
                            - h(x.positions, x.momenta - e)) / (2 * eps)
                    if sl is Slice.Q_DIAG:
                        assert abs(da[i] - dmom) < 1e-6
                        assert abs(db[i] + dpos) < 1e-6
                    else:
                        assert abs(da[i] + dmom) < 1e-6
                        assert abs(db[i] - dpos) < 1e-6


class TestP4Involution:
    def test_algebra(self, rng):
        x = random_reduced(rng, 3, 1.0, Slice.P_DIAG)
        sx, *_ = p4_involution(x, 0.3, 0.7)
        assert sx.slice is Slice.Q_DIAG
        ssx, *_ = p4_involution(sx, 0.3, 0.7)
        assert ssx.slice is x.slice
        assert np.abs(ssx.positions - x.positions).max() == 0
        assert np.abs(ssx.momenta - x.momenta).max() == 0

    def test_relabeling_is_involutive(self):
        th0, th1 = 0.3 + 0.1j, -0.8
        _, a, b = p4_involution(ReducedPoint([1.0], [2.0], 1.0), th0, th1)
        _, a2, b2 = p4_involution(ReducedPoint([1.0], [2.0], 1.0), a, b)
        assert abs(a2 - th0) < 1e-15 and abs(b2 - th1) < 1e-15

    def test_hamiltonian_identity(self, rng):
        th0, th1 = 0.37 + 0.11j, -0.64 + 0.2j
        spec = SystemSpec(SystemKind.P_IV, theta0=th0, theta1=th1)
        for n in (1, 2, 3, 5):
            for sl in Slice:
                x = random_reduced(rng, n, 1.1, sl, t=0.5)
                sx, th0s, th1s = p4_involution(x, th0, th1)
                h1 = reduced_hamiltonian(spec, x)
                h2 = reduced_hamiltonian(
                    SystemSpec(SystemKind.P_IV, theta0=th0s, theta1=th1s), sx)
                assert abs(h1 - h2) <= 1e-10 * max(1.0, abs(h1))

    def test_published_relabeling_fails(self, rng):
        # the printed relabeling theta0->theta1, theta1->theta0-theta1 does
        # not satisfy the identity; kept as a negative control
        th0, th1 = 0.37, -0.64
        spec = SystemSpec(SystemKind.P_IV, theta0=th0, theta1=th1)
        x = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.5)
        sx, *_ = p4_involution(x, th0, th1)
        h1 = reduced_hamiltonian(spec, x)
        h2 = reduced_hamiltonian(
            SystemSpec(SystemKind.P_IV, theta0=th1, theta1=th0 - th1), sx)
        assert abs(h1 - h2) > 1e-3


class TestHarmOscSelfDuality:
    def test_worked_n1(self):
        y = harmosc_selfduality(ReducedPoint([1.0], [4.0], 1.0), 2.0)
        assert y.slice is Slice.P_DIAG
        assert y.positions[0] == 2.0 and y.momenta[0] == -2.0

    def test_energy_match(self, rng):
        spec = SystemSpec(SystemKind.HARM_OSC, omega=1.7)
        x = random_reduced(rng, 2, 0.8)
        y = harmosc_selfduality(x, 1.7)
        assert abs(reduced_hamiltonian(spec, x)
                   - reduced_hamiltonian(spec, y)) < 1e-10

    def test_double_application_negates(self, rng):
        # composing the map with the canonical re-basing of the image gives
        # (q, p) -> (-q, -p)
        om = 1.3
        x = random_reduced(rng, 2, 0.8)
        y = harmosc_selfduality(x, om)
        # on P_DIAG the canonical pair is (momenta, positions); re-base to Q_DIAG
        y_q = ReducedPoint(y.momenta, y.positions, y.g, y.t, Slice.Q_DIAG)
        z = harmosc_selfduality(y_q, om)
        q_final, p_final = z.momenta, z.positions
        assert np.abs(q_final + x.positions).max() < 1e-12
        assert np.abs(p_final + x.momenta).max() < 1e-12

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            harmosc_selfduality(ReducedPoint([1.0], [1.0], 1.0), 0.0)
