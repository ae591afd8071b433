import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cplab import hamiltonians, reduction
from cplab.errors import ParticleCollision
from cplab.hamiltonians import (closed_form_hamiltonian, embedded_trace_hamiltonian,
                                matrix_gradients, matrix_hamiltonian,
                                matrix_vector_field, p4_involution_coordinates, reduced_hamiltonian,
                                reduced_vector_field, rk4_step, trace_hamiltonian)
from cplab.lax import l_coefficients, lax_l, lax_m, m_coefficients
from cplab.phase import MatrixPhasePoint, SystemKind, SystemSpec
from cplab.reduction import ReducedPoint, Slice, embedded_matrices
from cplab.sampling import (random_level_set_point, random_particles, random_reduced,
                            spec_for)
from cplab.traces import a4_quad_sum

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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fields_leave_their_inputs_alone(self, rng, kind):
        # matrix_gradients may hand back p itself as G_p: neither field writes
        # into its inputs, and neither output is a view of them
        spec = spec_for(kind)
        pt = random_level_set_point(rng, 3, 1.0, t=0.2)
        q, p = pt.q.copy(), pt.p.copy()
        out = matrix_vector_field(spec, q, p, pt.t)
        assert q.tobytes() == pt.q.tobytes() and p.tobytes() == pt.p.tobytes()
        assert not any(np.shares_memory(row, m) for row in out for m in (q, p))
        for sl in Slice:
            x = random_reduced(rng, 3, 1.0, sl, t=0.2)
            a, b = x.positions.copy(), x.momenta.copy()
            out = reduced_vector_field(spec, a, b, x.g, x.t, sl)
            assert a.tobytes() == x.positions.tobytes()
            assert b.tobytes() == x.momenta.tobytes()
            assert not any(np.shares_memory(row, m) for row in out for m in (a, b))


def pair_step(field, q, p, t, h):
    """RK4 written out on a separate (q, p) pair, stage by stage."""
    half = h / 2
    k1q, k1p = field(q, p, t)
    k2q, k2p = field(q + half * k1q, p + half * k1p, t + half)
    k3q, k3p = field(q + half * k2q, p + half * k2p, t + half)
    k4q, k4p = field(q + h * k3q, p + h * k3p, t + h)
    sixth = h / 6
    return (q + sixth * (k1q + 2 * k2q + 2 * k3q + k4q),
            p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p))


class TestRK4Step:
    def test_linear_field_gives_the_degree_4_taylor_polynomial(self):
        lam_q, lam_p, h = -0.7 + 0.4j, 1.3 - 0.2j, 0.1
        y0 = np.array([[1.0 + 0.5j, -2.0], [0.3j, 0.8 - 0.1j]])

        def field(y, t):
            return np.stack((lam_q * y[0], lam_p * y[1]))

        y = rk4_step(field, y0, 0.2, h, field(y0, 0.2))
        for row, row0, lam in zip(y, y0, (lam_q, lam_p)):
            z = lam * h
            expected = (1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) * row0
            assert np.abs(row - expected).max() <= 4e-16 * np.abs(expected).max()

    def test_time_dependent_field_is_integrated_exactly(self):
        # y' = t^3 is Simpson's rule over the stage times t, t + h/2, t + h:
        # exact for a cubic, and every number below is exact in floating point
        times = []

        def field(y, t):
            times.append(t)
            return np.stack((np.full_like(y[0], t ** 3), np.full_like(y[1], -t ** 3)))

        y0 = np.array([[2.0, -3.0], [-1.0, 0.5]])
        q, p = rk4_step(field, y0, 1.0, 3.0, field(y0, 1.0))
        assert times == [1.0, 2.5, 2.5, 4.0]
        assert q.tolist() == [2.0 + 63.75, -3.0 + 63.75]  # (4^4 - 1^4) / 4
        assert p.tolist() == [-1.0 - 63.75, 0.5 - 63.75]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_packed_matrix_step_is_the_pair_step_bitwise(self, rng, kind):
        spec = spec_for(kind)
        pt = random_level_set_point(rng, 3, 1.0, t=0.2)

        def field(q, p, t):
            return matrix_vector_field(spec, q, p, t)

        y0 = np.stack((pt.q, pt.p))
        y = rk4_step(lambda y, t: field(y[0], y[1], t), y0, pt.t, 0.05,
                     field(pt.q, pt.p, pt.t))
        assert y.tobytes() == np.stack(pair_step(field, pt.q, pt.p, pt.t, 0.05)).tobytes()

    @pytest.mark.parametrize("sl", list(Slice))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_packed_reduced_step_is_the_pair_step_bitwise(self, rng, kind, sl):
        spec = spec_for(kind)
        x = random_reduced(rng, 3, 1.0, slice=sl, t=0.2)

        def field(a, b, t):
            return reduced_vector_field(spec, a, b, x.g, t, sl)

        y0 = np.stack((x.positions, x.momenta))
        y = rk4_step(lambda y, t: field(y[0], y[1], t), y0, x.t, 0.01,
                     field(x.positions, x.momenta, x.t))
        expected = np.stack(pair_step(field, x.positions, x.momenta, x.t, 0.01))
        assert y.tobytes() == expected.tobytes()


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
        b = embedded_trace_hamiltonian(spec, x.positions, x.momenta, x.g, x.t, x.slice)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_only_dual_p1_and_p2_form_higher_traces(self, rng, monkeypatch):
        # Tr C^3 is read by dual P_I only, Tr C^4 by dual P_II only
        counted = {name: mock.Mock(wraps=getattr(hamiltonians, name))
                   for name in ("tr_c3", "tr_c4")}
        for name, counter in counted.items():
            monkeypatch.setattr(hamiltonians, name, counter)
        readers = {(SystemKind.P_I, Slice.P_DIAG): {"tr_c3": 1},
                   (SystemKind.P_II, Slice.P_DIAG): {"tr_c4": 1}}
        for kind in ALL_KINDS:
            for sl in Slice:
                for counter in counted.values():
                    counter.reset_mock()
                reduced_hamiltonian(spec_for(kind), random_reduced(rng, 3, 1.0, sl))
                calls = {name: c.call_count for name, c in counted.items() if c.call_count}
                assert calls == readers.get((kind, sl), {}), (kind, sl)

    def test_quadruple_block_vanishes_identically(self, rng):
        spec = spec_for(SystemKind.P_II)
        x = random_reduced(rng, 5, 1.0, Slice.P_DIAG)
        quadruple = -(x.g ** 4 / 2) * a4_quad_sum(x.positions)
        assert abs(quadruple) < 1e-12
        # the closed form leaves the class out; putting it back moves nothing
        oracle = embedded_trace_hamiltonian(spec, x.positions, x.momenta, x.g, x.t,
                                            x.slice)
        assert abs(reduced_hamiltonian(spec, x) + quadruple - oracle) \
            <= 1e-10 * max(1.0, abs(oracle))


class TestStackedReducedHamiltonian:
    @pytest.mark.parametrize("sl", list(Slice))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stack_against_oracle_and_point_loop(self, rng, kind, sl):
        spec = spec_for(kind)
        for n in range(1, 13):
            pos, mom = random_particles(rng, 8, n)
            closed = closed_form_hamiltonian(spec, pos, mom, 0.9, 0.4, sl)
            oracle = embedded_trace_hamiltonian(spec, pos, mom, 0.9, 0.4, sl)
            assert closed.shape == oracle.shape == (8,)
            assert (np.abs(closed - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle))).all()
            for i in range(8):
                x = ReducedPoint(pos[i], mom[i], 0.9, 0.4, sl)
                # a stack multiplies complex arrays, which may round differently
                # from the scalar products of one point
                one_row = embedded_trace_hamiltonian(spec, pos[i], mom[i], 0.9, 0.4, sl)
                for stacked, h in ((closed[i], reduced_hamiltonian(spec, x)),
                                   (oracle[i], one_row)):
                    assert abs(stacked - h) <= 1e-14 * max(1.0, abs(h)), (n, i)

    def test_zero_row_stack(self):
        rows = np.zeros((0, 3), dtype=complex)
        for kind in ALL_KINDS:
            for sl in Slice:
                h = closed_form_hamiltonian(spec_for(kind), rows, rows, 1.0, 0.0, sl)
                assert h.shape == (0,)

    def test_stacked_parameters_broadcast_over_rows(self, rng):
        pos, mom = random_particles(rng, 3, 2)
        theta0 = np.array([0.1, 0.2 + 0.3j, -0.5])
        stacked = closed_form_hamiltonian(SystemSpec(SystemKind.P_IV, theta0=theta0),
                                          pos, mom, 1.0, 0.2, Slice.Q_DIAG)
        for i in range(3):
            one = closed_form_hamiltonian(SystemSpec(SystemKind.P_IV, theta0=theta0[i]),
                                          pos[i], mom[i], 1.0, 0.2, Slice.Q_DIAG)
            assert abs(stacked[i] - one) <= 1e-14 * max(1.0, abs(one))

    def test_involution_coordinates_are_the_point_map(self, rng):
        pos, mom = random_particles(rng, 4, 3)
        a, b, sl, th0, th1 = p4_involution_coordinates(pos, mom, Slice.Q_DIAG, 0.3, 0.7)
        assert sl is Slice.P_DIAG and (th0, th1) == (1.0, -0.7)
        for i in range(4):
            sa, sb, *_ = p4_involution_coordinates(pos[i], mom[i], Slice.Q_DIAG, 0.3, 0.7)
            assert np.array_equal(sa, a[i]) and np.array_equal(sb, b[i])


class TestReducedVectorField:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("sl", list(Slice))
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_is_the_one_line_chain_rule_bitwise(self, rng, kind, sl, n):
        # the field forms its chain-rule row in place; the written-out
        # expression below is the same operations in the same order
        spec = spec_for(kind)
        x = random_reduced(rng, n, 0.9, sl, t=0.3)
        q, p = embedded_matrices(x.positions, x.momenta, x.g, sl)
        g_diag, g_res = sl.order(*matrix_gradients(spec, q, p, x.t))
        K = sl.order(q, p)[1]
        dH_da = g_diag.diagonal() + (K * K * (g_res - g_res.T)).sum(axis=1) / (sl.sign * 1j * x.g)
        dH_dc, dH_dm = sl.order(dH_da, g_res.diagonal())
        expected = np.stack(sl.order(dH_dm, -dH_dc))
        out = reduced_vector_field(spec, x.positions, x.momenta, x.g, x.t, sl)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

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
                    return embedded_trace_hamiltonian(spec, pos, mom, x.g, x.t, sl)

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

    @pytest.mark.parametrize("sl", list(Slice))
    def test_collision_guard_at_the_threshold(self, sl):
        # the threshold is COLLISION_RTOL (1 + max |x|) = 1e-9 (1 + gap)
        spec = spec_for(SystemKind.P_II)
        with pytest.raises(ParticleCollision,
                           match=r"^particle gap 9\.900e-10 below threshold 1\.000e-09$"):
            reduced_vector_field(spec, np.array([0.0, 0.99e-9]), np.zeros(2), 1.0, 0.0, sl)
        da, db = reduced_vector_field(spec, np.array([0.0, 1.01e-9]), np.zeros(2),
                                      1.0, 0.0, sl)
        assert np.isfinite(da).all() and np.isfinite(db).all()

    @pytest.mark.parametrize("sl", list(Slice))
    def test_one_pass_over_the_differences(self, rng, monkeypatch, sl):
        calls = []
        differences = reduction.pair_differences

        def counting(x):
            calls.append(x.shape)
            return differences(x)
        monkeypatch.setattr(reduction, "pair_differences", counting)
        x = random_reduced(rng, 4, 0.8, sl, t=0.3)
        calls.clear()  # the point's own guard ran while it was built
        reduced_vector_field(spec_for(SystemKind.P_IV), x.positions, x.momenta, x.g, x.t, sl)
        assert calls == [(4,)]


def involution_image(x, theta0, theta1):
    """(positions, momenta, slice, theta0*, theta1*) of the P_IV involution of x."""
    return p4_involution_coordinates(x.positions, x.momenta, x.slice, theta0, theta1)


class TestP4Involution:
    def test_algebra(self, rng):
        x = random_reduced(rng, 3, 1.0, Slice.P_DIAG)
        a, b, sl, *_ = involution_image(x, 0.3, 0.7)
        assert sl is Slice.Q_DIAG
        aa, bb, ssl, *_ = p4_involution_coordinates(a, b, sl, 0.3, 0.7)
        assert ssl is x.slice
        assert np.abs(aa - x.positions).max() == 0
        assert np.abs(bb - x.momenta).max() == 0

    def test_relabeling_is_involutive(self):
        th0, th1 = 0.3 + 0.1j, -0.8
        *_, a, b = involution_image(ReducedPoint([1.0], [2.0], 1.0), th0, th1)
        *_, a2, b2 = involution_image(ReducedPoint([1.0], [2.0], 1.0), a, b)
        assert abs(a2 - th0) < 1e-15 and abs(b2 - th1) < 1e-15

    def test_hamiltonian_identity(self, rng):
        th0, th1 = 0.37 + 0.11j, -0.64 + 0.2j
        spec = SystemSpec(SystemKind.P_IV, theta0=th0, theta1=th1)
        for n in (1, 2, 3, 5):
            for sl in Slice:
                x = random_reduced(rng, n, 1.1, sl, t=0.5)
                a, b, ssl, th0s, th1s = involution_image(x, th0, th1)
                h1 = reduced_hamiltonian(spec, x)
                h2 = reduced_hamiltonian(SystemSpec(SystemKind.P_IV, theta0=th0s, theta1=th1s),
                                         ReducedPoint(a, b, x.g, x.t, ssl))
                assert abs(h1 - h2) <= 1e-10 * max(1.0, abs(h1))

    def test_published_relabeling_fails(self, rng):
        # the printed relabeling theta0->theta1, theta1->theta0-theta1 does
        # not satisfy the identity; kept as a negative control
        th0, th1 = 0.37, -0.64
        spec = SystemSpec(SystemKind.P_IV, theta0=th0, theta1=th1)
        x = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.5)
        a, b, ssl, *_ = involution_image(x, th0, th1)
        h1 = reduced_hamiltonian(spec, x)
        h2 = reduced_hamiltonian(SystemSpec(SystemKind.P_IV, theta0=th1, theta1=th0 - th1),
                                 ReducedPoint(a, b, x.g, x.t, ssl))
        assert abs(h1 - h2) > 1e-3


class TestOneTimeConvention:
    """Every function that takes a spec takes the physical time t."""

    @pytest.mark.parametrize("kind", [SystemKind.P_I, SystemKind.P_II,
                                      SystemKind.P_II_POLY, SystemKind.P_IV])
    def test_autonomous_arrays_are_those_at_tau(self, rng, kind):
        # frozen at tau = 0.7, every t gives the non-autonomous arrays at t = 0.7
        q = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        p = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        pos, mom = random_particles(rng, 4, 3)
        builders = {
            "trace_hamiltonian": lambda spec, t: trace_hamiltonian(spec, q, p, t),
            "embedded_trace_hamiltonian": lambda spec, t: embedded_trace_hamiltonian(
                spec, pos, mom, 0.9, t, Slice.P_DIAG),
            "closed_form_hamiltonian": lambda spec, t: closed_form_hamiltonian(
                spec, pos, mom, 0.9, t, Slice.P_DIAG),
            "matrix_vector_field": lambda spec, t: matrix_vector_field(spec, q, p, t),
            "reduced_vector_field": lambda spec, t: reduced_vector_field(
                spec, pos[0], mom[0], 0.9, t, Slice.Q_DIAG),
            "lax_l": lambda spec, t: lax_l(spec, q, p, t, 0.8 + 0.3j),
            "lax_m": lambda spec, t: lax_m(spec, q, p, t, 0.8 + 0.3j),
        }
        frozen, moving = spec_for(kind, tau=0.7), spec_for(kind)
        for name, build in builders.items():
            at = moving
            if kind is SystemKind.P_II_POLY and name == "lax_l":
                # L is P_II's at the canonical image, whose generator's time
                # derivative shifts theta by -1/2 unless the time is frozen
                at = dataclasses.replace(moving, theta=moving.theta + 0.5)
            want = np.asarray(build(at, 0.7))
            for t in (0.1, 3.0):
                assert np.array_equal(build(frozen, t), want), (name, t)


@pytest.mark.parametrize("kind", list(SystemKind))
def test_every_kind_is_served(rng, kind):
    # each dispatch on the kind ends in a branch for every member: none
    # falls through to an implicit None; an unknown kind is refused by the
    # config (cli.system_spec), since no SystemSpec can hold one
    spec = spec_for(kind)
    q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pos, mom = random_particles(rng, 2, 3)
    served = {
        "trace_hamiltonian": trace_hamiltonian(spec, q, p, 0.3),
        "matrix_gradients": matrix_gradients(spec, q, p, 0.3),
        "closed_form_hamiltonian": closed_form_hamiltonian(spec, pos, mom, 0.9, 0.3,
                                                           Slice.Q_DIAG),
        "l_coefficients": l_coefficients(spec, q, p, 0.3)[1],
        "m_coefficients": m_coefficients(spec, q, p, 0.3)[1],
    }
    for name, value in served.items():
        assert value is not None and np.isfinite(value).all(), name
