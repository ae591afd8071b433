from unittest import mock

import numpy as np
import pytest

from cplab import confluence
from cplab.confluence import (UNIT_CIRCLE_EPS, ConfluenceParams, canonical_shift,
                              conf_map, conf_matrices, dual_confluence_breakdown,
                              identity_defect, map_time, particle_conf_coordinates,
                              p4_spec, remainder, residual_ratio_sweep)
from cplab.hamiltonians import closed_form_hamiltonian, matrix_hamiltonian
from cplab.phase import (MatrixPhasePoint, SystemKind, SystemSpec, moment_map,
                         symplectic_pairing)
from cplab.reduction import ReducedPoint, Slice, embed, matrix_point
from cplab.sampling import random_reduced

EPS_SWEEP = [0.1, 0.05, 0.025]


def generic_point(rng, n=2):
    return MatrixPhasePoint(rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)),
                            rng.normal(size=(n, n)) + 0.3j * rng.normal(size=(n, n)),
                            0.1)


class TestConfMap:
    def test_vacuum_worked(self):
        cp = ConfluenceParams(1.0, 0.0)
        image = conf_map(MatrixPhasePoint([[0.0]], [[0.0]], 0.0), cp)
        assert image.q[0, 0] == -0.5
        assert image.p[0, 0] == 0.0
        assert image.t == 1.0
        assert p4_spec(cp).theta0 == -0.25

    def test_linear_vacuum(self):
        cp = ConfluenceParams(1.0, 0.0, "conf1")
        image = conf_map(MatrixPhasePoint([[0.0]], [[1.0]], 0.0), cp)
        assert image.q[0, 0] == -0.5 and image.p[0, 0] == -1.0

    def test_q_image_diverges_as_eps_cubed(self):
        pt = MatrixPhasePoint([[0.3]], [[0.1]], 0.0)
        norms = []
        for e in (0.1, 0.05):
            image = conf_map(pt, ConfluenceParams(e, 0.0))
            norms.append(abs(image.q[0, 0]))
        assert 7.0 < norms[1] / norms[0] < 9.0  # eps^-3 halving

    def test_moment_map_preserved_exactly(self, rng):
        pt = generic_point(rng)
        for kind in ("conf", "conf1"):
            image = conf_map(pt, ConfluenceParams(0.1, 0.4, kind))
            assert np.abs(moment_map(image.q, image.p) - moment_map(pt.q, pt.p)).max() < 1e-10

    def test_composition_identity(self, rng):
        pt = generic_point(rng)
        cp = ConfluenceParams(0.1, 1.0)
        im1 = conf_map(pt, cp)
        im2 = conf_map(canonical_shift(pt), ConfluenceParams(0.1, 1.0, "conf1"))
        assert np.abs(im1.q - im2.q).max() < 1e-12
        assert np.abs(im1.p - im2.p).max() < 1e-12


def _pushforward(mapper, pt, tangent, step=1e-4):
    """Finite-difference Jacobian action on a tangent vector (dq, dp) (Richardson).

    Both confluence maps are quadratic in (q, p), so central differences
    carry no truncation error at any step; 1e-4 keeps the roundoff of the
    eps^-3-sized image entries at ~1e-12 (a 1e-6 step would be
    roundoff-dominated).
    """
    dq, dp = tangent

    def moved(s):
        return mapper(MatrixPhasePoint(pt.q + s * dq, pt.p + s * dp, pt.t))

    def diff(s):
        a, b = moved(s), moved(-s)
        return (a.q - b.q) / (2 * s), (a.p - b.p) / (2 * s)

    (dq1, dp1), (dq2, dp2) = diff(step), diff(step / 2)
    return (4 * dq2 - dq1) / 3, (4 * dp2 - dp1) / 3


class TestSymplectomorphisms:
    def test_confluence_maps_preserve_pairing(self, rng):
        pt = generic_point(rng, 2)
        u = (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        w = (rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        before = symplectic_pairing(u, w)
        for kind in ("conf", "conf1"):
            def mapper(p):
                return conf_map(p, ConfluenceParams(0.1, 0.3, kind))

            pu = _pushforward(mapper, pt, u)
            pw = _pushforward(mapper, pt, w)
            assert abs(symplectic_pairing(pu, pw) - before) < 1e-9 * max(1, abs(before))

    def test_canonical_shift_preserves_pairing(self, rng):
        pt = generic_point(rng, 3)
        u = (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        w = (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        pu = _pushforward(canonical_shift, pt, u)
        pw = _pushforward(canonical_shift, pt, w)
        assert abs(symplectic_pairing(pu, pw) - symplectic_pairing(u, w)) < 1e-10


class TestCanonicalShift:
    def test_zero_q(self):
        pt = MatrixPhasePoint(np.zeros((2, 2)), np.eye(2), 0.8)
        shifted = canonical_shift(pt)
        assert np.abs(shifted.p - (np.eye(2) + 0.4 * np.eye(2))).max() < 1e-15

    def test_links_the_two_p2_forms(self, rng):
        # H_II(q, p) = H_poly(q, p + q^2 + t/2) exactly, traces cyclic
        pt = generic_point(rng, 3)
        h2 = matrix_hamiltonian(SystemSpec(SystemKind.P_II, theta=0.4), pt)
        hp = matrix_hamiltonian(SystemSpec(SystemKind.P_II_POLY, theta=0.4),
                                canonical_shift(pt))
        assert abs(h2 - hp) < 1e-13 * max(1.0, abs(h2))


class TestResiduals:
    def test_scalar_ratio(self):
        pt = MatrixPhasePoint([[0.3]], [[-0.2]], 0.1)
        sweep = residual_ratio_sweep(pt, 1.0, EPS_SWEEP)
        assert len(sweep["ratios"]) == len(EPS_SWEEP) - 1
        for r_big, r_small in zip(sweep["residuals"], sweep["residuals"][1:]):
            assert 3.5 < r_big / r_small < 4.5

    def test_vacuum_residual_tiny(self):
        pt = MatrixPhasePoint([[0.0]], [[0.0]], 0.0)
        # all matter terms vanish; only roundoff from the parameter
        # cancellations remains, far below the eps^2 scale
        sweep = residual_ratio_sweep(pt, 1.0, EPS_SWEEP)
        for e, r in zip(EPS_SWEEP, sweep["residuals"]):
            assert r < e ** 2

    def test_matrix_and_reduced_sweeps(self, rng):
        # the identity holds at roundoff on both paths and for both maps; the
        # sweep residual at eps = 0.1 is the eps^2 remainder it predicts
        pt = generic_point(rng)
        xq = random_reduced(rng, 2, 1.0, t=0.1)
        for kind in ("conf", "conf1"):
            for point in (pt, xq):
                assert identity_defect(point, 0.7 + 0.1j, kind) <= 1e-12
                sweep = residual_ratio_sweep(point, 0.7 + 0.1j, EPS_SWEEP, kind)
                R = remainder(matrix_point(point), ConfluenceParams(0.1, 0.7 + 0.1j, kind))
                assert abs(sweep["residuals"][0] - 0.01 * abs(R)) < 1e-6 * abs(R)

    def test_printed_theta1_breaks_identity(self, rng, monkeypatch):
        # negative control: theta1 = -theta leaves the Tr q / (4 eps^6) term
        monkeypatch.setattr(ConfluenceParams, "theta1",
                            property(lambda cp: -cp.theta))
        pt = generic_point(rng)
        for kind in ("conf", "conf1"):
            assert identity_defect(pt, 0.7 + 0.1j, kind) > 1e-2

    def test_complex_eps(self):
        ConfluenceParams(0.6 + 0.6j)
        ConfluenceParams(np.exp(0.3j))
        for bad in (0.0, -0.5, 1.5, 1.0 + 1.0j, -1.0 + 0j):
            with pytest.raises(ValueError):
                ConfluenceParams(bad)

    def test_reduced_equals_matrix_on_slice(self, rng):
        # conf commutes with the Q_DIAG embedding, so the two residual code
        # paths (closed forms vs traces) must agree
        x = random_reduced(rng, 2, 1.0, t=0.1)
        (a,) = residual_ratio_sweep(x, 0.7, [0.1], "conf")["residuals"]
        (b,) = residual_ratio_sweep(embed(x), 0.7, [0.1], "conf")["residuals"]
        assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_interaction_term_limit(self, rng):
        # -eps g^2 (q4_i + q4_j)/(dq4)^2 -> g^2/(dq2)^2 with O(eps^2) error
        x = random_reduced(rng, 3, 1.0, t=0.1)
        target = sum(1.0 / (x.positions[i] - x.positions[j]) ** 2
                     for i in range(3) for j in range(i + 1, 3))
        errs = []
        for e in (0.1, 0.05):
            a4, _, _ = particle_conf_coordinates(x.positions, x.momenta, x.t,
                                                 ConfluenceParams(e, 0.0))
            val = -e * sum((a4[i] + a4[j]) / (a4[i] - a4[j]) ** 2
                           for i in range(3) for j in range(i + 1, 3))
            errs.append(abs(val - target) / abs(target))
        assert errs[0] < 0.1
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_a_close_legal_pair_keeps_its_image(self):
        # the image differences are -(x_i - x_j)/eps, so the image gap is never
        # below the source gap, while a collision threshold relative to the
        # image's size, ~1/eps^3, would reject it: the image is not guarded
        x = ReducedPoint([0.0, 1e-7, 1.5], [0.3, -0.2, 0.5], 1.0, t=0.1)
        sweep = residual_ratio_sweep(x, 0.7, EPS_SWEEP)
        assert len(sweep["residuals"]) == len(EPS_SWEEP)
        assert np.isfinite(sweep["residuals"]).all()
        cp = ConfluenceParams(0.05, 0.7)
        a4, b4, t4 = particle_conf_coordinates(x.positions, x.momenta, x.t, cp)
        spec = p4_spec(cp)
        h = closed_form_hamiltonian(spec, a4, b4, x.g, t4, Slice.Q_DIAG)
        assert np.isfinite(h)

    def test_kind_and_slice_are_checked(self, rng):
        with pytest.raises(ValueError, match="kind"):
            ConfluenceParams(0.1, 0.7, "conf2")
        with pytest.raises(ValueError, match="Q_DIAG"):
            residual_ratio_sweep(random_reduced(rng, 2, 1.0, Slice.P_DIAG), 0.7,
                                 [0.1])

    @pytest.mark.parametrize("kind", ["bogus", "conf2", "CONF"])
    def test_an_unknown_kind_is_refused_by_the_record(self, rng, kind):
        # every map and identity reads the kind from ConfluenceParams, so an
        # unknown kind fails there and no entry point can take it for conf1
        pt = generic_point(rng)
        with pytest.raises(ValueError, match="unknown confluence kind"):
            ConfluenceParams(0.1, 0.7, kind)
        with pytest.raises(ValueError, match="unknown confluence kind"):
            identity_defect(pt, 0.7, kind)
        with pytest.raises(ValueError, match="unknown confluence kind"):
            residual_ratio_sweep(pt, 0.7, EPS_SWEEP, kind)
        # an empty sweep builds no record, and still checks its kind
        with pytest.raises(ValueError, match="unknown confluence kind"):
            residual_ratio_sweep(pt, 0.7, [], kind)

    def test_an_empty_sweep(self, rng):
        assert residual_ratio_sweep(generic_point(rng), 0.7, [], "conf1") == {
            "eps": [], "residuals": [], "ratios": []}

    def test_image_time(self):
        cp = ConfluenceParams(0.1, 0.0)
        assert abs(map_time(0.3, cp) - (1 - 1e-4 * 0.3) / 1e-3) < 1e-9


class TestDualBreakdown:
    def test_generic_breakdown_visible(self, rng):
        xd = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.1)
        rep = dual_confluence_breakdown(xd, ConfluenceParams(0.1, 0.5))
        assert rep["deviation"] > 1e-3

    def test_linear_map_aligns(self, rng):
        xd = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.1)
        rep = dual_confluence_breakdown(xd, ConfluenceParams(0.1, 0.5, "conf1"))
        assert rep["deviation"] < 1e-8

    def test_small_coupling_alignment(self):
        devs = []
        for g in (0.5, 0.05, 0.005):
            xd = ReducedPoint([0.3, 1.7], [-0.2, 0.6], g, 0.1, Slice.P_DIAG)
            rep = dual_confluence_breakdown(xd, ConfluenceParams(0.1, 0.5))
            devs.append(rep["eigenbasis_misalignment"])
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2

    def test_a_nan_naive_deviation_is_the_deviation(self, rng, monkeypatch):
        monkeypatch.setattr(confluence, "permuted_deviation", lambda a, b: np.nan)
        xd = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.1)
        rep = dual_confluence_breakdown(xd, ConfluenceParams(0.1, 0.5, "conf1"))
        assert np.isnan(rep["deviation"])

    @pytest.mark.parametrize("kind", ["conf", "conf1"])
    def test_equal_dual_momenta_are_legal(self, kind):
        # on P_DIAG only the positions are collision-tested; equal momenta
        # [0.5, 0.5] are a legal point and the naive map takes them as they are
        xd = ReducedPoint([0.3, 1.7], [0.5, 0.5], 1.0, 0.1, Slice.P_DIAG)
        rep = dual_confluence_breakdown(xd, ConfluenceParams(0.1, 0.5, kind))
        assert all(np.isfinite(v) for v in rep.values())
        assert (rep["deviation"] > 1e-3) if kind == "conf" else (rep["deviation"] < 1e-8)

    def test_linear_map_keeps_p_eigenbasis(self, rng):
        # eigenvectors of p_IV coincide with those of p_II under the linear map
        xd = random_reduced(rng, 2, 1.0, Slice.P_DIAG, t=0.1)
        pt = embed(xd)
        image = conf_map(pt, ConfluenceParams(0.1, 0.5, "conf1"))
        comm = image.p @ pt.p - pt.p @ image.p
        assert np.abs(comm).max() < 1e-10

    def test_p4_spec_parameters(self):
        cp = ConfluenceParams(0.1, 0.7)
        spec = p4_spec(cp)
        assert spec.kind is SystemKind.P_IV
        assert abs(spec.theta0 + 1.0 / (4 * 0.1 ** 6)) < 1e-6
        assert abs((spec.theta0 + spec.theta1) - 0.7) < 1e-9


class TestEpsStack:
    def test_maps_equal_the_per_eps_maps(self, rng):
        eps = UNIT_CIRCLE_EPS[::4]
        pt, x = generic_point(rng, 3), random_reduced(rng, 3, 1.0, t=0.1)
        for kind in ("conf", "conf1"):
            cp = ConfluenceParams(eps, 0.7, kind)
            q4, p4, t4 = conf_matrices(pt, cp)
            a4, b4, s4 = particle_conf_coordinates(x.positions, x.momenta, x.t, cp)
            assert q4.shape == p4.shape == (len(eps), 3, 3) and a4.shape == (len(eps), 3)
            for k, e in enumerate(eps):
                one = ConfluenceParams(e, 0.7, kind)
                image = conf_map(pt, one)
                a, b, s = particle_conf_coordinates(x.positions, x.momenta, x.t, one)
                # the stack squares eps as an array, which may round differently
                for u, v in ((q4[k], image.q), (p4[k], image.p), (a4[k], a), (b4[k], b)):
                    assert np.abs(u - v).max() <= 1e-14 * max(1.0, np.abs(v).max())
                assert t4[k] == image.t == s

    def test_stacked_parameters(self):
        cp = ConfluenceParams(UNIT_CIRCLE_EPS, 0.3)
        spec = p4_spec(cp)
        assert spec.theta0.shape == spec.theta1.shape == (32,)
        assert np.abs(spec.theta0 + spec.theta1 - 0.3).max() < 1e-12
        with pytest.raises(ValueError):
            ConfluenceParams(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("reduced", [False, True])
    def test_identity_defect_evaluates_one_stack(self, rng, monkeypatch, reduced):
        # the 32 image Hamiltonians of the eps circle are one stacked call;
        # the other call evaluates the target Hamiltonian at the point itself
        name = "closed_form_hamiltonian" if reduced else "trace_hamiltonian"
        counter = mock.Mock(wraps=getattr(confluence, name))
        monkeypatch.setattr(confluence, name, counter)
        point = random_reduced(rng, 3, 1.0, t=0.1) if reduced else generic_point(rng, 3)
        stacked = (len(UNIT_CIRCLE_EPS),) + ((3,) if reduced else (3, 3))
        for kind in ("conf", "conf1"):
            counter.reset_mock()
            assert identity_defect(point, 0.7 + 0.1j, kind) <= 1e-12
            shapes = [c.args[1].shape for c in counter.call_args_list]
            assert shapes.count(stacked) == 1
