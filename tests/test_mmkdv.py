import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cplab import mmkdv
from cplab.errors import CplabError, NonScalarInput
from cplab.mmkdv import (ConventionSwitch, calibrate, deformation_check, mmkdv_rhs,
                         ss_residual, switch_sensitivity, tw_residual)

finite = st.floats(-3, 3, allow_nan=False)
# the calibrated outcome recorded in CONVENTIONS.md; calibrate() must find it
CALIBRATED = ConventionSwitch(s_cubic=-1, s_comm="UX_U", s_linear=1.0, s_z=-1)


class TestRhs:
    def test_zero_field(self):
        z = np.zeros((2, 2))
        assert np.abs(mmkdv_rhs(z, z, z, z, ConventionSwitch())).max() == 0

    def test_scalar_form(self):
        # commutators vanish for scalars: rhs = u_xxx - 6 u^2 u_x
        sw = ConventionSwitch(s_comm="NONE")
        u, ux, uxx, uxxx = 0.7, -0.3, 0.2, 1.1
        val = mmkdv_rhs(u, ux, uxx, uxxx, sw)[0, 0]
        assert abs(val - (uxxx - 6 * u ** 2 * ux)) < 1e-14

    def test_commutator_choices_differ(self, rng):
        mats = [rng.normal(size=(2, 2)) for _ in range(4)]
        a = mmkdv_rhs(*mats, ConventionSwitch(s_comm="UX_U"))
        b = mmkdv_rhs(*mats, ConventionSwitch(s_comm="U_UXX"))
        assert np.abs(a - b).max() > 1e-3


class TestTravellingWave:
    @given(v=finite, p=finite, w=finite, th=finite)
    def test_scalar_identity(self, v, p, w, th):
        assert tw_residual(v, p, w, th, CALIBRATED) < 1e-12 * 100

    def test_zero_data(self):
        assert tw_residual(0.0, 0.0, 1.3, 0.0, CALIBRATED) == 0

    def test_wrong_cubic_sign_detected(self):
        sw = ConventionSwitch(s_cubic=1, s_comm="UX_U", s_linear=1.0, s_z=-1)
        assert tw_residual(0.7, -0.3, 0.9, 0.2, sw) > 1e-3

    def test_commuting_matrix_data(self, rng):
        v = np.diag(rng.normal(size=3)).astype(complex)
        p = np.diag(rng.normal(size=3)).astype(complex)
        assert tw_residual(v, p, 0.7, 0.3, CALIBRATED) < 1e-10

    def test_residual_is_pure_commutator(self, rng):
        # with the calibrated convention the residual equals
        # |2 [v,[v,p]] + 3 [p,v]| on any matrix data
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r = tw_residual(v, p, 0.6, 0.1, CALIBRATED)
        comm = v @ p - p @ v
        expect = -2 * (v @ comm - comm @ v) + 3 * (v @ p - p @ v)
        assert abs(r - np.abs(expect).max()) < 1e-10


class TestSelfSimilar:
    @given(v=finite, p=finite, z=finite, th=finite)
    def test_scalar_identity(self, v, p, z, th):
        assert ss_residual(v, p, z, th, CALIBRATED) < 1e-12 * 100

    def test_zero_data(self):
        assert ss_residual(0.0, 0.0, 0.7, 0.0, CALIBRATED) == 0

    def test_printed_convention_fails(self):
        assert ss_residual(0.7, -0.3, 0.9, 0.2, ConventionSwitch()) > 1e-3

    def test_matrix_residual_is_pure_commutator(self, rng):
        # commuting data annihilates; generic data leaves 2 [v,[v,p]]
        v = np.diag(rng.normal(size=2)).astype(complex)
        p = np.diag(rng.normal(size=2)).astype(complex)
        assert ss_residual(v, p, 0.4, 0.2, CALIBRATED) < 1e-12
        v = rng.normal(size=(2, 2))
        p = rng.normal(size=(2, 2))
        r = ss_residual(v, p, 0.4, 0.2, CALIBRATED)
        comm = v @ p - p @ v
        expect = 2 * (comm @ v - v @ comm)
        assert abs(r - np.abs(expect).max()) < 1e-10


class TestCalibration:
    def test_unique_and_documented(self):
        sw, report = calibrate()
        assert sw == CALIBRATED
        assert report["deviations_from_printed"] == ["s_linear", "s_z"]
        assert report["calibrated"]["s_linear"] == 1.0
        assert report["calibrated"]["s_z"] == -1

    def test_every_switch_observable(self):
        sens = switch_sensitivity(CALIBRATED)
        assert set(sens) == {"s_cubic", "s_comm", "s_linear", "s_z"}
        assert min(sens.values()) > 1e-3

    def test_a_nan_residual_disqualifies_a_switch(self, nan_on_call):
        # the second of the 24 samples of the winning s_cubic = -1 reads NaN
        nan_on_call(mmkdv, "tw_residual", 26)
        with pytest.raises(CplabError, match=r"calibration not unique: tw=\[\]"):
            calibrate()

    def test_a_nan_residual_is_the_sensitivity(self, nan_on_call):
        nan_on_call(mmkdv, "tw_residual", 2)
        assert math.isnan(switch_sensitivity(CALIBRATED)["s_cubic"])


class TestDeformation:
    def test_identification_matches(self, rng):
        samples = [(rng.normal(), rng.normal(), float(rng.normal()), rng.normal())
                   for _ in range(50)]
        rep = deformation_check(CALIBRATED, samples)
        assert rep["max_deviation"] < 1e-10

    def test_zero_sample(self):
        rep = deformation_check(CALIBRATED, [(0.0, 0.0, 0.7, 0.0)])
        assert rep["max_deviation"] == 0

    def test_skipping_identification_fails(self, rng):
        samples = [(1.0 + rng.normal(), 0.0, 1.0 + abs(rng.normal()), 0.3)
                   for _ in range(10)]
        rep = deformation_check(CALIBRATED, samples)
        assert rep["max_unidentified_gap"] > 1e-3

    def test_a_nan_closure_is_the_deviation(self, nan_on_call, rng):
        # the third call is the identified side of the second sample
        nan_on_call(mmkdv, "tw_closure", 3)
        samples = [(rng.normal(), rng.normal(), float(rng.normal()), rng.normal())
                   for _ in range(5)]
        assert math.isnan(deformation_check(CALIBRATED, samples)["max_deviation"])

    def test_rejects_matrices(self):
        with pytest.raises(NonScalarInput):
            deformation_check(CALIBRATED, [(np.eye(2), np.eye(2), 0.1, 0.0)])
