import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from femselect.beam_structure import measured_data
from femselect.objective import (
    SIGMA_SQ_FLOOR,
    ObjectiveValue,
    aic,
    residuals,
    sse,
)

finite_residuals = arrays(
    np.float64,
    (len(measured_data().frequencies_hz),),
    elements=st.floats(min_value=-500.0, max_value=500.0),
)


class TestResiduals:
    def test_sign_convention(self, measured):
        fem = measured.frequencies_hz + 1.0
        np.testing.assert_allclose(residuals(measured, fem), -1.0)

    def test_perfect_fit_is_zero(self, measured):
        np.testing.assert_array_equal(
            residuals(measured, measured.frequencies_hz.copy()), 0.0
        )

    def test_rejects_length_mismatch(self, measured):
        with pytest.raises(ValueError):
            residuals(measured, np.zeros(4))


class TestSse:
    def test_hand_value(self):
        out = sse(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert out.value == 27.5
        assert out.sigma_squared == 11.0
        assert out.kind == "SSE"
        assert out.n == 5

    def test_zero_residuals(self):
        out = sse(np.zeros(5))
        assert out.value == 0.0
        assert out.sigma_squared == 0.0

    @given(r=finite_residuals)
    def test_half_square_sum(self, r):
        out = sse(r)
        assert out.value == pytest.approx(0.5 * np.sum(r**2), rel=1e-15)
        assert out.value >= 0.0
        assert out.sigma_squared == pytest.approx(np.mean(r**2), rel=1e-15)

    def test_invariant_under_sign_flip(self):
        r = np.array([3.0, -1.0, 4.0, -1.0, 5.0])
        assert sse(r).value == sse(-r).value


class TestAic:
    def test_hand_value(self):
        r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = aic(r, d=2)
        assert out.kind == "AIC"
        assert out.n == 5
        assert out.sigma_squared == pytest.approx(11.0, rel=1e-15)
        assert out.value == pytest.approx(5.0 * math.log(11.0) + 4.0, rel=1e-12)

    def test_variance_floor(self):
        out = aic(np.zeros(5), d=3)
        expected = 5.0 * math.log(SIGMA_SQ_FLOOR) + 6.0
        assert out.value == pytest.approx(expected, rel=1e-12)
        assert out.value == pytest.approx(-132.15510557964273, rel=1e-12)

    def test_floor_only_engages_below_threshold(self):
        tiny = math.sqrt(SIGMA_SQ_FLOOR / 10.0)
        floored = aic(np.full(5, tiny), d=1)
        assert floored.value == aic(np.zeros(5), d=1).value
        above = math.sqrt(SIGMA_SQ_FLOOR * 10.0)
        assert aic(np.full(5, above), d=1).value > floored.value

    def test_d_validation(self):
        with pytest.raises(ValueError):
            aic(np.ones(5), d=0)
        with pytest.raises(ValueError):
            aic(np.ones(5), d=6)

    @given(r=finite_residuals, d=st.integers(1, 5))
    def test_consistency_identity(self, r, d):
        out_aic = aic(r, d)
        out_sse = sse(r)
        implied = out_aic.n * math.log(
            max(2.0 * out_sse.value / out_aic.n, SIGMA_SQ_FLOOR)
        ) + 2.0 * d
        assert abs(out_aic.value - implied) <= 1e-12 * max(1.0, abs(out_aic.value))

    @given(r=finite_residuals, d=st.integers(1, 4))
    def test_parameter_increment_is_exactly_two(self, r, d):
        assert aic(r, d + 1).value - aic(r, d).value == 2.0

    @given(r=finite_residuals, d=st.integers(1, 5))
    def test_monotone_in_residual_scale(self, r, d):
        grown = aic(2.0 * r + np.sign(r) + (r == 0.0), d)
        assert grown.value >= aic(r, d).value


class TestObjectiveValue:
    def test_frozen(self):
        out = ObjectiveValue(kind="SSE", value=1.0, sigma_squared=0.4, n=5)
        with pytest.raises(AttributeError):
            out.value = 2.0

    def test_orderable_by_value(self):
        a = sse(np.ones(5))
        b = sse(np.full(5, 2.0))
        assert a.value < b.value


def test_measured_data_objective_round_trip():
    measured = measured_data()
    fem = np.array([56.138239, 127.310193, 224.763536, 264.171059, 455.196343])
    r = residuals(measured, fem)
    out = sse(r)
    assert out.value == pytest.approx(290.1974118, rel=1e-6)
    out_aic = aic(r, d=1)
    assert out_aic.value == pytest.approx(25.7713534, rel=1e-6)
