import numpy as np
import pytest

from ates_mpc import HxParams, ParameterError, hx_outlet_temp
from ates_mpc.heat_exchanger import linearize_hx


def test_zero_ates_flow_returns_building_inlet():
    assert hx_outlet_temp(300.0, 0.0, 0.1, 293.0) == pytest.approx(293.0)


def test_cooling_example_value():
    out = hx_outlet_temp(285.0, -0.0277, 0.1, 293.0)
    assert out == pytest.approx(285.0 + (0.1 / 0.1277) * 8.0, rel=1e-12)
    assert out == pytest.approx(291.2647, abs=1e-3)


def test_equal_temperatures_fixed_point():
    for u in (0.0, 0.01, -0.0277):
        assert hx_outlet_temp(293.0, u, 0.1, 293.0) == pytest.approx(293.0)


def test_nonpositive_building_flow_rejected():
    with pytest.raises(ParameterError):
        hx_outlet_temp(285.0, 0.01, 0.0, 293.0)
    with pytest.raises(ParameterError):
        HxParams(q_b=-0.1, t_b_heating=274.0, t_b_cooling=293.0)


@pytest.mark.parametrize("args", [(np.nan, 274.0, 293.0),
                                  (0.1, np.nan, 293.0), (0.1, 274.0, np.nan)])
def test_nan_building_side_rejected(args):
    with pytest.raises(ParameterError):
        HxParams(*args)


@pytest.mark.parametrize("t_b_heating, t_b_cooling", [(300.0, 270.0),
                                                      (293.0, 293.0)])
def test_inverted_building_pair_rejected(t_b_heating, t_b_cooling):
    # The heating inlet is the cold building return, so it lies below the
    # cooling inlet.
    with pytest.raises(ParameterError, match="heating inlet must be colder"):
        HxParams(0.1, t_b_heating, t_b_cooling)


def test_convex_combination_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t_in = rng.uniform(270.0, 300.0)
        t_b = rng.uniform(270.0, 300.0)
        u = rng.uniform(-0.0277, 0.0277)
        out = hx_outlet_temp(t_in, u, 0.1, t_b)
        assert min(t_in, t_b) - 1e-12 <= out <= max(t_in, t_b) + 1e-12


def test_monotone_in_inputs_and_flow():
    base = hx_outlet_temp(285.0, -0.01, 0.1, 293.0)
    assert hx_outlet_temp(286.0, -0.01, 0.1, 293.0) > base
    assert hx_outlet_temp(285.0, -0.01, 0.1, 294.0) > base
    # |out - T_b| grows with |u|
    d1 = abs(hx_outlet_temp(285.0, -0.01, 0.1, 293.0) - 293.0)
    d2 = abs(hx_outlet_temp(285.0, -0.02, 0.1, 293.0) - 293.0)
    assert d2 > d1


def test_linearization_at_zero_flow(hx):
    lin = linearize_hx(285.0, 0.0, hx, "cooling")
    t_b = hx.t_b_cooling
    assert lin.a == pytest.approx(0.0, abs=1e-15)
    assert lin.b == pytest.approx((t_b - 285.0) / hx.q_b)
    assert lin.f == pytest.approx(t_b)
    lin_h = linearize_hx(290.0, 0.0, hx, "heating")
    assert lin_h.b == pytest.approx(-(hx.t_b_heating - 290.0) / hx.q_b)


def test_linearization_exact_at_expansion_point(hx):
    for mode, u_ref, t_ref in (("heating", 0.02, 290.0), ("cooling", -0.015, 280.0)):
        lin = linearize_hx(t_ref, u_ref, hx, mode)
        exact = hx_outlet_temp(t_ref, u_ref, hx.q_b, hx.t_b(mode))
        value = lin.a * t_ref + lin.b * u_ref + lin.f
        assert value == pytest.approx(exact, abs=1e-12)


def test_flow_derivative_finite_difference():
    hx = HxParams(q_b=0.1, t_b_heating=274.0, t_b_cooling=293.0)
    lin = linearize_hx(285.0, -0.01, hx, "cooling")
    eps = 1e-6
    num = (hx_outlet_temp(285.0, -0.01 + eps, 0.1, 293.0)
           - hx_outlet_temp(285.0, -0.01 - eps, 0.1, 293.0)) / (2.0 * eps)
    assert abs(num - lin.b) <= 1e-6 * abs(lin.b)


def test_mode_sign_mismatch_rejected(hx):
    with pytest.raises(ParameterError):
        linearize_hx(285.0, -0.01, hx, "heating")
    with pytest.raises(ParameterError):
        linearize_hx(285.0, 0.01, hx, "cooling")


def test_linearization_error_quadratic_in_flow(hx):
    lin = linearize_hx(285.0, -0.01, hx, "cooling")

    def err(du):
        exact = hx_outlet_temp(285.0, -0.01 + du, hx.q_b, hx.t_b_cooling)
        return abs(lin.a * 285.0 + lin.b * (-0.01 + du) + lin.f - exact)

    ratio = err(-0.008) / err(-0.004)
    assert 3.5 <= ratio <= 4.5

