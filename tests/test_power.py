import numpy as np
import pytest
from hypothesis import given, strategies as st

from ates_mpc import (EnergyLedger, ParameterError, build_pwa, power_bilinear,
                      power_linear, pwa_step, update_balance)
from ates_mpc.power import storage_weights

DT = 3600.0


def make_state(warm0=290.0, cold0=283.0, nu=20):
    x = np.full(2 * (nu + 1), 284.85)
    x[0] = warm0
    x[nu + 1] = cold0
    return x


def test_bilinear_example():
    x = make_state(290.0, 283.0)
    assert power_bilinear(x, 0.0277, 4.2e6) == pytest.approx(814_380.0)


def test_bilinear_zero_flow_and_zero_lift():
    assert power_bilinear(make_state(), 0.0, 4.2e6) == 0.0
    x = make_state(287.0, 287.0)
    assert power_bilinear(x, 0.02, 4.2e6) == 0.0


def test_bilinear_heating_sign():
    assert power_bilinear(make_state(290.0, 283.0), 0.01, 4.2e6) > 0.0
    assert power_bilinear(make_state(290.0, 283.0), -0.01, 4.2e6) < 0.0


def test_storage_weights(grid):
    w = storage_weights(grid)
    assert w.shape == (21,)
    assert w[0] == pytest.approx(np.pi * 0.4**2 * 38.0)
    assert np.allclose(w[1:], grid.volumes)


def test_linear_power_ambient_zero(grid, params, ambient_state):
    assert power_linear(ambient_state, ambient_state, grid, params, DT) == 0.0


def test_linear_power_superposition(grid, params):
    rng = np.random.default_rng(11)
    xa1, xa2 = (284.85 + rng.standard_normal(42) for _ in range(2))
    xb1, xb2 = (284.85 + rng.standard_normal(42) for _ in range(2))
    a, b = 0.25, 0.75
    lhs = power_linear(a * xa1 + b * xa2, a * xb1 + b * xb2, grid, params, DT)
    rhs = a * power_linear(xa1, xb1, grid, params, DT) \
        + b * power_linear(xa2, xb2, grid, params, DT)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


def test_storing_step_gap_is_conduction_loss(grid, params, hx):
    """With u = 0 the bilinear power is zero while the linear form reports the
    relaxation loss; the gap is documented, not asserted to vanish."""
    radii = np.concatenate([[grid.r0], grid.midpoints])
    warm = params.t_amb + 4.0 * np.exp(-(radii - grid.r0) / 10.0)
    x = np.concatenate([warm, np.full(21, params.t_amb)])
    model = build_pwa(grid, params, hx, DT, x, 0.0)
    x_next = pwa_step(model, x, 0.0)
    p_lin = power_linear(x, x_next, grid, params, DT)
    assert power_bilinear(x, 0.0, params.c_w) == 0.0
    assert np.isfinite(p_lin)
    assert abs(p_lin) < 50e3  # pure relaxation, far below delivery scale


def test_update_balance_accumulates():
    ledger = EnergyLedger(dt=DT)
    update_balance(ledger, 1e6, DT)
    assert ledger.b_past == pytest.approx(3.6e9)
    update_balance(ledger, -1e6, 2 * DT)
    assert ledger.b_past == pytest.approx(0.0, abs=1e-6)


def test_update_balance_time_regression():
    ledger = EnergyLedger(dt=DT)
    update_balance(ledger, 1e5, DT)
    with pytest.raises(ParameterError):
        update_balance(ledger, 1e5, DT)


def test_ledger_consistency_invariant():
    rng = np.random.default_rng(13)
    ledger = EnergyLedger(dt=DT)
    powers = rng.uniform(-1e6, 1e6, 50)
    for k, p in enumerate(powers):
        update_balance(ledger, p, (k + 1) * DT)
    assert ledger.b_past == pytest.approx(DT * powers.sum(), rel=1e-9)
    assert ledger.t_last == 50 * DT


@given(st.lists(st.tuples(st.floats(-1e7, 1e7), st.floats(1.0, 1e4)),
                min_size=1, max_size=50),
       st.floats(0.0, 1e4))
def test_property_ledger_orders_time_and_sums_power(steps, back):
    ledger = EnergyLedger(dt=DT)
    t = expected = 0.0
    for p, gap in steps:
        t += gap
        update_balance(ledger, p, t)
        expected += p * DT
        assert ledger.t_last == t
    assert ledger.b_past == expected
    # A time that does not advance is rejected and books nothing.
    with pytest.raises(ParameterError):
        update_balance(ledger, 1e6, t - back)
    assert ledger.b_past == expected
    assert ledger.t_last == t
