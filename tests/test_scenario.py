import numpy as np
import pytest

from ates_mpc import (ScenarioError, gen_synthetic_demand, load_scenario,
                      read_results, write_demand_csv, write_results)
from ates_mpc.scenario import (_DEFAULTS, _parse_config_text,
                               load_demand_csv, scenario_from_values)

J_PER_MWH = 3.6e9


def test_empty_config_gives_standard_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    sc = load_scenario(str(path))
    assert sc.grid.nu == 20
    assert sc.grid.r0 == 0.4
    assert sc.grid.r_inf == 60.0
    assert sc.params.t_amb == 284.85
    assert sc.params.lam == 3.5
    assert sc.params.c_a == pytest.approx(4.4625e6)
    assert sc.ocp.horizon == 12
    assert sc.ocp.dt == 3600.0
    assert sc.ocp.u_max == 0.0277
    assert sc.ocp.u_min == -0.0277
    assert sc.ocp.q_u == 1.0
    assert sc.ocp.q_d == pytest.approx(1994.4e-6)
    assert sc.ocp.q_e == 0.001
    assert sc.ocp.warm_bounds == (284.85, 293.15)
    assert sc.ocp.cold_bounds == (273.15, 284.85)
    assert sc.ocp.blocks == (1, 4, 7)
    assert sc.ocp.slack_weight == 1e6
    assert sc.ocp.balance_hours == 80.0
    assert sc.ukf.process_var == 0.05**2
    assert sc.ukf.measurement_var == 0.01**2
    assert sc.truth.nu_fine == 200
    assert sc.truth.lambda_bounds == (3.0, 5.0)
    assert sc.truth.t_amb_noise_amp == 0.1
    assert sc.truth.sensor_sigma == 0.01
    assert sc.truth.seed == 0
    assert sc.duration == 8760


def scenario_fingerprint(sc):
    """The configs' reprs and the demand's bytes of a scenario."""
    configs = (sc.grid, sc.params, sc.hx, sc.ocp, sc.ukf, sc.truth, sc.duration)
    return repr(configs), sc.demand.tobytes()


# ``_DEFAULTS`` is the one table of reference values, so a key that is parsed
# but never read would go unnoticed: a nearby admissible value of each key
# must change the scenario built from it.
@pytest.mark.parametrize("key", list(_DEFAULTS))
def test_every_config_key_reaches_the_scenario(reference, key):
    values = _parse_config_text("")
    default = values[key]
    values[key] = default + 1 if type(default) is int else default * 0.99
    assert (scenario_fingerprint(scenario_from_values(values))
            != scenario_fingerprint(reference))


def test_none_path_equals_empty_config(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# just a comment\n")
    a = load_scenario(None)
    b = load_scenario(str(path))
    assert np.array_equal(a.demand, b.demand)
    assert (a.grid.r0, a.grid.r_inf, a.grid.nu, a.grid.l) == \
        (b.grid.r0, b.grid.r_inf, b.grid.nu, b.grid.l)


def test_unknown_key_named_in_error():
    with pytest.raises(ScenarioError, match="bogus_key"):
        _parse_config_text("bogus_key = 3")


def test_bad_value_rejected():
    with pytest.raises(ScenarioError, match="nu"):
        _parse_config_text("nu = twenty")


def test_duration_longer_than_demand_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("2004-10-01T00:00:00+00:00,1.0\n"
                    "2004-10-01T01:00:00+00:00,2.0\n")
    values = _parse_config_text(f"demand_csv = {path}\nduration_steps = 10")
    with pytest.raises(ScenarioError):
        scenario_from_values(values)


def test_overrides_apply():
    values = _parse_config_text("nu = 10\nq_e = 0\nseed = 5")
    sc = scenario_from_values(values)
    assert sc.grid.nu == 10
    assert sc.ocp.q_e == 0.0
    assert sc.truth.seed == 5


def test_demand_csv_interpolates_gaps(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("timestamp,demand_w\n"
                    "2004-10-01T00:00:00+00:00,100.0\n"
                    "2004-10-01T01:00:00+00:00,\n"
                    "2004-10-01T02:00:00+00:00,300.0\n"
                    "2004-10-01T03:00:00+00:00,nan\n"
                    "2004-10-01T04:00:00+00:00,500.0\n")
    series = load_demand_csv(str(path))
    assert series.tolist() == [100.0, 200.0, 300.0, 400.0, 500.0]


def test_demand_csv_nonmonotone_rejected(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("2004-10-01T02:00:00+00:00,1.0\n"
                    "2004-10-01T01:00:00+00:00,2.0\n")
    with pytest.raises(ScenarioError):
        load_demand_csv(str(path))


def test_demand_csv_empty_rejected(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("timestamp,demand_w\n")
    with pytest.raises(ScenarioError):
        load_demand_csv(str(path))


def test_demand_round_trip(tmp_path):
    demand = gen_synthetic_demand(3, 100, 3800.0 * J_PER_MWH,
                                  2200.0 * J_PER_MWH)
    path = tmp_path / "demand.csv"
    write_demand_csv(str(path), demand)
    back = load_demand_csv(str(path))
    assert np.array_equal(back, demand)


def test_synthetic_demand_totals():
    heat = 3416.67 * J_PER_MWH
    cold = 2722.22 * J_PER_MWH
    d = gen_synthetic_demand(0, 8760, heat, cold)
    pos = d.clip(0.0, None).sum() * 3600.0
    neg = -d.clip(None, 0.0).sum() * 3600.0
    assert pos == pytest.approx(heat, rel=1e-9)
    assert neg == pytest.approx(cold, rel=1e-9)


@pytest.mark.parametrize("heat, cold", [(np.nan, 1.0), (1.0, np.inf),
                                        (-np.inf, 1.0), (1.0, -1.0)])
def test_synthetic_demand_rejects_bad_totals(heat, cold):
    with pytest.raises(ScenarioError, match="finite and nonnegative"):
        gen_synthetic_demand(0, 24, heat, cold)


def test_synthetic_demand_balanced_case():
    d = gen_synthetic_demand(0, 8760, 1000.0 * J_PER_MWH, 1000.0 * J_PER_MWH)
    assert abs(d.sum() * 3600.0) <= 0.001 * 1000.0 * J_PER_MWH


def test_synthetic_demand_deterministic_and_seasonal():
    heat, cold = 3800.0 * J_PER_MWH, 2200.0 * J_PER_MWH
    a = gen_synthetic_demand(4, 8760, heat, cold)
    b = gen_synthetic_demand(4, 8760, heat, cold)
    assert np.array_equal(a, b)
    # Heating season (winter, around hour 2560) vs cooling season (summer).
    assert a[2000:3000].mean() > 0.0
    assert a[6000:7000].mean() < 0.0
    # Each season keeps its sign between the switchovers.
    assert np.all(a[1000:4000] > 0.0)
    assert np.all(a[5200:8400] < 0.0)


def test_results_round_trip(tmp_path):
    records = [
        {"t": 0.0, "u_applied": 0.01, "mode": "heating", "P_bilinear": 1.5e5,
         "P_linear": 1.6e5, "D": 2e5, "B_past": 5.4e8,
         "warm_borehole_truth": 290.1, "warm_borehole_est": 290.05,
         "cold_borehole_truth": 283.2, "cold_borehole_est": 283.25,
         "slack": 0.0, "ocp_cost": 0.123, "solve_ms": 31.2,
         "y_warm_r0": 290.11, "y_warm_far": 284.9, "y_cold_r0": 283.19,
         "y_cold_far": 284.8},
    ]
    path = tmp_path / "out.csv"
    write_results(str(path), records, summary={"steps": 1})
    back = read_results(str(path))
    assert len(back) == 1
    for key, value in records[0].items():
        assert back[0][key] == value
    assert (tmp_path / "out.csv.summary.txt").read_text().startswith("steps: 1")


def test_results_zero_length_run(tmp_path):
    path = tmp_path / "empty.csv"
    write_results(str(path), [])
    text = path.read_text().strip().splitlines()
    assert len(text) == 1  # header only
    assert read_results(str(path)) == []


def test_horizon_is_the_blocks_total():
    values = _parse_config_text("block_1_steps = 2\n")
    assert scenario_from_values(values).ocp.horizon == 13
    with pytest.raises(ScenarioError, match="horizon_steps"):
        _parse_config_text("horizon_steps = 12\n")
