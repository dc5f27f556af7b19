import datetime

import numpy as np
import pytest

from ates_mpc import controller
from ates_mpc.cli import main
from ates_mpc.qp import QpResult
from ates_mpc.scenario import (_DEFAULTS, _parse_config_text, load_demand_csv,
                               read_results, scenario_from_values)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_scenario_file_is_usage_error(capsys):
    assert main(["run", "--scenario", "/nonexistent/path.cfg", "--steps", "1"]) == 1
    assert "error:" in capsys.readouterr().err


# Each value is rejected when the scenario is built: the radial grid, the
# move blocking, the heat exchanger, the aquifer's constituents, the model's
# explicit step and the seed.  A key set twice and a key the config table
# lacks are rejected where the config is read: the hourly step and the
# balance window are units, so ``dt_s`` and ``balance_window_h`` are not keys.
@pytest.mark.parametrize("line, message", [
    ("nu = 0", "cell count must be >= 1"),
    ("block_1_steps = 0", "at least one step"),
    ("q_b_m3_per_s = -1", "building-side flow must be positive"),
    ("t_building_heating_k = 300\nt_building_cooling_k = 270",
     "heating inlet must be colder than the cooling inlet"),
    ("c_r_j_per_m3_k = -1", "heat capacities must be positive"),
    ("porosity = 1.5", "porosity must lie in [0, 1], got 1.5"),
    ("lambda_w_per_m_k = 1e5", "diffusion number"),
    ("seed = -1", "seed must be nonnegative, got -1"),
    ("seed = 1\nseed = 2", "line 2: config key 'seed' repeats line 1"),
    ("ukf_kappa = 5", "unknown config key 'ukf_kappa'"),
    ("dt_s = 3600", "unknown config key 'dt_s'"),
    ("balance_window_h = 80", "unknown config key 'balance_window_h'"),
])
def test_bad_scenario_value_is_config_error(tmp_path, capsys, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert main(["run", "--scenario", str(config), "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# Every float key rejects a non-finite value where the config is read.
FLOAT_KEYS = [key for key, value in _DEFAULTS.items() if type(value) is not int]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, key):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = nan\n")
    assert main(["run", "--scenario", str(config), "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert f"'{key}' must be finite" in err


# The noise values' domains, checked by ``UkfConfig`` and ``TruthConfig``:
# process variance nonnegative, measurement variance positive, ambient noise
# amplitude and sensor sigma nonnegative.
@pytest.mark.parametrize("key, value, message", [
    ("process_noise_var_k2", "-1", "need process variance >= 0"),
    ("measurement_noise_var_k2", "0", "measurement variance > 0"),
    ("t_amb_noise_amp_k", "-0.1", "must be nonnegative, got -0.1"),
    ("sensor_sigma_k", "-0.01", "must be nonnegative, got 0.1 and -0.01"),
])
def test_noise_value_outside_its_domain_is_config_error(tmp_path, capsys, key,
                                                        value, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main(["run", "--scenario", str(config), "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# The far field is drawn from t_amb +- amp, so an amplitude at or above the
# ambient temperature could draw one at or below 0 K; ``init_truth`` rejects
# it for every command that builds the plant.
@pytest.mark.parametrize("command", ["run", "sim"])
def test_noise_amplitude_at_ambient_is_config_error(tmp_path, capsys, command):
    t_amb = _DEFAULTS["t_amb_k"]
    config = tmp_path / "amp.cfg"
    config.write_text(f"t_amb_noise_amp_k = {t_amb!r}\n")
    assert main([command, "--scenario", str(config), "--steps", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ambient noise amplitude" in err
    config.write_text(f"t_amb_noise_amp_k = {float(np.nextafter(t_amb, 0.0))!r}\n")
    assert main([command, "--scenario", str(config), "--steps", "2"]) == 0


# An empty or NaN demand value is interpolated; these are errors.
@pytest.mark.parametrize("value, message", [("inf", "is not finite"),
                                            ("-inf", "is not finite"),
                                            ("abc", "is not a number")])
def test_bad_demand_csv_value_is_config_error(tmp_path, capsys, value,
                                              message):
    demand = tmp_path / "d.csv"
    demand.write_text("timestamp,demand_w\n"
                      + "".join(f"2004-10-01T{h:02d}:00:00+00:00,"
                                + (value if h == 2 else "1e5") + "\n"
                                for h in range(20)))
    config = tmp_path / "d.cfg"
    config.write_text(f"demand_csv = {demand}\nduration_steps = 20\n")
    assert main(["run", "--scenario", str(config), "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: demand CSV value '{value}'")
    assert message in err


# The model steps hourly, so a demand CSV's rows must be exactly one hour
# apart: a gap, a repeated stamp or a half-hourly series is a config error
# that names both stamps.
@pytest.mark.parametrize("hours, first", [
    ([0, 1, 3, 4], 1), ([0, 1, 1, 2], 1), ([0, 0.5, 1, 1.5], 0),
], ids=["gap_2h", "repeat", "half_hourly"])
def test_demand_csv_off_the_hour_is_config_error(tmp_path, capsys, hours,
                                                 first):
    start = datetime.datetime(2004, 10, 1, tzinfo=datetime.timezone.utc)
    stamps = [(start + datetime.timedelta(hours=h)).isoformat() for h in hours]
    demand = tmp_path / "d.csv"
    demand.write_text("timestamp,demand_w\n"
                      + "".join(f"{stamp},1e5\n" for stamp in stamps))
    config = tmp_path / "d.cfg"
    config.write_text(f"demand_csv = {demand}\nduration_steps = 2\n")
    assert main(["run", "--scenario", str(config), "--steps", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: demand timestamps must be one hour apart "
        f"({stamps[first]} then {stamps[first + 1]})\n")


def test_gen_demand_writes_csv(tmp_path, capsys):
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", "--out", str(out), "--steps", "72",
                 "--seed", "9"]) == 0
    series = load_demand_csv(str(out))
    assert series.size == 72
    # The seeded scenario's own demand, every value read back exactly.
    demand = scenario_from_values(_parse_config_text("seed = 9")).demand
    assert np.array_equal(series, demand[:72])
    # Its rows are one model step apart, so a scenario runs on it.
    config = tmp_path / "d.cfg"
    config.write_text(f"demand_csv = {out}\nduration_steps = 72\n")
    assert main(["run", "--scenario", str(config), "--steps", "2"]) == 0


# The ``run`` sidecar's keys, in the order it writes them.
SUMMARY_KEYS = [
    "steps", "final_balance_mwh", "delivered_gross_mwh", "demanded_gross_mwh",
    "coverage_fraction", "ukf_mean_abs_error_max_k", "ukf_max_abs_error_k",
    "power_error_mean_w", "power_error_std_w", "solve_ms_median",
    "solve_ms_max", "est_bound_violation_k", "u_abs_max", "controller_faults",
    "qps_solved", "stalled_candidates", "snapped_flows", "soft_rows_added",
    "sensor_faults",
]


def read_summary(path) -> dict[str, str]:
    return dict(line.split(": ") for line in path.read_text().splitlines())


def test_run_small_writes_results_and_summary(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "3", "--out", str(out)]) == 0
    records = read_results(str(out))
    assert len(records) == 3
    summary = read_summary(tmp_path / "results.csv.summary.txt")
    assert list(summary) == SUMMARY_KEYS
    assert int(summary["qps_solved"]) >= 3
    for key in ("controller_faults", "stalled_candidates", "soft_rows_added",
                "sensor_faults"):
        assert summary[key] == "0"
    text = capsys.readouterr().out
    assert "final balance" in text


def test_sim_with_schedule(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    schedule = ",".join(["0.01"] * 2 + ["-0.01"] * 2)
    assert main(["sim", "--steps", "4", "--schedule", schedule,
                 "--out", str(out), "--audit"]) == 0
    records = read_results(str(out))
    assert len(records) == 4
    assert records[0]["mode"] == "heating"
    assert records[3]["mode"] == "cooling"


def test_solve_once_prints_sorted_candidates(capsys):
    assert main(["solve-once"]) == 0
    out = capsys.readouterr().out
    assert "mode sequence:" in out
    assert "candidates (sorted by cost):" in out
    statuses = ("optimal", "infeasible", "stalled", "pruned")
    lines = [line.split() for line in out.splitlines()
             if any(status in line for status in statuses)]
    costs = [float(fields[-1]) for fields in lines]
    assert len(costs) == 27
    # Pruned candidates show their lower bound.
    assert all(fields[-2] == ("bound" if "pruned" in fields else "cost")
               for fields in lines)
    assert any("pruned" in fields for fields in lines)
    assert costs == sorted(costs)


def test_solve_once_rejects_out_flag(tmp_path, capsys):
    # solve-once writes no file, so --out (and --steps) are usage errors.
    assert main(["solve-once", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["solve-once", "--steps", "3"]) == 1
    assert not (tmp_path / "x.csv").exists()


def test_observe_replays_run(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["observe", str(out)]) == 0
    text = capsys.readouterr().out
    assert "replayed 3 steps" in text
    deviation = float(text.rsplit(":", 1)[1].replace("K", "").strip())
    assert deviation < 1e-9  # bit-for-bit up to CSV float round trip


def test_observe_seed_is_usage_error(tmp_path, capsys):
    # A seed draws only the demand and the truth plant, and a replay reads
    # neither, so observe does not take one.
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["observe", "--seed", "7", str(out)]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_observe_replays_sim_readings(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "3", "--audit", "--out", str(out)]) == 0
    records = read_results(str(out))
    for rec in records:
        # The readings are the truth plus sensor noise.
        assert abs(rec["y_warm_r0"] - rec["warm_borehole_truth"]) < 1.0
        assert abs(rec["y_cold_r0"] - rec["cold_borehole_truth"]) < 1.0
    capsys.readouterr()
    assert main(["observe", str(out)]) == 0
    assert "replayed 3 steps" in capsys.readouterr().out


def test_observe_reports_only_the_estimates_it_compared(tmp_path, capsys):
    # A sim output logs no estimates: nothing is compared, and no deviation
    # is reported.
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "3", "--audit", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["observe", str(out)]) == 0
    text = capsys.readouterr().out
    assert "no logged estimates to compare" in text
    assert "deviation" not in text
    # In a run output, an hour with a blank estimate is left out.
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    column = lines[0].split(",").index("cold_borehole_est")
    cells = lines[2].split(",")
    cells[column] = ""
    lines[2] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["observe", str(out)]) == 0
    text = capsys.readouterr().out
    assert "over 2 records:" in text
    assert float(text.rsplit(":", 1)[1].replace("K", "").strip()) < 1e-9


def test_observe_without_sensor_readings_is_error(tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    bare.write_text("t,u_applied\n0.0,0.0\n")
    assert main(["observe", str(bare)]) == 1
    assert "error: results record 0 has no 'y_warm_r0' value" in \
        capsys.readouterr().err
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ","   # blank y_cold_far
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["observe", str(out)]) == 1
    assert "error: results record 1 has no 'y_cold_far' value" in \
        capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_observe_non_finite_flow_is_error(tmp_path, capsys, value):
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "4", "--audit", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")

    def replay_with(column):
        cells = lines[2].split(",")
        cells[header.index(column)] = value
        out.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        capsys.readouterr()
        return main(["observe", str(out)])

    assert replay_with("u_applied") == 1
    assert capsys.readouterr().err == \
        f"error: results record 1 has a non-finite 'u_applied' value: {float(value)!r}\n"
    # A non-finite sensor reading makes its hour predict-only.
    assert replay_with("y_warm_r0") == 0
    assert "replayed 4 steps" in capsys.readouterr().out


def test_validate_power(capsys):
    assert main(["validate-power", "--steps", "200"]) == 0
    assert "mean |linear - bilinear|" in capsys.readouterr().out


def test_seed_flag_reseeds_demand(tmp_path, capsys):
    flag = tmp_path / "flag.csv"
    assert main(["run", "--steps", "3", "--seed", "7", "--out", str(flag)]) == 0
    config = tmp_path / "seed7.cfg"
    config.write_text("seed = 7\n")
    cfg = tmp_path / "cfg.csv"
    assert main(["run", "--steps", "3", "--scenario", str(config),
                 "--out", str(cfg)]) == 0
    assert [r["D"] for r in read_results(str(flag))] == \
        [r["D"] for r in read_results(str(cfg))]


def test_gen_demand_defaults_match_scenario(tmp_path, capsys):
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", "--out", str(out)]) == 0
    series = load_demand_csv(str(out))
    heat_mwh = series.clip(0.0, None).sum() * 3600.0 / 3.6e9
    cold_mwh = -series.clip(None, 0.0).sum() * 3600.0 / 3.6e9
    assert heat_mwh == pytest.approx(3800.0)
    assert cold_mwh == pytest.approx(2200.0)


def test_unwritable_summary_is_error(tmp_path, capsys):
    out = tmp_path / "results.csv"
    (tmp_path / "results.csv.summary.txt").mkdir()
    assert main(["run", "--steps", "1", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_observe_missing_results_is_error(tmp_path, capsys):
    assert main(["observe", str(tmp_path / "missing.csv")]) == 1
    assert "error: cannot read results" in capsys.readouterr().err


def test_observe_malformed_results_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u_applied\n0.0,not-a-number\n")
    assert main(["observe", str(bad)]) == 1
    assert "error: cannot read results" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["sim"], ["validate-power"],
                                     ["observe", "results.csv"]])
def test_negative_steps_is_usage_error(tmp_path, capsys, command):
    assert main(command + ["--steps", "-1"]) == 1
    assert "--steps: must be nonnegative" in capsys.readouterr().err


def short_demand_config(tmp_path, hours=6):
    """A scenario config whose demand CSV holds ``hours`` hourly rows."""
    demand = tmp_path / "d.csv"
    demand.write_text("timestamp,demand_w\n"
                      + "".join(f"2004-10-01T{h:02d}:00:00+00:00,1e5\n"
                                for h in range(hours)))
    config = tmp_path / "d.cfg"
    config.write_text(f"demand_csv = {demand}\nduration_steps = {hours}\n")
    return str(config)


# More steps than the demand series holds is a config error, raised before
# any step runs; validate-power's default is 720 steps.  As many steps as
# it holds run.
@pytest.mark.parametrize("command, steps", [("run", 8), ("sim", 8),
                                            ("validate-power", None)])
def test_steps_past_the_demand_series_is_error(tmp_path, capsys, command,
                                               steps):
    config = short_demand_config(tmp_path)
    flags = [] if steps is None else ["--steps", str(steps)]
    assert main([command, "--scenario", config, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: demand series (6 h) shorter than a run "
                            f"of {steps or 720} steps\n")
    assert captured.out == ""
    assert main([command, "--scenario", config, "--steps", "6"]) == 0


# A negative index is a usage error, one at or past the end of the 8760 h
# default series a config error.
@pytest.mark.parametrize("at", ["-1", "-5", "8760", "99999"])
def test_solve_once_at_outside_the_demand_series_is_error(capsys, at):
    assert main(["solve-once", "--at", at]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"--at: must be nonnegative, got {at}\n" if at.startswith("-") else
        f"error: --at {at} is past the end of the demand series (8760 h)\n")
    assert captured.out == ""


def test_solve_once_at_the_last_demand_hour(capsys):
    assert main(["solve-once", "--at", "8759"]) == 0
    assert "mode sequence:" in capsys.readouterr().out


def test_non_finite_schedule_is_rejected_before_stepping(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    for schedule in ("0,nan,0", "0,0,inf"):
        assert main(["sim", "--steps", "3", "--schedule", schedule,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: schedule entry" in captured.err
        assert "not finite" in captured.err
        assert "simulated" not in captured.out
        assert not out.exists()


def test_gen_demand_unwritable_out_is_error(tmp_path, capsys):
    out = tmp_path / "missing" / "d.csv"
    assert main(["gen-demand", "--steps", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write demand to {str(out)!r}: ")
    assert len(err.splitlines()) == 1


def test_gen_demand_steps_bounds(tmp_path, capsys):
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", "--steps", "-3", "--out", str(out)]) == 1
    assert "--steps: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    assert main(["gen-demand", "--steps", "0", "--out", str(out)]) == 0
    assert "wrote 0 hourly samples" in capsys.readouterr().out
    config = short_demand_config(tmp_path)
    assert main(["gen-demand", "--scenario", config, "--steps", "7",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: demand series (6 h) shorter than a run of 7 steps\n"
    assert main(["gen-demand", "--scenario", config, "--out", str(out)]) == 0
    assert "wrote 6 hourly samples" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["demand_heat_total_mwh = nan",
                                  "demand_cold_total_mwh = inf",
                                  "demand_heat_total_mwh = -inf"],
                         ids=["heat-nan", "cold-inf", "heat-minus-inf"])
def test_non_finite_demand_total_is_error(tmp_path, capsys, line):
    config = tmp_path / "totals.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "demand.csv"
    assert main(["gen-demand", "--scenario", str(config),
                 "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_zero_steps_is_valid(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["run", "--steps", "0", "--out", str(out)]) == 0
    assert read_results(str(out)) == []
    # A run with no plan still writes every key, the counts at zero.
    summary = read_summary(tmp_path / "results.csv.summary.txt")
    assert list(summary) == SUMMARY_KEYS
    counts = SUMMARY_KEYS[SUMMARY_KEYS.index("controller_faults"):]
    assert all(summary[key] == "0" for key in counts)
    assert main(["sim", "--steps", "0"]) == 0
    assert main(["validate-power", "--steps", "0"]) == 0
    assert main(["observe", "--steps", "0", str(out)]) == 0
    assert "replayed 0 steps" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "sim"])
def test_negative_duration_is_config_error(tmp_path, capsys, command):
    config = tmp_path / "neg.cfg"
    config.write_text("duration_steps = -5\n")
    assert main([command, "--scenario", str(config)]) == 1
    assert capsys.readouterr().err == \
        "error: step count must be nonnegative, got -5\n"


@pytest.mark.parametrize("argv", [["run", "--steps", "1", "--seed", "-1"],
                                  ["gen-demand", "--steps", "5", "--seed", "-2"]])
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    assert "--seed: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_sim_schedule_starting_with_cooling(tmp_path, capsys):
    """A schedule that starts with a negative flow is passed with ``=``, as
    the option's help says; a separate argument would read as an option."""
    assert main(["sim", "--help"]) == 0
    assert "--schedule=-0.0277,0" in capsys.readouterr().out
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "3", "--schedule=-0.0277,0,0.0277",
                 "--out", str(out)]) == 0
    records = read_results(str(out))
    assert [r["u_applied"] for r in records] == [-0.0277, 0.0, 0.0277]
    assert [r["mode"] for r in records] == ["cooling", "storing", "heating"]


def test_sim_one_flow_schedule(tmp_path, capsys):
    """A single flow is an inline schedule, not a file name."""
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "1", "--schedule=-0.0277",
                 "--out", str(out)]) == 0
    assert [r["u_applied"] for r in read_results(str(out))] == [-0.0277]


def test_sim_schedule_from_existing_file(tmp_path, capsys):
    """An existing file is read as a CSV whatever its suffix."""
    flows = tmp_path / "flows.txt"
    flows.write_text("t,u\n0,0.01\n3600,-0.01\n")
    out = tmp_path / "sim.csv"
    assert main(["sim", "--steps", "2", "--schedule", str(flows),
                 "--out", str(out)]) == 0
    assert [r["u_applied"] for r in read_results(str(out))] == [0.01, -0.01]


def test_solve_once_with_every_candidate_failing(capsys, monkeypatch):
    """A controller fault ends solve-once with one error line and exit 2."""
    def stall(qp):
        return QpResult(np.full(qp.m, np.nan), np.inf, "stalled", np.inf, ())

    monkeypatch.setattr(controller, "solve_qp", stall)
    assert main(["solve-once"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: all 27 candidate mode sequences failed: "
                   "0 infeasible, 27 stalled\n")
