"""Scenario configuration, demand series handling and results persistence.

Config files are flat UTF-8 ``key = value`` text, each key set at most
once, with units spelled out in the key names.  ``_DEFAULTS`` is the one
table of the reference parameterization: every key falls back to it, so an
empty file is a valid scenario, and no config dataclass carries a default of
its own.  The hourly step and the balance window are units, constants of
``OcpConfig``, not keys.  Demand series are two-column CSV (ISO-8601 UTC
timestamp one hour after the row before, power in W, positive = heat demand).
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import OcpConfig
from .errors import ParameterError, ScenarioError
from .grid import AquiferParams, RadialGrid, build_grid
from .heat_exchanger import HxParams
from .observer import UkfConfig
from .plant import TruthConfig
from .power import J_PER_MWH
from .pwa import build_extraction_system

HOURS_PER_YEAR = 8760
_STEP = _dt.timedelta(seconds=OcpConfig.dt)
# Hour 0 of a synthetic demand series: the start of October.
_DEMAND_START = _dt.datetime(2004, 10, 1, tzinfo=_dt.timezone.utc)


@dataclass(frozen=True)
class Scenario:
    grid: RadialGrid
    params: AquiferParams
    hx: HxParams
    ocp: OcpConfig
    ukf: UkfConfig
    truth: TruthConfig
    demand: np.ndarray = field(repr=False)          # W, hourly
    duration: int

    def __post_init__(self):
        self.check_steps(self.duration)

    def check_steps(self, steps: int | None) -> int:
        """``steps``, or the duration for ``None``; raises ``ScenarioError``
        unless the demand covers that many hours, at least 0."""
        if steps is None:
            steps = self.duration
        if steps < 0:
            raise ScenarioError(f"step count must be nonnegative, got {steps}")
        if steps > self.demand.size:
            raise ScenarioError(
                f"demand series ({self.demand.size} h) shorter than a run of "
                f"{steps} steps")
        return steps


_DEFAULTS: dict[str, float | int] = {
    "r0_m": 0.4,
    "r_inf_m": 60.0,
    "nu": 20,
    "filter_length_m": 38.0,
    "porosity": 0.3,
    "c_w_j_per_m3_k": 4.2e6,
    "c_r_j_per_m3_k": 4.575e6,
    "lambda_w_per_m_k": 3.5,
    "t_amb_k": 284.85,
    "q_b_m3_per_s": 0.1,
    "t_building_heating_k": 274.0,
    "t_building_cooling_k": 293.0,
    "u_max_m3_per_s": 0.0277,
    "block_1_steps": 1,
    "block_2_steps": 4,
    "block_3_steps": 7,
    "warm_min_k": 284.85,
    "warm_max_k": 293.15,
    "cold_min_k": 273.15,
    "cold_max_k": 284.85,
    "q_u": 1.0,
    "q_d": 1994.4e-6,
    "q_e": 0.001,
    "slack_weight_per_k2": 1e6,
    "process_noise_var_k2": 0.05**2,
    "measurement_noise_var_k2": 0.01**2,
    "nu_fine": 200,
    "lambda_min_w_per_m_k": 3.0,
    "lambda_max_w_per_m_k": 5.0,
    "t_amb_noise_amp_k": 0.1,
    "sensor_sigma_k": 0.01,
    "seed": 0,
    "duration_steps": HOURS_PER_YEAR,
    "demand_heat_total_mwh": 3800.0,
    "demand_cold_total_mwh": 2200.0,
}
_STRING_KEYS = {"demand_csv"}


def _parse_config_text(text: str) -> dict:
    values: dict[str, object] = dict(_DEFAULTS)
    values["demand_csv"] = None
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise ScenarioError(f"line {lineno}: config key {key!r} repeats "
                                f"line {first_line[key]}")
        first_line[key] = lineno
        if key in _STRING_KEYS:
            values[key] = val
            continue
        if key not in _DEFAULTS:
            raise ScenarioError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = (int(val) if type(_DEFAULTS[key]) is int
                           else float(val))
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        if not math.isfinite(values[key]):
            raise ScenarioError(f"line {lineno}: {key!r} must be finite, got {val!r}")
    return values


def scenario_from_values(values: dict) -> Scenario:
    """Scenario of config values; an inadmissible value raises ScenarioError.

    The model's explicit step is checked here, once, by building the
    extraction conduction rows whose stencil every model rebuild shares.
    """
    if values["seed"] < 0:
        raise ScenarioError(f"seed must be nonnegative, got {values['seed']}")
    try:
        grid = build_grid(values["r0_m"], values["r_inf_m"], values["nu"],
                          values["filter_length_m"])
        params = AquiferParams.from_constituents(
            values["porosity"], values["c_w_j_per_m3_k"],
            values["c_r_j_per_m3_k"], values["lambda_w_per_m_k"],
            values["t_amb_k"])
        hx = HxParams(values["q_b_m3_per_s"], values["t_building_heating_k"],
                      values["t_building_cooling_k"])
        ocp = OcpConfig(
            blocks=(values["block_1_steps"], values["block_2_steps"],
                    values["block_3_steps"]),
            u_max=values["u_max_m3_per_s"],
            warm_bounds=(values["warm_min_k"], values["warm_max_k"]),
            cold_bounds=(values["cold_min_k"], values["cold_max_k"]),
            q_u=values["q_u"], q_d=values["q_d"], q_e=values["q_e"],
            slack_weight=values["slack_weight_per_k2"])
        build_extraction_system(grid, params, ocp.dt)
        ukf = UkfConfig(
            UkfConfig.sensor_matrix(values["nu"]),
            process_var=values["process_noise_var_k2"],
            measurement_var=values["measurement_noise_var_k2"])
        truth = TruthConfig(
            nu_fine=values["nu_fine"],
            lambda_bounds=(values["lambda_min_w_per_m_k"],
                           values["lambda_max_w_per_m_k"]),
            t_amb_noise_amp=values["t_amb_noise_amp_k"],
            sensor_sigma=values["sensor_sigma_k"], seed=values["seed"])
    except ParameterError as exc:
        raise ScenarioError(str(exc)) from exc

    duration = values["duration_steps"]
    if values.get("demand_csv"):
        demand = load_demand_csv(values["demand_csv"])
    else:
        demand = gen_synthetic_demand(
            values["seed"], max(HOURS_PER_YEAR, duration),
            values["demand_heat_total_mwh"] * J_PER_MWH,
            values["demand_cold_total_mwh"] * J_PER_MWH)
    return Scenario(grid, params, hx, ocp, ukf, truth, demand, duration)


def _config_values(path: str | None) -> dict:
    """Values of a config file, or the defaults for None."""
    if path is None:
        return _parse_config_text("")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario config {path!r}: {exc}") from exc
    return _parse_config_text(text)


def load_scenario(path: str | None = None) -> Scenario:
    """Parse a config file (or build the all-defaults scenario for None)."""
    return scenario_from_values(_config_values(path))


def _parse_timestamp(text: str) -> _dt.datetime:
    try:
        stamp = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ScenarioError(f"bad ISO-8601 timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_dt.timezone.utc)
    return stamp


def load_demand_csv(path: str) -> np.ndarray:
    """Hourly demand in W; empty and NaN value fields are linearly
    interpolated, and an infinite one is an error.  Consecutive timestamps
    must be exactly one step (``OcpConfig.dt``) apart."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ScenarioError(f"cannot read demand CSV {path!r}: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if rows and rows[0] and not _looks_like_timestamp(rows[0][0]):
        rows = rows[1:]  # header
    if not rows:
        raise ScenarioError(f"demand CSV {path!r} contains no data rows")
    stamps = []
    values = []
    for r in rows:
        if len(r) < 2:
            raise ScenarioError(f"demand CSV row needs timestamp and value: {r!r}")
        stamps.append(_parse_timestamp(r[0].strip()))
        cell = r[1].strip()
        try:
            value = float(cell) if cell else math.nan
        except ValueError as exc:
            raise ScenarioError(f"demand CSV value {cell!r} at {r[0].strip()} "
                                f"is not a number") from exc
        if math.isinf(value):
            raise ScenarioError(f"demand CSV value {cell!r} at {r[0].strip()} "
                                f"is not finite")
        values.append(value)
    for a, b in zip(stamps, stamps[1:]):
        if b - a != _STEP:
            raise ScenarioError(f"demand timestamps must be one hour apart "
                                f"({a.isoformat()} then {b.isoformat()})")
    series = np.asarray(values, dtype=float)
    missing = np.isnan(series)
    if missing.all():
        raise ScenarioError("demand CSV has no numeric values")
    if missing.any():
        idx = np.arange(series.size)
        series[missing] = np.interp(idx[missing], idx[~missing], series[~missing])
    return series


def _looks_like_timestamp(cell: str) -> bool:
    try:
        _parse_timestamp(cell.strip())
        return True
    except ScenarioError:
        return False


def write_demand_csv(path: str, demand: np.ndarray) -> None:
    """Hourly demand [W] as timestamped CSV rows from ``_DEMAND_START``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "demand_w"])
            for k, value in enumerate(np.asarray(demand, dtype=float)):
                stamp = _DEMAND_START + k * _STEP
                writer.writerow([stamp.isoformat(), repr(float(value))])
    except OSError as exc:
        raise ScenarioError(f"cannot write demand to {path!r}: {exc}") from exc


def gen_synthetic_demand(seed: int, year_hours: int, heat_total: float,
                         cold_total: float) -> np.ndarray:
    """Seasonal + daily synthetic demand [W], positive = heat demand.

    Hour 0 is the start of October, so the heating season comes first and
    the year closes at the end of the cooling season; the square-rooted
    seasonal shape switches seasons within days rather than weeks, and the
    daily cycle and noise are multiplicative so a season's demand keeps its
    sign between the switchovers (a district network carries a base load).
    Positive and negative parts are scaled separately to hit the requested
    annual totals exactly.
    """
    if not (0.0 <= heat_total < np.inf and 0.0 <= cold_total < np.inf):
        raise ScenarioError("annual energy totals must be finite and nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE11A)))
    hours = np.arange(year_hours)
    # Mid-January heating peak for an October start.
    season = np.cos(2.0 * np.pi * (hours - 2560.0) / HOURS_PER_YEAR)
    seasonal = np.sign(season) * np.sqrt(np.abs(season))
    daily = 1.0 + 0.25 * np.cos(2.0 * np.pi * (hours % 24 - 14.0) / 24.0)
    noise = np.clip(1.0 + 0.15 * rng.standard_normal(year_hours), 0.0, None)
    raw = seasonal * daily * noise
    pos = np.clip(raw, 0.0, None)
    neg = np.clip(raw, None, 0.0)
    pos_sum = pos.sum() * OcpConfig.dt
    neg_sum = -neg.sum() * OcpConfig.dt
    demand = np.zeros(year_hours)
    if pos_sum > 0.0 and heat_total > 0.0:
        demand += pos * (heat_total / pos_sum)
    if neg_sum > 0.0 and cold_total > 0.0:
        demand += neg * (cold_total / neg_sum)
    return demand


RESULT_COLUMNS = [
    "t", "u_applied", "mode", "P_bilinear", "P_linear", "D", "B_past",
    "warm_borehole_truth", "warm_borehole_est",
    "cold_borehole_truth", "cold_borehole_est",
    "slack", "ocp_cost", "solve_ms",
    "y_warm_r0", "y_warm_far", "y_cold_r0", "y_cold_far",
]


def write_results(path: str, records: list[dict], summary: dict | None = None) -> None:
    """Write per-step records as CSV plus a sidecar summary text file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_COLUMNS)
            for rec in records:
                writer.writerow([_format_cell(rec.get(col)) for col in RESULT_COLUMNS])
        if summary is not None:
            with open(path + ".summary.txt", "w", encoding="utf-8") as fh:
                for key, value in summary.items():
                    fh.write(f"{key}: {value}\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write results to {path!r}: {exc}") from exc


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest lossless form, numpy scalars included
    return str(value)


def read_results(path: str) -> list[dict]:
    """Re-parse a results CSV into per-step records (floats where possible)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            records = []
            for row in reader:
                rec = {}
                for key, cell in row.items():
                    if key == "mode":
                        rec[key] = cell
                    elif cell in ("", None):
                        rec[key] = None
                    else:
                        rec[key] = float(cell)
                records.append(rec)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read results from {path!r}: {exc}") from exc
    return records
