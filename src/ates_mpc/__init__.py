"""Closed-loop aquifer thermal energy storage: simulation, estimation, MPC."""

from .controller import OcpConfig, OcpSolution, solve_ocp
from .errors import AtesError, ControllerFault, ParameterError, ScenarioError
from .grid import AquiferParams, RadialGrid, build_grid
from .harness import RunReport, demand_window, replay_observer, run_closed_loop
from .heat_exchanger import HxParams, hx_outlet_temp
from .observer import GaussianEstimate, UkfConfig, predict, project, update
from .plant import (TruthConfig, init_truth, measure, restrict_to_coarse,
                    truth_step)
from .power import EnergyLedger, power_bilinear, power_linear, update_balance
from .pwa import PwaModel, build_pwa, pwa_step
from .qp import Qp, QpResult, solve_qp
from .scenario import (Scenario, gen_synthetic_demand, load_scenario,
                       read_results, scenario_from_values, write_demand_csv,
                       write_results)

__version__ = "0.1.0"

__all__ = [
    "AquiferParams", "AtesError", "ControllerFault", "EnergyLedger",
    "GaussianEstimate", "HxParams", "OcpConfig", "OcpSolution",
    "ParameterError", "PwaModel", "Qp", "QpResult", "RadialGrid", "RunReport",
    "Scenario", "ScenarioError", "TruthConfig", "build_grid", "build_pwa",
    "demand_window", "gen_synthetic_demand", "hx_outlet_temp",
    "init_truth", "load_scenario", "measure", "power_bilinear", "power_linear",
    "predict", "project", "pwa_step", "read_results", "replay_observer",
    "restrict_to_coarse", "run_closed_loop", "scenario_from_values",
    "solve_ocp", "solve_qp", "truth_step", "update", "update_balance",
    "write_demand_csv", "write_results",
]
