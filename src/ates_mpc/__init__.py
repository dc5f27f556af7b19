"""Closed-loop aquifer thermal energy storage: simulation, estimation, MPC."""

from .controller import (OcpConfig, OcpSolution, condense, power_linear_rows,
                         solve_ocp)
from .errors import (AtesError, ControllerFault, GeometryError,
                     ParameterError, ScenarioError, SolverError,
                     StabilityError)
from .grid import (AquiferParams, RadialGrid, build_grid,
                   effective_heat_capacity, validate_state)
from .harness import RunReport, demand_window, replay_observer, run_closed_loop
from .heat_exchanger import (HxLinearization, HxParams, hx_outlet_temp,
                             linearize_hx)
from .observer import (GaussianEstimate, UkfConfig, predict, project,
                       sigma_points, update)
from .plant import (TruthConfig, TruthState, init_truth, measure,
                    restrict_to_coarse, truth_step)
from .power import (EnergyLedger, power_bilinear, power_linear,
                    storage_weights, update_balance)
from .pwa import (AffineBranch, PwaModel, build_extraction_system,
                  build_injection_system, build_pwa, pwa_step)
from .qp import Qp, QpResult, solve_qp
from .scenario import (Scenario, gen_synthetic_demand, load_demand_csv,
                       load_scenario, read_results, scenario_from_values,
                       write_demand_csv, write_results)

__version__ = "0.1.0"

__all__ = [
    "AffineBranch", "AquiferParams", "AtesError",
    "ControllerFault", "EnergyLedger", "GaussianEstimate", "GeometryError",
    "HxLinearization", "HxParams", "OcpConfig", "OcpSolution",
    "ParameterError", "PwaModel", "Qp", "QpResult", "RadialGrid",
    "RunReport", "Scenario", "ScenarioError", "SolverError",
    "StabilityError", "TruthConfig", "TruthState",
    "build_extraction_system", "build_grid", "build_injection_system",
    "build_pwa", "condense", "demand_window", "effective_heat_capacity",
    "gen_synthetic_demand", "hx_outlet_temp", "init_truth", "linearize_hx",
    "load_demand_csv", "load_scenario", "measure", "power_bilinear",
    "power_linear", "power_linear_rows", "predict", "project", "pwa_step",
    "read_results", "replay_observer", "restrict_to_coarse",
    "run_closed_loop", "scenario_from_values", "sigma_points", "solve_ocp",
    "solve_qp", "storage_weights", "truth_step", "update", "update_balance",
    "validate_state", "write_demand_csv", "write_results",
]
