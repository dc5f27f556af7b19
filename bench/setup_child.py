"""Time one start-up in a fresh interpreter: import to ready-to-step.

Started by ``bench/run.py`` with the scenario config path as its argument;
prints one JSON line.  Ready-to-step means ``import ates_mpc``, the scenario
build, ``init_truth`` and the first ``build_pwa`` are done.  Times are the
process's CPU time, counted from its start, so the interpreter's own start-up
is included.  ``setup_s`` is scaled to the reference speed by the speed
probe, timed once ready (``machine``).
"""

from time import process_time

t_start = process_time()

import ates_mpc  # noqa: E402

t_import = process_time()

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by ates_mpc)

from ates_mpc import plant, pwa  # noqa: E402
from ates_mpc.scenario import load_scenario  # noqa: E402

t_scenario = process_time()
scenario = load_scenario(sys.argv[1])
t_truth = process_time()
truth = plant.init_truth(scenario.truth, scenario.grid, scenario.params)
t_model = process_time()
model = pwa.build_pwa(scenario.grid, scenario.params, scenario.hx,
                      scenario.ocp.dt,
                      np.full(scenario.grid.n_states, scenario.params.t_amb), 0.0)
t_ready = process_time()

import machine  # noqa: E402

machine.probe_ms()  # warm-up
probe = sorted(machine.probe_ms() for _ in range(15))[7]

print(json.dumps({
    "ates_mpc": ates_mpc.__file__,
    "setup_s": t_ready * machine.REF_PROBE_MS / probe,
    "setup_cpu_s": t_ready,
    "import_s": t_import - t_start,
    "load_scenario_ms": (t_truth - t_scenario) * 1e3,
    "init_truth_ms": (t_model - t_truth) * 1e3,
    "build_pwa_ms": (t_ready - t_model) * 1e3,
}))
