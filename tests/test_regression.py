"""432 h closed-loop regression against stored per-hour records.

The reference in ``tests/data/closed_loop_432h.json`` holds each hour's
applied mode, flow and accumulated balance of the default scenario.  A change
that only moves rounding keeps every mode and stays far inside the bounds; a
change of behaviour flips a mode or moves a flow well past them.  The bounds
sit above the figures of known rounding perturbations and far below any
mode flip.  Swapping the branch step's ``np.matvec`` for ``X @ A.T`` moved
u by at most 2.6e-12 m^3/s and B_past by 4.6e-10 MWh.  Writing ``condense``
in homogeneous coordinates (the affine terms summed as matrix products
instead of running sums) moved u by at most 1.4e-16 m^3/s and B_past by
4.3e-13 MWh.

Regenerate the reference (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/test_regression.py``.
"""

import json
import os

import numpy as np

from ates_mpc.harness import run_closed_loop
from ates_mpc.scenario import load_scenario

DATA = os.path.join(os.path.dirname(__file__), "data", "closed_loop_432h.json")
HOURS = 432
J_PER_MWH = 3.6e9
U_TOL = 1e-10       # m^3/s
B_PAST_TOL = 1e-6   # MWh


def closed_loop_records(report):
    return {"mode": [r["mode"] for r in report.records],
            "u_applied": [float(r["u_applied"]) for r in report.records],
            "B_past_j": [float(r["B_past"]) for r in report.records]}


def test_432h_closed_loop_matches_reference():
    with open(DATA) as f:
        ref = json.load(f)
    report = run_closed_loop(load_scenario(None), steps=HOURS)
    run = closed_loop_records(report)
    assert len(run["mode"]) == len(ref["mode"]) == HOURS
    flipped = [k for k, (a, b) in enumerate(zip(run["mode"], ref["mode"]))
               if a != b]
    assert flipped == []
    du = np.abs(np.subtract(run["u_applied"], ref["u_applied"]))
    assert du.max() <= U_TOL
    db = np.abs(np.subtract(run["B_past_j"], ref["B_past_j"])) / J_PER_MWH
    assert db.max() <= B_PAST_TOL
    # The search's bounds rule out all but about one candidate per hour (438
    # QPs over the 432 h); a loosened bound shows here as more QPs.
    assert report.summary["qps_solved"] <= 1.02 * HOURS


if __name__ == "__main__":
    records = closed_loop_records(run_closed_loop(load_scenario(None),
                                                  steps=HOURS))
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as f:
        json.dump(records, f, indent=0)
        f.write("\n")
