"""Command-line entry points for simulation, control and utility tasks.

Exit codes: 0 success, 1 bad usage or configuration, 2 runtime failure
(solver or plant fault).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .controller import solve_ocp
from .errors import AtesError, ScenarioError
from .harness import (demand_window, power_form_study, replay_observer,
                      run_closed_loop, sensor_record)
from .plant import init_truth, measure, restrict_to_coarse, truth_step
from .power import J_PER_MWH, EnergyLedger, power_bilinear, update_balance
from .pwa import build_pwa, mode_of
from .scenario import (_config_values, read_results, scenario_from_values,
                       write_demand_csv, write_results)


def _nonnegative_int(text: str) -> int:
    """A count, index or seed such as ``--steps``, ``--at`` or ``--seed``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load(args) -> "Scenario":
    values = _config_values(args.scenario)
    if args.seed is not None:
        values["seed"] = args.seed  # before the synthetic demand is drawn
    return scenario_from_values(values)


def _cmd_run(args) -> int:
    scenario = _load(args)
    report = run_closed_loop(scenario, steps=args.steps, out_path=args.out)
    print(f"steps: {report.steps}")
    print(f"final balance: {report.final_balance_j / J_PER_MWH:.3f} MWh")
    print(f"coverage: {report.coverage:.3f}")
    print(f"solve time median/max: {report.solve_ms_median:.1f}/"
          f"{report.solve_ms_max:.1f} ms")
    return 0


def _parse_schedule(text: str, steps: int) -> np.ndarray:
    """A CSV whose second column holds flows (an existing file or a ``.csv``
    name), or else comma-separated flows, one or more."""
    try:
        if text.endswith(".csv") or os.path.isfile(text):
            values = np.loadtxt(text, delimiter=",", skiprows=1, usecols=1,
                                ndmin=1)
        else:
            values = np.array([float(v) for v in text.split(",")])
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot parse schedule {text!r}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ScenarioError(f"schedule entry {bad[0]} is not finite: "
                            f"{values[bad[0]]}")
    if values.size < steps:
        raise ScenarioError(f"schedule has {values.size} entries, need {steps}")
    return values[:steps]


def _cmd_sim(args) -> int:
    """Open-loop plant rollout under a prescribed flow schedule."""
    scenario = _load(args)
    steps = args.steps if args.steps is not None else scenario.duration
    scenario.check_steps(steps)
    if args.schedule:
        flows = _parse_schedule(args.schedule, steps)
    else:
        flows = np.zeros(steps)
    truth = init_truth(scenario.truth, scenario.grid, scenario.params)
    ledger = EnergyLedger(dt=scenario.ocp.dt)
    records = []
    for k in range(steps):
        y = measure(truth)  # before the step, as in the closed loop
        x = restrict_to_coarse(truth, scenario.grid)
        u = float(flows[k])
        truth_step(truth, u, scenario.hx, scenario.ocp.dt, audit=args.audit)
        p = power_bilinear(x, u, scenario.params.c_w)
        update_balance(ledger, p, (k + 1) * scenario.ocp.dt)
        records.append({
            "t": k * scenario.ocp.dt, "u_applied": u,
            "mode": mode_of(u),
            "P_bilinear": p, "D": float(scenario.demand[k]),
            "B_past": ledger.b_past,
            "warm_borehole_truth": float(x[0]),
            "cold_borehole_truth": float(x[scenario.grid.nu + 1]),
            **sensor_record(y),
        })
    if args.out:
        write_results(args.out, records)
    print(f"simulated {steps} steps, final balance "
          f"{ledger.b_past / J_PER_MWH:.3f} MWh")
    if args.audit:
        print(f"worst maximum-principle excess: {truth.dmp_violation:.3e} K")
    return 0


def _cmd_observe(args) -> int:
    """Replay the state estimator on a logged results CSV."""
    scenario = _load(args)
    records = read_results(args.results)
    if args.steps is not None:
        records = records[:args.steps]
    means = replay_observer(scenario, records)
    nu = scenario.grid.nu
    # Only records that hold both logged estimates are compared; a ``sim``
    # output holds none.
    deviations = [max(abs(mean[0] - rec["warm_borehole_est"]),
                      abs(mean[nu + 1] - rec["cold_borehole_est"]))
                  for rec, mean in zip(records, means)
                  if rec.get("warm_borehole_est") is not None
                  and rec.get("cold_borehole_est") is not None]
    if not deviations:
        print(f"replayed {len(means)} steps, no logged estimates to compare")
        return 0
    print(f"replayed {len(means)} steps, max deviation from logged estimates "
          f"over {len(deviations)} records: {max(deviations):.3e} K")
    return 0


def _cmd_gen_demand(args) -> int:
    """Write the first hours of the scenario's demand series."""
    scenario = _load(args)
    steps = args.steps if args.steps is not None else scenario.duration
    scenario.check_steps(steps)
    demand = scenario.demand[:steps]
    out = args.out or "demand.csv"
    write_demand_csv(out, demand)
    print(f"wrote {demand.size} hourly samples to {out}")
    return 0


def _cmd_validate_power(args) -> int:
    """Compare the bilinear and state-linear power forms along a model rollout."""
    _, p_bil, p_lin = power_form_study(_load(args), args.steps)
    peak = float(np.abs(p_bil).max(initial=0.0))
    mean_err = float(np.abs(p_lin - p_bil).sum()) / max(args.steps, 1)
    ratio = mean_err / peak if peak > 0 else 0.0
    print(f"{args.steps} model steps: mean |linear - bilinear| = "
          f"{mean_err / 1e3:.1f} kW, peak |P| = {peak / 1e6:.3f} MW "
          f"({ratio:.2%} of peak)")
    return 0 if ratio <= 0.05 else 2


def _cmd_solve_once(args) -> int:
    """Solve a single OCP from the ambient state and print the plan."""
    scenario = _load(args)
    grid, params, ocp = scenario.grid, scenario.params, scenario.ocp
    if args.at >= scenario.demand.size:
        raise ScenarioError(f"--at {args.at} is past the end of the demand "
                            f"series ({scenario.demand.size} h)")
    x0 = np.full(grid.n_states, params.t_amb)
    model = build_pwa(grid, params, scenario.hx, ocp.dt, x0, 0.0)
    window = demand_window(scenario.demand, args.at, ocp.horizon)
    solution = solve_ocp(x0, window, 0.0, ocp, model, grid, params)
    print(f"mode sequence: {' '.join(solution.mode_sequence)}")
    print("block flows [m^3/s]: "
          + " ".join(f"{u:+.5f}" for u in solution.u_blocks))
    print(f"cost: {solution.cost:.6f}  (slack used: {solution.slack_used:.3e} K)")
    for name, value in solution.cost_terms.items():
        print(f"  {name}: {value:.6f}")
    # A pruned candidate's QP was not solved; its cost is its lower bound.
    print("candidates (sorted by cost):")
    for rec in sorted(solution.per_candidate, key=lambda r: r.cost):
        label = "bound" if rec.status == "pruned" else "cost"
        print(f"  {' '.join(m[:4] for m in rec.mode_sequence):<16} "
              f"{rec.status:<10} {label} {rec.cost:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ates-mpc",
        description="Closed-loop aquifer thermal storage simulation and MPC.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Parents of the subcommands that load a scenario.  A seed draws only
    # the demand and the truth plant, so ``observe``, which replays logged
    # readings, takes ``--scenario`` alone.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", default=None,
                          help="scenario config file (defaults apply when omitted)")
    scenario.set_defaults(seed=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[scenario])
    seeded.add_argument("--seed", type=_nonnegative_int, default=None,
                        help="override the scenario seed")

    p = sub.add_parser("run", parents=[seeded],
                       help="closed-loop MPC run against the truth plant")
    p.add_argument("--out", default=None, help="results CSV path")
    p.add_argument("--steps", type=_nonnegative_int, default=None,
                   help="number of hourly steps (default: scenario duration)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sim", parents=[seeded],
                       help="open-loop plant rollout with a flow schedule")
    p.add_argument("--out", default=None, help="results CSV path")
    p.add_argument("--steps", type=_nonnegative_int, default=None,
                   help="number of hourly steps (default: scenario duration)")
    p.add_argument("--schedule", default=None,
                   help="comma-separated flows or CSV (second column); "
                   "write --schedule=-0.0277,0 when the first flow is negative")
    p.add_argument("--audit", action="store_true",
                   help="check the discrete maximum principle every substep")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("observe", parents=[scenario],
                       help="replay the estimator on logged results")
    p.add_argument("--steps", type=_nonnegative_int, default=None,
                   help="replay only the first N records (default: all)")
    p.add_argument("results", help="results CSV from a previous run")
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser("gen-demand", parents=[seeded],
                       help="write the scenario's hourly demand CSV")
    p.add_argument("--out", default=None,
                   help="demand CSV path (default: demand.csv)")
    p.add_argument("--steps", type=_nonnegative_int, default=None,
                   help="number of hourly samples (default: scenario duration)")
    p.set_defaults(func=_cmd_gen_demand)

    p = sub.add_parser("validate-power", parents=[seeded],
                       help="compare bilinear and linear power forms")
    p.add_argument("--steps", type=_nonnegative_int, default=720,
                   help="number of model steps (default: 720)")
    p.set_defaults(func=_cmd_validate_power)

    p = sub.add_parser("solve-once", parents=[seeded],
                       help="solve one OCP and print the plan")
    p.add_argument("--at", type=_nonnegative_int, default=0,
                   help="demand index the horizon starts at")
    p.set_defaults(func=_cmd_solve_once)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AtesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
