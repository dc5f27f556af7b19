"""Run one benchmark workload in this (fresh) interpreter.

Started by ``bench/run.py``; prints one JSON line with the workload's raw
figures.  The timed phase repeats whole rounds of identical work for about
``--seconds``, so every run attempts the same operations in the same
proportions.  Steps are timed in the process's CPU time and scaled to a
reference CPU speed probed between them (``machine``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter, process_time

import numpy as np

import ates_mpc
from ates_mpc import controller, harness, observer, plant, pwa
from ates_mpc.observer import GaussianEstimate
from ates_mpc.scenario import load_scenario

import checks
import inputs
import machine
import tracing

KALMAN_SAMPLE_EVERY = 24     # hours between predict-moment checks
ORACLE_HOURS = (100, 400)     # one cooling and one heating instant
ROUND_SUMMARY = ("figures", "attempted", "failed", "solve_ms")


class ClosedLoop:
    """``run_closed_loop`` on the default scenario from the ambient start."""

    root = "harness.step"
    min_rounds = 1            # a round lasts 15 to 20 s

    def __init__(self, scenario):
        self.scenario = scenario
        self.solves = []

    def install(self, clock):
        """Step boundaries: a step runs from ``measure`` to ``update_balance``.

        ``solve_ocp`` calls are also recorded, for the checks.
        """
        measure, update_balance = harness.measure, harness.update_balance
        solve_ocp = harness.solve_ocp

        def measure_hook(*args, **kwargs):
            clock.start()
            return measure(*args, **kwargs)

        def solve_ocp_hook(*args):
            out = solve_ocp(*args)
            # Arguments are kept only where the brute-force oracle runs.
            self.solves.append((args if len(self.solves) in ORACLE_HOURS else None,
                                out))
            return out

        def update_balance_hook(*args, **kwargs):
            out = update_balance(*args, **kwargs)
            clock.stop()
            return out

        harness.measure, harness.update_balance = measure_hook, update_balance_hook
        harness.solve_ocp = solve_ocp_hook
        return lambda: (setattr(harness, "measure", measure),
                        setattr(harness, "update_balance", update_balance),
                        setattr(harness, "solve_ocp", solve_ocp))

    def round(self, clock):
        self.solves = []
        report = harness.run_closed_loop(self.scenario, steps=inputs.CLOSED_LOOP_HOURS)
        rec = report.records
        cost = np.array([r["ocp_cost"] for r in rec])
        mismatch = np.array([r["P_bilinear"] - r["D"] for r in rec]) / 1e6
        return {
            "report": report,
            "solves": self.solves,
            "attempted": len(rec),
            "failed": int(np.isnan(cost).sum()),
            "figures": {
                "tracking_rmse_mw": float(np.sqrt(np.mean(mismatch ** 2))),
                "est_err_mean_k": float(report.ukf_mean_abs_error.mean()),
                "ocp_cost_mean": float(np.nanmean(cost)),
            },
            "solve_ms": [r["solve_ms"] for r in rec],
        }

    def check(self, result):
        errors = checks.check_closed_loop(result["report"], self.scenario)
        for k, (args, sol) in enumerate(result["solves"]):
            errors += [f"solve {k}: {e}" for e in checks.check_ocp_solution(sol, args)]
        return errors


class Estimation:
    """Fine-grid plant under a fixed cyclic flow schedule, estimator only."""

    root = "bench.step"
    min_rounds = 3            # a round is under a second, so runs hold many

    def __init__(self, scenario):
        self.scenario = scenario
        self.schedule = inputs.flow_schedule(scenario.ocp.u_max)

    def install(self, clock):
        return lambda: None

    def round(self, clock):
        sc = self.scenario
        grid, params, hx, dt = sc.grid, sc.params, sc.hx, sc.ocp.dt
        x_min, x_max = sc.ocp.state_bounds(grid.nu)
        hours = inputs.ESTIMATION_HOURS
        closure_tol = checks.ENERGY_CLOSURE_TOL * params.c_w * sc.ocp.u_max * dt

        truth = plant.init_truth(sc.truth, grid, params)
        est = GaussianEstimate(np.full(grid.n_states, params.t_amb),
                               np.eye(grid.n_states))
        u_prev = 0.0
        model = pwa.build_pwa(grid, params, hx, dt, est.mean, u_prev)
        means = np.zeros((hours, grid.n_states))
        errs = np.zeros((hours, grid.n_states))
        samples = []
        failed = 0
        energy, booked = truth.internal_energy(), truth.boundary_energy
        for k in range(hours):
            u = self.schedule[k % len(self.schedule)]
            clock.start()
            y = plant.measure(truth)
            predicted = observer.predict(
                est, lambda x: pwa.pwa_step(model, x, u_prev), sc.ukf)
            new_est = observer.project(observer.update(predicted, y), x_min, x_max)
            new_model = pwa.build_pwa(grid, params, hx, dt, new_est.mean, u_prev)
            truth_coarse = plant.restrict_to_coarse(truth, grid)
            plant.truth_step(truth, u, hx, dt, audit=True)
            clock.stop()

            if k % KALMAN_SAMPLE_EVERY == 0:
                samples.append((est, predicted, model, u_prev))
            means[k] = new_est.mean
            errs[k] = np.abs(truth_coarse - new_est.mean)
            # One operation per hour: the stored-energy change must equal the
            # boundary energy booked over the hour.
            new_energy = truth.internal_energy()
            miss = (new_energy - energy) - (truth.boundary_energy - booked)
            failed += abs(miss) > closure_tol
            energy, booked = new_energy, truth.boundary_energy
            est, model, u_prev = new_est, new_model, u
        return {
            "truth": truth, "means": means, "errs": errs, "samples": samples,
            "bounds": (x_min, x_max),
            "attempted": hours,
            "failed": int(failed),
            "figures": {"est_err_mean_k": float(errs.mean())},
            "solve_ms": None,
        }

    def check(self, result):
        errors = checks.check_estimation(result["truth"], result["means"],
                                         result["errs"], *result["bounds"])
        for est, predicted, model, u in result["samples"]:
            errors += checks.check_predict_moments(est, predicted, model, u,
                                                   self.scenario.ukf.process_var)
        return errors


WORKLOADS = {"closed_loop": ClosedLoop, "estimation": Estimation}


def timed_phase(work, seconds: float, tracer: tracing.Tracer | None,
                min_rounds: int):
    """Whole rounds of the workload for about ``seconds``, at least ``min_rounds``.

    The first round is checked in full as soon as it ends, outside the time
    of the rounds; every round keeps only what is compared with the first,
    so peak memory does not depend on the number of rounds.
    """
    clock = tracing.StepClock(work.root, tracer)
    if tracer is not None:
        tracer.install({"harness": harness, "controller": controller,
                        "observer": observer, "pwa": pwa, "plant": plant})
    remove_hooks = work.install(clock)
    rounds, errors, elapsed, cpu = [], [], 0.0, 0.0
    try:
        while True:
            t_round, c_round = perf_counter(), process_time()
            result = work.round(clock)
            elapsed += perf_counter() - t_round
            cpu += process_time() - c_round
            if not rounds:
                errors = work.check(result)
            rounds.append({k: result[k] for k in ROUND_SUMMARY})
            del result
            # Stop at the whole number of rounds closest to ``seconds``.
            if (len(rounds) >= min_rounds
                    and elapsed + 0.5 * elapsed / len(rounds) >= seconds):
                break
    finally:
        remove_hooks()
        if tracer is not None:
            tracer.uninstall()
    clock.probe()  # closes the last block of steps
    cpu_share = cpu / elapsed
    for i, r in enumerate(rounds[1:], start=1):
        if r["figures"] != rounds[0]["figures"] or r["failed"] != rounds[0]["failed"]:
            errors.append(f"round {i} differs from round 0: {r['figures']} "
                          f"vs {rounds[0]['figures']}")
    return clock, rounds, errors, cpu_share


def summarize(clock, rounds, errors, cpu_share) -> dict:
    """Step figures over every step and round of the phase.

    The metrics are at the reference speed; the raw CPU-time quantiles and
    probe times are printed beside them.  ``cpu_share`` is the rounds' CPU
    time over their wall time: near 1 on an idle machine, lower when others
    took the CPU away.
    """
    ref_ms = clock.ref_step_ms()
    cpu_ms = np.asarray(clock.step_ms)
    return {
        "steps": len(ref_ms),
        "rounds": len(rounds),
        "steps_per_ref_s": 1e3 * len(ref_ms) / ref_ms.sum(),
        "step_ref_ms_p50": float(np.median(ref_ms)),
        "step_ref_ms_p95": float(np.percentile(ref_ms, 95)),
        "step_cpu_ms_p50": float(np.median(cpu_ms)),
        "step_cpu_ms_p95": float(np.percentile(cpu_ms, 95)),
        "probe_ms": [float(p) for p in np.percentile(clock.probe_ms, (5, 50, 95))],
        "cpu_share": cpu_share,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scenario", required=True, help="config file with the seed")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    work = WORKLOADS[args.workload](scenario)
    machine.probe_ms()  # warm-up, untimed
    # A traced run splits its time between an untraced and a traced phase,
    # to stay well inside the run's time limit.
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_rounds = 1 if args.trace else work.min_rounds
    phase = timed_phase(work, seconds, None, min_rounds)
    rounds, errors = phase[1], list(phase[2])
    result = summarize(*phase)
    figures = rounds[0]["figures"]
    if rounds[0]["solve_ms"] is not None:
        solve = np.concatenate([r["solve_ms"] for r in rounds])
        figures = dict(figures, solve_ms_p50=float(np.median(solve)),
                       solve_ms_p95=float(np.percentile(solve, 95)))

    t_rounds = []
    if args.trace:
        tracer = tracing.Tracer()
        t_phase = timed_phase(work, seconds, tracer, min_rounds)
        t_clock, t_rounds = t_phase[:2]
        traced = summarize(*t_phase)
        errors += [f"traced: {e}" for e in t_phase[2]]
        if t_rounds[0]["figures"] != rounds[0]["figures"]:
            errors.append("traced run changed the workload's figures")
        layers = tracing.layer_metrics(tracer, t_clock)
        layers["trace.overhead_ratio"] = (traced["steps_per_ref_s"]
                                          / result["steps_per_ref_s"])
        for layer in ("controller.ocp_cost_mean", "controller.tracking_rmse_mw",
                      "observer.est_err_mean_k"):
            layers[layer] = figures.get(layer.partition(".")[2], 0.0)
        result["layers"] = layers
        tracer.write(os.path.join(args.out_dir,
                                  f"trace-{args.workload}-seed{args.seed}.jsonl"))

    attempted = sum(r["attempted"] for r in rounds + t_rounds)
    failed = sum(r["failed"] for r in rounds + t_rounds)
    result.update({
        "ates_mpc": os.path.dirname(ates_mpc.__file__),
        "figures": figures,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
