"""Benchmark of the ates-mpc toolkit, measured from outside the program.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter with BLAS pinned to one thread,
one process at a time, against ``src/`` of the checkout this file sits in.
Start-up is timed in ``SETUP_SAMPLES`` further fresh interpreters.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import inputs
import machine

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("closed_loop", "estimation")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 20.0

# Figures each workload also prints, where they apply; deterministic for a seed.
FIGURE_UNITS = {
    "solve_ms_p50": "ms", "solve_ms_p95": "ms", "tracking_rmse_mw": "MW",
    "est_err_mean_k": "K", "ocp_cost_mean": "1",
}


def metric_units(kind: str) -> dict:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics declared
    in the checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], timeout: float) -> dict:
    """Run one child to completion; returns the JSON of its last output line."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{cmd[1]} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(data["ates_mpc"]).startswith(SRC + os.sep):
        raise BenchError(f"imported ates_mpc from {data['ates_mpc']}, not {SRC}")
    return data


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    config = os.path.join(OUT_DIR, f"scenario-seed{seed}.txt")
    inputs.write_scenario(config, seed)
    setup_cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_child.py"), config]

    def setup_sample():
        return run_child(setup_cmd, SETUP_TIMEOUT_S)

    # Start-up samples are taken before and after the workload, so that they
    # span the run rather than one moment of a machine whose speed drifts.
    setups = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    data = run_child([sys.executable, os.path.join(BENCH_DIR, "workload.py"),
                      "--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--scenario", config, "--out-dir", OUT_DIR], CHILD_TIMEOUT_S)
    setups += [setup_sample() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    if trace:
        values = dict(data["layers"], **{
            "setup.import_s": setup_median("import_s"),
            "scenario.load_scenario_ms": setup_median("load_scenario_ms")})
    else:
        values = {"setup_s": setup_median("setup_s"),
                  "peak_rss_mb": data["peak_rss_mb"]}
        values.update({k: data[k] for k in ("steps_per_ref_s", "step_ref_ms_p50",
                                            "step_ref_ms_p95")})
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"steps {data['steps']} in {data['rounds']} rounds")
    for key, m in metrics.items():
        print(f"  {key:<46} {m['value']:>14.6g} {m['unit']}")
    for key, value in data["figures"].items():
        print(f"  {key:<46} {value:>14.6g} {FIGURE_UNITS[key]}  (figure)")
    if not trace:
        print(f"  setup_cpu_s (raw CPU time)                    "
              f"{setup_median('setup_cpu_s'):.4g} s")
    print(f"  step_cpu_ms p50 / p95 (raw CPU time)          "
          f"{data['step_cpu_ms_p50']:.4g} / {data['step_cpu_ms_p95']:.4g} ms")
    print("  probe_ms between steps p5 / p50 / p95         "
          + " / ".join(f"{p:.2f}" for p in data["probe_ms"])
          + f"  (reference {machine.REF_PROBE_MS} ms)")
    print(f"  cpu_share of the timed phase's wall time      {data['cpu_share']:.3f}")
    print(f"  attempted {data['attempted']}  failed {data['failed']}")
    for err in data["errors"]:
        print(f"  CHECK FAILED: {err}")
    return {"correct": not data["errors"], "attempted": data["attempted"],
            "failed": data["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ates_mpc", "__init__.py")):
        print(f"error: no ates_mpc package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
