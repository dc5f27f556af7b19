"""Step clock and call spans recorded from outside the program.

The program is not edited: spans come from wrapping its public functions at
the module attributes through which the layers call one another (for example
``harness.solve_ocp`` or ``controller.condense``).  Spans are kept in memory
as ``[name, start, end, parent, step, info]`` and written out at the end.
Every time is the process's CPU time (``time.process_time``), so time that
other processes take the CPU away stays out of it.
"""

from __future__ import annotations

import json
import statistics
from time import process_time

import numpy as np

import machine

# CPU seconds between speed probes.  The machine's speed changes within a
# second; on an estimation round, probing every 0.05 s rather than every
# 0.5 s halved the spread of the scaled round times, for about 2% of a run.
PROBE_EVERY_S = 0.05

# (module, attribute) pairs wrapped in a traced run.  Each span is named after
# the defining module and function, so a function reached through two
# attributes (``harness.predict`` and ``observer.predict``) is one layer.
WRAPPED = {
    "harness": ["measure", "predict", "update", "project", "build_pwa",
                "solve_ocp", "restrict_to_coarse", "truth_step", "pwa_step",
                "power_bilinear", "power_linear", "update_balance"],
    "controller": ["condense", "build_cost", "solve_qp", "power_linear_rows"],
    "observer": ["predict", "update", "project", "repair_psd"],
    "pwa": ["build_pwa", "pwa_step", "build_extraction_system",
            "build_injection_system"],
    "plant": ["measure", "truth_step", "restrict_to_coarse", "hx_outlet_temp"],
}


def _solve_ocp_info(args, kwargs, out):
    statuses = [rec.status for rec in out.per_candidate]
    return {"optimal": statuses.count("optimal"),
            "stalled": statuses.count("stalled")}


def _solve_qp_info(args, kwargs, out):
    qp = args[0] if args else kwargs["qp"]
    return {"rows": int(qp.G.shape[0]), "active": len(out.active_set),
            "kkt": float(out.kkt_residual)}


_INFO = {"controller.solve_ocp": _solve_ocp_info, "qp.solve_qp": _solve_qp_info}


class StepClock:
    """CPU time of each step; with a tracer, also the step's root span.

    Before a step, once ``PROBE_EVERY_S`` of CPU time has passed since the
    last probe, the machine's speed is probed outside the step's time.
    """

    def __init__(self, root_name: str, tracer: "Tracer | None" = None):
        self.root_name = root_name
        self.tracer = tracer
        self.step_ms: list[float] = []
        self.probe_ms: list[float] = []
        self.step_probe: list[int] = []    # last probe before each step
        self._next_probe = 0.0
        self._t0 = 0.0

    def probe(self) -> None:
        self.probe_ms.append(machine.probe_ms())
        self._next_probe = process_time() + PROBE_EVERY_S

    def ref_step_ms(self) -> np.ndarray:
        """Each step's CPU time at the reference speed, the speed being the
        mean of the two probes taken around the step's block."""
        probes = np.asarray(self.probe_ms)
        before = np.asarray(self.step_probe)
        after = np.minimum(before + 1, len(probes) - 1)
        speed = 0.5 * (probes[before] + probes[after])
        return np.asarray(self.step_ms) * machine.REF_PROBE_MS / speed

    def start(self) -> None:
        if process_time() >= self._next_probe:
            self.probe()
        self.step_probe.append(len(self.probe_ms) - 1)
        if self.tracer is not None:
            self.tracer.open(self.root_name, step=len(self.step_ms))
        self._t0 = process_time()

    def stop(self) -> None:
        t1 = process_time()
        self.step_ms.append((t1 - self._t0) * 1e3)
        if self.tracer is not None:
            self.tracer.close()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step = -1
        self._saved: list[tuple] = []

    def open(self, name: str, step: int | None = None) -> list:
        if step is not None:
            self._step = step
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._step, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = process_time()
        return rec

    def close(self) -> None:
        """Close the open step's root span."""
        self.spans[self._stack.pop()][2] = process_time()
        self._step = -1

    def install(self, modules: dict) -> None:
        for mod_name, attrs in WRAPPED.items():
            module = modules[mod_name]
            for attr in attrs:
                self._wrap(module, attr)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        info = _INFO.get(name)
        stack, open_span = self._stack, self.open

        def wrapper(*args, **kwargs):
            rec = open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = process_time()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def write(self, path: str) -> None:
        """One JSON array per line: name, start [CPU s], end [CPU s], parent, step."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, step, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, step]) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, clock: StepClock) -> dict:
    """Per-layer figures from the spans inside the steps of one traced phase.

    A layer that the workload never calls reads 0.
    """
    spans = [s if s[4] >= 0 else None for s in tracer.spans]
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ms[span[3]] += (span[2] - span[1]) * 1e3
    dur: dict[str, list[float]] = {}
    self_ms: dict[str, list[float]] = {}
    infos: dict[str, list[dict]] = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, t0, t1, _, _, info = span
        d = (t1 - t0) * 1e3
        dur.setdefault(name, []).append(d)
        self_ms.setdefault(name, []).append(d - child_ms[i])
        if info is not None:
            infos.setdefault(name, []).append(info)

    steps = max(len(clock.step_ms), 1)
    solves = len(dur.get("controller.solve_ocp", []))

    def p50(name):
        return _median(dur.get(name, []))

    def calls(name):
        return len(dur.get(name, []))

    def per_solve(name):
        return calls(name) / solves if solves else 0.0

    ocp = infos.get("controller.solve_ocp", [])
    qp = infos.get("qp.solve_qp", [])
    solve_ms = dur.get("controller.solve_ocp", [])
    root = clock.root_name
    layer_self = sum(sum(v) for k, v in self_ms.items() if k != root)
    return {
        "controller.solve_ocp.ms_p50": p50("controller.solve_ocp"),
        "controller.solve_ocp.ms_p95": (float(np.percentile(solve_ms, 95))
                                        if solve_ms else 0.0),
        "controller.solve_ocp.self_ms_p50": _median(
            self_ms.get("controller.solve_ocp", [])),
        "controller.condense.ms_p50": p50("controller.condense"),
        "controller.condense.calls_per_solve": per_solve("controller.condense"),
        "controller.build_cost.ms_p50": p50("controller.build_cost"),
        "controller.power_linear_rows.calls_per_solve":
            per_solve("controller.power_linear_rows"),
        "controller.candidates_optimal_per_solve":
            (sum(i["optimal"] for i in ocp) / solves if solves else 0.0),
        "controller.candidates_stalled": sum(i["stalled"] for i in ocp),
        "controller.useful_qp_ratio": (solves / calls("qp.solve_qp")
                                       if calls("qp.solve_qp") else 0.0),
        "qp.solve_qp.ms_p50": p50("qp.solve_qp"),
        "qp.solve_qp.calls_per_solve": per_solve("qp.solve_qp"),
        "qp.rows_mean": (float(np.mean([i["rows"] for i in qp])) if qp else 0.0),
        "qp.active_set_mean": (float(np.mean([i["active"] for i in qp]))
                               if qp else 0.0),
        "qp.kkt_residual_max": max((i["kkt"] for i in qp), default=0.0),
        "observer.predict.ms_p50": p50("observer.predict"),
        "observer.update.ms_p50": p50("observer.update"),
        "observer.project.ms_p50": p50("observer.project"),
        "observer.repair_psd.calls_per_step": calls("observer.repair_psd") / steps,
        "pwa.pwa_step.calls_per_step": calls("pwa.pwa_step") / steps,
        "pwa.build_pwa.ms_p50": p50("pwa.build_pwa"),
        "dynamics.build_system.ms_p50": _median(
            dur.get("dynamics.build_extraction_system", [])
            + dur.get("dynamics.build_injection_system", [])),
        "plant.truth_step.ms_p50": p50("plant.truth_step"),
        "heat_exchanger.hx_outlet_temp.calls_per_step":
            calls("heat_exchanger.hx_outlet_temp") / steps,
        "plant.restrict_to_coarse.ms_p50": p50("plant.restrict_to_coarse"),
        "plant.measure.ms_p50": p50("plant.measure"),
        "power.ms_per_step": sum(sum(dur.get(name, [])) for name in (
            "power.power_bilinear", "power.power_linear",
            "power.update_balance")) / steps,
        "harness.step.self_ms_p50": _median(self_ms.get("harness.step", [])),
        "trace.self_time_coverage": layer_self / max(sum(clock.step_ms), 1e-12),
    }
