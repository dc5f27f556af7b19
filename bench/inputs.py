"""Inputs of the workloads.

The seed reaches the program only through the scenario's config value
``seed``, so the synthetic demand and the truth plant both follow it.  The
estimation workload's flow schedule is fixed.
"""

from __future__ import annotations

CLOSED_LOOP_HOURS = 432      # 18 days from ambient; heating starts near hour 370
ESTIMATION_HOURS = 240       # five cycles of the flow schedule per round


def write_scenario(path: str, seed: int) -> None:
    """The scenario config that carries the seed; every other value is a default."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"seed = {seed}\n")


def flow_schedule(u_max: float) -> list[float]:
    """48-hour cycle: cooling, storing, heating and storing, at full and half flow.

    Pumping hours are 32 of every 48 and the schedule does not depend on the
    seed, so the share of pumping hours is the same in every run.
    """
    full = [-u_max] * 8 + [0.0] * 4 + [u_max] * 8 + [0.0] * 4
    half = [-0.5 * u_max] * 8 + [0.0] * 4 + [0.5 * u_max] * 8 + [0.0] * 4
    return full + half
