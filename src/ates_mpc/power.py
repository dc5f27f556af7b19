"""Delivered power in bilinear and state-linear form, plus the energy ledger.

The bilinear form meters the enthalpy carried between the boreholes; the
state-linear form re-expresses the same power through the change of stored
internal energy plus the far-field conduction loss, which keeps the MPC cost
quadratic.  The ledger accumulates the running energy balance from the
bilinear (metered) power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import AquiferParams, RadialGrid, validate_state

J_PER_MWH = 3.6e9


def power_bilinear(x: np.ndarray, u: float, c_w: float) -> float:
    """Delivered power c_w * u * (warm borehole - cold borehole) in watts."""
    x = np.asarray(x, dtype=float)
    nu = x.size // 2 - 1
    return float(c_w * u * (x[0] - x[nu + 1]))


def storage_weights(grid: RadialGrid) -> np.ndarray:
    """Volume weights pairing each per-aquifer state entry in the linear power form.

    The borehole entry carries the water column inside the well; the cells
    carry their exact shell volumes.
    """
    well = np.pi * grid.r0**2 * grid.l
    return np.concatenate([[well], grid.volumes])


def power_linear(x_now: np.ndarray, x_next: np.ndarray, grid: RadialGrid,
                 params: AquiferParams, dt: float) -> float:
    """State-linear delivered power: far-field loss minus stored-energy change."""
    nu = grid.nu
    x_now = validate_state(x_now, nu)
    x_next = validate_state(x_next, nu)
    m = nu + 1
    loss = (params.lam * 2.0 * np.pi * grid.r_inf * grid.l
            * (2.0 * params.t_amb - x_now[m - 1] - x_now[2 * m - 1])
            / (grid.r_inf - grid.midpoints[-1]))
    w = storage_weights(grid)
    delta = (x_next[:m] - x_now[:m]) + (x_next[m:] - x_now[m:])
    storage = float(np.dot(params.c_a * w / dt, delta))
    return loss - storage


@dataclass
class EnergyLedger:
    """Running energy balance B_past [J], the only figure the controller
    reads, and the time [s] of the last booked step, which must grow."""

    dt: float
    b_past: float = 0.0
    t_last: float = -math.inf


def update_balance(ledger: EnergyLedger, p: float, t: float) -> EnergyLedger:
    """Book one step of delivered (bilinear) power p [W] ending at time t.

    A time that does not exceed the last booked one is rejected and books
    nothing.
    """
    if not t > ledger.t_last:
        raise ParameterError(
            f"time must be strictly increasing, got {t} after {ledger.t_last}")
    ledger.b_past += p * ledger.dt
    ledger.t_last = t
    return ledger
