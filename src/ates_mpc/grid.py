"""Radial geometry, physical parameters and the stacked state layout.

The state vector convention used everywhere: for a grid with ``nu`` cells each
aquifer contributes ``nu + 1`` temperatures (borehole value first, then the
cell midpoints), and the stacked state is ``[warm, cold]`` with length
``2 * (nu + 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class RadialGrid:
    """Uniformly spaced 1-D radial grid for one aquifer.

    The read-only arrays are derived from the four scalars by ``build_grid``,
    so a grid compares and hashes by ``(r0, r_inf, nu, l)`` and can key the
    per-grid operator caches.
    """

    r0: float
    r_inf: float
    nu: int
    l: float
    edges: np.ndarray = field(repr=False, compare=False)
    midpoints: np.ndarray = field(repr=False, compare=False)
    volumes: np.ndarray = field(repr=False, compare=False)

    @property
    def dr(self) -> float:
        return (self.r_inf - self.r0) / self.nu

    @property
    def n_states(self) -> int:
        """Stacked warm+cold state dimension, 2 * (nu + 1)."""
        return 2 * (self.nu + 1)


def build_grid(r0: float, r_inf: float, nu: int, l: float) -> RadialGrid:
    """Build a uniformly spaced radial grid with exact cylindrical-shell volumes."""
    if not (0.0 < r0 < r_inf):
        raise ParameterError(f"need 0 < r0 < r_inf, got r0={r0}, r_inf={r_inf}")
    if nu < 1:
        raise ParameterError(f"cell count must be >= 1, got {nu}")
    if not l > 0.0:  # a NaN fails it too
        raise ParameterError(f"filter length must be positive, got {l}")
    edges = np.linspace(r0, r_inf, nu + 1)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    volumes = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2) * l
    for arr in (edges, midpoints, volumes):
        arr.flags.writeable = False
    return RadialGrid(float(r0), float(r_inf), int(nu), float(l),
                      edges=edges, midpoints=midpoints, volumes=volumes)


@dataclass(frozen=True)
class AquiferParams:
    """Effective and water volumetric heat capacities, conduction and
    ambient temperature."""

    c_a: float
    c_w: float
    lam: float
    t_amb: float

    def __post_init__(self):
        # Written so that a NaN fails the checks too.
        if not all(v > 0.0 for v in (self.c_a, self.c_w, self.lam)):
            raise ParameterError("heat capacities and conduction coefficient must be positive")
        if not (math.isfinite(self.t_amb) and self.t_amb > 0.0):
            raise ParameterError(
                f"ambient temperature must be finite and positive, got {self.t_amb}")

    @classmethod
    def from_constituents(cls, phi: float, c_w: float, c_r: float,
                          lam: float, t_amb: float) -> "AquiferParams":
        return cls(effective_heat_capacity(phi, c_w, c_r), c_w, lam, t_amb)


def effective_heat_capacity(phi: float, c_w: float, c_r: float) -> float:
    """Porosity-weighted mix of water and rock volumetric heat capacities."""
    # Written so that a NaN fails the checks too.
    if not (0.0 <= phi <= 1.0):
        raise ParameterError(f"porosity must lie in [0, 1], got {phi}")
    if not (c_w > 0.0 and c_r > 0.0):
        raise ParameterError("water and rock heat capacities must be positive")
    return phi * c_w + (1.0 - phi) * c_r


def validate_state(x: np.ndarray, nu: int) -> np.ndarray:
    """Check length 2*(nu+1) and finiteness; returns the array as float."""
    x = np.asarray(x, dtype=float)
    n = 2 * (nu + 1)
    if x.shape != (n,):
        raise ParameterError(f"stacked state must have length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("stacked state contains non-finite values")
    return x
