"""One aquifer's explicit-Euler step of radial heat transport.

Conduction is a conservative finite-volume stencil on cylindrical shells
whose far-field cell couples to an ambient Dirichlet value.  Convection is
an upwind difference with the gradient frozen at a reference profile, so
the step is affine in the flow u.  The borehole entry depends on the regime:

* extraction/storage: no conductive flux through the inner face, and the
  borehole entry tracks the first cell (zero spatial gradient outflow);
* injection: the borehole entry is written externally (by the heat exchanger),
  the cells conduct and advect against it as a Dirichlet value.

The builders return a regime's conduction rows ``(A, f)`` only, which
``pwa._template`` assembles once per config; ``pwa.build_pwa`` alone forms
the convection gains ``b``, each hour.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import StabilityError
from .grid import AquiferParams, RadialGrid


@functools.cache
def _conduction_stencil(grid: RadialGrid, params: AquiferParams, dt: float,
                        inner_coupled: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cell rows of the conduction update.

    Returns (A_cells, f_cells) with A_cells of shape (nu, nu+1) acting on the
    full per-aquifer state (borehole + cells) and f_cells holding the far-field
    Dirichlet contribution.  ``inner_coupled`` switches the conductive flux
    through the inner face of cell 1 (on during injection, off otherwise).
    The stencil depends only on its arguments, so it is built once per grid,
    parameters and ``dt`` and shared read-only; so is the check that the
    explicit step keeps the diffusion number below 1/2.
    """
    nu = grid.nu
    dr = grid.dr
    lam = params.lam
    number = lam * dt / (params.c_a * dr**2)
    if number >= 0.5:
        raise StabilityError(
            f"diffusion number {number:.3g} >= 0.5 "
            f"(lambda={lam}, dt={dt}, c_a={params.c_a}, dr={dr:.3g})")
    coeff = 2.0 * np.pi * grid.l * lam * dt / (params.c_a * grid.volumes)

    A = np.zeros((nu, nu + 1))
    f = np.zeros(nu)
    A[np.arange(nu), np.arange(1, nu + 1)] = 1.0

    for i in range(nu):  # cell index i, state column i + 1
        c = i + 1
        if i > 0:
            k_in = coeff[i] * grid.edges[i] / dr
            A[i, c] -= k_in
            A[i, c - 1] += k_in
        elif inner_coupled:
            k_in = coeff[i] * grid.edges[0] / (grid.midpoints[0] - grid.r0)
            A[i, c] -= k_in
            A[i, 0] += k_in
        if i < nu - 1:
            k_out = coeff[i] * grid.edges[i + 1] / dr
            A[i, c] -= k_out
            A[i, c + 1] += k_out
        else:
            k_out = coeff[i] * grid.edges[nu] / (grid.r_inf - grid.midpoints[nu - 1])
            A[i, c] -= k_out
            f[i] += k_out * params.t_amb
    A.flags.writeable = False
    f.flags.writeable = False
    return A, f


def _upwind_quotients(profiles: np.ndarray, t_amb: float, dr: float) -> np.ndarray:
    """Difference quotients along one or more per-aquifer profiles ``(..., nu+1)``.

    Each profile is padded with the ambient Dirichlet value past its far
    cell, so entry j is ``(x[j+1] - x[j]) / dr`` for j = 0..nu.  Extraction
    draws fluid inward and upwinds against the outer neighbor, so its cell i
    reads entry i+1 (the far cell sees the ambient value); injection pushes
    outward and upwinds against the inner neighbor, so its cell i reads entry
    i (cell 1 sees the borehole entry).  Boundary cells use the full cell
    spacing so the convection term is the conservative upwind flux difference
    (enthalpy fluxes telescope exactly).
    """
    padded = np.empty(profiles.shape[:-1] + (profiles.shape[-1] + 1,))
    padded[..., :-1] = profiles
    padded[..., -1] = t_amb
    return np.diff(padded, axis=-1) / dr


def _convection_gain(grid: RadialGrid, params: AquiferParams, dt: float,
                     flow_sign: float | np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gain of the cells under frozen gradients ``g (..., nu)``.

    q = flow_sign * u enters the convection term -c_w/(c_a 2 pi r l) * g * q;
    ``flow_sign`` is ±1 or an array broadcasting against ``g``.
    """
    return -dt * params.c_w * flow_sign * g / (
        params.c_a * 2.0 * np.pi * grid.midpoints * grid.l)


def build_extraction_system(grid: RadialGrid, params: AquiferParams,
                            dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Conduction rows ``(A (nu+1, nu+1), f)`` of one aquifer while fluid is
    extracted or stored; the borehole entry follows cell 1, so its row
    copies cell 1's.
    """
    A, f = _conduction_stencil(grid, params, dt, inner_coupled=False)
    return np.vstack([A[:1], A]), np.concatenate([f[:1], f])


def build_injection_system(grid: RadialGrid, params: AquiferParams,
                           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Conduction rows ``(A (nu, nu+1), f)`` of one aquifer's cells while
    fluid is injected; the borehole entry is written by the heat exchanger
    and appears as a regular column of A.
    """
    return _conduction_stencil(grid, params, dt, inner_coupled=True)
