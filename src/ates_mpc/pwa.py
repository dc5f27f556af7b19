"""Three-branch piecewise-affine model over the stacked warm+cold state.

Each aquifer steps by explicit Euler on radial heat transport.  Conduction
is a conservative finite-volume stencil on cylindrical shells whose far-field
cell couples to an ambient Dirichlet value.  Convection is an upwind
difference with the gradient frozen at a reference profile, so the step is
affine in the flow u.  The borehole entry depends on the regime:

* extraction or storing: no conductive flux through the inner face, and the
  borehole entry follows cell 1 (zero spatial gradient outflow);
* injection: the heat exchanger writes the borehole entry, and the cells
  conduct and advect against it as a Dirichlet value.

The model is one table of affine branches, one per mode in ``MODES`` order,
and the mode is picked by the sign of the flow u (``mode_of``): u > 0 heating
(warm extraction feeds the heat exchanger, which writes the cold borehole
entry one step later), u = 0 storing (both aquifers relax, zero input gain),
u < 0 cooling (the mirror image of heating).

Only a few entries follow the state: the two heat-exchanger rows and the
convection gains ``b``.  Everything else is a per-config template, built once
from each regime's conduction rows and copied by each hourly ``build_pwa``.
The flow scale and shell factors of the convection gains are built once per
config too; each hour scales and divides its difference quotients by them in
place.

``pwa_step`` advances one state as ``A @ x`` and a row stack of states (the
filter's sigma points) as one matrix product ``X @ A.T``; the stack's rows
equal single-state steps only to dot-product rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .grid import AquiferParams, RadialGrid, validate_state
from .heat_exchanger import HxParams, linearize_hx


def mode_of(u: float) -> str:
    """Operating mode of a flow, by its sign."""
    return "heating" if u > 0 else ("cooling" if u < 0 else "storing")


# The flow sign of each mode, and the modes in that order.
MODE_SIGNS = (1.0, 0.0, -1.0)
MODES = tuple(map(mode_of, MODE_SIGNS))


@dataclass(frozen=True)
class AffineBranch:
    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PwaModel:
    """One affine branch per mode, stacked in ``MODES`` order.

    In mode i the state steps as x(k+1) = A[i] x(k) + b[i] u(k) + f[i], with
    ``A (3, n, n)``, ``b (3, n)`` and ``f (3, n)`` over the stacked state of
    ``nu`` cells per aquifer.
    """

    A: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    nu: int

    @property
    def n(self) -> int:
        return 2 * (self.nu + 1)

    def branch(self, u: float) -> AffineBranch:
        """The branch of the mode of u; its arrays are views of the stack."""
        i = MODES.index(mode_of(u))
        return AffineBranch(self.A[i], self.b[i], self.f[i])


def pwa_step(model: PwaModel, x: np.ndarray, u: float) -> np.ndarray:
    """Advance the stacked state one sampling period along the branch of sign(u).

    ``x`` is one state ``(n,)`` or a row stack ``(m, n)`` of states, all
    advanced under the same flow; shape and finiteness are checked once.  A
    stack steps as one matrix product, ``x @ A.T``, whose rows agree with
    single-state steps ``A @ row`` to dot-product rounding, not bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.n:
        raise ParameterError(
            f"stacked state must have length {model.n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ParameterError("stacked state contains non-finite values")
    if not math.isfinite(u):
        raise ParameterError(f"flow must be finite, got {u}")
    # MODE_SIGNS is (1, 0, -1), so the branch of u sits at 1 - sign(u).
    # A stack is one BLAS matrix product; it sums each row's terms in
    # another order than ``A @ row``.
    i = 1 - (u > 0) + (u < 0)
    A = model.A[i]
    x_next = x @ A.T if x.ndim == 2 else A @ x
    x_next += model.b[i] * u
    x_next += model.f[i]
    return x_next


@functools.cache
def _conduction_stencil(grid: RadialGrid, params: AquiferParams, dt: float,
                        inner_coupled: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cell rows of the conduction update.

    Returns (A_cells, f_cells) with A_cells of shape (nu, nu+1) acting on the
    full per-aquifer state (borehole + cells) and f_cells holding the far-field
    Dirichlet contribution.  ``inner_coupled`` switches the conductive flux
    through the inner face of cell 1 (on during injection, off otherwise).
    The stencil depends only on its arguments, so it is built once per grid,
    parameters and ``dt`` and shared read-only; so are the checks that
    ``dt`` is positive and finite and that the explicit step keeps the
    diffusion number below 1/2.
    """
    # Written so that a NaN fails it too.
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"time step must be positive and finite, got {dt}")
    nu = grid.nu
    dr = grid.dr
    lam = params.lam
    number = lam * dt / (params.c_a * dr**2)
    if number >= 0.5:
        raise ParameterError(
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


@functools.cache
def _template(grid: RadialGrid, params: AquiferParams,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``A (3, n, n)`` and ``f (3, n)`` of the three branches, read-only.

    Every entry but the heat-exchanger rows' is fixed by the grid, the
    parameters and ``dt``, so the table is built once per triple from the
    per-aquifer conduction rows and shared.  Every branch starts as storing:
    the two extraction maps side by side.  Heating and cooling then replace
    the injected aquifer's rows with its injection cell rows and a
    heat-exchanger row left at zero, which ``build_pwa`` fills each hour.
    """
    m = grid.nu + 1
    n = 2 * m
    ex_A, ex_f = build_extraction_system(grid, params, dt)
    inj_A, inj_f = build_injection_system(grid, params, dt)
    A = np.zeros((len(MODES), n, n))
    f = np.empty((len(MODES), n))
    A[:, :m, :m] = ex_A
    A[:, m:, m:] = ex_A
    f[:, :m] = ex_f
    f[:, m:] = ex_f
    for mode, dst in (("heating", m), ("cooling", 0)):
        i = MODES.index(mode)
        A[i, dst, dst:dst + m] = 0.0
        f[i, dst] = 0.0
        A[i, dst + 1:dst + m, dst:dst + m] = inj_A
        f[i, dst + 1:dst + m] = inj_f
    A.flags.writeable = False
    f.flags.writeable = False
    return A, f


@functools.cache
def _convection_factors(grid: RadialGrid, params: AquiferParams,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-aquifer flow scale ``(2, 1)`` and shell factors ``(nu,)`` of the
    convection gains, built once per grid, parameters and ``dt``, read-only."""
    scale = -dt * params.c_w * np.array([[-1.0], [1.0]])
    shells = params.c_a * 2.0 * np.pi * grid.midpoints * grid.l
    scale.flags.writeable = False
    shells.flags.writeable = False
    return scale, shells


def build_pwa(grid: RadialGrid, params: AquiferParams, hx: HxParams, dt: float,
              x_ref: np.ndarray, u_ref: float) -> PwaModel:
    """Rebuild the full PWA model at a prediction instant.

    ``A`` and ``f`` start as copies of the per-config template
    (``_template``); only the hour's pieces are formed here.  The two
    heat-exchanger rows set the injected borehole entry from the extracted
    one; they expand around the estimated extraction-side borehole
    temperature and the previously applied flow, clamped to each mode's sign
    region.  ``b`` holds the convection gains under gradients frozen at the
    current state estimate ``x_ref``: one upwind difference over both
    aquifers' profiles serves the extraction and the injection gains.  The
    storing branch has no input gain.
    """
    x_ref = validate_state(x_ref, grid.nu)
    if not math.isfinite(u_ref):
        raise ParameterError(f"expansion flow must be finite, got {u_ref}")
    m = grid.nu + 1
    A_fixed, f_fixed = _template(grid, params, dt)
    scale, shells = _convection_factors(grid, params, dt)
    A = A_fixed.copy()
    f = f_fixed.copy()
    b = np.zeros(f.shape)
    # Difference quotients along both profiles, each padded with the ambient
    # value past its far cell: entry j is (x[j+1] - x[j]) / dr, j = 0..nu.
    padded = np.empty((2, m + 1))
    padded[:, :m] = x_ref.reshape(2, m)
    padded[:, m] = params.t_amb
    quotients = padded[:, 1:] - padded[:, :-1]
    quotients /= grid.dr
    # Flow q = -u enters the warm aquifer and q = u the cold one, and its
    # convection term is -c_w/(c_a 2 pi r l) * g * q.
    quotients *= scale
    # Extraction draws fluid inward and upwinds against the outer neighbour,
    # so cell i reads entry i+1 (the far cell sees the ambient value).
    # Injection pushes outward and upwinds against the inner neighbour, so
    # cell i reads entry i (cell 1 sees the borehole entry).  Boundary cells
    # use the full spacing, so the enthalpy fluxes telescope exactly.
    # Heating extracts from the warm aquifer (0, rows from 0) and injects
    # into the cold one (1, rows from m); cooling the other way round.  The
    # extracted aquifer's borehole entry follows its cell 1, and so does its
    # gain.
    for mode, src, dst, clamp in (("heating", 0, 1, max), ("cooling", 1, 0, min)):
        i = MODES.index(mode)
        s, d = src * m, dst * m
        row = linearize_hx(float(x_ref[s]), clamp(u_ref, 0.0), hx, mode)
        A[i, d, s] = row.a
        f[i, d] = row.f
        b[i, d] = row.b
        np.divide(quotients[dst, :-1], shells, out=b[i, d + 1:d + m])
        np.divide(quotients[src, 1:], shells, out=b[i, s + 1:s + m])
        b[i, s] = b[i, s + 1]
    return PwaModel(A, b, f, nu=grid.nu)
