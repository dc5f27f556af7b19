"""Three-branch piecewise-affine model over the stacked warm+cold state.

The model is one table of affine branches, one per mode in ``MODES`` order,
and the mode is picked by the sign of the flow u (``mode_of``): u > 0 heating
(warm extraction feeds the heat exchanger, which writes the cold borehole
entry one step later), u = 0 storing (both aquifers relax, zero input gain),
u < 0 cooling (the mirror image of heating).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import build_extraction_system, build_injection_system
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

    def step(self, x: np.ndarray, u: float) -> np.ndarray:
        """Successor of a state ``(n,)`` or of each row of a stack ``(m, n)``.

        ``np.matvec`` rounds each row like ``A @ row``; ``X @ A.T`` does not.
        """
        return np.matvec(self.A, x) + self.b * u + self.f


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
    advanced under the same flow; shape and finiteness are checked once.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.n:
        raise ParameterError(
            f"stacked state must have length {model.n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("stacked state contains non-finite values")
    if not math.isfinite(u):
        raise ParameterError(f"flow must be finite, got {u}")
    return model.branch(u).step(x, u)


def build_pwa(grid: RadialGrid, params: AquiferParams, hx: HxParams, dt: float,
              x_ref: np.ndarray, u_ref: float = 0.0) -> PwaModel:
    """Rebuild the full PWA model at a prediction instant, in one pass.

    Every branch starts as storing: the two extraction maps side by side,
    with no input gain.  Heating and cooling then replace the injected
    aquifer's rows with its heat-exchanger row (the borehole entry, written
    from the extracted aquifer's borehole) and its injection cell rows, and
    give the extracting aquifer its input gain.

    Frozen convection gradients come from the current state estimate x_ref;
    the heat-exchanger linearizations expand around the estimated
    extraction-side borehole temperatures and the previously applied flow
    (clamped to each mode's sign region).
    """
    x_ref = validate_state(x_ref, grid.nu)
    m = grid.nu + 1
    n = 2 * m
    warm_ref, cold_ref = x_ref[:m], x_ref[m:]
    # Flow into the cold aquifer is q = u, into the warm one q = -u.
    warm_ex = build_extraction_system(grid, params, warm_ref, -1, dt)
    cold_ex = build_extraction_system(grid, params, cold_ref, 1, dt)
    A = np.zeros((len(MODES), n, n))
    b = np.zeros((len(MODES), n))
    f = np.empty((len(MODES), n))
    A[:, :m, :m] = warm_ex.A
    A[:, m:, m:] = cold_ex.A
    f[:, :m] = warm_ex.f
    f[:, m:] = cold_ex.f
    # Heating extracts from the warm aquifer (rows from 0) and injects into
    # the cold one (rows from m); cooling the other way round.
    for mode, ex, src, dst, sign, clamp in (
            ("heating", warm_ex, 0, m, 1, max),
            ("cooling", cold_ex, m, 0, -1, min)):
        i = MODES.index(mode)
        inj = build_injection_system(grid, params, x_ref[dst:dst + m], sign, dt)
        row = linearize_hx(float(x_ref[src]), clamp(u_ref, 0.0), hx, mode)
        b[i, src:src + m] = ex.b
        A[i, dst, dst:dst + m] = 0.0
        A[i, dst, src] = row.a
        b[i, dst] = row.b
        f[i, dst] = row.f
        A[i, dst + 1:dst + m, dst:dst + m] = inj.A
        b[i, dst + 1:dst + m] = inj.b
        f[i, dst + 1:dst + m] = inj.f
    return PwaModel(A, b, f, nu=grid.nu)
