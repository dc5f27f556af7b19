"""Three-branch piecewise-affine model over the stacked warm+cold state.

The model is one table of affine branches, one per mode in ``MODES`` order,
and the mode is picked by the sign of the flow u (``mode_of``): u > 0 heating
(warm extraction feeds the heat exchanger, which writes the cold borehole
entry one step later), u = 0 storing (both aquifers relax, zero input gain),
u < 0 cooling (the mirror image of heating).

Only a few entries follow the state: the two heat-exchanger rows and the
convection gains ``b``.  Everything else is a per-config template, built once
and copied by each hourly ``build_pwa``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (_convection_gain, _upwind_quotients,
                       build_extraction_system, build_injection_system)
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


# Flow into the cold aquifer is q = u, into the warm one q = -u.
_AQUIFER_FLOW_SIGNS = np.array([[-1.0], [1.0]])
_AQUIFER_FLOW_SIGNS.flags.writeable = False


def build_pwa(grid: RadialGrid, params: AquiferParams, hx: HxParams, dt: float,
              x_ref: np.ndarray, u_ref: float = 0.0) -> PwaModel:
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
    A = A_fixed.copy()
    f = f_fixed.copy()
    b = np.zeros(f.shape)
    quotients = _upwind_quotients(x_ref.reshape(2, m), params.t_amb, grid.dr)
    ex = _convection_gain(grid, params, dt, _AQUIFER_FLOW_SIGNS, quotients[:, 1:])
    inj = _convection_gain(grid, params, dt, _AQUIFER_FLOW_SIGNS, quotients[:, :-1])
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
        b[i, d + 1:d + m] = inj[dst]
        b[i, s] = ex[src, 0]
        b[i, s + 1:s + m] = ex[src]
    return PwaModel(A, b, f, nu=grid.nu)
