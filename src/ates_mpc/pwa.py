"""Three-branch piecewise-affine model over the stacked warm+cold state.

Branch selection is by the sign of the flow u: u > 0 heating (warm extraction
feeds the heat exchanger, which writes the cold borehole entry one step
later), u = 0 storing (both aquifers relax, zero input gain), u < 0 cooling
(the mirror image of heating).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AffineSubsystem, build_extraction_system, build_injection_system
from .errors import AssemblyError, ParameterError
from .grid import AquiferParams, RadialGrid, validate_state
from .heat_exchanger import HxLinearization, HxParams, linearize_hx


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
    branch_heating: AffineBranch
    branch_storing: AffineBranch
    branch_cooling: AffineBranch
    nu: int

    @property
    def n(self) -> int:
        return 2 * (self.nu + 1)

    def branch(self, u: float) -> AffineBranch:
        if u > 0.0:
            return self.branch_heating
        if u < 0.0:
            return self.branch_cooling
        return self.branch_storing


def assemble_pwa(warm_ex: AffineSubsystem, warm_inj: AffineSubsystem,
                 cold_ex: AffineSubsystem, cold_inj: AffineSubsystem,
                 hx_heat: HxLinearization, hx_cool: HxLinearization) -> PwaModel:
    """Stack aquifer subsystems and heat-exchanger rows into the three branches."""
    m = warm_ex.rows
    nu = m - 1
    n = 2 * m
    if cold_ex.rows != m or warm_inj.rows != nu or cold_inj.rows != nu:
        raise AssemblyError(
            f"inconsistent subsystem dimensions: warm_ex {warm_ex.rows}, "
            f"cold_ex {cold_ex.rows}, warm_inj {warm_inj.rows}, cold_inj {cold_inj.rows}")

    w = slice(0, m)
    c = slice(m, n)

    # Heating: warm extraction rows, HX row writing the cold borehole from the
    # warm borehole, cold injection cell rows.
    A1 = np.zeros((n, n))
    b1 = np.zeros(n)
    f1 = np.zeros(n)
    A1[w, w] = warm_ex.A
    b1[w] = warm_ex.b
    f1[w] = warm_ex.f
    A1[m, 0] = hx_heat.a
    b1[m] = hx_heat.b
    f1[m] = hx_heat.f
    A1[m + 1:, c] = cold_inj.A
    b1[m + 1:] = cold_inj.b
    f1[m + 1:] = cold_inj.f

    # Storing: block-diagonal extraction maps, no input gain.
    A2 = np.zeros((n, n))
    f2 = np.zeros(n)
    A2[w, w] = warm_ex.A
    A2[c, c] = cold_ex.A
    f2[:m] = warm_ex.f
    f2[m:] = cold_ex.f

    # Cooling: HX row writing the warm borehole from the cold borehole, warm
    # injection cell rows, cold extraction rows.
    A3 = np.zeros((n, n))
    b3 = np.zeros(n)
    f3 = np.zeros(n)
    A3[0, m] = hx_cool.a
    b3[0] = hx_cool.b
    f3[0] = hx_cool.f
    A3[1:m, w] = warm_inj.A
    b3[1:m] = warm_inj.b
    f3[1:m] = warm_inj.f
    A3[c, c] = cold_ex.A
    b3[m:] = cold_ex.b
    f3[m:] = cold_ex.f

    return PwaModel(AffineBranch(A1, b1, f1), AffineBranch(A2, np.zeros(n), f2),
                    AffineBranch(A3, b3, f3), nu=nu)


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
    """Rebuild the full PWA model at a prediction instant.

    Frozen convection gradients come from the current state estimate x_ref;
    the heat-exchanger linearizations expand around the estimated
    extraction-side borehole temperatures and the previously applied flow
    (clamped to each mode's sign region).
    """
    x_ref = validate_state(x_ref, grid.nu)
    warm_ref, cold_ref = x_ref[:grid.nu + 1], x_ref[grid.nu + 1:]
    # Flow into the cold aquifer is q = u, into the warm one q = -u.
    warm_ex = build_extraction_system(grid, params, warm_ref, -1, dt)
    warm_inj = build_injection_system(grid, params, warm_ref, -1, dt)
    cold_ex = build_extraction_system(grid, params, cold_ref, 1, dt)
    cold_inj = build_injection_system(grid, params, cold_ref, 1, dt)
    hx_heat = linearize_hx(float(warm_ref[0]), max(u_ref, 0.0), hx, "heating")
    hx_cool = linearize_hx(float(cold_ref[0]), min(u_ref, 0.0), hx, "cooling")
    return assemble_pwa(warm_ex, warm_inj, cold_ex, cold_inj, hx_heat, hx_cool)
