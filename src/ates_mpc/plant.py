"""Ground-truth plant: nonlinear radial heat transport on a fine grid.

Deliberately richer than the prediction model: spatially heterogeneous
conduction (harmonic-mean face values), temporally perturbed far-field
temperature, the nonlinear heat-exchanger coupling applied every substep, and
noisy point sensors.  Explicit sub-stepping keeps the diffusion number and the
advection CFL inside their stability limits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ScenarioError
from .grid import AquiferParams, RadialGrid, build_grid
from .heat_exchanger import HxParams, hx_outlet_temp

_DIFFUSION_LIMIT = 0.25
_CFL_LIMIT = 0.5
_MAX_SUBSTEPS = 10_000


@dataclass(frozen=True)
class TruthConfig:
    nu_fine: int = 200
    lambda_bounds: tuple[float, float] = (3.0, 5.0)
    t_amb_noise_amp: float = 0.1
    sensor_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.lambda_bounds
        if not (0.0 < lo <= hi):
            raise ParameterError(f"lambda bounds must be ordered positive, got {self.lambda_bounds}")


@dataclass
class TruthState:
    grid: RadialGrid
    params: AquiferParams
    cfg: TruthConfig
    warm: np.ndarray            # borehole entry + fine cells
    cold: np.ndarray
    lam_warm: np.ndarray        # per-cell conduction coefficients
    lam_cold: np.ndarray
    # Face conductances of each aquifer (``_conductances``) and the largest
    # conduction coefficient, fixed by the lambda field at init_truth.
    k_warm: tuple[np.ndarray, float, float]
    k_cold: tuple[np.ndarray, float, float]
    lam_max: float
    t_amb_current: float
    clock: float = 0.0
    boundary_energy: float = 0.0
    dmp_violation: float = 0.0  # worst audit excess seen so far [K]
    sensor_cells: tuple[int, int] = (0, 0)
    rng_t_amb: np.random.Generator = field(default=None, repr=False)
    rng_sensor: np.random.Generator = field(default=None, repr=False)

    def internal_energy(self) -> float:
        """Stored internal energy of both aquifers' cells [J]."""
        c_a = self.params.c_a
        v = self.grid.volumes
        return float(c_a * (v @ self.warm[1:] + v @ self.cold[1:]))


def fine_grid(coarse: RadialGrid, nu_fine: int) -> RadialGrid:
    return build_grid(coarse.r0, coarse.r_inf, nu_fine, coarse.l)


def init_truth(cfg: TruthConfig, coarse: RadialGrid, params: AquiferParams) -> TruthState:
    """Uniform ambient fields with a seeded heterogeneous conduction field."""
    if cfg.nu_fine < coarse.nu:
        raise ScenarioError(
            f"fine grid must be at least as fine as the prediction grid "
            f"({cfg.nu_fine} < {coarse.nu})")
    grid = fine_grid(coarse, cfg.nu_fine)
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_lambda = np.random.default_rng(seeds[0])
    lo, hi = cfg.lambda_bounds
    lam_warm = rng_lambda.uniform(lo, hi, cfg.nu_fine)
    lam_cold = rng_lambda.uniform(lo, hi, cfg.nu_fine)
    m = grid.nu + 1
    # Far-field sensors sit at the coarse model's last cell midpoint.
    far_radius = coarse.midpoints[-1]
    far_cell = 1 + int(np.argmin(np.abs(grid.midpoints - far_radius)))
    return TruthState(
        grid=grid, params=params, cfg=cfg,
        warm=np.full(m, params.t_amb), cold=np.full(m, params.t_amb),
        lam_warm=lam_warm, lam_cold=lam_cold,
        k_warm=_conductances(lam_warm, grid),
        k_cold=_conductances(lam_cold, grid),
        lam_max=float(max(lam_warm.max(), lam_cold.max())),
        t_amb_current=params.t_amb,
        sensor_cells=(0, far_cell),
        rng_t_amb=np.random.default_rng(seeds[1]),
        rng_sensor=np.random.default_rng(seeds[2]),
    )


def _substep_count(state: TruthState, u: float, dt: float) -> int:
    grid = state.grid
    p = state.params
    dr = grid.dr
    diff_rate = state.lam_max / (p.c_a * dr**2)
    # Advection speed is retarded by c_w/c_a; the tightest cell pairs the
    # largest velocity (smallest radius) with the half-spacing at the borehole.
    v_eff = (p.c_w / p.c_a) * abs(u) / (2.0 * np.pi * grid.midpoints[0] * grid.l)
    adv_rate = v_eff / (0.5 * dr)
    n_sub = max(1, int(np.ceil(dt * diff_rate / _DIFFUSION_LIMIT)),
                int(np.ceil(dt * adv_rate / _CFL_LIMIT)))
    if n_sub > _MAX_SUBSTEPS:
        raise ScenarioError(f"CFL requires {n_sub} substeps (cap {_MAX_SUBSTEPS})")
    return n_sub


def _conductances(lam: np.ndarray, grid: RadialGrid
                  ) -> tuple[np.ndarray, float, float]:
    """Conductance factors of the interior faces (harmonic-mean lambda), the
    far face and the borehole face: lambda * 2 pi l * r_edge [W m^-1 K^-1 m]."""
    two_pi_l = 2.0 * np.pi * grid.l
    lam_face = 2.0 * lam[:-1] * lam[1:] / (lam[:-1] + lam[1:])
    k_face = lam_face * two_pi_l * grid.edges[1:-1]
    k_face.flags.writeable = False
    return (k_face, lam[-1] * two_pi_l * grid.edges[-1],
            lam[0] * two_pi_l * grid.edges[0])


def _cell_rates(field_vals: np.ndarray, k: tuple[np.ndarray, float, float],
                grid: RadialGrid, params: AquiferParams, q: float, t_far: float,
                injecting: bool) -> tuple[np.ndarray, float, float]:
    """dT/dt of the cells plus boundary conduction fluxes (into the domain, W).

    ``k`` is ``_conductances`` of the aquifer's lambda field.
    """
    t = field_vals[1:]
    t0 = field_vals[0]
    dr = grid.dr
    two_pi_l = 2.0 * np.pi * grid.l
    c_a = params.c_a
    k_face, k_far, k_bh = k

    # flux[j]: conduction through edge j in the direction of growing r, so the
    # net gain of cell i is flux[i+1] - flux[i].
    flux = np.zeros(grid.nu + 1)
    flux[1:-1] = k_face * (t[1:] - t[:-1]) / dr
    flux[-1] = k_far * (t_far - t[-1]) / (0.5 * dr)
    cond_far = float(flux[-1])
    cond_bh = 0.0
    if injecting:
        flux[0] = k_bh * (t[0] - t0) / (0.5 * dr)
        cond_bh = float(-flux[0])
    rates = (flux[1:] - flux[:-1]) / (c_a * grid.volumes)

    if q != 0.0:
        # Conservative upwind advection: the volume flow q is radius-free, so
        # the enthalpy flux through a face is c_w * q * T_upwind and cell
        # gains telescope exactly (V_i = 2 pi r_i dr l makes v_i/dr the same
        # as q / (c_a V_i) up to c_w).
        v = q / (two_pi_l * grid.midpoints)  # 2 pi r l v = q
        retard = params.c_w / c_a
        grad = np.empty(grid.nu)
        if q > 0.0:  # outward flow, upwind is the inner neighbor
            grad[0] = (t[0] - t0) / dr
            grad[1:] = (t[1:] - t[:-1]) / dr
        else:        # inward flow, upwind is the outer neighbor
            grad[:-1] = (t[1:] - t[:-1]) / dr
            grad[-1] = (t_far - t[-1]) / dr
        rates = rates - retard * v * grad
    return rates, cond_far, cond_bh


def _audit_dmp(t_old: np.ndarray, t_new: np.ndarray, t0: float, t_far: float) -> float:
    """Worst excess of new cell values over the local stencil envelope [K]."""
    padded = np.concatenate([[t0], t_old, [t_far]])
    lo = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
    hi = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    return float(max(0.0, np.max(t_new - hi), np.max(lo - t_new)))


def truth_step(state: TruthState, u: float, hx: HxParams, dt: float = 3600.0,
               audit: bool = False) -> TruthState:
    """Advance both aquifers by one sampling period with explicit substeps."""
    if not np.isfinite(u):
        raise ParameterError(f"flow must be finite, got {u}")
    cfg = state.cfg
    p = state.params
    grid = state.grid

    if cfg.t_amb_noise_amp > 0.0:
        state.t_amb_current = p.t_amb + state.rng_t_amb.uniform(
            -cfg.t_amb_noise_amp, cfg.t_amb_noise_amp)
    else:
        state.t_amb_current = p.t_amb
    t_far = state.t_amb_current

    n_sub = _substep_count(state, u, dt)
    dt_sub = dt / n_sub
    q_warm, q_cold = -u, u
    mode_heating = u > 0.0
    mode_cooling = u < 0.0

    for _ in range(n_sub):
        # Extraction temperatures feed the nonlinear HX, which sets the
        # injection Dirichlet value of the opposite aquifer this substep.
        if mode_heating:
            state.warm[0] = state.warm[1]
            t_inj_cold = hx_outlet_temp(state.warm[0], u, hx.q_b, hx.t_b("heating"))
            state.cold[0] = t_inj_cold
        elif mode_cooling:
            state.cold[0] = state.cold[1]
            t_inj_warm = hx_outlet_temp(state.cold[0], u, hx.q_b, hx.t_b("cooling"))
            state.warm[0] = t_inj_warm
        else:
            state.warm[0] = state.warm[1]
            state.cold[0] = state.cold[1]

        for field_vals, k, q, injecting in (
                (state.warm, state.k_warm, q_warm, mode_cooling),
                (state.cold, state.k_cold, q_cold, mode_heating)):
            rates, cond_far, cond_bh = _cell_rates(field_vals, k, grid, p, q,
                                                   t_far, injecting)
            t_new = field_vals[1:] + dt_sub * rates
            if audit:
                excess = _audit_dmp(field_vals[1:], t_new, field_vals[0], t_far)
                state.dmp_violation = max(state.dmp_violation, excess)
            # Enthalpy crosses each boundary face at its upwind temperature:
            # the borehole entry, and the last cell or t_far at the far face.
            t_out = field_vals[-1] if q > 0.0 else t_far
            enthalpy = p.c_w * q * (field_vals[0] - t_out)
            state.boundary_energy += dt_sub * (enthalpy + cond_far + cond_bh)
            field_vals[1:] = t_new

        # Keep zero-gradient borehole entries in sync with their first cell.
        if mode_heating:
            state.warm[0] = state.warm[1]
        elif mode_cooling:
            state.cold[0] = state.cold[1]
        else:
            state.warm[0] = state.warm[1]
            state.cold[0] = state.cold[1]

    state.clock += dt
    return state


def measure(state: TruthState, noise_stream: np.random.Generator | None = None
            ) -> np.ndarray:
    """Noisy sensor readings: (warm r0, warm far, cold r0, cold far)."""
    bh, far = state.sensor_cells
    values = np.array([state.warm[bh], state.warm[far],
                       state.cold[bh], state.cold[far]])
    rng = state.rng_sensor if noise_stream is None else noise_stream
    if state.cfg.sensor_sigma > 0.0:
        values = values + rng.normal(0.0, state.cfg.sensor_sigma, 4)
    return values


@functools.cache
def _overlap_weights(fine: RadialGrid, coarse: RadialGrid) -> np.ndarray:
    """Shell-volume overlap matrix W (coarse cells x fine cells), rows sum to 1.

    Built once per pair of grids and shared read-only.
    """
    a = np.maximum(coarse.edges[:-1, None], fine.edges[None, :-1])
    b = np.minimum(coarse.edges[1:, None], fine.edges[None, 1:])
    overlap = np.clip(b, a, None) ** 2 - a**2  # ∝ shell volume of overlap
    W = np.where(b > a, overlap, 0.0)
    W = W / W.sum(axis=1, keepdims=True)
    W.flags.writeable = False
    return W


def restrict_to_coarse(state: TruthState, coarse: RadialGrid) -> np.ndarray:
    """Volume-average the fine fields into the coarse cell shells (stacked layout).

    Finite-volume states are shell averages, so the consistent restriction
    averages each coarse shell's fine cells by overlap volume; a pointwise
    sample would misrepresent fronts thinner than a coarse cell.  Borehole
    entries carry over directly.
    """
    W = _overlap_weights(state.grid, coarse)
    warm = np.concatenate([[state.warm[0]], W @ state.warm[1:]])
    cold = np.concatenate([[state.cold[0]], W @ state.cold[1:]])
    return np.concatenate([warm, cold])
