"""Ground-truth plant: nonlinear radial heat transport on a fine grid.

Deliberately richer than the prediction model: spatially heterogeneous
conduction (harmonic-mean face values), temporally perturbed far-field
temperature, the nonlinear heat-exchanger coupling applied every substep, and
noisy point sensors.  Explicit sub-stepping keeps the diffusion number and the
advection CFL inside their stability limits.

Both aquifers share one padded array, row 0 warm and row 1 cold, each row
holding its borehole entry, its fine cells and the hour's far-field
temperature.  Each substep is one conservative upwind pass along the
flattened array, whose padding columns keep the rows apart: a three-point
increment whose weights (conduction plus upwind advection) are fixed for
the hour, so they are formed once per hour and each substep only takes the
edge differences and adds their weighted sum.  The optional
discrete-maximum-principle audit checks every new cell value against the
envelope of its old three-point stencil on the same array.
"""

from __future__ import annotations

import functools
import math
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
    nu_fine: int
    lambda_bounds: tuple[float, float]
    t_amb_noise_amp: float
    sensor_sigma: float
    seed: int

    def __post_init__(self):
        lo, hi = self.lambda_bounds
        if not (0.0 < lo <= hi):
            raise ParameterError(f"lambda bounds must be ordered positive, got {self.lambda_bounds}")
        if not (self.t_amb_noise_amp >= 0.0 and self.sensor_sigma >= 0.0):
            raise ParameterError(
                f"noise amplitude and sensor sigma must be nonnegative, got "
                f"{self.t_amb_noise_amp!r} and {self.sensor_sigma!r}")


@dataclass
class TruthState:
    grid: RadialGrid
    params: AquiferParams
    cfg: TruthConfig
    # Both aquifers on one padded array, row 0 warm and row 1 cold: column 0
    # is the borehole entry, columns 1..nu the fine cells and the last column
    # the far-field temperature of the current hour.
    fields: np.ndarray
    lam_warm: np.ndarray        # per-cell conduction coefficients
    lam_cold: np.ndarray
    # Conductance over dr of every edge of fields.ravel() (``_conductances``),
    # the cells' heat capacities c_a * V on its interior and the largest
    # conduction coefficient, fixed by the grid and the lambda field at
    # init_truth.
    k_edge: np.ndarray
    heat_capacity: np.ndarray
    lam_max: float
    boundary_energy: float = 0.0
    dmp_violation: float = 0.0  # worst audit excess seen so far [K]
    sensor_cells: tuple[int, int] = (0, 0)
    rng_t_amb: np.random.Generator = field(default=None, repr=False)
    rng_sensor: np.random.Generator = field(default=None, repr=False)

    @property
    def warm(self) -> np.ndarray:
        """Warm aquifer's borehole entry + fine cells (a writable view)."""
        return self.fields[0, :-1]

    @property
    def cold(self) -> np.ndarray:
        """Cold aquifer's borehole entry + fine cells (a writable view)."""
        return self.fields[1, :-1]

    def internal_energy(self) -> float:
        """Stored internal energy of both aquifers' cells [J]."""
        c_a = self.params.c_a
        v = self.grid.volumes
        return float(c_a * (v @ self.warm[1:] + v @ self.cold[1:]))


def init_truth(cfg: TruthConfig, coarse: RadialGrid, params: AquiferParams) -> TruthState:
    """Uniform ambient fields with a seeded heterogeneous conduction field."""
    if cfg.nu_fine < coarse.nu:
        raise ScenarioError(
            f"fine grid must be at least as fine as the prediction grid "
            f"({cfg.nu_fine} < {coarse.nu})")
    # The far field is drawn from t_amb +- amp; one at or below 0 K is no
    # temperature.
    if not cfg.t_amb_noise_amp < params.t_amb:
        raise ScenarioError(
            f"ambient noise amplitude must be below the ambient temperature "
            f"({cfg.t_amb_noise_amp} >= {params.t_amb})")
    grid = build_grid(coarse.r0, coarse.r_inf, cfg.nu_fine, coarse.l)
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_lambda = np.random.default_rng(seeds[0])
    lo, hi = cfg.lambda_bounds
    lam_warm = rng_lambda.uniform(lo, hi, cfg.nu_fine)
    lam_cold = rng_lambda.uniform(lo, hi, cfg.nu_fine)
    # Far-field sensors sit at the coarse model's last cell midpoint.
    far_radius = coarse.midpoints[-1]
    far_cell = 1 + int(np.argmin(np.abs(grid.midpoints - far_radius)))
    return TruthState(
        grid=grid, params=params, cfg=cfg,
        fields=np.full((2, grid.nu + 2), params.t_amb),
        lam_warm=lam_warm, lam_cold=lam_cold,
        k_edge=_conductances(np.stack([lam_warm, lam_cold]), grid),
        # Any nonzero padding will do: the padding's increment
        # coefficients are 0.
        heat_capacity=_interior(params.c_a * grid.volumes, pad=1.0),
        lam_max=float(max(lam_warm.max(), lam_cold.max())),
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
    v_eff = (p.c_w / p.c_a) * abs(u) / (2.0 * np.pi * grid.midpoints.item(0) * grid.l)
    adv_rate = v_eff / (0.5 * dr)
    n_sub = max(1, math.ceil(dt * diff_rate / _DIFFUSION_LIMIT),
                math.ceil(dt * adv_rate / _CFL_LIMIT))
    if n_sub > _MAX_SUBSTEPS:
        raise ScenarioError(f"CFL requires {n_sub} substeps (cap {_MAX_SUBSTEPS})")
    return n_sub


# The stencil runs along fields.ravel(): each row's padding columns (borehole
# entry, t_far) separate the two aquifers, so one pass over the flat array
# serves both.  Edge e joins flat entries e and e + 1; row r's borehole face is
# edge r * (nu + 2) and its far face edge r * (nu + 2) + nu, and edge nu + 1
# (warm t_far to cold entry) is the seam between the rows.  The interior,
# flat[1:-1], holds both rows' cells with two padding entries between them.

def _interior(cells: np.ndarray, pad: float) -> np.ndarray:
    """Per-cell rows laid out like fields.ravel()[1:-1], ``pad`` between them."""
    out = np.full((2, cells.shape[-1] + 2), pad)
    out[:, 1:-1] = cells
    out.flags.writeable = False
    return out.ravel()[1:-1]


def _conductances(lam: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Conductance factors of stacked lambda rows over one spacing dr, per edge
    of fields.ravel(): lambda * 2 pi l * r_edge [W m^-1 K^-1 m], harmonic-mean
    lambda on interior faces, 0 on the seam.

    The borehole and far faces conduct over half a spacing and so carry twice
    their factor: (2 k) * dT / dr rounds exactly like k * dT / (0.5 dr).
    """
    two_pi_l = 2.0 * np.pi * grid.l
    lam_face = 2.0 * lam[:, :-1] * lam[:, 1:] / (lam[:, :-1] + lam[:, 1:])
    k = np.zeros((2, grid.nu + 2))
    k[:, 0] = 2.0 * (lam[:, 0] * two_pi_l * grid.edges[0])
    k[:, 1:-2] = lam_face * two_pi_l * grid.edges[1:-1]
    k[:, -2] = 2.0 * (lam[:, -1] * two_pi_l * grid.edges[-1])
    k.flags.writeable = False
    return k.ravel()[:-1]


def _increment_coefficients(state: TruthState, u: float,
                            dt_sub: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge weights of one substep over the interior of fields.ravel().

    A substep adds ``c_out * d[1:] - c_in * d[:-1]`` to the interior, where
    d is the fields' difference across each edge: conduction through each
    cell's outer and inner edges, dt_sub k / (dr C), plus the upwind
    advection weight (dt_sub / dr)(c_w / c_a)|v| on the edge the water comes
    through, the outer one of the extracting row and the inner one of the
    injecting row.  Both are 0 on the padding, which keeps its value.

    The advection is conservative: the volume flow q is radius-free, so the
    enthalpy flux through a face is c_w * q * T_upwind and cell gains
    telescope exactly (V_i = 2 pi r_i dr l makes v_i / dr the same as
    q / (c_a V_i) up to c_w).
    """
    p = state.params
    grid = state.grid
    nu, dr = grid.nu, grid.dr
    k_edge, heat_capacity = state.k_edge, state.heat_capacity
    c_out = k_edge[1:] * dt_sub / (dr * heat_capacity)
    c_in = k_edge[:-1] * dt_sub / (dr * heat_capacity)
    c_out[nu:nu + 2] = 0.0
    c_in[nu:nu + 2] = 0.0
    if u != 0.0:
        # The water velocity is v = q / (2 pi r l) with q = (-u, u): inward
        # (v < 0) in the extracting row, outward in the injecting one.
        v = np.array([[-u], [u]]) / (2.0 * np.pi * grid.l * grid.midpoints)
        w = _interior((dt_sub / dr) * (p.c_w / p.c_a) * v, pad=0.0)
        c_out -= np.minimum(w, 0.0)
        c_in += np.maximum(w, 0.0)
    return c_out, c_in


def truth_step(state: TruthState, u: float, hx: HxParams, dt: float,
               audit: bool = False) -> TruthState:
    """Advance both aquifers by one sampling period with explicit substeps.

    The hour's increment coefficients (``_increment_coefficients``), work
    arrays and their views along fields.ravel() are built once; each
    substep is then five in-place ufunc calls on them and a zero fill of the
    padding's increment, plus the heat-exchanger write and the audit.
    Under the substep count's limits the coefficients are nonnegative and
    sum to at most 1 per cell, so each new value is a convex combination of
    its old stencil.  The boundary energy and the audit's worst excess
    accumulate in Python floats and are stored once per hour.
    """
    if not math.isfinite(u):
        raise ParameterError(f"flow must be finite, got {u}")
    # Written so that a NaN fails it too.
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"time step must be positive and finite, got {dt}")
    cfg = state.cfg
    p = state.params
    grid = state.grid
    nu, dr = grid.nu, grid.dr

    t_far = p.t_amb
    if cfg.t_amb_noise_amp > 0.0:
        t_far = p.t_amb + state.rng_t_amb.uniform(-cfg.t_amb_noise_amp,
                                                  cfg.t_amb_noise_amp)

    n_sub = _substep_count(state, u, dt)
    dt_sub = dt / n_sub
    c_out, c_in = _increment_coefficients(state, u, dt_sub)
    F = state.fields
    F[:, -1] = t_far
    flat = F.reshape(-1, copy=False)
    # left, mid and right are the interior and its two stencil neighbours;
    # d is the fields' difference across each edge, d_out and d_in those
    # across each interior entry's outer and inner edge.
    left, mid, right, upper, lower = (flat[:-2], flat[1:-1], flat[2:],
                                      flat[1:], flat[:-1])
    d = np.empty(flat.size - 1)
    d_out, d_in = d[1:], d[:-1]
    inc, tmp = np.empty(mid.size), np.empty(mid.size)
    inc_pad = inc[nu:nu + 2]  # between the rows
    k_edge = state.k_edge
    # Heating (u > 0) extracts warm water and injects into the cold row,
    # cooling the reverse.  Only the injecting row's borehole face conducts,
    # and zero-gradient borehole entries follow their first cell: synced
    # here and after every substep, each substep starts with them in sync,
    # so the difference across their faces is exactly 0.
    inj = None if u == 0.0 else (1 if u > 0.0 else 0)
    if inj is None:
        entries, firsts = F[:, 0], F[:, 1]
    else:
        ext = 1 - inj
        entries, firsts = F[ext, 0:1], F[ext, 1:2]
        t_b = hx.t_b("heating" if inj == 1 else "cooling")
    entries[...] = firsts
    if audit:
        lo, hi = np.empty(mid.size), np.empty(mid.size)
        amax = np.maximum.reduce
    # Enthalpy crosses each boundary face at its upwind temperature: the
    # borehole entry, and the last cell or t_far at the far face.  Per row r
    # with flow q = (-u, u)[r]: r, whether the last cell is upwind, c_w * q
    # and whether r's borehole face conducts.  The conduction flux (W,
    # toward growing r) through edge e is (k_edge[e] * d[e]) / dr.
    faces = ((0, -u > 0.0, p.c_w * -u, inj == 0),
             (1, u > 0.0, p.c_w * u, inj == 1))
    energy = state.boundary_energy
    worst = state.dmp_violation

    for _ in range(n_sub):
        # The extraction temperature feeds the nonlinear HX, which sets the
        # injection Dirichlet value of the opposite aquifer this substep.
        if inj is not None:
            F[inj, 0] = hx_outlet_temp(F.item(ext, 0), u, hx.q_b, t_b)

        np.subtract(upper, lower, out=d)
        np.multiply(c_out, d_out, out=inc)
        np.multiply(c_in, d_in, out=tmp)
        np.subtract(inc, tmp, out=inc)
        # The padding's coefficients are 0, but 0 * NaN is NaN: a non-finite
        # value next to the padding must not cross into the other row.
        inc_pad.fill(0.0)
        if audit:
            # Each new value must lie in the envelope of its old three-point
            # stencil (borehole entry and t_far included); the padding keeps
            # its value, inside its own envelope.
            np.minimum(left, mid, out=lo)
            np.minimum(lo, right, out=lo)
            np.maximum(left, mid, out=hi)
            np.maximum(hi, right, out=hi)
        for r, last_upwind, cw_q, conducts in faces:
            t_out = F.item(r, nu) if last_upwind else t_far
            bh = r * (nu + 2)
            cond_bh = -(k_edge.item(bh) * d.item(bh) / dr) if conducts else 0.0
            cond_far = k_edge.item(bh + nu) * d.item(bh + nu) / dr
            energy += dt_sub * (cw_q * (F.item(r, 0) - t_out)
                                + cond_far + cond_bh)
        np.add(mid, inc, out=mid)
        if audit:
            np.subtract(mid, hi, out=hi)
            np.subtract(lo, mid, out=lo)
            # A non-finite field makes both maxima NaN; max keeps a NaN only
            # as its first argument, and a NaN violation is never replaced.
            excess = float(max(amax(hi), amax(lo), 0.0))
            if excess > worst or excess != excess:
                worst = excess
        entries[...] = firsts

    state.boundary_energy = energy
    state.dmp_violation = worst
    return state


def measure(state: TruthState) -> np.ndarray:
    """Noisy sensor readings: (warm r0, warm far, cold r0, cold far)."""
    bh, far = state.sensor_cells
    values = np.array([state.warm[bh], state.warm[far],
                       state.cold[bh], state.cold[far]])
    if state.cfg.sensor_sigma > 0.0:
        values = values + state.rng_sensor.normal(0.0, state.cfg.sensor_sigma, 4)
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
    F = state.fields
    x = np.empty((2, coarse.nu + 1))
    x[:, 0] = F[:, 0]
    x[:, 1:] = np.matvec(W, F[:, 1:-1])
    return x.ravel()
