"""Receding-horizon controller: enumerated mode sequences, condensed QPs.

Move blocking fixes the input to one value per horizon segment, so each of the
3^3 = 27 blocked mode sequences yields a small dense QP after condensing the
piecewise-affine dynamics.  All candidates are solved and the cheapest
feasible one wins; state box constraints are softened with a single quadratic
slack so the controller always emits an input.

The objective is evaluated with powers in MW throughout: the tracking term
compares predicted and demanded power in MW, and the energy-balance term
expresses its energy argument as the equivalent average power over the
horizon, also in MW.  Under this common scale the default weights (q_u = 1,
q_d = 1994.4e-6, q_e = 1e-3) trade off sensibly: the controller tracks the
demand closely while the accumulated balance acts as a seasonal restoring
pressure of a few hundred MWh rather than freezing delivery outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ControllerFault, ParameterError, SolverError
from .grid import AquiferParams, RadialGrid, validate_state
from .power import storage_weights
from .pwa import PwaModel
from .qp import Qp, QpResult, solve_qp

W_PER_MW = 1e6
J_PER_MWH = 3.6e9

MODES = ("heating", "storing", "cooling")
MODE_SIGN = {"heating": 1.0, "storing": 0.0, "cooling": -1.0}


def mode_of(u: float) -> str:
    """Operating mode of a flow, by its sign."""
    return "heating" if u > 0 else ("cooling" if u < 0 else "storing")


def _flow_interval(mode: str, cfg: OcpConfig) -> tuple[float, float]:
    """Block-flow interval of a mode: its sign region of [u_min, u_max]."""
    sign = MODE_SIGN[mode]
    return (cfg.u_min if sign < 0 else 0.0, cfg.u_max if sign > 0 else 0.0)


@dataclass(frozen=True)
class OcpConfig:
    horizon: int = 12
    dt: float = 3600.0
    blocks: tuple[int, ...] = (1, 4, 7)
    u_min: float = -0.0277
    u_max: float = 0.0277
    warm_bounds: tuple[float, float] = (284.85, 293.15)
    cold_bounds: tuple[float, float] = (273.15, 284.85)
    q_u: float = 1.0
    q_d: float = 1994.4e-6
    q_e: float = 0.001
    slack_weight: float = 1e6
    # Averaging window [h] that converts the accumulated energy balance into
    # an equivalent power on the tracking term's scale; it sets how strongly
    # a given stored imbalance pushes back against demand tracking.
    balance_hours: float = 80.0

    def __post_init__(self):
        if self.balance_hours <= 0.0:
            raise ParameterError("balance_hours must be positive")
        if sum(self.blocks) != self.horizon:
            raise ParameterError(
                f"blocks {self.blocks} must sum to the horizon {self.horizon}")
        if not (self.u_min < 0.0 < self.u_max):
            raise ParameterError("need u_min < 0 < u_max")
        for lo, hi in (self.warm_bounds, self.cold_bounds):
            if lo >= hi:
                raise ParameterError("state bounds must be ordered")
        if min(self.q_u, self.q_d, self.q_e, self.slack_weight) < 0.0:
            raise ParameterError("weights must be nonnegative")

    def state_bounds(self, nu: int) -> tuple[np.ndarray, np.ndarray]:
        m = nu + 1
        x_min = np.concatenate([np.full(m, self.warm_bounds[0]),
                                np.full(m, self.cold_bounds[0])])
        x_max = np.concatenate([np.full(m, self.warm_bounds[1]),
                                np.full(m, self.cold_bounds[1])])
        return x_min, x_max

    def block_of_step(self) -> list[int]:
        return [j for j, length in enumerate(self.blocks) for _ in range(length)]


@dataclass(frozen=True)
class PredictionMap:
    """Affine map from the blocked inputs to predicted states and powers."""

    mode_sequence: tuple[str, ...]
    state_offsets: np.ndarray            # (N+1) x n
    state_gains: np.ndarray              # (N+1) x n x n_blocks
    power_offset: np.ndarray             # N, watts
    power_gain: np.ndarray               # N x n_blocks, watts per (m^3/s)


@dataclass(frozen=True)
class CandidateRecord:
    mode_sequence: tuple[str, ...]
    status: str
    cost: float
    u_blocks: np.ndarray
    slack: float
    kkt_residual: float


@dataclass(frozen=True)
class OcpSolution:
    u_blocks: np.ndarray
    mode_sequence: tuple[str, ...]
    x_pred: np.ndarray                   # (N+1) x n
    p_pred: np.ndarray                   # N, linear-form watts
    cost: float
    cost_terms: dict = field(default_factory=dict)
    per_candidate: list[CandidateRecord] = field(default_factory=list)
    slack_used: float = 0.0


def power_linear_rows(grid: RadialGrid, params: AquiferParams, dt: float
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """Row vectors so that P(k) = r_now . x(k) + r_next . x(k+1) + const."""
    m = grid.nu + 1
    n = 2 * m
    w = params.c_a * storage_weights(grid) / dt
    r_next = np.concatenate([-w, -w])
    r_now = np.concatenate([w, w])
    loss_gain = (params.lam * 2.0 * np.pi * grid.r_inf * grid.l
                 / (grid.r_inf - grid.midpoints[-1]))
    r_now[m - 1] -= loss_gain
    r_now[n - 1] -= loss_gain
    const = 2.0 * loss_gain * params.t_amb
    return r_now, r_next, const


def condense(model: PwaModel, mode_sequence: tuple[str, ...], cfg: OcpConfig,
             x0: np.ndarray, power_rows: tuple[np.ndarray, np.ndarray, float]
             ) -> PredictionMap:
    """Forward-substitute the branch dynamics into an affine map of the block inputs.

    ``power_rows`` is ``power_linear_rows(grid, params, cfg.dt)``.
    """
    x0 = validate_state(x0, model.nu)
    nb = len(cfg.blocks)
    if len(mode_sequence) != nb:
        raise ParameterError("mode sequence must have one mode per block")
    r_now, r_next, p_const = power_rows

    offsets = np.empty((cfg.horizon + 1, model.n))
    gains = np.zeros((cfg.horizon + 1, model.n, nb))
    offsets[0] = x0
    p_off = np.zeros(cfg.horizon)
    p_gain = np.zeros((cfg.horizon, nb))
    for k, j in enumerate(cfg.block_of_step()):
        branch = model.branch(MODE_SIGN[mode_sequence[j]])
        offsets[k + 1] = branch.A @ offsets[k] + branch.f
        gains[k + 1] = branch.A @ gains[k]
        gains[k + 1, :, j] += branch.b
        # Kept as per-step dot products: one matrix product over all steps
        # rounds differently and shifts the QP data.
        p_off[k] = r_now @ offsets[k] + r_next @ offsets[k + 1] + p_const
        p_gain[k] = r_now @ gains[k] + r_next @ gains[k + 1]
    return PredictionMap(tuple(mode_sequence), offsets, gains, p_off, p_gain)


def build_cost(pred: PredictionMap, demand: np.ndarray, b_past: float,
               cfg: OcpConfig, nu: int) -> tuple[Qp, float, np.ndarray]:
    """Quadratic cost and constraints over (block inputs, shared slack).

    Returns the Qp, the constant cost offset, and a feasible starting point.
    """
    demand = np.asarray(demand, dtype=float)
    if demand.size != cfg.horizon:
        raise ParameterError(f"demand must have {cfg.horizon} entries, got {demand.size}")
    nb = len(cfg.blocks)
    nv = nb + 1  # blocks + slack

    p_gain_mw = pred.power_gain / W_PER_MW
    p_err_mw = (pred.power_offset - demand) / W_PER_MW
    # Balance argument (dt * sum P + B_past) expressed as an equivalent
    # average power in MW over the balance window, so it shares the tracking
    # term's scale.
    balance_s = cfg.balance_hours * 3600.0
    e_gain = cfg.dt * p_gain_mw.sum(axis=0) / balance_s
    e_off = (cfg.dt * pred.power_offset.sum() + b_past) / (balance_s * W_PER_MW)
    block_len = np.asarray(cfg.blocks, dtype=float)

    H = np.zeros((nv, nv))
    g = np.zeros(nv)
    H[:nb, :nb] = 2.0 * (cfg.q_d * p_gain_mw.T @ p_gain_mw
                         + np.diag(cfg.q_u * block_len)
                         + cfg.q_e * np.outer(e_gain, e_gain))
    g[:nb] = 2.0 * (cfg.q_d * p_gain_mw.T @ p_err_mw + cfg.q_e * e_off * e_gain)
    H[nb, nb] = 2.0 * cfg.slack_weight
    const = cfg.q_d * float(p_err_mw @ p_err_mw) + cfg.q_e * e_off**2

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for j, mode in enumerate(pred.mode_sequence):
        e_j = np.zeros(nv)
        e_j[j] = 1.0
        lo, hi = _flow_interval(mode, cfg)
        # u_j <= hi and -u_j <= -lo, the bound at zero first (ties in the QP
        # go to the lowest row).
        if MODE_SIGN[mode] > 0:
            rows += [-e_j, e_j]
            rhs += [-lo, hi]
        else:
            rows += [e_j, -e_j]
            rhs += [hi, -lo]
    e_s = np.zeros(nv)
    e_s[nb] = 1.0
    rows.append(-e_s)
    rhs.append(0.0)

    # Soft box rows, per predicted step k = 1..N: the n upper rows
    # [gain_k, -1] z <= x_max - off_k, then the n lower rows
    # [-gain_k, -1] z <= off_k - x_min.
    x_min, x_max = cfg.state_bounds(nu)
    gains = pred.state_gains[1:]
    offsets = pred.state_offsets[1:]
    soft_G = np.empty((cfg.horizon, 2, gains.shape[1], nv))
    soft_G[:, 0, :, :nb] = gains
    soft_G[:, 1, :, :nb] = -gains
    soft_G[..., nb] = -1.0
    soft_G = soft_G.reshape(-1, nv)
    soft_h = np.stack([x_max - offsets, offsets - x_min], axis=1).ravel()
    # Drop soft rows that no feasible input can activate: with |u_j| bounded
    # by the input box and slack >= 0, the left-hand side never exceeds the
    # reachable bound, so provably slack rows cannot change the optimum.
    u_reach = max(cfg.u_max, -cfg.u_min)
    reach = np.abs(soft_G[:, :nb]).sum(axis=1) * u_reach
    keep = reach >= soft_h - 1e-9
    G = np.vstack([np.asarray(rows), soft_G[keep]])
    h = np.concatenate([np.asarray(rhs), soft_h[keep]])

    # z = 0 with slack covering the worst open-loop violation is always feasible.
    s0 = max(0.0, float(np.max(-soft_h))) + 1e-9
    z0 = np.zeros(nv)
    z0[nb] = s0
    return Qp(H, g, G, h), const, z0


def solve_ocp(x0: np.ndarray, demand: np.ndarray, b_past: float, cfg: OcpConfig,
              model: PwaModel, grid: RadialGrid, params: AquiferParams) -> OcpSolution:
    """Enumerate all blocked mode sequences, solve each QP, return the best."""
    nb = len(cfg.blocks)
    candidates: list[tuple[tuple[str, ...], QpResult, float, PredictionMap]] = []
    records: list[CandidateRecord] = []
    power_rows = power_linear_rows(grid, params, cfg.dt)
    for modes in itertools.product(MODES, repeat=nb):
        pred = condense(model, modes, cfg, x0, power_rows)
        qp, const, z0 = build_cost(pred, demand, b_past, cfg, model.nu)
        try:
            result = solve_qp(qp, z0=z0)
        except SolverError:
            # A stalled candidate drops out; the remaining sequences compete.
            result = QpResult(np.full(qp.m, np.nan), np.inf, "stalled",
                              np.inf, ())
        # A failed result carries value inf and NaN z_star.
        total = result.value + const
        records.append(CandidateRecord(modes, result.status, total,
                                       result.z_star[:nb].copy(),
                                       float(result.z_star[nb]),
                                       result.kkt_residual))
        if result.status == "optimal":
            candidates.append((modes, result, total, pred))

    if not candidates:
        raise ControllerFault("all candidate mode sequences infeasible")

    best_cost = min(c[2] for c in candidates)
    tol = 1e-9 * max(1.0, abs(best_cost))
    near = [c for c in candidates if c[2] <= best_cost + tol]
    near.sort(key=lambda c: (-c[0].count("storing"),
                             float(np.linalg.norm(c[1].z_star[:nb])),
                             c[0]))
    modes, result, total, pred = near[0]

    lo, hi = np.array([_flow_interval(mode, cfg) for mode in modes]).T
    u_blocks = np.clip(result.z_star[:nb], lo, hi)

    x_pred = pred.state_offsets + pred.state_gains @ u_blocks
    p_pred = pred.power_offset + pred.power_gain @ u_blocks

    demand = np.asarray(demand, dtype=float)
    x_min, x_max = cfg.state_bounds(model.nu)
    slack_used = max(0.0, float(np.max(x_pred[1:] - x_max)),
                     float(np.max(x_min - x_pred[1:])))
    p_mw = p_pred / W_PER_MW
    d_mw = demand / W_PER_MW
    e_avg_mw = (cfg.dt * p_pred.sum() + b_past) / (cfg.balance_hours * 3600.0
                                                   * W_PER_MW)
    block_len = np.asarray(cfg.blocks, dtype=float)
    terms = {
        "tracking": cfg.q_d * float(np.sum((p_mw - d_mw) ** 2)),
        "pumping": cfg.q_u * float(np.sum(block_len * u_blocks**2)),
        "balance": cfg.q_e * e_avg_mw**2,
        "slack": cfg.slack_weight * float(result.z_star[nb]) ** 2,
    }
    return OcpSolution(u_blocks, modes, x_pred, p_pred, total, terms, records,
                       slack_used)


def receding_step(solution: OcpSolution) -> float:
    """First blocked input of the optimal sequence, applied for one sampling period."""
    return float(solution.u_blocks[0])
