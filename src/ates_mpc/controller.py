"""Receding-horizon controller: enumerated mode sequences, condensed QPs.

Move blocking fixes the input to one value per horizon segment, so each of the
3^3 = 27 blocked mode sequences yields a small dense QP after condensing the
piecewise-affine dynamics.  The sequences are one table (``sequence_table``):
their block modes as indices into ``MODES``, each block's flow interval and
each sequence's input-box rows, built once per config.  The cost needs only
each sequence's predicted powers, so those are condensed for all 27 at once
from per-mode power rows.  The search is an exact bound-and-prune: each
sequence's unconstrained minimum bounds its QP from below, and where the
minimiser breaks a block's flow interval the bound is raised by that one
flow bound.  All 27 bounds are raised up front and the sequences visited in
one sorted pass, ascending raised bound; a QP is solved only for a sequence
whose bound is within the near-tie tolerance of the best cost so far, and
the rest are pruned unsolved, reporting their raised bound.  The cheapest
feasible sequence wins, exactly as if all 27 were solved; state box
constraints are softened with a single quadratic slack so the controller
always emits an input.

A solved sequence's QP is first solved over its input box (and slack)
alone.  At that optimum the sequence is rolled out once at fixed flows; if
the trajectory keeps the soft state box, the optimum is the full QP's.
Otherwise the QP is solved once more with all of the sequence's soft state
rows (``soft_rows``); ``trajectory`` steps the states for both.

The objective is evaluated with powers in MW throughout: the tracking term
compares predicted and demanded power in MW, and the energy-balance term
expresses its energy argument as the equivalent average power over the
horizon, also in MW.  Under this common scale the reference weights (the
keys ``q_u``, ``q_d`` and ``q_e`` of ``scenario._DEFAULTS``) trade off
sensibly: the controller tracks the demand closely while the accumulated
balance acts as a seasonal restoring pressure of a few hundred MWh rather
than freezing delivery outright.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ControllerFault, ParameterError
from .grid import AquiferParams, RadialGrid, validate_state
from .power import storage_weights
from .pwa import MODE_SIGNS, MODES, PwaModel
from .qp import _FEAS_TOL, Qp, solve_qp

W_PER_MW = 1e6


@dataclass(frozen=True)
class OcpConfig:
    dt: float
    blocks: tuple[int, ...]
    u_max: float  # flow limit of either direction [m^3/s]
    warm_bounds: tuple[float, float]
    cold_bounds: tuple[float, float]
    q_u: float
    q_d: float
    q_e: float
    slack_weight: float
    # Averaging window [h] that converts the accumulated energy balance into
    # an equivalent power on the tracking term's scale; it sets how strongly
    # a given stored imbalance pushes back against demand tracking.
    balance_hours: float

    def __post_init__(self):
        # Each check is written so that a NaN fails it.
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"time step must be finite and positive, got {self.dt}")
        if not self.balance_hours > 0.0:
            raise ParameterError(
                f"balance_hours must be positive, got {self.balance_hours!r}")
        if min(self.blocks) < 1:
            raise ParameterError(
                f"every block must hold at least one step, got {self.blocks}")
        if not self.u_max > 0.0:
            raise ParameterError(f"u_max must be positive, got {self.u_max!r}")
        for lo, hi in (self.warm_bounds, self.cold_bounds):
            if not lo < hi:
                raise ParameterError(
                    f"state bounds must be ordered, got {(lo, hi)!r}")
        if not all(w >= 0.0 for w in (self.q_u, self.q_d, self.q_e,
                                      self.slack_weight)):
            raise ParameterError("weights must be nonnegative")

    @property
    def u_min(self) -> float:
        """The cooling flow limit, -u_max."""
        return -self.u_max

    @property
    def horizon(self) -> int:
        """Prediction horizon in steps: the blocks' total length."""
        return sum(self.blocks)

    @functools.cache
    def state_bounds(self, nu: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked state box (read-only, built once per config and grid)."""
        m = nu + 1
        x_min = np.concatenate([np.full(m, self.warm_bounds[0]),
                                np.full(m, self.cold_bounds[0])])
        x_max = np.concatenate([np.full(m, self.warm_bounds[1]),
                                np.full(m, self.cold_bounds[1])])
        x_min.flags.writeable = False
        x_max.flags.writeable = False
        return x_min, x_max


@dataclass(frozen=True)
class SequenceTable:
    """The blocked mode sequences of a config and what depends only on them.

    Sequences are in ``itertools.product(MODES, repeat=n_blocks)`` order.
    Each block's flow interval is its mode's sign region of [-u_max, u_max];
    ``boxes[s]`` holds sequence s's input-box rows ``G, h`` over its pumping
    blocks' flows and the slack, and the indices ``free`` of those variables
    in the (blocks, slack) vector.  Arrays are read-only.
    """

    modes: np.ndarray                    # S x n_blocks indices into MODES
    names: tuple[tuple[str, ...], ...]   # the same, as mode names
    lo: np.ndarray                       # S x n_blocks flow intervals
    hi: np.ndarray
    pumping: np.ndarray                  # S x n_blocks, not storing
    boxes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


@functools.cache
def sequence_table(cfg: OcpConfig) -> SequenceTable:
    """The config's sequence table, built once per config."""
    nb = len(cfg.blocks)
    modes = np.array(list(itertools.product(range(len(MODES)), repeat=nb)))
    sign = np.take(MODE_SIGNS, modes)
    lo = np.where(sign < 0.0, cfg.u_min, 0.0)
    hi = np.where(sign > 0.0, cfg.u_max, 0.0)
    pumping = sign != 0.0
    boxes = []
    for sign_s, pumping_s in zip(sign, pumping):
        j = np.flatnonzero(pumping_s)
        # Per pumping block -sign u <= 0, then sign u <= its flow limit, the
        # bound at zero first (ties in the QP go to the lowest row); then
        # slack >= 0.
        G = np.zeros((2 * j.size + 1, j.size + 1))
        h = np.zeros(G.shape[0])
        i = np.arange(j.size)
        G[2 * i, i] = -sign_s[j]
        G[2 * i + 1, i] = sign_s[j]
        h[2 * i + 1] = cfg.u_max
        G[-1, -1] = -1.0
        boxes.append((G, h, np.append(j, nb)))
    for a in (modes, lo, hi, pumping, *itertools.chain(*boxes)):
        a.flags.writeable = False
    names = tuple(tuple(MODES[i] for i in row) for row in modes.tolist())
    return SequenceTable(modes, names, lo, hi, pumping, tuple(boxes))


@dataclass(frozen=True)
class PredictionMap:
    """Affine maps from the blocked inputs to predicted powers.

    One map per mode sequence, stacked along the leading axis in
    ``sequence_table`` order.  A sequence's predicted states come from
    ``trajectory``.
    """

    power_offset: np.ndarray             # S x N, watts
    power_gain: np.ndarray               # S x N x n_blocks, watts per (m^3/s)


class CandidateRecord(NamedTuple):
    """One row of a plan's search table (``OcpSolution.per_candidate``)."""

    mode_sequence: tuple[str, ...]
    status: str
    cost: float
    u_blocks: np.ndarray
    slack: float
    kkt_residual: float


# The counts each plan reports, in order: candidate QPs solved, candidates
# whose QP stalled, rounding-level block flows set to 0.0, and the soft state
# rows of the QPs solved again on them.
PLAN_COUNTS = ("qps_solved", "stalled_candidates", "snapped_flows",
               "soft_rows_added")


@dataclass(frozen=True)
class OcpSolution:
    """The winning plan, the search's table and the plan's counts (keys
    ``PLAN_COUNTS``, which a closed-loop run sums over its hours).

    The table has one read-only row per mode sequence, in ``sequences``
    order: the candidate's status (``"optimal"``, ``"infeasible"``,
    ``"stalled"`` or ``"pruned"``), its cost (its raised lower bound when
    pruned), block flows, slack and KKT residual (NaN where pruned or
    failed).
    """

    u_blocks: np.ndarray
    mode_sequence: tuple[str, ...]
    x_pred: np.ndarray                   # (N+1) x n
    p_pred: np.ndarray                   # N, linear-form watts
    cost: float
    cost_terms: dict
    slack_used: float
    counts: dict[str, int]
    sequences: tuple[tuple[str, ...], ...]
    status: np.ndarray                   # S
    costs: np.ndarray                    # S
    flows: np.ndarray                    # S x n_blocks
    slacks: np.ndarray                   # S
    kkt_residuals: np.ndarray            # S

    @property
    def per_candidate(self) -> tuple[CandidateRecord, ...]:
        """The table as one record per sequence, built on access."""
        return tuple(map(CandidateRecord, self.sequences, self.status.tolist(),
                         self.costs.tolist(), self.flows,
                         self.slacks.tolist(), self.kkt_residuals.tolist()))


@functools.cache
def power_linear_rows(grid: RadialGrid, params: AquiferParams, dt: float
                      ) -> tuple[np.ndarray, np.ndarray, float]:
    """Row vectors so that P(k) = r_now . x(k) + r_next . x(k+1) + const.

    Built once per grid, parameters and ``dt``; the rows are read-only.
    """
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
    r_now.flags.writeable = False
    r_next.flags.writeable = False
    return r_now, r_next, const


def condense(model: PwaModel, cfg: OcpConfig, x0: np.ndarray,
             power_rows: tuple[np.ndarray, np.ndarray, float]) -> PredictionMap:
    """Power maps of every mode sequence, from per-mode power rows.

    A step in mode m from x(k) delivers P(k) = c_m . x(k) + d_m u + e_m, with
    c_m = r_now + r_next A_m, d_m = r_next . b_m and e_m = r_next . f_m +
    const.  All three modes are formed at once from the model's branch
    stack, whose ``MODES`` order the rows share.  Move blocking holds a
    block's mode fixed, so its i-th step delivers (c_m A_m^i) . x_start
    plus the running sums of c_m A_m^t f_m and c_m A_m^t b_m over t < i.
    A block's start states depend only on the modes of the blocks before it
    (3^j of them for block j), so each block's powers are one product of
    these rows with its start states, offset and gain columns side by side.
    Only the blocks before the last are stepped, to produce the next block's
    start states; no sequence's state trajectory is formed (``trajectory``
    does that, for one sequence).
    ``power_rows`` is ``power_linear_rows(grid, params, cfg.dt)``.
    """
    x0 = validate_state(x0, model.nu)
    nb = len(cfg.blocks)
    r_now, r_next, p_const = power_rows
    A, b, f = model.A, model.b, model.f

    # rows[m, i] = c_m A_m^i for i below the longest block; terms[m, i] holds
    # the i-th step's affine terms, e_m and d_m plus the running sums of
    # rows . f_m and rows . b_m.
    rows = np.empty((len(MODES), max(cfg.blocks), model.n))
    rows[:, 0] = r_now + r_next @ A
    for i in range(1, rows.shape[1]):
        rows[:, i] = (rows[:, i - 1, None, :] @ A)[:, 0]
    drive = np.stack([f, b], axis=-1)
    terms = np.zeros(rows.shape[:2] + (2,))
    terms[:, 1:] = np.cumsum((rows @ drive)[:, :-1], axis=1)
    terms += (r_next @ drive + [p_const, 0.0])[:, None]

    grid_shape = (len(MODES),) * nb
    p_off = np.empty(grid_shape + (cfg.horizon,))
    p_gain = np.empty(grid_shape + (cfg.horizon, nb))
    # Start states of the current block, one per mode prefix: column 0 is
    # the offset, column 1 + j the gain of block j.
    starts = np.zeros((1, model.n, 1 + nb))
    starts[0, :, 0] = x0
    k = 0
    for j, length in enumerate(cfg.blocks):
        # powers[p, m, i]: i-th step of block j in mode m from start p.
        powers = rows[None, :, :length] @ starts[:, None]
        powers[..., 0] += terms[:, :length, 0]
        powers[..., 1 + j] += terms[:, :length, 1]
        # The block's powers hold for every mode of the blocks after it.
        prefix = grid_shape[:j + 1] + (1,) * (nb - 1 - j) + (length,)
        p_off[..., k:k + length] = powers[..., 0].reshape(prefix)
        p_gain[..., k:k + length, :] = powers[..., 1:].reshape(prefix + (nb,))
        k += length
        if j + 1 < nb:
            states = starts[:, None]
            for _ in range(length):
                states = A @ states
                states[..., 0] += f
                states[..., 1 + j] += b
            starts = states.reshape(-1, model.n, 1 + nb)
    # The grid flattened in C order is the sequence table's order.
    return PredictionMap(p_off.reshape(-1, cfg.horizon),
                         p_gain.reshape(-1, cfg.horizon, nb))


def build_cost(pred: PredictionMap, demand: np.ndarray, b_past: float,
               cfg: OcpConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic cost of every sequence over (block inputs, shared slack).

    Returns the stacked Hessians (S x nv x nv), gradients (S x nv) and
    constant offsets (S,).  A demand window of another size than the
    horizon, or a non-finite demand entry or ``b_past``, raises
    ``ParameterError``.
    """
    demand = np.asarray(demand, dtype=float)
    if demand.size != cfg.horizon:
        raise ParameterError(f"demand must have {cfg.horizon} entries, got {demand.size}")
    if not (np.isfinite(demand).all() and math.isfinite(b_past)):
        raise ParameterError("demand window and B_past must be finite")
    nb = len(cfg.blocks)
    nv = nb + 1  # blocks + slack
    n_seq = pred.power_offset.shape[0]

    p_gain_mw = pred.power_gain / W_PER_MW
    p_err_mw = (pred.power_offset - demand) / W_PER_MW
    # Balance argument (dt * sum P + B_past) expressed as an equivalent
    # average power in MW over the balance window, so it shares the tracking
    # term's scale.
    balance_s = cfg.balance_hours * 3600.0
    e_gain = cfg.dt * p_gain_mw.sum(axis=1) / balance_s
    e_off = (cfg.dt * pred.power_offset.sum(axis=1) + b_past) / (balance_s * W_PER_MW)
    block_len = np.asarray(cfg.blocks, dtype=float)

    weighted_t = cfg.q_d * p_gain_mw.transpose(0, 2, 1)
    H = np.zeros((n_seq, nv, nv))
    g = np.zeros((n_seq, nv))
    H[:, :nb, :nb] = 2.0 * (weighted_t @ p_gain_mw
                            + np.diag(cfg.q_u * block_len)
                            + cfg.q_e * (e_gain[:, :, None] * e_gain[:, None, :]))
    g[:, :nb] = 2.0 * (np.matmul(weighted_t, p_err_mw[:, :, None])[..., 0]
                       + cfg.q_e * e_off[:, None] * e_gain)
    H[:, nb, nb] = 2.0 * cfg.slack_weight
    # float_power rounds like the one-sequence scalar e_off**2; the array
    # square x*x differs in the last bit about once in a thousand.
    const = (cfg.q_d * np.vecdot(p_err_mw, p_err_mw)
             + cfg.q_e * np.float_power(e_off, 2))
    return H, g, const


def candidate_qp(s: int, H: np.ndarray, g: np.ndarray,
                 cfg: OcpConfig) -> tuple[Qp, np.ndarray]:
    """Box QP of sequence ``s`` of ``sequence_table(cfg)``: its cost ``H, g``
    with the input-box and slack rows only (``soft_rows`` builds the soft
    state rows).

    A storing block's flow is fixed at zero, so its variable is eliminated:
    the QP is over the pumping blocks' flows and the slack.  Returns the Qp
    and the indices of its variables in the (blocks, slack) vector.
    """
    G, h, free = sequence_table(cfg).boxes[s]
    return Qp(H[np.ix_(free, free)], g[free], G, h), free


def trajectory(model: PwaModel, cfg: OcpConfig, x0: np.ndarray,
               modes: np.ndarray, u_blocks: np.ndarray,
               affine: bool = True) -> np.ndarray:
    """Predicted states ((N+1) x n) of one mode sequence at fixed block flows.

    ``modes`` is a row of ``sequence_table(cfg).modes``.  A start state
    ``(n,)`` steps under flows ``(n_blocks,)``, a column stack ``(n, c)``
    under flows ``(n_blocks, c)``.  A block's drive ``b u_j + f`` (without
    ``f`` unless ``affine``) is formed once, so each step is one product and
    one sum.  (``dot`` costs about half of ``@`` on one 42-vector.)
    """
    x = np.empty((cfg.horizon + 1,) + np.shape(x0))
    x[0] = x0
    k = 0
    for i, u, length in zip(modes, u_blocks, cfg.blocks):
        A = model.A[i]
        drive = np.multiply.outer(model.b[i], u)
        if affine:
            drive = (drive.T + model.f[i]).T
        for _ in range(length):
            np.add(A.dot(x[k]), drive, out=x[k + 1])
            k += 1
    return x


def soft_rows(model: PwaModel, cfg: OcpConfig, x0: np.ndarray,
              modes: np.ndarray, pumping: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Soft state rows ``G z <= h`` of one sequence, over its pumping blocks'
    flows and the slack.

    Per predicted step k = 1..N there are n upper rows [gain_k, -1] z <=
    x_max - off_k, then n lower rows [-gain_k, -1] z <= off_k - x_min: the
    ``trajectory`` at zero flows, and its linear part under unit flows.  (In
    one column stack beside the gains the offsets would round otherwise.)
    """
    nb = len(cfg.blocks)
    offsets = trajectory(model, cfg, x0, modes, np.zeros(nb))
    gains = trajectory(model, cfg, np.zeros((model.n, nb)), modes, np.eye(nb),
                       affine=False)
    x_min, x_max = cfg.state_bounds(model.nu)
    gains = gains[1:][..., pumping]
    G = np.stack([gains, -gains], axis=1)
    G = np.concatenate([G, np.full(G.shape[:3] + (1,), -1.0)], axis=-1)
    h = np.stack([x_max - offsets[1:], offsets[1:] - x_min], axis=1)
    return G.reshape(-1, G.shape[-1]), h.reshape(-1)


def _lower_bounds(H: np.ndarray, g: np.ndarray, const: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A lower bound on each sequence's QP optimum: the cost's unconstrained
    minimum ``const - g'H^-1 g / 2``, raised where its minimiser ``u = -H^-1
    g`` breaks the flow intervals ``[lo, hi]``.

    The slack has no linear term, so its minimum is at zero and only the
    block inputs enter; a storing block has a zero gain column and a zero
    gradient entry, so it contributes nothing.  The raise is ``max_j (c_j -
    u_j)^2 / (2 (H_u^-1)_jj)`` with ``c_j`` the end of block j's interval
    nearest ``u_j`` (0 for a block inside its interval) and ``H_u`` the
    block Hessian.  The input box lies in the half-space beyond ``c_j``,
    over which the quadratic's minimum is exactly the unconstrained one plus
    that term; so the raised bound stays below the box optimum, and equals
    it when that one flow bound is the box optimum's only active row.
    """
    nb = H.shape[1] - 1
    g_u = g[:, :nb]
    try:
        H_inv = np.linalg.inv(H[:, :nb, :nb])
    except np.linalg.LinAlgError:
        # A singular block Hessian (zero input weight): bound nothing.
        return np.full(const.shape, -np.inf)
    u = -(H_inv @ g_u[:, :, None])[..., 0]
    gap = np.clip(u, lo, hi) - u
    rise = np.max(gap * gap / (2.0 * np.diagonal(H_inv, axis1=1, axis2=2)),
                  axis=1)
    return const + 0.5 * np.sum(g_u * u, axis=1) + rise


def _prune_key(bound, const):
    """A sequence's raised bound less a margin for rounding in the bound
    itself; sequences are visited in ascending key, and the search stops at
    the first key above the incumbent's limit.

    The incumbent only falls and costs are >= 0, so its tolerance is at
    least the final one: a pruned sequence never enters the near-tie set.
    """
    return bound - 1e-12 * np.maximum(np.abs(bound), const)


def solve_ocp(x0: np.ndarray, demand: np.ndarray, b_past: float, cfg: OcpConfig,
              model: PwaModel, grid: RadialGrid, params: AquiferParams) -> OcpSolution:
    """Exact bound-and-prune over all blocked mode sequences; returns the best.

    Each sequence's bound is its cost's unconstrained minimum, raised by the
    flow bound its minimiser breaks most (``_lower_bounds``).  Sequences are
    visited in one sorted pass, ascending raised bound, and a QP is solved
    for each until the next bound exceeds the incumbent by more than the
    near-tie tolerance: no sequence left can win nor tie, so each is left
    ``"pruned"`` with its raised bound as cost.  A solved sequence's QP is
    solved over its input box; only if the trajectory at that optimum leaves
    the soft state box is it solved again with all its soft rows, so the
    optimum is that of the full QP.  The winner's trajectory at its optimum
    gives ``x_pred``.  A non-finite demand window or ``b_past`` raises
    ``ParameterError``.
    """
    nb = len(cfg.blocks)
    table = sequence_table(cfg)
    pred = condense(model, cfg, x0, power_linear_rows(grid, params, cfg.dt))
    H, g, const = build_cost(pred, demand, b_past, cfg)
    costs = _lower_bounds(H, g, const, table.lo, table.hi)

    n_seq = costs.size
    status = np.full(n_seq, "pruned", dtype="U10")
    flows = np.full((n_seq, nb), np.nan)
    slacks = np.full(n_seq, np.nan)
    kkt = np.full(n_seq, np.nan)
    keys = _prune_key(costs, const)
    x_min, x_max = cfg.state_bounds(model.nu)
    solved = soft_rows_added = 0
    optimal: dict[int, np.ndarray | None] = {}   # trajectory at the optimum
    incumbent = limit = np.inf
    for s in np.argsort(keys, kind="stable").tolist():
        if keys[s] > limit:
            break
        solved += 1
        qp, free = candidate_qp(s, H[s], g[s], cfg)
        result = solve_qp(qp)
        z = np.zeros(nb + 1)     # storing flows are exactly zero
        # A failed result carries value inf and NaN in the QP's variables.
        z[free] = result.z_star
        x = None
        if result.status == "optimal":
            x = trajectory(model, cfg, x0, table.modes[s], z[:nb])
            if (max(np.max(x[1:] - x_max), np.max(x_min - x[1:])) - z[nb]
                    > _FEAS_TOL):
                # The box optimum leaves the soft box: solve the full QP.
                # Its trajectory is rolled out for the winner only.
                G, h = soft_rows(model, cfg, x0, table.modes[s], free[:-1])
                soft_rows_added += h.size
                result = solve_qp(Qp(qp.H, qp.g, np.vstack([qp.G, G]),
                                     np.concatenate([qp.h, h])))
                z[free] = result.z_star
                x = None
        total = result.value + const[s]
        status[s], costs[s], kkt[s] = result.status, total, result.kkt_residual
        flows[s], slacks[s] = z[:nb], z[nb]
        if result.status == "optimal":
            optimal[s] = x
            if total < incumbent:
                incumbent = total
                limit = incumbent + 1e-9 * max(1.0, abs(incumbent))

    if not optimal:
        raise ControllerFault(
            f"all {n_seq} candidate mode sequences failed: "
            f"{np.count_nonzero(status == 'infeasible')} infeasible, "
            f"{np.count_nonzero(status == 'stalled')} stalled")

    tol = 1e-9 * max(1.0, abs(incumbent))
    near = [s for s in optimal if costs[s] <= incumbent + tol]
    s = min(near, key=lambda s: (np.count_nonzero(table.pumping[s]),
                                 float(np.linalg.norm(flows[s])),
                                 table.names[s]))
    total, x_pred = costs[s], optimal[s]

    u_blocks = np.clip(flows[s], table.lo[s], table.hi[s])
    # An active zero bound can come back as +-1e-19; its sign would select a
    # pumping branch in the model, the filter and the recorded mode while the
    # plant pumps nothing.
    snap = (u_blocks != 0.0) & (np.abs(u_blocks) <= 1e-12 * cfg.u_max)
    u_blocks[snap] = 0.0

    if x_pred is None or not np.array_equal(u_blocks, flows[s]):
        x_pred = trajectory(model, cfg, x0, table.modes[s], u_blocks)
    p_pred = pred.power_offset[s] + pred.power_gain[s] @ u_blocks

    demand = np.asarray(demand, dtype=float)
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
        "slack": cfg.slack_weight * float(slacks[s]) ** 2,
    }
    counts = dict(zip(PLAN_COUNTS, (solved,
                                    int(np.count_nonzero(status == "stalled")),
                                    int(snap.sum()), soft_rows_added)))
    for a in (status, costs, flows, slacks, kkt):
        a.flags.writeable = False
    return OcpSolution(u_blocks, table.names[s], x_pred, p_pred, total, terms,
                       slack_used, counts, table.names, status, costs, flows,
                       slacks, kkt)
