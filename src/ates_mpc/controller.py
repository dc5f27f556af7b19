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
expresses its energy argument as the equivalent average power over an 80 h
window (``OcpConfig.balance_hours``), also in MW.  Under this common scale
the reference weights (the keys ``q_u``, ``q_d`` and ``q_e`` of
``scenario._DEFAULTS``) trade off sensibly: the controller tracks the demand
closely while the accumulated balance acts as a seasonal restoring pressure
of a few hundred MWh rather than freezing delivery outright.  The hourly
step ``OcpConfig.dt`` and the window are units, not settings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ControllerFault, ParameterError
from .grid import AquiferParams, RadialGrid, validate_state
from .power import storage_weights
from .pwa import MODE_SIGNS, MODES, PwaModel
from .qp import _FEAS_TOL, Qp, solve_qp

W_PER_MW = 1e6


@dataclass(frozen=True)
class OcpConfig:
    # Units, not settings: the plant, the model, the ledger and the demand
    # series all step by dt [s], and the balance term averages the stored
    # energy over balance_hours [h] into a power on the tracking term's scale.
    # Like W_PER_MW, the window is a unit: the cost reads it only as
    # q_e / balance_hours^2, so q_e alone weights the balance term.
    dt: ClassVar[float] = 3600.0
    balance_hours: ClassVar[float] = 80.0
    blocks: tuple[int, ...]
    u_max: float  # flow limit of either direction [m^3/s]
    warm_bounds: tuple[float, float]
    cold_bounds: tuple[float, float]
    q_u: float
    q_d: float
    q_e: float
    slack_weight: float

    def __post_init__(self):
        # Each check is written so that a NaN fails it.
        if not (self.blocks and min(self.blocks) >= 1):
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
    blocks' flows and the slack, the indices ``free`` of those variables in
    the (blocks, slack) vector and their ``np.ix_(free, free)`` pair, which
    picks the QP's Hessian out of the sequence's.  Arrays are read-only.
    """

    modes: np.ndarray                    # S x n_blocks indices into MODES
    names: tuple[tuple[str, ...], ...]   # the same, as mode names
    lo: np.ndarray                       # S x n_blocks flow intervals
    hi: np.ndarray
    pumping: np.ndarray                  # S x n_blocks, not storing
    boxes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray,
                       tuple[np.ndarray, np.ndarray]], ...]


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
        free = np.append(j, nb)
        ix = np.ix_(free, free)
        for a in (G, h, free, *ix):
            a.flags.writeable = False
        boxes.append((G, h, free, ix))
    for a in (modes, lo, hi, pumping):
        a.flags.writeable = False
    names = tuple(tuple(MODES[i] for i in row) for row in modes.tolist())
    return SequenceTable(modes, names, lo, hi, pumping, tuple(boxes))


class CandidateRecord(NamedTuple):
    """One row of a plan's search table (``OcpSolution.per_candidate``)."""

    mode_sequence: tuple[str, ...]
    status: str
    cost: float
    u_blocks: np.ndarray
    slack: float


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
    pruned), block flows and slack (NaN where pruned or failed).
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

    @property
    def per_candidate(self) -> tuple[CandidateRecord, ...]:
        """The table as one record per sequence, built on access."""
        return tuple(map(CandidateRecord, self.sequences, self.status.tolist(),
                         self.costs.tolist(), self.flows,
                         self.slacks.tolist()))


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
             power_rows: tuple[np.ndarray, np.ndarray, float]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps from the blocked inputs to every sequence's predicted
    powers, from per-mode power rows: the offsets (S x N, watts) and gains
    (S x N x n_blocks, watts per m^3/s), in ``sequence_table`` order.

    The step is written in homogeneous coordinates: mode m's matrix
    M_m = [[A_m, f_m, b_m], [0, 1, 0], [0, 0, 1]] maps [x; 1; u] to
    [x+; 1; u], and a step from x(k) delivers P(k) = c_m . [x(k); 1; u]
    with c_m = [r_now + r_next A_m, r_next . f_m + const, r_next . b_m].
    All three modes are formed at once from the model's branch stack, whose
    ``MODES`` order the rows share.  Move blocking holds a block's mode
    fixed, so its i-th step delivers (c_m M_m^i) . [x_start; 1; u]; the last
    two entries of that row are the step's affine terms.  A block's start
    states depend only on the modes of the blocks before it (3^j of them for
    block j), so each block's powers are one product of these rows with its
    start states, offset and gain columns side by side: the offset column
    carries the constant 1, and the input row holds the current block's
    flow, 1 in its gain column and 0 elsewhere.  A storing block's b_m is
    zero, so its gain column stays exactly zero.  Only the blocks before the
    last are stepped, one product per step, to produce the next block's
    start states; no sequence's state trajectory is formed (``trajectory``
    does that, for one sequence).
    ``power_rows`` is ``power_linear_rows(grid, params, cfg.dt)``.
    """
    x0 = validate_state(x0, model.nu)
    nb = len(cfg.blocks)
    n = model.n
    r_now, r_next, p_const = power_rows

    M = np.zeros((len(MODES), n + 2, n + 2))
    M[:, :n, :n] = model.A
    M[:, :n, n] = model.f
    M[:, :n, n + 1] = model.b
    M[:, n, n] = M[:, n + 1, n + 1] = 1.0
    # rows[m, i] = c_m M_m^i for i below the longest block.
    rows = np.empty((len(MODES), max(cfg.blocks), n + 2))
    rows[:, 0] = r_next @ M[:, :n]
    rows[:, 0, :n] += r_now
    rows[:, 0, n] += p_const
    for i in range(1, rows.shape[1]):
        rows[:, i] = (rows[:, i - 1, None, :] @ M)[:, 0]

    grid_shape = (len(MODES),) * nb
    p_off = np.empty(grid_shape + (cfg.horizon,))
    p_gain = np.empty(grid_shape + (cfg.horizon, nb))
    # Start states of the current block, one per mode prefix: column 0 is
    # the offset, column 1 + j the gain of block j.
    starts = np.zeros((1, n + 2, 1 + nb))
    starts[0, :n, 0] = x0
    starts[0, n, 0] = 1.0
    k = 0
    for j, length in enumerate(cfg.blocks):
        # The input row now stands for block j's flow.
        starts[:, n + 1] = 0.0
        starts[:, n + 1, 1 + j] = 1.0
        # powers[p, m, i]: i-th step of block j in mode m from start p.
        powers = rows[None, :, :length] @ starts[:, None]
        # The block's powers hold for every mode of the blocks after it.
        prefix = grid_shape[:j + 1] + (1,) * (nb - 1 - j) + (length,)
        p_off[..., k:k + length] = powers[..., 0].reshape(prefix)
        p_gain[..., k:k + length, :] = powers[..., 1:].reshape(prefix + (nb,))
        k += length
        if j + 1 < nb:
            states = starts[:, None]
            for _ in range(length):
                states = M @ states
            starts = states.reshape(-1, n + 2, 1 + nb)
    # The grid flattened in C order is the sequence table's order.
    return p_off.reshape(-1, cfg.horizon), p_gain.reshape(-1, cfg.horizon, nb)


@functools.cache
def _input_weight(cfg: OcpConfig) -> np.ndarray:
    """The pumping term's block Hessian diag(q_u * block length), built once
    per config (read-only)."""
    weight = np.diag(cfg.q_u * np.asarray(cfg.blocks, dtype=float))
    weight.flags.writeable = False
    return weight


def build_cost(power: tuple[np.ndarray, np.ndarray], demand: np.ndarray,
               b_past: float, cfg: OcpConfig
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic cost of every sequence over (block inputs, shared slack),
    from the power maps ``condense`` returns.

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
    p_off, p_gain = power
    nb = len(cfg.blocks)
    nv = nb + 1  # blocks + slack
    n_seq = p_off.shape[0]

    p_gain_mw = p_gain / W_PER_MW
    p_err_mw = (p_off - demand) / W_PER_MW
    # Balance argument (dt * sum P + B_past) expressed as an equivalent
    # average power in MW over the balance window, so it shares the tracking
    # term's scale.
    balance_s = cfg.balance_hours * 3600.0
    e_gain = cfg.dt * p_gain_mw.sum(axis=1) / balance_s
    e_off = (cfg.dt * p_off.sum(axis=1) + b_past) / (balance_s * W_PER_MW)

    weighted_t = cfg.q_d * p_gain_mw.transpose(0, 2, 1)
    H = np.zeros((n_seq, nv, nv))
    g = np.zeros((n_seq, nv))
    H[:, :nb, :nb] = 2.0 * (weighted_t @ p_gain_mw + _input_weight(cfg)
                            + cfg.q_e * (e_gain[:, :, None] * e_gain[:, None, :]))
    g[:, :nb] = 2.0 * (np.matmul(weighted_t, p_err_mw[:, :, None])[..., 0]
                       + cfg.q_e * e_off[:, None] * e_gain)
    H[:, nb, nb] = 2.0 * cfg.slack_weight
    # float_power rounds like the one-sequence scalar e_off**2; the array
    # square x*x differs in the last bit about once in a thousand.
    const = (cfg.q_d * np.vecdot(p_err_mw, p_err_mw)
             + cfg.q_e * np.float_power(e_off, 2))
    return H, g, const


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
    p_off, p_gain = power = condense(model, cfg, x0,
                                     power_linear_rows(grid, params, cfg.dt))
    H, g, const = build_cost(power, demand, b_past, cfg)
    costs = _lower_bounds(H, g, const, table.lo, table.hi)

    n_seq = costs.size
    status = np.full(n_seq, "pruned", dtype="U10")
    flows = np.full((n_seq, nb), np.nan)
    slacks = np.full(n_seq, np.nan)
    # Sequences are visited in ascending key, a raised bound less a margin
    # for rounding in the bound itself, and the search stops at the first key
    # above the incumbent's limit.  The incumbent only falls and costs are
    # >= 0, so its tolerance is at least the final one: a pruned sequence
    # never enters the near-tie set.
    keys = costs - 1e-12 * np.maximum(np.abs(costs), const)
    x_min, x_max = cfg.state_bounds(model.nu)
    solved = soft_rows_added = 0
    optimal: dict[int, np.ndarray | None] = {}   # trajectory at the optimum
    incumbent = limit = np.inf
    for s in np.argsort(keys, kind="stable").tolist():
        if keys[s] > limit:
            break
        solved += 1
        # The box QP: a storing block's flow is fixed at zero, so the QP is
        # over the pumping blocks' flows and the slack (``free``).
        G, h, free, ix = table.boxes[s]
        qp = Qp(H[s][ix], g[s][free], G, h)
        result = solve_qp(qp)
        z = np.zeros(nb + 1)     # storing flows are exactly zero
        # A failed result carries value inf and NaN in the QP's variables.
        z[free] = result.z_star
        x = None
        if result.status == "optimal":
            x = trajectory(model, cfg, x0, table.modes[s], z[:nb])
            if (max((x[1:] - x_max).max(), (x_min - x[1:]).max()) - z[nb]
                    > _FEAS_TOL):
                # The box optimum leaves the soft box: solve the full QP.
                # Its trajectory is rolled out for the winner only.
                G_x, h_x = soft_rows(model, cfg, x0, table.modes[s], free[:-1])
                soft_rows_added += h_x.size
                result = solve_qp(Qp(qp.H, qp.g, np.vstack([G, G_x]),
                                     np.concatenate([h, h_x])))
                z[free] = result.z_star
                x = None
        total = result.value + const[s]
        status[s], costs[s] = result.status, total
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
    s = near[0] if len(near) == 1 else min(
        near, key=lambda s: (np.count_nonzero(table.pumping[s]),
                             float(np.linalg.norm(flows[s])), table.names[s]))
    total, x_pred = costs[s], optimal[s]

    u_blocks = np.clip(flows[s], table.lo[s], table.hi[s])
    # An active zero bound can come back as +-1e-19; its sign would select a
    # pumping branch in the model, the filter and the recorded mode while the
    # plant pumps nothing.
    snap = (u_blocks != 0.0) & (np.abs(u_blocks) <= 1e-12 * cfg.u_max)
    u_blocks[snap] = 0.0

    if x_pred is None or not np.array_equal(u_blocks, flows[s]):
        x_pred = trajectory(model, cfg, x0, table.modes[s], u_blocks)
    p_pred = p_off[s] + p_gain[s] @ u_blocks

    demand = np.asarray(demand, dtype=float)
    slack_used = max(0.0, float((x_pred[1:] - x_max).max()),
                     float((x_min - x_pred[1:]).max()))
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
    for a in (status, costs, flows, slacks):
        a.flags.writeable = False
    return OcpSolution(u_blocks, table.names[s], x_pred, p_pred, total, terms,
                       slack_used, counts, table.names, status, costs, flows,
                       slacks)
