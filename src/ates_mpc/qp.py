"""Small dense strictly-convex QP solver with linear inequality constraints.

Solves min 1/2 z'Hz + g'z  s.t.  G z <= h with the dual active-set method of
Goldfarb & Idnani (Math. Programming 27, 1983).  The iteration starts at the
unconstrained minimiser -H^-1 g, which is optimal for the empty active set,
and adds the most violated row (lowest index on ties) until no row is
violated by more than ``_FEAS_TOL``; an active row whose multiplier would
turn negative on the way is dropped.  The steps let the active rows drift,
so unless the final ones hold exactly, the answer is then moved back onto
them and their multipliers are fitted there.  A violated row that depends
linearly on the active rows, while no active multiplier falls as its own
rises, proves the problem infeasible, so no feasible start is needed.
Problems here are tiny (a handful of decision variables, up to ~1000 rows)
and must be bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_FEAS_TOL = 1e-9
# A row whose part outside the span of the active rows (in the H^-1 metric)
# is below this share of its length counts as dependent on them.
_DEPENDENT_TOL = 1e-10


@dataclass(frozen=True)
class Qp:
    H: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ParameterError(f"H must be square, got shape {H.shape}")
        size = np.abs(H).max(initial=0.0)
        # Written so that a NaN entry fails it too.
        if not np.abs(H - H.T).max(initial=0.0) <= 1e-12 * max(1.0, size):
            raise ParameterError("H must be symmetric")

    @property
    def m(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class QpResult:
    z_star: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible" | "stalled"
    kkt_residual: float
    active_set: tuple[int, ...]
    iterations: int = 0  # rows added plus rows dropped


def _regularize(H: np.ndarray) -> np.ndarray:
    """Cholesky factor of H when it exists with every squared pivot at least
    1e-12; otherwise, if H's smallest eigenvalue is below 1e-12, the factor of
    H shifted so that it is at least 1e-10.  Raises ``LinAlgError`` when no
    factor exists."""
    try:
        L = np.linalg.cholesky(H)
        if np.diagonal(L).min() ** 2 >= 1e-12:
            return L
    except np.linalg.LinAlgError:
        pass
    eigmin = float(np.linalg.eigvalsh(H).min())
    if eigmin < 1e-12:
        H = H + (1e-10 + max(0.0, -eigmin)) * np.eye(H.shape[0])
    return np.linalg.cholesky(H)


def _failed(m: int, status: str, iterations: int) -> QpResult:
    """A failed solve: NaN in the m variables, infinite value and residual."""
    return QpResult(np.full(m, np.nan), np.inf, status, np.inf, (), iterations)


def _iteration_cap(m: int, p: int) -> int:
    # Active-set iterations scale with the constraint count; a tight cap keeps
    # a degenerate stall cheap (callers treat a stalled result as a failed
    # candidate).
    return 100 + 10 * m + 2 * p


def _kkt_residual(qp: Qp, z: np.ndarray, G: np.ndarray, rows: list[int],
                  lam: np.ndarray, slack: np.ndarray) -> float:
    """Worst KKT violation of ``z`` with multipliers ``lam`` on ``rows`` of
    ``G`` (zero elsewhere); ``slack`` is ``G z - h``.  With no rows the
    multiplier terms are zero and are not formed."""
    stat = qp.H @ z + qp.g
    scale = max(1.0, float(np.abs(qp.g).max(initial=0.0)))
    primal = max(0.0, float(slack.max(initial=0.0)))
    if not rows:
        return max(float(np.abs(stat).max()) / scale, primal)
    stat += lam @ G[rows]
    return max(float(np.abs(stat).max()) / scale, primal,
               max(0.0, float((-lam).max(initial=0.0))),
               float(np.abs(lam * slack[rows]).max(initial=0.0)) / scale)


def solve_qp(qp: Qp) -> QpResult:
    """Dual active-set solve; a failure is a status, not an exception.

    With ``H = L L'`` and ``J = L^-1``, adding row ``a`` with multiplier ``t``
    moves ``z`` along ``-J' r`` and the active multipliers along ``-w``,
    where ``w`` is the least-squares fit of ``J a`` by the active rows'
    ``J G_i`` and ``r = J a - (J G_W') w`` its residual.  The row's violation
    falls at rate ``|r|^2``; the step stops when it reaches zero (the row
    enters) or when an active multiplier reaches zero (that row leaves and
    the same row is tried again).  ``r = 0`` with no multiplier to reduce
    means no ``z`` satisfies the row together with the active ones
    (``"infeasible"``).  A Hessian with no factor, or a solve that reaches
    the iteration cap, is ``"stalled"``.  Either failure has NaN ``z`` and
    an infinite value.
    """
    G = np.asarray(qp.G, dtype=float).reshape(-1, qp.m)
    h = np.asarray(qp.h, dtype=float)
    m = qp.m
    try:
        J = np.linalg.inv(_regularize(np.asarray(qp.H, dtype=float)))
    except np.linalg.LinAlgError:
        return _failed(m, "stalled", 0)
    z = -(J.T @ (J @ np.asarray(qp.g, dtype=float)))
    work: list[int] = []       # active rows, in the order they entered
    lam = np.zeros(0)          # their multipliers
    add = -1                   # row being added, -1 when none
    t_add = 0.0                # its multiplier so far

    it = 0
    while it < _iteration_cap(m, h.size):
        if add < 0:
            slack = G @ z - h
            viol = slack
            if work:
                viol = slack.copy()
                viol[work] = -np.inf
            add = int(np.argmax(viol)) if h.size else -1
            if add < 0 or viol[add] <= _FEAS_TOL:
                if work and slack[work].any():
                    # The steps let the active rows drift: put z back on
                    # them by the smallest move in the H metric, then fit
                    # their multipliers to the gradient there.  Rows that
                    # hold exactly need neither.
                    Q, R = np.linalg.qr(J @ G[work].T)
                    z = z + J.T @ (Q @ np.linalg.solve(R.T, -slack[work]))
                    lam = -np.linalg.solve(R, Q.T @ (J @ (qp.H @ z + qp.g)))
                    slack = G @ z - h
                value = 0.5 * float(z @ qp.H @ z) + float(qp.g @ z)
                return QpResult(z, value, "optimal",
                                _kkt_residual(qp, z, G, work, lam, slack),
                                tuple(sorted(work)), it)
            t_add = 0.0
        c = J @ G[add]
        if work:
            Q, R = np.linalg.qr(J @ G[work].T)
            w = np.linalg.solve(R, Q.T @ c)
            r = c - Q @ (Q.T @ c)
        else:
            w, r = np.zeros(0), c
        # Largest step before an active multiplier reaches zero.
        shrink = np.nonzero(w > 0.0)[0]
        drop = -1
        t = np.inf
        if shrink.size:
            ratios = lam[shrink] / w[shrink]
            drop = int(shrink[np.argmin(ratios)])
            t = float(ratios.min())
        rr = float(r @ r)
        if rr > (_DEPENDENT_TOL ** 2) * float(c @ c):
            t_full = max(0.0, float(G[add] @ z - h[add])) / rr
            if t_full <= t:
                t, drop = t_full, -1
            z = z - t * (J.T @ r)
        elif drop < 0:
            return _failed(m, "infeasible", it + 1)
        lam = np.maximum(lam - t * w, 0.0)
        t_add += t
        if drop < 0:
            work.append(add)
            lam = np.append(lam, t_add)
            add = -1
        else:
            work.pop(drop)
            lam = np.delete(lam, drop)
        it += 1

    return _failed(m, "stalled", it)
