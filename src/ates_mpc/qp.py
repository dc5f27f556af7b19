"""Small dense strictly-convex QP solver with linear inequality constraints.

Solves min 1/2 z'Hz + g'z  s.t.  G z <= h with a primal active-set iteration.
Problems here are tiny (a handful of decision variables, up to ~1000 rows),
warm-startable, and must be bit-deterministic; ties in constraint selection
are broken by lowest row index.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError

_FEAS_TOL = 1e-9
_KKT_TOL = 1e-8


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
        if not np.allclose(H, H.T, atol=1e-12 * max(1.0, float(np.abs(H).max()))):
            raise ParameterError("H must be symmetric")

    @property
    def m(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class QpResult:
    z_star: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible"
    kkt_residual: float
    active_set: tuple[int, ...]
    duals: np.ndarray | None = None
    iterations: int = 0  # active-set iterations, phase-1 included


def _regularize(H: np.ndarray) -> np.ndarray:
    eigmin = float(np.linalg.eigvalsh(H).min())
    if eigmin < 1e-12:
        return H + (1e-10 + max(0.0, -eigmin)) * np.eye(H.shape[0])
    return H


def _iteration_cap(m: int, p: int) -> int:
    # Active-set iterations scale with the constraint count; a tight cap keeps
    # a degenerate stall cheap (callers treat the raised error as a failed
    # candidate).
    return 100 + 10 * m + 2 * p


def _feasible_point(G: np.ndarray, h: np.ndarray, m: int
                    ) -> tuple[np.ndarray | None, int]:
    """Phase-1 on this solver: minimize the largest violation s over (z, s).

    Subject to G z - s <= h and -s <= 0; z = 0 with s above the worst
    violation of z = 0 is a feasible start.  Returns the point (None if
    infeasible) and the iterations spent.
    """
    G1 = np.zeros((G.shape[0] + 1, m + 1))
    G1[:-1, :m] = G
    G1[:, m] = -1.0
    e_s = np.eye(m + 1)[m]
    z0 = (max(0.0, float(np.max(-h))) + 1.0) * e_s
    try:
        res = solve_qp(Qp(np.zeros((m + 1, m + 1)), e_s, G1, np.append(h, 0.0)),
                       z0)
    except SolverError:
        # An LP's stationary points are optimal, so a stall short of s = 0
        # means infeasible.
        return None, _iteration_cap(m + 1, G1.shape[0])
    z = res.z_star
    return (None if z[m] > 1e-7 else z[:m]), res.iterations


def _kkt_residual(qp: Qp, z: np.ndarray, lam: np.ndarray) -> float:
    stat = qp.H @ z + qp.g + qp.G.T @ lam
    slack = qp.G @ z - qp.h
    primal = max(0.0, float(slack.max(initial=0.0)))
    dual = max(0.0, float((-lam).max(initial=0.0)))
    comp = float(np.abs(lam * slack).max(initial=0.0))
    scale = max(1.0, float(np.abs(qp.g).max(initial=0.0)))
    return max(float(np.abs(stat).max()) / scale, primal, dual, comp / scale)


def solve_qp(qp: Qp, z0: np.ndarray | None = None) -> QpResult:
    """Primal active-set solve; returns status 'infeasible' instead of raising.

    ``z0`` is an optional feasible warm start; otherwise a phase-1 solve finds one.
    """
    H = _regularize(np.asarray(qp.H, dtype=float))
    g = np.asarray(qp.g, dtype=float)
    G = np.asarray(qp.G, dtype=float).reshape(-1, qp.m)
    h = np.asarray(qp.h, dtype=float)
    m = qp.m
    p = G.shape[0]

    phase1 = 0
    if z0 is not None and np.all(G @ z0 <= h + _FEAS_TOL):
        z = np.asarray(z0, dtype=float).copy()
    elif p == 0:
        z = np.zeros(m)
    else:
        z, phase1 = _feasible_point(G, h, m)
        if z is None:
            return QpResult(np.full(m, np.nan), np.inf, "infeasible", np.inf, (),
                            iterations=phase1)
    work: list[int] = np.nonzero(np.abs(G @ z - h) <= _FEAS_TOL)[0].tolist()
    # Keep at most m linearly independent rows in the working set.
    work = _prune_dependent(G, work, m)

    max_iter = _iteration_cap(m, p)
    stall = 0  # consecutive iterations without primal progress
    for it in range(max_iter):
        try:
            sol = np.linalg.solve(*_kkt_system(H, g, G, z, work))
        except np.linalg.LinAlgError:
            work = _prune_dependent(G, work, m)
            sol = np.linalg.lstsq(*_kkt_system(H, g, G, z, work), rcond=None)[0]
        nw = len(work)
        step = sol[:m]
        lam_w = sol[m:]

        # A step is zero when it is at rounding level, or when its model
        # decrease 1/2 step'H step is: along directions the working set leaves
        # free, a (nearly) linear objective, as in phase-1, otherwise drifts
        # at rounding level until the iteration cap.
        tiny = float(np.abs(step).max(initial=0.0)) <= 1e-11 * max(1.0, float(np.abs(z).max()))
        if not tiny:
            objective = 0.5 * float(z @ H @ z) + float(g @ z)
            tiny = 0.5 * float(step @ H @ step) <= 1e-14 * max(1.0, abs(objective))
        if tiny:
            if nw == 0 or lam_w.min(initial=0.0) >= -1e-9:
                lam_full = np.zeros(p)
                lam_full[work] = np.maximum(lam_w, 0.0)
                value = 0.5 * float(z @ qp.H @ z) + float(qp.g @ z)
                res = _kkt_residual(qp, z, lam_full)
                return QpResult(z, value, "optimal", res, tuple(sorted(work)),
                                lam_full, phase1 + it + 1)
            # Drop the most negative multiplier (lowest index on ties); after
            # a long degenerate stall switch to Bland's rule (lowest
            # constraint index with a negative multiplier), which cannot
            # cycle.
            neg = [j for j in range(nw) if lam_w[j] < -1e-9]
            if stall > 25:
                drop = min(neg, key=lambda j: work[j])
            else:
                drop = min(neg, key=lambda j: (lam_w[j], work[j]))
            work.pop(drop)
            stall += 1
            continue

        # Longest feasible step along `step` (vectorized over all rows).
        alpha = 1.0
        blocking = -1
        if p:
            g_step = G @ step
            mask = g_step > 1e-14
            mask[work] = False
            if mask.any():
                idx = np.nonzero(mask)[0]
                ratios = (h[idx] - G[idx] @ z) / g_step[idx]
                j = int(np.argmin(ratios))
                if ratios[j] < alpha - 1e-15:
                    alpha = max(float(ratios[j]), 0.0)
                    blocking = int(idx[j])
        stall = stall + 1 if alpha <= 1e-14 else 0
        z = z + alpha * step
        if blocking >= 0:
            # G_blocking . step > 0 while G_w . step = 0 on the working set,
            # so the blocking row is independent of it: no prune needed.
            bisect.insort(work, blocking)

    raise SolverError(f"active-set iteration cap {max_iter} exceeded")


def _kkt_system(H: np.ndarray, g: np.ndarray, G: np.ndarray, z: np.ndarray,
                work: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """KKT matrix and right-hand side of the step with the working set held."""
    m = H.shape[0]
    nw = len(work)
    Gw = G[work]
    K = np.zeros((m + nw, m + nw))
    K[:m, :m] = H
    K[:m, m:] = Gw.T
    K[m:, :m] = Gw
    return K, np.concatenate([-(H @ z + g), np.zeros(nw)])


def _prune_dependent(G: np.ndarray, rows: list[int], m: int) -> list[int]:
    """Keep a lowest-index maximal linearly independent subset, at most m rows."""
    kept: list[int] = []
    for i in rows:
        cand = G[kept + [i]]
        if np.linalg.matrix_rank(cand) == len(kept) + 1:
            kept.append(i)
        if len(kept) == m:
            break
    return kept
