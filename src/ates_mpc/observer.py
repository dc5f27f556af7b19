"""Projected unscented Kalman filter over the piecewise-affine model.

The dynamics seen by the filter are affine for any fixed applied flow, so the
unscented transform is exact here and the filter coincides with a Kalman
filter on each branch; the sigma-point machinery keeps the implementation
independent of that structure.  The step function maps the whole row stack
of sigma points in one call, so an affine step is one matrix product.
State bounds are enforced by clipping the mean (estimate projection); the
covariance is left as it is, so box-pinned states keep their uncertainty.
``predict`` and ``update`` only symmetrise the covariance; ``sigma_points``
is the one place that factors it, and it repairs it (``repair_psd``) only
when the factorization fails.  The sigma weights are built once per ``n``
and read-only; each hour the noise variances are added to the diagonals in
place and each symmetrisation forms one new array, with every product in
the operand order of the plain expressions, so the results are theirs bit
for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError

# Sigma-point spread.  Any kappa > -n gives the same moments for an affine
# step, which every step of the filter is, so it is no setting; 5.0 keeps
# the reference estimates' bits.
_KAPPA = 5.0


@dataclass(frozen=True)
class GaussianEstimate:
    mean: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class UkfConfig:
    """Sensor selection matrix and noise variances."""

    C: np.ndarray
    process_var: float
    measurement_var: float

    def __post_init__(self):
        # Zero process noise is a deterministic model; the innovation
        # covariance needs a positive measurement variance.
        if not (self.process_var >= 0.0 and self.measurement_var > 0.0):
            raise ParameterError(
                f"need process variance >= 0 and measurement variance > 0, got "
                f"{self.process_var!r} and {self.measurement_var!r}")

    @staticmethod
    def sensor_matrix(nu: int) -> np.ndarray:
        """Unit selectors of warm borehole, warm far cell, cold borehole, cold far cell."""
        n = 2 * (nu + 1)
        C = np.zeros((4, n))
        for row, idx in enumerate((0, nu, nu + 1, 2 * nu + 1)):
            C[row, idx] = 1.0
        return C


@dataclass(frozen=True)
class PredictedMoments:
    mean: np.ndarray
    cov: np.ndarray
    y_hat: np.ndarray
    cov_xy: np.ndarray
    cov_yy: np.ndarray


def _symmetrized(cov: np.ndarray) -> np.ndarray:
    """``0.5 * (cov + cov.T)``, formed in one new array."""
    sym = cov + cov.T
    sym *= 0.5
    return sym


def repair_psd(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and, if needed, push tiny negative eigenvalues back to zero.

    A successful Cholesky factorization certifies the symmetrized matrix
    positive definite, so it is returned as it is; only a failed one pays
    for the eigenvalues.
    """
    cov = _symmetrized(cov)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(cov).min())
        if eigmin < 0.0:
            cov = cov - eigmin * np.eye(cov.shape[0])
    return cov


@functools.cache
def _sigma_weights(n: int) -> np.ndarray:
    """Weights of the 2n+1 symmetric sigma points, built once and read-only."""
    scale = n + _KAPPA
    weights = np.full(2 * n + 1, 0.5 / scale)
    weights[0] = _KAPPA / scale
    weights.flags.writeable = False
    return weights


def sigma_points(est: GaussianEstimate) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Julier sigma set: (2n+1, n) points and their read-only weights."""
    n = est.n
    scale = n + _KAPPA
    cov = _symmetrized(est.cov)
    try:
        L = np.linalg.cholesky(scale * cov)
    except np.linalg.LinAlgError:
        # Singular or slightly indefinite: use an eigenvalue square root.
        w, V = np.linalg.eigh(scale * repair_psd(cov))
        L = V * np.sqrt(np.clip(w, 0.0, None))
    points = np.empty((2 * n + 1, n))
    points[0] = est.mean
    np.add(est.mean, L.T, out=points[1:n + 1])
    np.subtract(est.mean, L.T, out=points[n + 1:])
    return points, _sigma_weights(n)


def predict(est: GaussianEstimate, step_fn: Callable[[np.ndarray], np.ndarray],
            cfg: UkfConfig) -> PredictedMoments:
    """Propagate the estimate through one model step and form output moments.

    ``step_fn`` maps a row stack ``(m, n)`` of states to the stack of their
    successors; it is called once, on all 2n+1 sigma points (the applied
    input is baked in by the caller, so every point traverses the same
    branch).
    """
    points, weights = sigma_points(est)
    propagated = step_fn(points)
    mean = weights @ propagated
    centered = propagated - mean
    cov = (centered.T * weights) @ centered
    cov.flat[::est.n + 1] += cfg.process_var
    cov = _symmetrized(cov)
    y_hat = cfg.C @ mean
    cov_xy = cov @ cfg.C.T
    cov_yy = cfg.C @ cov @ cfg.C.T
    cov_yy.flat[::cov_yy.shape[0] + 1] += cfg.measurement_var
    return PredictedMoments(mean, cov, y_hat, cov_xy, cov_yy)


def update(predicted: PredictedMoments, y: np.ndarray) -> GaussianEstimate:
    """Measurement update with gain W = cov_xy cov_yy^{-1}.

    ``y`` holds one reading per sensor, in the order of ``y_hat``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != predicted.y_hat.shape:
        raise ParameterError(f"need {predicted.y_hat.size} sensor readings, got "
                             f"shape {y.shape}")
    gain = np.linalg.solve(predicted.cov_yy, predicted.cov_xy.T).T
    mean = gain @ (y - predicted.y_hat)
    mean += predicted.mean
    cov = gain @ predicted.cov_yy @ gain.T
    np.subtract(predicted.cov, cov, out=cov)
    return GaussianEstimate(mean, _symmetrized(cov))


def project(est: GaussianEstimate, x_min: np.ndarray, x_max: np.ndarray
            ) -> GaussianEstimate:
    """Clip the mean onto the state box; the covariance is returned unchanged.

    Treating a violated bound as a perfect measurement would collapse the
    variance of every box-pinned state and leave the covariance singular.
    """
    x_min = np.asarray(x_min, dtype=float)
    x_max = np.asarray(x_max, dtype=float)
    # Written so that a NaN bound fails it too.
    if not (x_min <= x_max).all():
        raise ParameterError("state bounds must be ordered")
    return GaussianEstimate(est.mean.clip(x_min, x_max), est.cov)
