import dataclasses

import numpy as np
import pytest

from ates_mpc import (GaussianEstimate, ParameterError, UkfConfig, build_pwa,
                      predict, project, pwa_step, update)
from ates_mpc.observer import repair_psd, sigma_points


def make_affine(rng, n):
    A = 0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = rng.standard_normal(n)
    f = rng.standard_normal(n)
    return A, b, f


def test_sigma_points_scalar_example():
    est = GaussianEstimate(np.zeros(1), np.eye(1))
    points, weights = sigma_points(est)
    assert sorted(points.ravel()) == pytest.approx(
        sorted([0.0, np.sqrt(6.0), -np.sqrt(6.0)]))
    assert weights[0] == pytest.approx(5.0 / 6.0)
    assert np.all(weights[1:] == pytest.approx(1.0 / 12.0))
    assert weights.sum() == pytest.approx(1.0)


def test_sigma_points_moment_matching():
    rng = np.random.default_rng(0)
    n = 6
    mean = rng.standard_normal(n)
    M = rng.standard_normal((n, n))
    cov = M @ M.T + np.eye(n)
    points, weights = sigma_points(GaussianEstimate(mean, cov))
    assert np.allclose(weights @ points, mean, atol=1e-10)
    centered = points - mean
    assert np.allclose((centered.T * weights) @ centered, cov, atol=1e-9)


def test_sigma_points_zero_covariance():
    mean = np.array([1.0, 2.0])
    points, _ = sigma_points(GaussianEstimate(mean, np.zeros((2, 2))))
    assert np.allclose(points, mean)


def test_sensor_matrix_layout():
    C = UkfConfig.sensor_matrix(20)
    assert C.shape == (4, 42)
    for row, idx in enumerate((0, 20, 21, 41)):
        assert C[row, idx] == 1.0
    assert C.sum() == 4.0


@pytest.mark.parametrize("kw", [dict(process_var=-1.0, C=np.eye(2)),
                                dict(measurement_var=0.0, C=np.eye(2)),
                                dict(measurement_var=float("nan"), C=np.eye(2))])
def test_config_rejects_values_outside_noise_domains(reference, kw):
    with pytest.raises(ParameterError):
        dataclasses.replace(reference.ukf, **kw)


def test_predict_requires_sensor_matrix():
    with pytest.raises(TypeError):
        UkfConfig()


def test_predict_delta_prior_mean(reference):
    cfg = dataclasses.replace(reference.ukf, C=np.eye(2), process_var=0.0)
    est = GaussianEstimate(np.array([1.0, -1.0]), np.zeros((2, 2)))
    step = lambda x: 2.0 * x + 1.0
    pred = predict(est, step, cfg)
    assert np.allclose(pred.mean, step(est.mean), atol=1e-12)


def test_predict_innovation_covariance_identity(reference):
    rng = np.random.default_rng(1)
    n = 5
    A, b, f = make_affine(rng, n)
    C = np.zeros((2, n))
    C[0, 0] = C[1, n - 1] = 1.0
    cfg = dataclasses.replace(reference.ukf, C=C)
    M = rng.standard_normal((n, n))
    cov = M @ M.T + np.eye(n)
    est = GaussianEstimate(rng.standard_normal(n), cov)
    pred = predict(est, lambda x: np.matvec(A, x) + b * 0.3 + f, cfg)
    cov_pred = A @ cov @ A.T + cfg.process_var * np.eye(n)
    assert np.allclose(pred.cov, cov_pred, atol=1e-9)
    assert np.allclose(pred.cov_yy, C @ cov_pred @ C.T
                       + cfg.measurement_var * np.eye(2), atol=1e-9)


def test_ukf_equals_kalman_on_affine_branch(reference):
    rng = np.random.default_rng(2)
    n = 8
    A, b, f = make_affine(rng, n)
    C = np.zeros((3, n))
    C[0, 0] = C[1, 3] = C[2, 7] = 1.0
    cfg = dataclasses.replace(reference.ukf, C=C)
    mean = rng.standard_normal(n)
    M = rng.standard_normal((n, n))
    cov = M @ M.T + np.eye(n)
    est_ukf = GaussianEstimate(mean.copy(), cov.copy())
    mean_kf, cov_kf = mean.copy(), cov.copy()
    for k in range(20):
        u = float(np.sin(0.3 * k))
        pred = predict(est_ukf, lambda x: np.matvec(A, x) + b * u + f, cfg)
        mean_kf = A @ mean_kf + b * u + f
        cov_kf = A @ cov_kf @ A.T + cfg.process_var * np.eye(n)
        assert np.max(np.abs(pred.mean - mean_kf)) < 1e-10
        assert np.max(np.abs(pred.cov - cov_kf)) < 1e-9
        y = C @ mean_kf + rng.normal(0.0, 0.01, 3)
        est_ukf = update(pred, y)
        S = C @ cov_kf @ C.T + cfg.measurement_var * np.eye(3)
        W = cov_kf @ C.T @ np.linalg.inv(S)
        mean_kf = mean_kf + W @ (y - C @ mean_kf)
        cov_kf = cov_kf - W @ S @ W.T
        assert np.max(np.abs(est_ukf.mean - mean_kf)) < 1e-9
        assert np.max(np.abs(est_ukf.cov - cov_kf)) < 1e-8


def test_predict_steps_all_sigma_points_in_one_call(grid, params, hx,
                                                    reference):
    # A warm front and a cold one, so every branch sees a non-trivial state.
    rng = np.random.default_rng(5)
    x_ref = params.t_amb + np.concatenate([4.0 * np.exp(-np.arange(21) / 6.0),
                                           -3.0 * np.exp(-np.arange(21) / 8.0)])
    M = 0.05 * rng.standard_normal((42, 42))
    est = GaussianEstimate(x_ref + 0.1 * rng.standard_normal(42),
                           M @ M.T + 1e-3 * np.eye(42))
    cfg = reference.ukf
    for u in (0.02, 0.0, -0.02):
        model = build_pwa(grid, params, hx, 3600.0, x_ref, u)
        shapes = []

        def step(x):
            shapes.append(x.shape)
            return pwa_step(model, x, u)

        pred = predict(est, step, cfg)
        assert shapes == [(85, 42)]
        # Reference: the sigma points stepped one at a time.
        points, weights = sigma_points(est)
        propagated = np.stack([pwa_step(model, p, u) for p in points])
        mean = weights @ propagated
        centered = propagated - mean
        cov = (centered.T * weights) @ centered + cfg.process_var * np.eye(42)
        cov = 0.5 * (cov + cov.T)
        assert np.array_equal(pred.mean, mean)
        assert np.array_equal(pred.cov, cov)
        assert np.array_equal(pred.y_hat, cfg.C @ mean)
        assert np.array_equal(pred.cov_xy, cov @ cfg.C.T)


@pytest.mark.parametrize("selector", ("unit", "general"))
def test_moments_and_update_match_written_out_expressions(grid, params, hx,
                                                          reference, selector):
    """The sigma set, the predicted moments and the update bit for bit against
    the expressions written out, for the unit sensor selector and for a
    general C; no input array is written to."""
    rng = np.random.default_rng(8)
    x_ref = params.t_amb + np.concatenate([4.0 * np.exp(-np.arange(21) / 6.0),
                                           -3.0 * np.exp(-np.arange(21) / 8.0)])
    M = 0.05 * rng.standard_normal((42, 42))
    est = GaussianEstimate(x_ref + 0.1 * rng.standard_normal(42),
                           M @ M.T + 1e-3 * np.eye(42))
    cfg = reference.ukf
    if selector == "general":
        cfg = dataclasses.replace(cfg, C=rng.standard_normal((4, 42)))
    C, Q, R = cfg.C, cfg.process_var, cfg.measurement_var
    u = 0.02
    model = build_pwa(grid, params, hx, 3600.0, x_ref, u)
    prior = (est.mean.copy(), est.cov.copy())
    pred = predict(est, lambda x: pwa_step(model, x, u), cfg)

    scale = 42 + 5.0
    L = np.linalg.cholesky(scale * (0.5 * (est.cov + est.cov.T)))
    points = np.vstack([est.mean, est.mean + L.T, est.mean - L.T])
    weights = np.full(85, 0.5 / scale)
    weights[0] = 5.0 / scale
    propagated = pwa_step(model, points, u)
    mean = weights @ propagated
    centered = propagated - mean
    cov = (centered.T * weights) @ centered + Q * np.eye(42)
    cov = 0.5 * (cov + cov.T)
    y_hat, cov_xy = C @ mean, cov @ C.T
    cov_yy = C @ cov @ C.T + R * np.eye(4)
    assert np.array_equal(pred.mean, mean)
    assert np.array_equal(pred.cov, cov)
    assert np.array_equal(pred.y_hat, y_hat)
    assert np.array_equal(pred.cov_xy, cov_xy)
    assert np.array_equal(pred.cov_yy, cov_yy)

    y = y_hat + 0.05 * rng.standard_normal(4)
    moments = [a.copy() for a in (pred.mean, pred.cov, pred.y_hat, pred.cov_xy,
                                  pred.cov_yy)]
    post = update(pred, y)
    gain = np.linalg.solve(cov_yy, cov_xy.T).T
    post_cov = cov - gain @ cov_yy @ gain.T
    assert np.array_equal(post.mean, mean + gain @ (y - y_hat))
    assert np.array_equal(post.cov, 0.5 * (post_cov + post_cov.T))

    assert np.array_equal(est.mean, prior[0]) and np.array_equal(est.cov, prior[1])
    for before, after in zip(moments, (pred.mean, pred.cov, pred.y_hat,
                                       pred.cov_xy, pred.cov_yy)):
        assert np.array_equal(before, after)


def test_sigma_points_fallback_on_an_indefinite_covariance():
    """A covariance with no Cholesky factor takes the eigenvalue square root
    of the repaired matrix, bit for bit as written out."""
    rng = np.random.default_rng(9)
    n, kappa = 6, 5.0  # the filter's fixed sigma-point spread
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    cov = (V * [2.0, 1.0, 0.5, 0.1, 0.0, -1e-3]) @ V.T
    cov[0, 1] += 1e-14
    est = GaussianEstimate(rng.standard_normal(n), cov)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(0.5 * (cov + cov.T))
    points, weights = sigma_points(est)
    w, V = np.linalg.eigh((n + kappa) * reference_repair(0.5 * (cov + cov.T)))
    L = V * np.sqrt(np.clip(w, 0.0, None))
    assert np.array_equal(points, np.vstack([est.mean, est.mean + L.T,
                                             est.mean - L.T]))
    assert weights[0] == kappa / (n + kappa)
    assert np.all(weights[1:] == 0.5 / (n + kappa))
    assert not weights.flags.writeable


def test_update_zero_innovation(reference):
    rng = np.random.default_rng(3)
    n = 4
    C = np.eye(2, n)
    cfg = dataclasses.replace(reference.ukf, C=C)
    M = rng.standard_normal((n, n))
    est = GaussianEstimate(rng.standard_normal(n), M @ M.T + np.eye(n))
    pred = predict(est, lambda x: x, cfg)
    post = update(pred, pred.y_hat)
    assert np.allclose(post.mean, pred.mean, atol=1e-12)
    assert np.trace(post.cov) < np.trace(pred.cov)


def test_one_covariance_factorization_per_predict(reference, monkeypatch):
    # predict and update only symmetrise the covariance; sigma_points is the
    # one place that factors it, once per predict.
    rng = np.random.default_rng(6)
    n = 6
    A, _, f = make_affine(rng, n)
    cfg = dataclasses.replace(reference.ukf, C=np.eye(2, n))
    M = rng.standard_normal((n, n))
    est = GaussianEstimate(rng.standard_normal(n), M @ M.T + np.eye(n))
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    pred = predict(est, lambda x: np.matvec(A, x) + f, cfg)
    post = update(pred, pred.y_hat + 0.01)
    assert np.array_equal(pred.cov, pred.cov.T)
    assert np.array_equal(post.cov, post.cov.T)
    predict(post, lambda x: np.matvec(A, x) + f, cfg)
    assert calls == [(n, n), (n, n)]


def test_update_with_huge_measurement_noise_is_noop(reference):
    rng = np.random.default_rng(4)
    n = 4
    cfg = dataclasses.replace(reference.ukf, C=np.eye(2, n),
                              measurement_var=1e12)
    est = GaussianEstimate(rng.standard_normal(n), np.eye(n))
    pred = predict(est, lambda x: x, cfg)
    post = update(pred, pred.y_hat + 5.0)
    assert np.max(np.abs(post.mean - pred.mean)) < 1e-6


def test_project_identity_inside_bounds():
    est = GaussianEstimate(np.array([1.0, 2.0]), np.eye(2))
    out = project(est, np.zeros(2), np.full(2, 3.0))
    assert np.array_equal(out.mean, est.mean)


def test_project_diagonal_moves_only_violator():
    est = GaussianEstimate(np.array([5.0, 1.0]), np.diag([2.0, 3.0]))
    out = project(est, np.zeros(2), np.array([4.0, 4.0]))
    assert out.mean[0] == pytest.approx(4.0, abs=1e-5)
    assert out.mean[1] == pytest.approx(1.0, abs=1e-9)


def test_project_correlated_shifts_neighbors():
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    est = GaussianEstimate(np.array([5.0, 2.0]), cov)
    out = project(est, np.zeros(2), np.array([4.0, 10.0]))
    # Only the mean is clipped: the correlated neighbour stays where it is
    # and the covariance is not shrunk.
    assert np.array_equal(out.mean, [4.0, 2.0])
    assert np.array_equal(out.cov, cov)


def test_project_many_correlated_violations():
    # The ambient start: warm_min = cold_max = t_amb, and a filtered mean a
    # little below ambient in the warm aquifer and above it in the cold one
    # violates most components at once, under a strongly correlated
    # covariance.
    t_amb, m = 284.85, 21
    x_min = np.concatenate([np.full(m, t_amb), np.full(m, 273.15)])
    x_max = np.concatenate([np.full(m, 293.15), np.full(m, t_amb)])
    r = np.arange(m, dtype=float)
    kernel = 0.04 * np.exp(-0.5 * ((r[:, None] - r[None, :]) / 4.0) ** 2)
    cov = np.kron(np.array([[1.0, 0.5], [0.5, 1.0]]), kernel) + 1e-4 * np.eye(2 * m)
    offset = 0.02 * np.sin(0.3 * r) - 0.01
    mean = np.concatenate([t_amb + offset, t_amb - offset])
    assert (np.sum(mean < x_min) + np.sum(mean > x_max)) >= 20
    out = project(GaussianEstimate(mean, cov), x_min, x_max)
    assert np.all(out.mean >= x_min - 1e-9)
    assert np.all(out.mean <= x_max + 1e-9)
    assert np.array_equal(out.cov, out.cov.T)
    assert np.linalg.eigvalsh(out.cov).min() >= -1e-12


def test_project_bad_bounds():
    est = GaussianEstimate(np.zeros(2), np.eye(2))
    with pytest.raises(ParameterError):
        project(est, np.ones(2), np.zeros(2))


def test_project_nan_bound():
    est = GaussianEstimate(np.ones(3), np.eye(3))
    with pytest.raises(ParameterError):
        project(est, [np.nan, 0.0, 0.0], [5.0, 5.0, 5.0])
    with pytest.raises(ParameterError):
        project(est, np.zeros(3), [5.0, np.nan, 5.0])


@pytest.mark.parametrize("y", [285.0, np.full(3, 285.0), np.full(5, 285.0),
                               np.full((4, 1), 285.0)])
def test_update_rejects_a_reading_of_the_wrong_shape(reference, y):
    # One reading per sensor: a scalar would otherwise broadcast to all four.
    est = GaussianEstimate(np.full(42, 284.85), np.eye(42))
    pred = predict(est, lambda x: x, reference.ukf)
    with pytest.raises(ParameterError, match="4 sensor readings"):
        update(pred, y)


def test_repair_psd():
    A = np.array([[1.0, 0.0], [0.0, -1e-6]])
    fixed = repair_psd(A)
    assert np.linalg.eigvalsh(fixed).min() >= 0.0
    assert np.allclose(fixed, fixed.T)


def reference_repair(cov):
    """The eigenvalue shift applied to every matrix."""
    cov = 0.5 * (cov + cov.T)
    eigmin = float(np.linalg.eigvalsh(cov).min())
    return cov - eigmin * np.eye(cov.shape[0]) if eigmin < 0.0 else cov


@pytest.fixture()
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_repair_psd_returns_positive_definite_input_symmetrized(eigvalsh_calls):
    rng = np.random.default_rng(2)
    M = rng.standard_normal((42, 42))
    C = M @ M.T + 1e-3 * np.eye(42)
    C[0, 1] += 1e-15  # slightly asymmetric, as sums of products come out
    out = repair_psd(C)
    assert np.array_equal(out, 0.5 * (C + C.T))
    assert eigvalsh_calls == []


@pytest.mark.parametrize("C", [
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),  # PSD, rank 2
    np.array([[1.0, 0.0], [0.0, -1e-6]]),                           # indefinite
])
def test_repair_psd_shifts_when_no_cholesky_factor_exists(C, eigvalsh_calls):
    out = repair_psd(C)
    assert len(eigvalsh_calls) == 1
    assert np.array_equal(out, reference_repair(C))
    assert np.linalg.eigvalsh(out).min() >= 0.0
