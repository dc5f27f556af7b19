import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

import ates_mpc
from ates_mpc import Qp, solve_qp
from ates_mpc.errors import ParameterError


def test_active_bound():
    qp = Qp(H=np.array([[1.0]]), g=np.zeros(1),
            G=np.array([[-1.0]]), h=np.array([-1.0]))  # z >= 1
    res = solve_qp(qp)
    assert res.status == "optimal"
    assert res.z_star[0] == pytest.approx(1.0, abs=1e-9)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.kkt_residual <= 1e-8
    assert res.iterations > 0  # the bound row entered the active set


def test_unconstrained_stationarity():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    H = M @ M.T + np.eye(3)
    g = rng.standard_normal(3)
    qp = Qp(H=H, g=g, G=np.zeros((0, 3)), h=np.zeros(0))
    res = solve_qp(qp)
    assert np.allclose(res.z_star, np.linalg.solve(H, -g), atol=1e-9)


def test_infeasible_returns_status():
    qp = Qp(H=np.eye(1), g=np.zeros(1),
            G=np.array([[1.0], [-1.0]]), h=np.array([-1.0, -1.0]))  # z <= -1, z >= 1
    res = solve_qp(qp)
    assert res.status == "infeasible"
    assert res.value == np.inf


def test_iteration_cap_returns_stalled(monkeypatch):
    # A solve that reaches the iteration cap returns a failed result.
    monkeypatch.setattr(ates_mpc.qp, "_iteration_cap", lambda m, p: 0)
    qp = Qp(H=np.array([[1.0]]), g=np.zeros(1),
            G=np.array([[-1.0]]), h=np.array([-1.0]))
    res = solve_qp(qp)
    assert res.status == "stalled"
    assert np.all(np.isnan(res.z_star)) and res.z_star.shape == (1,)
    assert res.value == np.inf


def test_unfactorable_hessian_returns_stalled(monkeypatch):
    def no_factor(H):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(ates_mpc.qp, "_regularize", no_factor)
    res = solve_qp(Qp(H=np.eye(2), g=np.ones(2), G=np.zeros((0, 2)),
                      h=np.zeros(0)))
    assert res.status == "stalled" and res.iterations == 0
    assert np.all(np.isnan(res.z_star)) and res.z_star.shape == (2,)
    assert res.value == np.inf and res.kkt_residual == np.inf


def test_infeasible_in_several_dimensions():
    # Two parallel rows cannot both hold; the others leave z free along the
    # face the pair meets, so the dual iteration must still read infeasible.
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal(3)
        G = np.vstack([rng.standard_normal((6, 3)), a, -a])
        h = np.concatenate([rng.uniform(0.0, 1.0, 6), [-1.0, -0.5]])
        res = solve_qp(Qp(H=np.eye(3), g=np.zeros(3), G=G, h=h))
        assert res.status == "infeasible"
        # The pair is found within a few rows, not at the cap.
        assert 0 < res.iterations <= 10


def test_feasible_set_far_from_origin():
    rng = np.random.default_rng(6)
    for _ in range(20):
        qp, _ = random_box_qp(rng, 3, 5)
        shift = rng.uniform(-1e3, 1e3, 3)
        far = Qp(H=qp.H, g=qp.g, G=qp.G, h=qp.h + qp.G @ shift)
        res = solve_qp(far)
        assert res.status == "optimal"
        assert np.all(far.G @ res.z_star <= far.h + 1e-9)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ates_mpc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, ates_mpc; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_asymmetric_hessian_rejected():
    with pytest.raises(ParameterError):
        Qp(H=np.array([[1.0, 2.0], [0.0, 1.0]]), g=np.zeros(2),
           G=np.zeros((0, 2)), h=np.zeros(0))


@pytest.mark.parametrize("H", [
    # A 5e-6 relative asymmetry is far above the 1e-12 tolerance, though
    # within numpy's default allclose rtol.
    [[1.0, 1.0], [1.0 + 5e-6, 2.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
])
def test_hessian_outside_symmetry_tolerance_rejected(H):
    with pytest.raises(ParameterError):
        Qp(H=np.array(H), g=np.zeros(2), G=np.zeros((0, 2)), h=np.zeros(0))


def test_determinism():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((3, 3))
    H = M @ M.T + 0.5 * np.eye(3)
    g = rng.standard_normal(3)
    G = rng.standard_normal((10, 3))
    h = G @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 10)
    qp = Qp(H=H, g=g, G=G, h=h)
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert np.array_equal(a.z_star, b.z_star)
    assert a.value == b.value
    assert a.active_set == b.active_set


def random_box_qp(rng, m, p_extra):
    M = rng.standard_normal((m, m))
    H = M @ M.T + 0.2 * np.eye(m)
    g = rng.standard_normal(m)
    box = 1.0
    G = np.vstack([np.eye(m), -np.eye(m),
                   rng.standard_normal((p_extra, m))])
    interior = rng.uniform(-0.3, 0.3, m)
    h = np.concatenate([np.full(2 * m, box),
                        G[2 * m:] @ interior + rng.uniform(0.05, 1.0, p_extra)])
    return Qp(H=H, g=g, G=G, h=h), box


def grid_oracle(qp, box, m, rounds=5, pts=13):
    """Hierarchical grid search plus an independent SLSQP polish."""
    center = np.zeros(m)
    half = box
    best = None
    for _ in range(rounds):
        axes = [np.linspace(center[i] - half, center[i] + half, pts)
                for i in range(m)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        feas = np.all(mesh @ qp.G.T <= qp.h + 1e-9, axis=1)
        if not feas.any():
            return None
        z = mesh[feas]
        vals = 0.5 * np.einsum("ij,jk,ik->i", z, qp.H, z) + z @ qp.g
        j = int(np.argmin(vals))
        best = (float(vals[j]), z[j])
        center = z[j]
        half = half * 2.0 / (pts - 1)

    res = minimize(
        lambda z: 0.5 * z @ qp.H @ z + qp.g @ z, best[1], jac=lambda z: qp.H @ z + qp.g,
        constraints=[{"type": "ineq", "fun": lambda z: qp.h - qp.G @ z,
                      "jac": lambda z: -qp.G}],
        method="SLSQP", options={"maxiter": 200, "ftol": 1e-12})
    if res.success and np.all(qp.G @ res.x <= qp.h + 1e-7):
        val = 0.5 * res.x @ qp.H @ res.x + qp.g @ res.x
        if val < best[0]:
            best = (float(val), res.x)
    return best


def test_random_qps_against_grid_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        m = int(rng.integers(1, 4))
        qp, box = random_box_qp(rng, m, int(rng.integers(0, 8)))
        res = solve_qp(qp)
        oracle = grid_oracle(qp, box, m)
        if res.status != "optimal" or oracle is None:
            continue
        oracle_val, oracle_z = oracle
        assert res.kkt_residual <= 1e-8
        assert np.all(qp.G @ res.z_star <= qp.h + 1e-9)
        # Solver never loses to any feasible oracle point; grid refinement
        # brings the oracle within 1e-4 of the true optimum.
        assert res.value <= oracle_val + 1e-6
        assert abs(res.value - oracle_val) <= 1e-4 * max(1.0, abs(oracle_val))
        checked += 1
    assert checked >= 40


def test_working_set_stays_independent():
    # The problems of acceptance criterion [5]: the final active set is a
    # linearly independent set of rows even though rows entering the working
    # set are no longer re-pruned.
    rng = np.random.default_rng(5)
    optimal = 0
    for _ in range(250):
        m = int(rng.integers(1, 4))
        qp, _ = random_box_qp(rng, m, int(rng.integers(0, 31)))
        res = solve_qp(qp)
        if res.status != "optimal":
            continue
        active = list(res.active_set)
        assert np.linalg.matrix_rank(qp.G[active]) == len(active)
        optimal += 1
    assert optimal >= 200


_COEF = st.floats(-5.0, 5.0, allow_subnormal=False)


@st.composite
def convex_qp_with_interior_point(draw):
    """Strictly convex QP (m <= 4, up to 40 rows) and a point inside G z < h."""
    m = draw(st.integers(1, 4))
    p = draw(st.integers(0, 40))
    M = draw(arrays(float, (m, m), elements=_COEF))
    H = M @ M.T
    H = 0.5 * (H + H.T) + draw(st.floats(0.1, 10.0)) * np.eye(m)
    g = draw(arrays(float, m, elements=_COEF))
    G = draw(arrays(float, (p, m), elements=_COEF))
    inside = draw(arrays(float, m, elements=_COEF))
    margin = draw(arrays(float, p, elements=st.floats(0.01, 1.0)))
    return Qp(H=H, g=g, G=G, h=G @ inside + margin), inside


@given(convex_qp_with_interior_point())
def test_property_feasible_qp_is_solved(case):
    qp, inside = case
    res = solve_qp(qp)
    assert res.status == "optimal"
    assert np.all(qp.G @ res.z_star <= qp.h + 1e-9)
    assert res.kkt_residual <= 1e-8
    inside_value = 0.5 * inside @ qp.H @ inside + qp.g @ inside
    assert res.value <= inside_value + 1e-9 * max(1.0, abs(inside_value))


@given(convex_qp_with_interior_point(), st.data())
def test_property_contradictory_pair_is_infeasible(case, data):
    # a z <= b and -a z <= -b - gap cannot both hold, whatever the other rows.
    qp, _ = case
    m = qp.m
    a = data.draw(arrays(float, m, elements=_COEF).filter(
        lambda v: np.abs(v).max() >= 0.1))
    b = data.draw(_COEF)
    gap = data.draw(st.floats(0.01, 1.0))
    pos = data.draw(st.integers(0, qp.G.shape[0]))
    G = np.insert(qp.G, [pos, pos], np.vstack([a, -a]), axis=0)
    h = np.insert(qp.h, [pos, pos], [b, -b - gap])
    res = solve_qp(Qp(H=qp.H, g=qp.g, G=G, h=h))
    assert res.status == "infeasible"
    assert res.value == np.inf


def reference_regularize(H):
    """The eigenvalue test applied to every Hessian."""
    eigmin = float(np.linalg.eigvalsh(H).min())
    if eigmin < 1e-12:
        return H + (1e-10 + max(0.0, -eigmin)) * np.eye(H.shape[0])
    return H


@pytest.mark.parametrize("H, shifted", [
    (np.array([[2.0, 0.5], [0.5, 1.0]]), False),               # positive definite
    (np.diag([1.0, 0.0, 3.0]), True),                          # zero input weight
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), True),        # tiny pivot
    (np.array([[1.0, 0.0], [0.0, -1e-3]]), True),              # indefinite
])
def test_regularize_shifts_only_without_a_certifying_factor(H, shifted):
    from ates_mpc.qp import _regularize

    reference = reference_regularize(H)
    assert (reference is not H) == shifted
    # The factor of H itself, or of the shifted H, as the solver uses it.
    assert np.array_equal(_regularize(H), np.linalg.cholesky(reference))


def test_positive_definite_hessian_is_factored_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    qp = Qp(H=np.array([[2.0, 0.5], [0.5, 1.0]]), g=np.array([1.0, -1.0]),
            G=np.array([[1.0, 1.0]]), h=np.array([0.5]))
    assert solve_qp(qp).status == "optimal"
    assert calls == [(2, 2)]


def kkt_residual_written_out(qp, z, rows, lam):
    """The solver's KKT residual in full: stationarity and complementarity
    with the multipliers ``lam`` on ``rows`` (zero elsewhere), relative to
    the largest gradient entry, then row violation and multiplier sign."""
    slack = qp.G @ z - qp.h
    stat = qp.H @ z + qp.g + lam @ qp.G[rows]
    scale = max(1.0, float(np.abs(qp.g).max(initial=0.0)))
    return max(float(np.abs(stat).max()) / scale,
               max(0.0, float(slack.max(initial=0.0))),
               max(0.0, float((-lam).max(initial=0.0))),
               float(np.abs(lam * slack[rows]).max(initial=0.0)) / scale)


@pytest.mark.parametrize("case", ["free", "grazing", "active"])
def test_kkt_residual_matches_its_definition(case, monkeypatch):
    # With no active row the solver skips the multiplier terms; the residual,
    # the minimiser and the value must be those of the full definition.
    # "grazing": the minimiser breaks row 0 by less than the feasibility
    # tolerance, so no row enters and the residual is that violation.
    seen = []
    kkt_residual = ates_mpc.qp._kkt_residual

    def spy(qp, z, G, rows, lam, slack):
        seen.append((z, list(rows), lam.copy()))
        return kkt_residual(qp, z, G, rows, lam, slack)

    monkeypatch.setattr(ates_mpc.qp, "_kkt_residual", spy)
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        M = rng.standard_normal((m, m))
        H = M @ M.T + 0.5 * np.eye(m)
        g = rng.standard_normal(m)
        G = rng.standard_normal((8, m))
        J = np.linalg.inv(np.linalg.cholesky(H))
        z_free = -(J.T @ (J @ g))
        # The rows hold with a margin at a point that is z_free itself, or
        # lies beyond row 0 far enough that z_free breaks that row.
        step = -2.0 * G[0] / (G[0] @ G[0]) if case == "active" else np.zeros(m)
        h = G @ (z_free + step) + rng.uniform(0.1, 1.0, 8)
        if case == "grazing":
            h[0] = G[0] @ z_free - 5e-10
        qp = Qp(H=H, g=g, G=G, h=h)
        res = solve_qp(qp)
        assert res.status == "optimal"
        z, rows, lam = seen.pop()
        assert z is res.z_star and sorted(rows) == list(res.active_set)
        if case == "active":
            assert rows
        else:
            assert rows == [] and lam.size == 0 and res.iterations == 0
            assert np.array_equal(res.z_star, z_free)
        if case == "grazing":
            assert 0.0 < res.kkt_residual <= 1e-9
        assert res.kkt_residual == kkt_residual_written_out(qp, z, rows, lam)
        assert res.value == (0.5 * float(res.z_star @ H @ res.z_star)
                             + float(g @ res.z_star))


# Two nearly opposite rows, their normals' cosine -1 + 1e-15, as a random
# QP's rows copied with a sign and perturbed by 1e-12 to 1e-6 make them.
# The unconstrained minimiser breaks row 1, which enters; entering row 0 then
# moves z along a direction almost inside row 1's face, which drifts above
# the feasibility tolerance (by 1.2e-8 and 2.2e-9 here).  Active rows are
# masked out of the search for the next row to add, and z is moved back
# onto them at the end.  Without the mask the drifted row is added again:
# the first QP stalls at the iteration cap, the second takes 4 iterations.
NEAR_OPPOSITE_ROW_QPS = {
    "stall": (
        [[4.620713566501337, -2.4738073775325384, 4.765775460468915,
          3.326499320631616],
         [-2.4738073775325384, 4.779048903401551, -2.944891737798614,
          0.6930412267273963],
         [4.765775460468915, -2.944891737798614, 6.548612203456292,
          3.974479121472381],
         [3.326499320631616, 0.6930412267273963, 3.974479121472381,
          6.347241456679971]],
        [3.404961613797736, -4.834002109977288, -0.09873337653073885,
         0.3013964504669032],
        [[0.7250853490759611, 0.09165973514345817, -0.395253877965436,
          -0.7629216968461064],
         [-0.7250853617188775, -0.09165972578881679, 0.395253865725962,
          0.7629216540975889]],
        [0.08576182342124959, -0.0857617568915649]),
    "extra_iterations": (
        [[3.4150935204950996, 1.2351594078953512, 1.0216193928167394,
          -0.14884028362728471],
         [1.2351594078953512, 4.188945796136605, -2.001197165579607,
          -0.6167354569241168],
         [1.0216193928167394, -2.001197165579607, 2.754879019992427,
          0.01722103602204155],
         [-0.14884028362728471, -0.6167354569241168, 0.01722103602204155,
          7.839960774588865]],
        [-0.5235889406024429, 2.9785936172410867, 1.5229494713182061,
         -3.192220107267123],
        [[0.1299235670624489, -0.7519075128312723, 1.9993563745046836,
          0.8438075653786208],
         [-0.12992364136553422, 0.7519067055494159, -1.9993560647940813,
          -0.8438066234800691]],
        [-0.7342073477453948, 0.7342070461296348]),
}


@pytest.mark.parametrize("case", list(NEAR_OPPOSITE_ROW_QPS))
def test_drifted_active_row_is_not_added_again(case):
    H, g, G, h = map(np.array, NEAR_OPPOSITE_ROW_QPS[case])
    qp = Qp(H=H, g=g, G=G, h=h)
    res = solve_qp(qp)
    assert res.status == "optimal"
    assert res.iterations == 2 and res.active_set == (0, 1)
    assert res.kkt_residual <= 1e-8
    assert np.all(G @ res.z_star <= h + 1e-9)
    ref = minimize(lambda z: 0.5 * z @ H @ z + g @ z, np.zeros(4),
                   jac=lambda z: H @ z + g,
                   constraints=[{"type": "ineq", "fun": lambda z: h - G @ z,
                                 "jac": lambda z: -G}],
                   method="SLSQP", options={"maxiter": 500, "ftol": 1e-15})
    assert ref.success
    # SLSQP stops within about 1e-8 of the optimum on this thin slab.
    assert np.allclose(res.z_star, ref.x, rtol=0.0, atol=1e-7)
    assert res.value == pytest.approx(ref.fun, rel=1e-6)
