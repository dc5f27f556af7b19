import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ates_mpc import (ParameterError, build_grid, build_pwa, hx_outlet_temp,
                      pwa_step)
from ates_mpc.heat_exchanger import linearize_hx
from ates_mpc.pwa import (MODES, build_extraction_system,
                          build_injection_system)

DT = 3600.0
U_MAX = 0.0277
HEAT, STORE, COOL = (MODES.index(mode) for mode in ("heating", "storing", "cooling"))


@pytest.fixture()
def model(grid, params, hx, ambient_state):
    return build_pwa(grid, params, hx, DT, ambient_state, 0.0)


def test_branch_dimensions(model):
    assert model.A.shape == (3, 42, 42)
    assert model.b.shape == (3, 42)
    assert model.f.shape == (3, 42)
    assert model.n == 42


def test_storing_ambient_fixed_point(model, ambient_state):
    x_next = pwa_step(model, ambient_state, 0.0)
    assert np.max(np.abs(x_next - ambient_state)) <= 1e-9


def test_storing_zero_input_gain(model):
    assert np.all(model.b[STORE] == 0.0)


def test_branch_selection_by_sign(model):
    for u, i in ((1e-12, HEAT), (-1e-12, COOL), (0.0, STORE)):
        branch = model.branch(u)
        for view, stack in ((branch.A, model.A), (branch.b, model.b),
                            (branch.f, model.f)):
            # A view of the stack's slice i, not a copy.
            assert view.base is stack
            assert view.ctypes.data == stack[i].ctypes.data
            assert view.shape == stack[i].shape


def test_step_follows_the_branch_of_the_sign_of_u(grid, params, hx):
    rng = np.random.default_rng(12)
    model = build_pwa(grid, params, hx, DT, params.t_amb + rng.standard_normal(42),
                      0.5 * U_MAX)
    stack = params.t_amb + rng.standard_normal((5, 42))
    for u, i in ((1e-12, HEAT), (U_MAX, HEAT), (-1e-12, COOL), (-U_MAX, COOL),
                 (0.0, STORE), (-0.0, STORE)):
        written_out = stack @ model.A[i].T + model.b[i] * u + model.f[i]
        assert np.array_equal(pwa_step(model, stack, u), written_out)


def test_heating_step_writes_hx_output_to_cold_borehole(grid, params, hx, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, U_MAX)
    x_next = pwa_step(model, ambient_state, U_MAX)
    lin = linearize_hx(float(ambient_state[0]), U_MAX, hx, "heating")
    expected = lin.a * float(ambient_state[0]) + lin.b * U_MAX + lin.f
    assert x_next[21] == pytest.approx(expected, abs=1e-12)
    # At the expansion point the linearization equals the nonlinear relation.
    assert expected == pytest.approx(
        hx_outlet_temp(float(ambient_state[0]), U_MAX, hx.q_b, hx.t_b_heating),
        abs=1e-12)


def test_cooling_step_writes_hx_output_to_warm_borehole(grid, params, hx, ambient_state):
    model = build_pwa(grid, params, hx, DT, ambient_state, -U_MAX)
    x_next = pwa_step(model, ambient_state, -U_MAX)
    expected = hx_outlet_temp(float(ambient_state[21]), -U_MAX, hx.q_b,
                              hx.t_b_cooling)
    assert x_next[0] == pytest.approx(expected, abs=1e-12)


def test_stacked_step_matches_row_by_row(model, ambient_state):
    """A stack steps as one product, ``stack @ A.T``; each of its rows agrees
    with the single-state step ``A @ row`` to dot-product rounding: two
    orders of an n-term sum each lie within n eps sum |A| |x| of the exact
    value (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so
    they agree within twice that."""
    rng = np.random.default_rng(11)
    stack = ambient_state + rng.standard_normal((85, 42))
    eps = np.finfo(float).eps
    for u in (U_MAX, 0.0, -U_MAX):
        br = model.branch(u)
        batched = pwa_step(model, stack, u)
        assert batched.shape == stack.shape
        assert np.array_equal(batched, stack @ br.A.T + br.b * u + br.f)
        for x, row in zip(stack, batched):
            bound = 2 * model.n * eps * (np.abs(br.A) @ np.abs(x))
            assert np.all(np.abs(row - pwa_step(model, x, u)) <= bound)


def test_step_rejects_bad_shapes_and_non_finite(model, ambient_state):
    stack = np.tile(ambient_state, (5, 1))
    with pytest.raises(ParameterError):
        pwa_step(model, stack[None], 0.0)
    with pytest.raises(ParameterError):
        pwa_step(model, stack[:, :-1], 0.0)
    with pytest.raises(ParameterError):
        pwa_step(model, ambient_state[:-1], 0.0)
    for row in range(stack.shape[0]):
        bad = stack.copy()
        bad[row, 7] = np.nan
        with pytest.raises(ParameterError):
            pwa_step(model, bad, 0.0)
    with pytest.raises(ParameterError):
        pwa_step(model, stack, np.inf)


def test_affinity_superposition(model):
    rng = np.random.default_rng(7)
    x1 = 284.85 + rng.standard_normal(42)
    x2 = 284.85 + rng.standard_normal(42)
    a, b = 0.4, 0.6
    for sign in (1.0, -1.0):
        u1, u2 = 0.01 * sign, 0.02 * sign
        lhs = pwa_step(model, a * x1 + b * x2, a * u1 + b * u2)
        rhs = a * pwa_step(model, x1, u1) + b * pwa_step(model, x2, u2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_cross_aquifer_sparsity(grid, params, hx, ambient_state):
    """Aquifers couple only through the single heat-exchanger row."""
    m = 21
    # Expand around a nonzero flow so the HX gain on the extracted
    # temperature is itself nonzero.
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.01)
    h = model.A[HEAT]
    assert np.all(h[:m, m:] == 0.0)          # warm rows never read cold states
    assert np.all(h[m + 1:, :m] == 0.0)      # cold cell rows never read warm
    assert h[m, 0] != 0.0                    # except the HX row
    assert np.all(h[m, 1:] == 0.0)
    c = model.A[COOL]
    assert np.all(c[m:, :m] == 0.0)
    assert np.all(c[1:m, m:] == 0.0)
    model_cool = build_pwa(grid, params, hx, DT, ambient_state, -0.01)
    assert model_cool.A[COOL, 0, m] != 0.0
    s = model.A[STORE]
    assert np.all(s[:m, m:] == 0.0)
    assert np.all(s[m:, :m] == 0.0)


def test_mode_boundary_jump_is_hx_discontinuity(grid, params, hx, ambient_state):
    """The u -> 0+ limit differs from u = 0 exactly at the receiving borehole."""
    model = build_pwa(grid, params, hx, DT, ambient_state, 0.0)
    eps = 1e-9
    heat = pwa_step(model, ambient_state, eps)
    store = pwa_step(model, ambient_state, 0.0)
    diff = heat - store
    jump = model.f[HEAT, 21] + model.A[HEAT, 21, 0] * ambient_state[0] \
        + model.b[HEAT, 21] * eps - store[21]
    assert abs(diff[21] - jump) < 1e-9
    others = np.delete(diff, 21)
    assert np.max(np.abs(others)) < 1e-6


def test_rollout_with_precharged_warm_store_stays_in_bounds(grid, params, hx):
    radii = np.concatenate([[grid.r0], grid.midpoints])
    warm = params.t_amb + 5.0 * np.exp(-(radii - grid.r0) / 20.0)
    cold = np.full(21, params.t_amb)
    x = np.concatenate([warm, cold])
    u_prev = 0.0
    for k in range(12):
        model = build_pwa(grid, params, hx, DT, x, u_prev)
        x = pwa_step(model, x, U_MAX)
        u_prev = U_MAX
    assert np.all(x[:21] >= 284.85 - 1e-6)
    assert np.all(x[:21] <= 293.15 + 1e-6)
    assert np.all(x[21:] >= 273.15 - 1e-6)
    assert np.all(x[21:] <= 284.85 + 1e-6)


def aquifer_gains(grid, params, profile, sign):
    """Extraction gain (borehole entry and cells) and injection gain (cells)
    of one aquifer under q = sign * u, with gradients frozen at ``profile``
    by plain differences (the far cell's outer neighbour is ambient)."""
    padded = np.append(profile, params.t_amb)
    gains = []
    for g in ((padded[2:] - padded[1:-1]) / grid.dr,
              (padded[1:-1] - padded[:-2]) / grid.dr):
        gains.append(-DT * params.c_w * sign * g / (
            params.c_a * 2.0 * np.pi * grid.midpoints * grid.l))
    ex_b, inj_b = gains
    return np.concatenate([ex_b[:1], ex_b]), inj_b


def blockwise_branches(grid, params, hx, x_ref, u_ref):
    """Reference: the three branches in ``MODES`` order, each assembled block
    by block from the aquifers' conduction rows, their convection gains and
    the heat-exchanger rows."""
    m = grid.nu + 1
    n = 2 * m
    warm_ref, cold_ref = x_ref[:m], x_ref[m:]
    ex_A, ex_f = build_extraction_system(grid, params, DT)
    inj_A, inj_f = build_injection_system(grid, params, DT)
    warm_ex, warm_inj = aquifer_gains(grid, params, warm_ref, -1.0)
    cold_ex, cold_inj = aquifer_gains(grid, params, cold_ref, 1.0)
    hx_heat = linearize_hx(float(warm_ref[0]), max(u_ref, 0.0), hx, "heating")
    hx_cool = linearize_hx(float(cold_ref[0]), min(u_ref, 0.0), hx, "cooling")
    w = slice(0, m)
    c = slice(m, n)

    # Heating: warm extraction rows, HX row writing the cold borehole from the
    # warm borehole, cold injection cell rows.
    A1 = np.zeros((n, n))
    b1 = np.zeros(n)
    f1 = np.zeros(n)
    A1[w, w] = ex_A
    b1[w] = warm_ex
    f1[w] = ex_f
    A1[m, 0] = hx_heat.a
    b1[m] = hx_heat.b
    f1[m] = hx_heat.f
    A1[m + 1:, c] = inj_A
    b1[m + 1:] = cold_inj
    f1[m + 1:] = inj_f

    # Storing: block-diagonal extraction maps, no input gain.
    A2 = np.zeros((n, n))
    f2 = np.zeros(n)
    A2[w, w] = ex_A
    A2[c, c] = ex_A
    f2[:m] = ex_f
    f2[m:] = ex_f

    # Cooling: HX row writing the warm borehole from the cold borehole, warm
    # injection cell rows, cold extraction rows.
    A3 = np.zeros((n, n))
    b3 = np.zeros(n)
    f3 = np.zeros(n)
    A3[0, m] = hx_cool.a
    b3[0] = hx_cool.b
    f3[0] = hx_cool.f
    A3[1:m, w] = inj_A
    b3[1:m] = warm_inj
    f3[1:m] = inj_f
    A3[c, c] = ex_A
    b3[m:] = cold_ex
    f3[m:] = ex_f
    return [(A1, b1, f1), (A2, np.zeros(n), f2), (A3, b3, f3)]


@pytest.fixture(scope="module")
def ocp(reference):
    return reference.ocp


def reference_state(grid, params, ocp, state):
    """An ambient, a charged or a random stacked state inside the state box."""
    if state == "ambient":
        return np.full(grid.n_states, params.t_amb)
    if state == "charged":
        radii = np.concatenate([[grid.r0], grid.midpoints])
        bump = np.exp(-(radii - grid.r0) / 15.0)
        return np.concatenate([params.t_amb + 6.0 * bump,
                               params.t_amb - 9.0 * bump])
    x_min, x_max = ocp.state_bounds(grid.nu)
    return np.random.default_rng(grid.nu).uniform(x_min, x_max)


@pytest.mark.parametrize("u_ref", (-U_MAX, 0.0, U_MAX, -0.3 * U_MAX, 0.3 * U_MAX))
@pytest.mark.parametrize("state", ("ambient", "charged", "random"))
def test_one_pass_build_matches_blockwise_assembly(grid, params, hx, ocp, state,
                                                   u_ref):
    """The template plus the hour's pieces equals a block-by-block assembly,
    on the default grid and on a finer one."""
    for g in (grid, build_grid(grid.r0, grid.r_inf, 30, grid.l)):
        x_ref = reference_state(g, params, ocp, state)
        model = build_pwa(g, params, hx, DT, x_ref, u_ref)
        reference = blockwise_branches(g, params, hx, x_ref, u_ref)
        for i, (A, b, f) in enumerate(reference):
            assert np.array_equal(model.A[i], A)
            assert np.array_equal(model.b[i], b)
            assert np.array_equal(model.f[i], f)


@pytest.mark.parametrize("state", ("ambient", "charged", "random"))
def test_convection_gains_match_diff_quotients(grid, params, hx, ocp, state):
    """``b`` bit for bit against gains formed from ``np.diff`` quotients
    padded with the ambient value; ``x_ref`` is not written to."""
    m = grid.nu + 1
    x_ref = reference_state(grid, params, ocp, state)
    before = x_ref.copy()
    model = build_pwa(grid, params, hx, DT, x_ref, 0.3 * U_MAX)
    quotients = np.diff(x_ref.reshape(2, m), append=params.t_amb) / grid.dr
    scale = -DT * params.c_w * np.array([[-1.0], [1.0]])
    shells = params.c_a * 2.0 * np.pi * grid.midpoints * grid.l
    ex = scale * quotients[:, 1:] / shells
    inj = scale * quotients[:, :-1] / shells
    assert np.array_equal(model.b[HEAT, :m], np.append(ex[0, 0], ex[0]))
    assert np.array_equal(model.b[HEAT, m + 1:], inj[1])
    assert np.array_equal(model.b[COOL, m:], np.append(ex[1, 0], ex[1]))
    assert np.array_equal(model.b[COOL, 1:m], inj[0])
    assert not model.b[STORE].any()
    assert np.array_equal(x_ref, before)


@pytest.mark.parametrize("u_ref", (np.nan, np.inf, -np.inf))
def test_build_rejects_non_finite_expansion_flow(grid, params, hx,
                                                 ambient_state, u_ref):
    with pytest.raises(ParameterError, match="expansion flow must be finite"):
        build_pwa(grid, params, hx, DT, ambient_state, u_ref)


@pytest.mark.parametrize("dt", (-DT, 0.0, -0.0, np.nan, np.inf, -np.inf))
def test_builders_reject_a_bad_time_step(grid, params, hx, ambient_state, dt):
    """A negative step would build a backwards model, a NaN one all NaN."""
    for build in (build_extraction_system, build_injection_system):
        with pytest.raises(ParameterError, match="time step"):
            build(grid, params, dt)
    with pytest.raises(ParameterError, match="time step"):
        build_pwa(grid, params, hx, dt, ambient_state, 0.0)


_KELVIN_OFFSET = st.floats(-5.0, 5.0, allow_subnormal=False)


@given(ref=arrays(float, 42, elements=_KELVIN_OFFSET),
       u_ref=st.floats(-U_MAX, U_MAX, allow_subnormal=False),
       x1=arrays(float, 42, elements=_KELVIN_OFFSET),
       x2=arrays(float, 42, elements=_KELVIN_OFFSET),
       flows=st.tuples(st.floats(1e-6, U_MAX), st.floats(1e-6, U_MAX)),
       sign=st.sampled_from((1.0, 0.0, -1.0)),
       alpha=st.floats(0.0, 1.0))
def test_property_each_branch_is_affine_in_x_and_u(grid, params, hx, ref, u_ref,
                                                   x1, x2, flows, sign, alpha):
    t_amb = params.t_amb
    model = build_pwa(grid, params, hx, DT, t_amb + ref, u_ref)
    x1, x2 = t_amb + x1, t_amb + x2
    u1, u2 = sign * flows[0], sign * flows[1]

    def step(x, u):
        return pwa_step(model, x, u)

    # In x, at a fixed flow of the branch's sign.
    mixed = step(alpha * x1 + (1.0 - alpha) * x2, u1)
    assert np.max(np.abs(mixed - (alpha * step(x1, u1)
                                  + (1.0 - alpha) * step(x2, u1)))) < 1e-9
    # In u, inside the branch's sign region.
    mixed = step(x1, alpha * u1 + (1.0 - alpha) * u2)
    assert np.max(np.abs(mixed - (alpha * step(x1, u1)
                                  + (1.0 - alpha) * step(x1, u2)))) < 1e-9
