import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrkfr import blending, core, harness, models
from mdrkfr.errors import AdmissibilityError, ConfigurationError, StencilStateError
from mdrkfr.operators import make_operators, node_sums


# the solver's inside runs on variable-major (nvar, ne, p) arrays; states
# built here with the variable last go in and come out through these
vm, em = core.variable_major, core.element_major


def make_disc(ncells=10, model=None, bc_state=None, **cfg_kw):
    cfg_kw.setdefault("final_time", 1.0)
    cfg = core.RunConfig(**cfg_kw)
    grid = core.make_grid(0.0, 1.0, ncells)
    return core.make_discretization(grid, model or models.LinearAdvection(1.0), cfg,
                                    bc_state)


@pytest.mark.parametrize("xlo,xhi,ncells,name", [
    (np.nan, 1.0, 4, "xlo and xhi"),      # used to give NaN faces
    (0.0, np.inf, 4, "xlo and xhi"),
    (-np.inf, 1.0, 4, "xlo and xhi"),
    (1.0, 1.0, 4, "xlo and xhi"),
    (0.0, 1.0, 2.5, "ncells"),            # used to raise a bare TypeError
    (0.0, 1.0, True, "ncells"),           # used to give one cell
    (0.0, 1.0, 0, "ncells"),
])
def test_make_grid_refuses_bad_requests(xlo, xhi, ncells, name):
    with pytest.raises(ConfigurationError, match=name):
        core.make_grid(xlo, xhi, ncells)


def test_make_grid_takes_numpy_integers():
    assert core.make_grid(0.0, 1.0, np.int64(4)).ncells == 4


# ----------------------------------------------------------------------
# elementwise pieces


@pytest.mark.parametrize("points, correction", [("gl", "radau"), ("gll", "g2")])
@pytest.mark.parametrize("nvar", [1, 3])
@pytest.mark.parametrize("ne", [1, 7, 400])
def test_apply_d_is_einsum_bit_for_bit(points, correction, nvar, ne):
    d_matrix = make_operators(3, points, correction).D
    rng = np.random.default_rng(ne * nvar)
    q = rng.normal(size=(ne, 4, nvar)) * 10.0 ** rng.uniform(-8.0, 8.0, (ne, 4, nvar))
    # signed zeros too: einsum sums from +0, so all-zero products give +0
    q[rng.random(q.shape) < 0.2] = 0.0
    q[rng.random(q.shape) < 0.2] = -0.0
    expected = np.einsum("pq,eqv->epv", d_matrix, q)
    out = em(core.apply_d(d_matrix, vm(q)))
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


@pytest.mark.parametrize("points, correction", [("gl", "radau"), ("gll", "g2")])
@pytest.mark.parametrize("rows", ["weights", "V"])
@pytest.mark.parametrize("nvar", [1, 3])
@pytest.mark.parametrize("ne", [1, 7, 400])
def test_node_sums_is_einsum_bit_for_bit(points, correction, rows, nvar, ne):
    v = getattr(make_operators(3, points, correction), rows)
    q = _signed_values(np.random.default_rng(ne * nvar + v.ndim), (ne, 4, nvar))
    # the documented sum, row by row: (ne, nvar) -> (nvar, ne), or (nvar, m, ne)
    expected = (np.einsum("p,epv->ev", v, q).T if v.ndim == 1
                else np.stack([np.einsum("p,epv->ev", row, q).T for row in v], axis=1))
    out = node_sums(v, vm(q))
    assert out.shape == expected.shape and out.dtype == np.float64
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


def _broadcast_fr_flux_derivative(favg, fnum_left, fnum_right, ops):
    # the formula as once written element-major, kept as the reference
    jump_l = fnum_left - np.einsum("p,epv->ev", ops.VL, favg)
    jump_r = fnum_right - np.einsum("p,epv->ev", ops.VR, favg)
    return (np.einsum("pq,eqv->epv", ops.D, favg)
            + ops.bL[None, :, None] * jump_l[:, None, :]
            + ops.bR[None, :, None] * jump_r[:, None, :])


def _signed_values(rng, shape):
    # magnitudes over 16 decades, with +0 and -0 mixed in
    q = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    q[rng.random(shape) < 0.2] = 0.0
    q[rng.random(shape) < 0.2] = -0.0
    return q


@pytest.mark.parametrize("points, correction", [("gl", "radau"), ("gll", "g2")])
@pytest.mark.parametrize("nvar", [1, 3])
@pytest.mark.parametrize("ne", [1, 7, 400])
def test_fr_flux_derivative_is_broadcast_formula_bit_for_bit(points, correction, nvar, ne):
    ops = make_operators(3, points, correction)
    rng = np.random.default_rng(10 * ne + nvar)
    favg = _signed_values(rng, (ne, 4, nvar))
    fnum = _signed_values(rng, (ne + 1, nvar))
    expected = _broadcast_fr_flux_derivative(favg, fnum[:-1], fnum[1:], ops)
    fv, fn = vm(favg), vm(fnum)
    # traces made inside, and handed over as an ae stage does
    for traces in (None, core.face_values_ae(fv, ops)):
        out = core.fr_flux_derivative(fv, fn[:, :-1], fn[:, 1:], ops, traces)
        assert out.flags.c_contiguous
        out = em(out)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


special_floats = st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
state_values = st.one_of(special_floats, st.floats(-50.0, 50.0))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(state_values, state_values, state_values),
                     min_size=1, max_size=12),
       split=st.integers(0, 12),
       scale=st.sampled_from([1.0, 1e-310, 1e306, 2.0 ** 1020]))
def test_admissibility_masks_equal_np_all(rows, split, scale):
    # the masks reduce the variable and constraint axes; np.all over the
    # per-state values is the reference
    u = np.array(rows)
    other = np.roll(u, split, axis=0)
    gas, scalar = models.Euler(), models.Burgers()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for states in ((u,), (u, other), (u[None], other[None])):
            stacked = vm(np.stack(states))
            expected = np.all([gas.constraints(vm(q)) > 0.0 for q in states], axis=(0, 1))
            assert np.array_equal(blending._admissible(gas, stacked), expected)
            assert np.array_equal(blending._admissible(scalar, stacked[:1]),
                                  np.ones(states[0].shape[:-1], dtype=bool))
        stencil = np.stack([u, other])
        expected = np.isfinite(stencil).all(axis=-1) & (stencil[..., 0] > 0.0)
        assert np.array_equal(core._evaluable(gas, vm(stencil)), expected)
        assert np.array_equal(core._evaluable(scalar, vm(stencil[..., :1])),
                              np.isfinite(stencil[..., 0]))
        # the (u, u1) form against its five shifted states one by one; the
        # scaled increments reach subnormals and overflow
        u1 = other * scale
        shifted = [u + u1 * 2.0, u + u1, u, u - u1, u - u1 * 2.0]
        expected = np.all([np.isfinite(q).all(axis=-1) & (q[..., 0] > 0.0) for q in shifted],
                          axis=0)
        assert np.array_equal(core._evaluable(gas, vm(u), vm(u1)), expected)
        expected = np.all([np.isfinite(q[..., 0]) for q in shifted], axis=0)
        assert np.array_equal(core._evaluable(scalar, vm(u[..., :1]), vm(u1[..., :1])),
                              expected)


def test_local_derivative_constant_data():
    disc = make_disc()
    u = vm(np.full((10, 4, 1), 3.0))
    f = disc.model.flux(u, disc.xn)
    u1 = core.local_solution_derivative(u, f, disc.dxn, 0.01, disc.ops.D)
    assert np.allclose(u1, 0.0, atol=1e-14)


def test_local_derivative_polynomial_exact():
    # degree-3 data is differentiated exactly by the nodal operator
    disc = make_disc(ncells=1)
    xi = disc.ops.nodes
    u = vm((xi ** 3 - 0.5 * xi)[None, :, None])
    f = disc.model.flux(u, disc.xn)  # flux = u for unit advection
    dt = 0.02
    u1 = em(core.local_solution_derivative(u, f, disc.dxn, dt, disc.ops.D))
    expected = -dt * (3 * xi ** 2 - 0.5)[None, :, None]  # dx = 1
    assert np.allclose(u1, expected, atol=1e-13)


def test_local_derivative_with_source():
    disc = make_disc()
    u = vm(np.full((10, 4, 1), 3.0))
    f = np.zeros_like(u)
    s = np.ones_like(u)
    u1 = core.local_solution_derivative(u, f, disc.dxn, 0.25, disc.ops.D, s)
    assert np.allclose(u1, 0.25, atol=1e-15)


def test_flux_time_derivative_linear_flux():
    a = 2.5
    u = np.random.default_rng(0).normal(size=(5, 4, 1))
    u1 = np.random.default_rng(1).normal(size=(5, 4, 1))
    out = core.flux_time_derivative(lambda v, k: a * v, u, u1)
    assert np.allclose(out, a * u1, atol=1e-13)


def test_flux_time_derivative_exact_on_quartic_paths():
    # the five-point formula differentiates quartic compositions exactly
    u = np.array([[[0.8]]])
    du = np.array([[[0.3]]])
    out = core.flux_time_derivative(lambda v, k: v ** 4, u, du)
    assert out[0, 0, 0] == pytest.approx(4 * 0.8 ** 3 * 0.3, rel=1e-13)


def test_flux_time_derivative_zero_increment():
    u = np.array([[[0.8]]])
    out = core.flux_time_derivative(lambda v, k: v ** 3, u, np.zeros_like(u))
    assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-16)


def test_stage1_constant_state():
    disc = make_disc()
    u = vm(np.full((10, 4, 1), 2.0))
    favg, uavg, savg = core.time_average(disc.model, u, [], disc.xn, disc.dxn, 0.01, disc.ops)
    assert np.allclose(favg, disc.model.flux(u, disc.xn))
    assert np.allclose(uavg, u)
    assert savg is None


def test_stage1_matches_spectral_form():
    # for unit advection the averaged flux is (I - sigma/4 D) u
    disc = make_disc()
    rng = np.random.default_rng(3)
    u = rng.normal(size=(10, 4, 1))
    dt = 0.004
    sigma = dt / disc.dx[0]
    favg, uavg, _ = core.time_average(disc.model, vm(u), [], disc.xn, disc.dxn, dt, disc.ops)
    t1 = np.eye(4) - sigma / 4 * disc.ops.D
    expected = np.einsum("pq,eqv->epv", t1, u)
    assert np.allclose(em(favg), expected, atol=1e-13)
    assert np.allclose(em(uavg), expected, atol=1e-13)


def test_stage2_collapses_for_steady_stage():
    # with u* = u the averaged flux reduces to f + f1/2
    disc = make_disc(model=models.Burgers())
    rng = np.random.default_rng(4)
    u = vm(rng.normal(size=(10, 4, 1)) + 2.0)
    dt = 0.003
    pieces = []
    core.time_average(disc.model, u, pieces, disc.xn, disc.dxn, dt, disc.ops)
    favg2, _, _ = core.time_average(disc.model, u, pieces, disc.xn, disc.dxn, dt, disc.ops)
    assert np.allclose(favg2, pieces[0]["f"] + 0.5 * pieces[0]["f1"], atol=1e-13)


def test_stage1_against_dense_time_integral():
    # one element of the quadratic-flux law: compare the averaged flux
    # with a brute-force quadrature of f along a finely integrated
    # collocation system (oracle independent of the stage formulas)
    model = models.Burgers()
    cfg = core.RunConfig(final_time=1.0)
    grid = core.make_grid(0.0, 1.0, 1)
    disc = core.make_discretization(grid, model, cfg)
    xi = disc.ops.nodes
    u0 = (0.5 + 0.3 * xi)[None, :, None]
    dt = 0.01

    favg, _, _ = core.time_average(model, vm(u0), [], disc.xn, disc.dxn, dt, disc.ops)
    favg = em(favg)

    # oracle: integrate du/dt = -D f(u) (single element, free boundaries)
    def rhs(v):
        return -np.einsum("pq,eqv->epv", disc.ops.D, model.flux(v, disc.xn))

    nsub = 400
    h = (dt / 2) / nsub
    u = u0.copy()
    flux_integral = np.zeros_like(u0)
    for _ in range(nsub):
        # Simpson rule per substep with classical RK4 states
        k1 = rhs(u)
        u_half = u + 0.5 * h * k1
        k2 = rhs(u_half)
        k3 = rhs(u + 0.5 * h * k2)
        u_full = u + h * k3
        k4 = rhs(u_full)
        u_mid = u + h / 2 * k1 + 0.0  # midpoint state via dense output
        u_mid = u + (h / 2) * (k1 + k2 + k3) / 3
        flux_integral += (h / 6) * (model.flux(u, disc.xn)
                                    + 4 * model.flux(u_mid, disc.xn)
                                    + model.flux(u_full, disc.xn))
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    oracle = flux_integral / (dt / 2)
    assert np.allclose(favg, oracle, atol=5e-7 * dt)


# ----------------------------------------------------------------------
# face machinery


def test_face_values_ae_constant():
    disc = make_disc()
    favg = vm(np.full((10, 4, 1), 3.3))
    fl, fr = np.moveaxis(core.face_values_ae(favg, disc.ops), 1, 0)
    assert np.allclose(fl, 3.3) and np.allclose(fr, 3.3)


def test_face_values_ae_gll_picks_nodes():
    disc = make_disc(points="gll", correction="g2")
    rng = np.random.default_rng(5)
    favg = vm(rng.normal(size=(10, 4, 1)))
    fl, fr = np.moveaxis(core.face_values_ae(favg, disc.ops), 1, 0)
    assert (fl == favg[..., 0]).all() and (fr == favg[..., -1]).all()


def test_face_values_ae_extrapolates_cubic():
    disc = make_disc(ncells=1)
    xi = disc.ops.nodes
    q = np.polynomial.Polynomial([0.2, -1.0, 0.7, 1.5])
    favg = vm(q(xi)[None, :, None])
    fl, fr = np.moveaxis(core.face_values_ae(favg, disc.ops), 1, 0)
    assert fl[0, 0] == pytest.approx(q(0.0), abs=1e-14)
    assert fr[0, 0] == pytest.approx(q(1.0), abs=1e-14)


def test_ea_fallback_face():
    # element 1's density drops at its last node, so its right-face trace
    # extrapolates to negative density while every node stays admissible
    disc = make_disc(ncells=4, model=models.Euler())
    model, ops = disc.model, disc.ops
    rho = np.ones((4, 4))
    rho[1] = [1.0, 1.0, 1.0, 0.05]
    # model states are variable-major; face values (nvar, side, element)
    u = model.conserved(rho, 0.5 + 0.2 * np.sin(2 * np.pi * disc.xn), np.ones_like(rho))
    assert core.face_values_ae(u, ops)[0, 1, 1] < 0.0
    dt = 1e-3
    pieces = []
    favg1, _, _ = core.time_average(model, u, pieces, disc.xn, disc.dxn, dt, ops)
    faces1 = core.face_values_ea(model, u, pieces, ops, disc.xf, favg1)
    expected = np.zeros((2, 4), dtype=bool)
    expected[1, 1] = True
    assert np.array_equal(pieces[0]["face_bad"], expected)
    ae1 = core.face_values_ae(favg1, ops)
    assert np.array_equal(faces1[:, 1, 1], ae1[:, 1, 1])
    assert not np.allclose(faces1[:, 0, 1], ae1[:, 0, 1], rtol=0.0, atol=1e-12)

    # uniform stage-two states are evaluable at every face, yet the face
    # that fell back in stage one falls back again
    ustar = model.conserved(np.ones((4, 4)), np.full((4, 4), 0.5), np.ones((4, 4)))
    favg2, _, _ = core.time_average(model, ustar, pieces, disc.xn, disc.dxn, dt, ops)
    faces2 = core.face_values_ea(model, ustar, pieces, ops, disc.xf, favg2)
    ae2 = core.face_values_ae(favg2, ops)
    assert np.array_equal(faces2[:, 1, 1], ae2[:, 1, 1])
    assert not np.allclose(faces2[:, 0, 1], ae2[:, 0, 1], rtol=0.0, atol=1e-12)


def _per_shift_face_pieces(model, state, u1, ops, xf):
    # one stage's face flux, increment and fallback mask as once built: the
    # five stencil states checked, then one flux call per shift
    ua, u1a = core.face_values_ae(state, ops), core.face_values_ae(u1, ops)
    shifted = [ua, ua + u1a, ua - u1a, ua + 2.0 * u1a, ua - 2.0 * u1a]
    bad = ~np.logical_and.reduce([np.isfinite(v).all(axis=0) & (v[0] > 0.0) for v in shifted])
    ua = np.where(bad, np.stack([state[..., 0], state[..., -1]], axis=1), ua)
    u1a = np.where(bad, 0.0, u1a)
    f1 = core.flux_time_derivative(lambda v, k: model.flux(v, xf), ua, u1a)
    return model.flux(ua, xf), f1, bad


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_ea_face_stencil_equals_per_shift_reference():
    # the fallback state of test_ea_fallback_face, then a stage-two state
    # evaluable at every face: both stages' face values, bit for bit the
    # per-shift construction combined by the written-out stage formulas
    disc = make_disc(ncells=4, model=models.Euler())
    model, ops, xf = disc.model, disc.ops, disc.xf
    rho = np.ones((4, 4))
    rho[1] = [1.0, 1.0, 1.0, 0.05]
    u = model.conserved(rho, 0.5 + 0.2 * np.sin(2 * np.pi * disc.xn), np.ones_like(rho))
    ustar = model.conserved(1.0 + 0.1 * disc.xn, np.full((4, 4), -0.3), 1.0 + disc.xn ** 2)
    dt, pieces = 1e-3, []
    favg1, _, _ = core.time_average(model, u, pieces, disc.xn, disc.dxn, dt, ops)
    faces1 = core.face_values_ea(model, u, pieces, ops, xf, favg1)
    f, f1, bad1 = _per_shift_face_pieces(model, u, pieces[0]["u1"], ops, xf)
    assert bad1.sum() == 1
    assert _same_bits(faces1, np.where(bad1, core.face_values_ae(favg1, ops), f + f1 / 4.0))
    for name, value in (("face_f", f), ("face_f1", f1), ("face_bad", bad1)):
        assert _same_bits(pieces[0][name], value), name

    favg2, _, _ = core.time_average(model, ustar, pieces, disc.xn, disc.dxn, dt, ops)
    faces2 = core.face_values_ea(model, ustar, pieces, ops, xf, favg2)
    _, fs1, bad2 = _per_shift_face_pieces(model, ustar, pieces[1]["u1"], ops, xf)
    assert not bad2.any() and "face_f" not in pieces[1]
    expected = np.where(bad1 | bad2, core.face_values_ae(favg2, ops), f + (f1 + 2.0 * fs1) / 6.0)
    assert _same_bits(faces2, expected)
    assert _same_bits(pieces[1]["face_f1"], fs1)


def test_imposed_fluxes_are_per_face_per_time_sums():
    # one flux call over both imposed faces and the three sample times,
    # bit for bit the per-face sums from zero of w f(bc_state(x, t)); the
    # baseline's flux at t
    exact = lambda x, t: models.exact_solution("varadv_x2", x, t)
    m = models.VariableAdvection(models.varadv_x2_speed)
    cfg = core.RunConfig(boundary="dirichlet", final_time=1.0)
    t, tau = 0.3, 0.05
    # a one-variable state may come back as a (1,) array or a number
    for bc, stage_tau in itertools.product((exact, lambda x, t: float(exact(x, t)[0])),
                                           (tau, None)):
        disc = core.make_discretization(core.make_grid(0.1, 1.0, 8), m, cfg, bc_state=bc)
        fnum = np.zeros((1, 9))
        core._impose_fluxes(disc, fnum, t, stage_tau)
        for i in (0, 8):
            x = disc.grid.faces[i]
            if stage_tau is None:
                expected = m.flux(np.asarray(exact(x, t), dtype=float), x)
            else:
                expected = sum(w * m.flux(np.asarray(exact(x, t + tau * th), dtype=float), x)
                               for th, w in core._STAGE_QUAD)
            assert _same_bits(fnum[:, i], expected)
        assert (fnum[:, 1:-1] == 0.0).all()
    # the imposed gas state is built once per face, and no caller can write it
    case = harness.build_case("titarev_toro")
    state = case.bc_state(-5.0, 0.3)
    assert state is case.bc_state(-5.0, 1.7) and not state.flags.writeable
    assert _same_bits(state, case.initial(-5.0))


def test_numerical_flux_consistency():
    f = np.array([[1.0]])
    out = core.numerical_flux(f, f, np.array([[2.0]]), np.array([[2.0]]),
                              np.array([3.0]))
    assert np.allclose(out, f)


def test_numerical_flux_dissipation_sign():
    f = np.array([[1.0]])
    out = core.numerical_flux(f, f, np.array([[0.0]]), np.array([[0.5]]),
                              np.array([1.0]))
    assert out[0, 0] == pytest.approx(1.0 - 0.25)


def test_fr_flux_derivative_constant():
    disc = make_disc()
    favg = vm(np.full((10, 4, 1), 2.0))
    fnum = vm(np.full((11, 1), 2.0))
    r = core.fr_flux_derivative(favg, fnum[:, :-1], fnum[:, 1:], disc.ops)
    assert np.allclose(r, 0.0, atol=1e-13)


def test_fr_flux_derivative_telescopes():
    # quadrature-weighted residual equals the face flux difference
    disc = make_disc()
    rng = np.random.default_rng(6)
    favg = rng.normal(size=(10, 4, 1))
    fnum = rng.normal(size=(11, 1))
    fn = vm(fnum)
    r = em(core.fr_flux_derivative(vm(favg), fn[:, :-1], fn[:, 1:], disc.ops))
    sums = np.einsum("p,epv->ev", disc.ops.weights, r)
    assert np.allclose(sums, fnum[1:] - fnum[:-1], atol=1e-13)


def test_fr_flux_derivative_single_element_exact():
    disc = make_disc(ncells=1)
    xi = disc.ops.nodes
    q = np.polynomial.Polynomial([0.3, 1.1, -0.4, 0.9])
    favg = vm(q(xi)[None, :, None])
    fnum_l = np.array([[q(0.0)]])
    fnum_r = np.array([[q(1.0)]])
    r = em(core.fr_flux_derivative(favg, fnum_l, fnum_r, disc.ops))
    assert np.allclose(r[0, :, 0], q.deriv()(xi), atol=1e-12)


# ----------------------------------------------------------------------
# boundary closures


@pytest.mark.parametrize("kind", core.BOUNDARY_KINDS)
def test_boundary_ghosts(kind):
    m = models.Euler()
    ne = 5
    disc = make_disc(ncells=ne, model=m, boundary=kind,
                     bc_state=lambda x, t: m.conserved(1.0, 0.0, 1.0))
    b = disc.boundary
    wraps, walls = kind == "periodic", kind == "reflective"
    state_sign = np.array([1.0, -1.0, 1.0]) if walls else np.ones(3)
    flux_sign = -state_sign if walls else np.ones(3)

    # face traces: wrap to the far element's facing trace, or mirror the
    # end element's own trace
    vals_l = np.arange(3 * ne, dtype=float).reshape(ne, 3) + 1.0
    vals_r = vals_l + 100.0
    vals = np.stack([vals_l, vals_r])
    # the same values as fluxes and as traces; only the ghost signs differ
    sides = b.face_sides(vm(vals), vm(vals))
    for sign, (minus, plus) in zip((flux_sign, state_sign), sides):
        minus, plus = minus.T, plus.T
        assert (minus[1:] == vals_r).all() and (plus[:-1] == vals_l).all()
        assert (minus[0] == (vals_r[-1] if wraps else vals_l[0] * sign)).all()
        assert (plus[-1] == (vals_l[0] if wraps else vals_r[-1] * sign)).all()

    # per-element arrays
    ends = [ne - 1, 0] if wraps else [0, ne - 1]
    assert b.cells.tolist() == [ends[0], *range(ne), ends[1]]

    # subcells: each ghost abuts its end face with the width of the
    # subcell it copies
    x = disc.xn.ravel()
    ns = len(x)
    assert b.subcells.tolist() == [ns - 1 if wraps else 0, *range(ns), 0 if wraps else ns - 1]
    offsets = b.sub_faces[:, 1:-1] - x
    assert (b.sub_offsets[:, 1:-1] == offsets).all()
    assert (b.sub_face_x[:, 1:-1] == x + offsets).all()
    faces = disc.grid.faces
    assert b.sub_faces[0, 0] == faces[0] and b.sub_faces[1, -1] == faces[-1]
    # the ghosts' node positions plus their inner offsets
    assert b.sub_face_x[1, 0] == pytest.approx(faces[0], abs=1e-15)
    assert b.sub_face_x[0, -1] == pytest.approx(faces[-1], abs=1e-15)
    widths, h = b.sub_width, (disc.dx[:, None] * disc.ops.weights).ravel()
    assert widths[0] == pytest.approx(h[-1] if wraps else h[0], rel=1e-14)
    assert widths[-1] == pytest.approx(h[0] if wraps else h[-1], rel=1e-14)

    # imposed faces, and the faces whose subcell updates the limiter guards
    imposed = {"dirichlet_outflow": [0], "dirichlet": [0, ne]}.get(kind, [])
    assert b.imposed.tolist() == imposed
    minus_ok, plus_ok = np.ones(ne + 1, bool), np.ones(ne + 1, bool)
    if not wraps:
        minus_ok[0] = plus_ok[-1] = False
    minus_ok[imposed] = plus_ok[imposed] = False
    assert (b.limited[0] == minus_ok).all() and (b.limited[1] == plus_ok).all()

    # face geometry of the subcells next to every face: the last subcell
    # of the left element and the first of the right one
    w, p = disc.ops.weights, len(disc.ops.weights)
    left, right = b.cells[:-1], b.cells[1:]
    assert np.array_equal(b.end_widths, np.stack([w[-1] * disc.dx[left], w[0] * disc.dx[right]]))
    assert np.array_equal(b.inner_subfaces, np.stack([p * left + p - 1, p * right + 1]))


def test_reflective_wall_zero_mass_flux():
    # one step of the blast data must not transport mass through walls
    m = models.Euler()
    cfg = core.RunConfig(boundary="reflective", final_time=1.0, limiter="fo")
    grid = core.make_grid(0.0, 1.0, 8)
    disc = core.make_discretization(grid, m, cfg)
    rho = np.ones((8, 4))
    p = np.where(disc.xn < 0.5, 10.0, 1.0)
    u = em(m.conserved(rho, np.zeros_like(rho), p))
    _, diag = core.mdrk_step(disc, u, 0.0, 1e-4)
    fnum = diag.stages[1].fnum
    assert abs(fnum[0, 0]) < 1e-13 and abs(fnum[-1, 0]) < 1e-13
    assert abs(fnum[0, 2]) < 1e-13 and abs(fnum[-1, 2]) < 1e-13


def test_dirichlet_inflow_uses_exact_state():
    case_exact = lambda x, t: np.array([np.cos(np.pi * x / 2) * np.exp(-t)])
    m = models.VariableAdvection(models.varadv_x2_speed)
    cfg = core.RunConfig(boundary="dirichlet_outflow", final_time=1.0)
    grid = core.make_grid(0.1, 1.0, 8)
    disc = core.make_discretization(grid, m, cfg, bc_state=case_exact)
    u = np.cos(np.pi * disc.xn / 2)[..., None]
    _, diag = core.mdrk_step(disc, u, 0.0, 1e-3)
    expected = 0.1 ** 2 * np.cos(np.pi * 0.05)  # a(x) u at the left face, t ~ 0
    assert diag.stages[1].fnum[0, 0] == pytest.approx(expected, rel=1e-3)


def test_dirichlet_requires_state():
    with pytest.raises(ConfigurationError):
        make_disc(boundary="dirichlet_outflow")


def test_reflective_requires_system():
    with pytest.raises(ConfigurationError):
        make_disc(boundary="reflective")


# ----------------------------------------------------------------------
# time step control


def test_compute_dt_euler_formula():
    m = models.Euler()
    cfg = core.RunConfig(final_time=10.0, cfl=0.107)
    grid = core.make_grid(0.0, 1.0, 100)
    disc = core.make_discretization(grid, m, cfg)
    u = np.tile(m.conserved(1.0, 0.0, 1.0), (100, 4, 1))
    dt = core.compute_dt(disc, u, 0.0)
    assert dt == pytest.approx(0.98 * 0.107 * 0.01 / np.sqrt(1.4), rel=1e-12)


def test_compute_dt_advection_and_clamp():
    disc = make_disc(ncells=10, cfl=0.107, final_time=1.0)
    u = np.ones((10, 4, 1))
    assert core.compute_dt(disc, u, 0.0) == pytest.approx(0.98 * 0.107 * 0.1)
    assert core.compute_dt(disc, u, 1.0 - 1e-5) == pytest.approx(1e-5, rel=1e-6)


def test_compute_dt_zero_speed_caps_at_horizon():
    disc = make_disc(ncells=10, model=models.Burgers(), final_time=0.7)
    u = np.zeros((10, 4, 1))
    assert core.compute_dt(disc, u, 0.2) == pytest.approx(0.5)


def test_compute_dt_refuses_nan_mean_speed():
    # element 3's mean pressure is negative, so its mean sound speed is NaN;
    # the step is refused there, with or without a StepStart, instead of
    # becoming a NaN step
    m = models.Euler()
    disc = make_disc(ncells=6, model=m, final_time=1.0)
    u = np.tile(m.conserved(1.0, 0.0, 1.0), (6, 4, 1))
    u[3, :, 2] = -1.0
    with np.errstate(invalid="ignore"):
        start = core.step_start(disc, u)
        for given in (None, start):
            with pytest.raises(AdmissibilityError) as err:
                core.compute_dt(disc, u, 0.25, given)
            assert err.value.constraint == "mean wave speed"
            assert err.value.element == 3 and np.isnan(err.value.value)
            assert err.value.time == 0.25


def _folded_mean_speeds(disc, means):
    """_mean_speeds of the (nvar, ne) means as it was written for every
    model: their speed broadcast over the nodes and folded by max."""
    speeds = np.broadcast_to(disc.model.speed(means[..., None], disc.xn), disc.xn.shape)
    return models.fold(np.maximum, np.real(speeds), 1)


@pytest.mark.parametrize("model", [models.Euler(), models.Burgers()])
def test_mean_speed_of_the_mean_alone_is_the_folded_one_bit_for_bit(monkeypatch, model):
    # a speed with a one-long node axis is taken as it is, as the max of
    # equal values: means with NaN, signed zeros and subnormals in every
    # variable give the folded form's bits
    disc = make_disc(ncells=40, model=model)
    means = np.random.default_rng(3).uniform(0.5, 2.0, (model.nvar, 40))
    special = [np.nan, 0.0, -0.0, 1e-310, -1e-310, 5e-324, -np.inf, 1e300]
    for k in range(model.nvar):
        means[k, 8 * k:8 * k + 8] = special
    monkeypatch.setattr(core, "node_sums", lambda weights, u: means)
    with np.errstate(all="ignore"):
        fast, folded = core._mean_speeds(disc, None), _folded_mean_speeds(disc, means)
    assert fast.shape == folded.shape == (40,) and np.isnan(fast).any()
    assert np.array_equal(fast.view(np.int64), folded.view(np.int64))


@pytest.mark.parametrize("a", [1.0, -2.5, -0.0, np.nan])
def test_constant_mean_speed_is_the_folded_one_bit_for_bit(a):
    # a model whose speed is one number gets it at every element, without
    # the broadcast and the fold over the nodes, with the same bits
    disc = make_disc(ncells=40, model=models.LinearAdvection(a))
    u = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 4, 1))
    speeds = core._mean_speeds(disc, vm(u))
    folded = _folded_mean_speeds(disc, node_sums(disc.ops.weights, vm(u)))
    assert speeds.shape == (40,) and speeds.dtype == folded.dtype == np.float64
    assert np.array_equal(speeds.view(np.int64), folded.view(np.int64))
    if np.isnan(a):
        for given in (None, core.step_start(disc, u)):
            with pytest.raises(AdmissibilityError) as err:
                core.compute_dt(disc, u, 0.0, given)
            assert err.value.constraint == "mean wave speed" and err.value.element == 0


def test_mean_speed_that_depends_on_x_is_maxed_over_the_nodes():
    _, disc, fld = harness.make_run("varadv_x2", cells=8)
    speeds = core._mean_speeds(disc, vm(fld.data))
    assert np.array_equal(speeds, (disc.xn ** 2).max(axis=1))
    means = node_sums(disc.ops.weights, vm(fld.data))
    assert np.array_equal(speeds, _folded_mean_speeds(disc, means))
    assert (speeds > disc.xn[:, 0] ** 2).all()


def test_compute_dt_refuses_nan_burgers_mean():
    disc = make_disc(ncells=6, model=models.Burgers())
    u = np.ones((6, 4, 1))
    u[4, 1, 0] = np.nan
    with pytest.raises(AdmissibilityError) as err:
        core.compute_dt(disc, u, 0.0)
    assert err.value.constraint == "mean wave speed" and err.value.element == 4


# ----------------------------------------------------------------------
# full steps


def _fresh_public(out, *inputs):
    return (out.flags.c_contiguous and out.flags.owndata
            and not any(np.shares_memory(out, a) for a in inputs))


@pytest.mark.parametrize("step", [core.mdrk_step, core.rkfr_step])
def test_steps_keep_the_public_layout_on_certificate_unit_vectors(step):
    # the benchmark certifies the CFL with steps applied to (8, 4, 1) unit
    # vectors; every step takes and returns (ne, p, nvar), as new arrays
    cfg = core.RunConfig(points="gll", correction="g2", cfl=0.2, boundary="periodic")
    disc = core.make_discretization(core.make_grid(0.0, 1.0, 8), models.LinearAdvection(1.0),
                                    cfg)
    columns = []
    for j in range(32):
        unit = np.zeros(32)
        unit[j] = 1.0
        out, diag = step(disc, unit.reshape(8, 4, 1), 0.0, 0.2 * float(disc.dx[0]))
        assert out.shape == (8, 4, 1) and _fresh_public(out, unit)
        columns.append(out.ravel())
    # unit-speed advection: each column keeps the mass of its unit vector
    w = np.tile(disc.ops.weights, 8)
    assert np.allclose(w @ np.array(columns).T, w, atol=1e-14)


def test_steps_and_runs_keep_the_public_layout_for_systems():
    m = models.Euler()
    disc = make_disc(ncells=12, model=m, limiter="fo", boundary="reflective")
    p = np.where(disc.xn < 0.5, 10.0, 1.0)
    u = em(m.conserved(np.ones_like(p), np.zeros_like(p), p))
    start = core.step_start(disc, u)
    out, diag = core.mdrk_step(disc, u, 0.0, 1e-4, start)
    assert out.shape == (12, 4, 3) and _fresh_public(out, u, start.u)
    assert not start.u.flags.writeable and np.array_equal(em(start.u), u)
    assert len(diag.stages) == 2
    for s in diag.stages:
        assert s.fnum.shape == (13, 3) and s.theta.shape == (13, 2)
        assert s.alpha.shape == (12,) and s.face_bad.shape == (2, 12)
    assert diag.min_constraints.shape == (2,)

    seen = []
    res = harness.run_case("blast", harness.case_config(harness.build_case("blast"),
                                                        final_time=5e-4),
                           cells=50, on_step=lambda r, before, d: seen.append(d))
    assert res.field.data.shape == (50, 4, 3) and res.field.data.flags.c_contiguous
    assert res.min_constraints.shape == (2,)
    for d in seen:
        assert d.stages[1].fnum.shape == (51, 3) and d.stages[1].theta.shape == (51, 2)
        assert d.stages[1].alpha.shape == (50,)
    res = harness.run_case("linadv_sine", cells=10, scheme="rkfr",
                           config=harness.case_config(harness.build_case("linadv_sine"),
                                                      final_time=0.05))
    assert res.field.data.shape == (10, 4, 1) and res.field.data.flags.c_contiguous


def test_step_preserves_constant_state():
    for bc in ("periodic", "transmissive"):
        disc = make_disc(boundary=bc)
        u = np.full((10, 4, 1), 2.5)
        out, _ = core.mdrk_step(disc, u, 0.0, 0.005)
        assert np.allclose(out, 2.5, atol=1e-14)


def test_step_is_linear_for_advection():
    disc = make_disc(ncells=8)
    rng = np.random.default_rng(8)
    u = rng.normal(size=(8, 4, 1))
    w = rng.normal(size=(8, 4, 1))
    a, b = 1.7, -0.6
    dt = 0.004
    s_u, _ = core.mdrk_step(disc, u, 0.0, dt)
    s_w, _ = core.mdrk_step(disc, w, 0.0, dt)
    s_mix, _ = core.mdrk_step(disc, a * u + b * w, 0.0, dt)
    assert np.allclose(s_mix, a * s_u + b * s_w, atol=1e-12)


def test_step_mass_conservation_periodic():
    disc = make_disc(ncells=16, model=models.Burgers())
    u = 0.2 * np.sin(2 * np.pi * disc.xn)[..., None] + 1.0
    w = disc.ops.weights
    mass0 = float(np.einsum("e,p,epv->", disc.dx, w, u))
    for _ in range(20):
        u, _ = core.mdrk_step(disc, u, 0.0, 0.002)
    mass1 = float(np.einsum("e,p,epv->", disc.dx, w, u))
    assert mass1 == pytest.approx(mass0, abs=1e-13)


def _mean_update(disc, u, dt):
    """Element means after one step, and as the face fluxes predict them."""
    w = disc.ops.weights
    before = np.einsum("p,epv->ev", w, u)
    out, diag = core.mdrk_step(disc, u, 0.0, dt)
    after = np.einsum("p,epv->ev", w, out)
    fnum = diag.stages[1].fnum
    expected = before - (dt / disc.dx)[:, None] * (fnum[1:] - fnum[:-1])
    return after, expected, diag


def test_step_mean_update_identity():
    # per-element mean change equals the face-flux difference, both stages
    disc = make_disc(ncells=12, model=models.Burgers())
    u = (0.3 * np.sin(2 * np.pi * disc.xn) + 1.0)[..., None]
    after, expected, _ = _mean_update(disc, u, 0.003)
    assert np.allclose(after, expected, atol=1e-13)
    # also for a blended, limited gas step under every non-periodic
    # closure, with a pressure jump in both end elements
    m = models.Euler()
    for kind in ("transmissive", "reflective", "dirichlet_outflow", "dirichlet"):
        disc = make_disc(ncells=12, model=m, boundary=kind, limiter="mh",
                         bc_state=lambda x, t: m.conserved(1.0, 0.1, 1.0))
        p = np.where((disc.xn < 0.05) | (disc.xn > 0.95), 10.0, 1.0)
        u = em(m.conserved(np.ones_like(p), 0.1 * np.ones_like(p), p))
        after, expected, diag = _mean_update(disc, u, 1e-3)
        assert np.allclose(after, expected, rtol=1e-14, atol=1e-13), kind
        assert diag.stages[1].alpha[0] > 0.0 and diag.stages[1].alpha[-1] > 0.0, kind


def _blast_jump(limiter):
    m = models.Euler()
    disc = make_disc(ncells=8, model=m, boundary="reflective", limiter=limiter)
    p = np.where(disc.xn < 0.5, 1000.0, 0.01)
    return disc, em(m.conserved(np.ones_like(p), np.zeros_like(p), p))


@pytest.mark.parametrize("limiter", ["fo", "mh"])
def test_low_order_failure_stops_before_high_order_work(monkeypatch, limiter):
    # both stages' subcell updates next to the faces depend on the
    # start-of-step state only, so they are checked before stage one
    def high_order_work(*args, **kwargs):
        raise AssertionError("stage one started")

    monkeypatch.setattr(core, "time_average", high_order_work)
    disc, u = _blast_jump(limiter)
    with pytest.raises(StencilStateError, match="low-order"):
        core.mdrk_step(disc, u, 0.0, 1e-2)


@pytest.mark.parametrize("limiter", ["fo", "mh"])
def test_subcell_fluxes_built_once_per_step(monkeypatch, limiter):
    calls = []
    build = blending.low_order_subface_fluxes

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(blending, "low_order_subface_fluxes", counted)
    disc, u = _blast_jump(limiter)
    _, diag = core.mdrk_step(disc, u, 0.0, 1e-5)
    assert len(calls) == 1
    assert diag.stages[0].theta is not None and diag.stages[1].theta is not None


class _Enough(Exception):
    pass


def _first_steps(case_id, nsteps, check=None, **overrides):
    """The StepDiagnostics of a case's first accepted steps at 100 cells,
    each passed to check as it is made."""
    diags = []

    def on_step(result, before, diag):
        diags.append(diag)
        if check is not None:
            check(diag)
        if len(diags) == nsteps:
            raise _Enough

    cfg = harness.case_config(harness.build_case(case_id), **overrides)
    with pytest.raises(_Enough):
        harness.run_case(case_id, cfg, cells=100, on_step=on_step)
    return diags


def test_stage_records_carry_each_stage_fallback_mask(monkeypatch):
    # density_ratio's first 17 steps fall back at ea faces in both stages,
    # some at faces where the other stage does not; each record's face_bad
    # is the mask of its own stage's five face stencil states, and the
    # stage's faces took favg's traces on the union of the masks so far (a
    # halved attempt's stages are recorded over).  Extrapolated faces
    # record no mask.
    used, own = [], []
    face_values_ea = core.face_values_ea

    def recorded(model, state, pieces, ops, xf, favg):
        if len(pieces) == 1:
            used.clear()
        value = face_values_ea(model, state, pieces, ops, xf, favg)
        bad = _per_shift_face_pieces(model, state, pieces[-1]["u1"], ops, xf)[2]
        used.append((bad, value, core.face_values_ae(favg, ops)))
        return value

    def check(diag):
        assert len(diag.stages) == len(used) == 2
        union = False
        for record, (bad, value, ae) in zip(diag.stages, used):
            assert record.face_bad.dtype == bool and np.array_equal(record.face_bad, bad)
            union = union | bad
            assert np.array_equal(value[:, union], ae[:, union])
        own.append([bad for bad, _, _ in used])

    monkeypatch.setattr(core, "face_values_ea", recorded)
    _first_steps("density_ratio", 17, check)
    assert any((one & ~two).any() for one, two in own)
    assert any((two & ~one).any() for one, two in own)
    for diag in _first_steps("density_ratio", 1, face_scheme="ae"):
        assert [record.face_bad for record in diag.stages] == [None, None]


def test_theta_min_is_the_least_theta_over_the_stage_records():
    # blast's first steps limit face fluxes in both stages, and in some
    # steps stage one limits hardest, in others stage two
    binding = set()
    for diag in _first_steps("blast", 5):
        least = [float(record.theta.min()) for record in diag.stages]
        assert diag.theta_min == min([1.0] + least) < 1.0
        binding.add(least.index(diag.theta_min))
    assert binding == {0, 1}
    # unblended thetas are None and a scalar model's have no columns
    for diag in _first_steps("linadv_sine", 1) + _first_steps("linadv_sine", 1, limiter="fo"):
        assert diag.theta_min == 1.0
    _, baseline = core.rkfr_step(make_disc(ncells=8), np.ones((8, 4, 1)), 0.0, 1e-3)
    assert baseline.stages == () and baseline.theta_min == 1.0


def test_constraints_evaluated_at_most_11_times_per_step(monkeypatch):
    # each constraint value is evaluated once per state: two subcell checks
    # and one check of both stages' face updates, then per stage one
    # flux-limiter call, the means and the nodes in the scaling limiter and
    # the stage check, whose stage-2 values give the step's minima
    calls = []
    evaluate = models.Euler.constraints

    def counted(self, u):
        calls.append(u.shape)
        return evaluate(self, u)

    monkeypatch.setattr(models.Euler, "constraints", counted)
    _, disc, fld = harness.make_run("blast", cells=100)
    u, t, attempts = fld.data, 0.0, 0
    for _ in range(20):
        dt = core.compute_dt(disc, u, t)
        while True:
            attempts += 1
            try:
                unew, _ = core.mdrk_step(disc, u, t, dt)
                break
            except StencilStateError:
                dt *= 0.5
        u, t = unew, t + dt
    assert len(calls) <= 11 * attempts


def test_flux_evaluated_at_most_13_times_per_step(monkeypatch):
    # one flux call on the subcell traces (their Rusanov fluxes take
    # speed_and_flux), then per stage the nodal flux, its four shifts and
    # one call on the stacked face stencil
    calls = []
    evaluate = models.Euler.flux

    def counted(self, u, x):
        calls.append(u.shape)
        return evaluate(self, u, x)

    monkeypatch.setattr(models.Euler, "flux", counted)
    _, disc, fld = harness.make_run("blast", cells=100)
    u, t, attempts = fld.data, 0.0, 0
    for _ in range(20):
        dt = core.compute_dt(disc, u, t)
        while True:
            attempts += 1
            try:
                unew, _ = core.mdrk_step(disc, u, t, dt)
                break
            except StencilStateError:
                dt *= 0.5
        u, t = unew, t + dt
    assert len(calls) <= 13 * attempts


class _PositiveAdvection(models.LinearAdvection):
    # linear advection with one admissibility constraint, u > 0
    constraint_names = ("u",)

    def constraints(self, u):
        return u.copy()


def test_stage_one_failure_is_reported_at_its_state_time():
    # a negative node survives a tiny first stage; the checked state lives
    # at t + dt/2
    disc = make_disc(ncells=8, model=_PositiveAdvection(1.0))
    u = np.ones((8, 4, 1))
    u[3, 2, 0] = -0.5
    t, dt = 0.25, 1e-4
    with pytest.raises(AdmissibilityError, match="after first stage") as err:
        core.mdrk_step(disc, u, t, dt)
    assert err.value.time == t + dt / 2


def _halving_state(**overrides):
    # density_ratio at 100 cells with blending at the certified CFL: its
    # first step is halved before it is accepted
    case = harness.build_case("density_ratio")
    cfg = harness.case_config(case, final_time=0.05, **overrides)
    _, disc, fld = harness.make_run("density_ratio", cfg, cells=100)
    return disc, fld.data


def _step_or_abort(*args):
    try:
        return core.mdrk_step(*args)
    except StencilStateError as exc:
        return str(exc)


def _diag_values(diag):
    """Every value of a StepDiagnostics, its stage records' fields by stage."""
    values = {f"stage {k} {name}": v for k, record in enumerate(diag.stages)
              for name, v in record._asdict().items()}
    return {**values, "theta_min": diag.theta_min, "min_constraints": diag.min_constraints,
            "dt": diag.dt}


@pytest.mark.parametrize("overrides", [
    dict(points="gll", correction="g2", face_scheme="ae", limiter="fo"),
    dict(points="gll", correction="g2", face_scheme="ea", limiter="fo"),
    dict(face_scheme="ea", limiter="mh"),
])
def test_reused_step_start_equals_fresh_step(overrides):
    # the attempts of one state at halved steps read the StepStart built
    # for its first attempt and give a fresh step's bits
    disc, u = _halving_state(**overrides)
    start = core.step_start(disc, u)
    dt = core.compute_dt(disc, u, 0.0, start)
    assert dt == core.compute_dt(disc, u, 0.0)
    outcomes = []
    for k in range(6):
        reused = _step_or_abort(disc, u, 0.0, dt / 2 ** k, start)
        fresh = _step_or_abort(disc, u, 0.0, dt / 2 ** k)
        outcomes.append(isinstance(reused, str))
        if outcomes[-1]:
            assert reused == fresh
            continue
        (unew, diag), (unew_f, diag_f) = reused, fresh
        assert np.array_equal(unew, unew_f)
        values, values_f = map(_diag_values, (diag, diag_f))
        assert values.keys() == values_f.keys()
        for name, a in values.items():
            b = values_f[name]
            assert a is None and b is None or np.array_equal(a, b), name
    assert outcomes[0] and not all(outcomes)
    # the attempts left the per-state inputs, read-only, with a fresh build's bits
    fresh_start = core.step_start(disc, u)
    assert start.alpha is not None
    assert (start.face_parts is None) == (overrides["limiter"] == "mh")
    pairs = [(getattr(start, name), getattr(fresh_start, name))
             for name in ("u", "speeds", "lam", "alpha")]
    for a, b in pairs + list(zip(start.face_parts or (), fresh_start.face_parts or ())):
        assert a is None and b is None or np.array_equal(a.view(np.int64), b.view(np.int64))
        assert a is None or not a.flags.writeable


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
def test_step_start_keeps_first_order_fluxes_in_face_parts_only(boundary):
    # the fo subcell fluxes live once, as face_parts.sf, read-only and with
    # a fresh first-order pass's bits; an mh start builds no parts
    m = models.Euler()
    disc = make_disc(ncells=8, model=m, boundary=boundary, limiter="fo")
    rng = np.random.default_rng(4)
    shape = disc.xn.shape
    u = em(m.conserved(rng.uniform(0.5, 1.5, shape), rng.normal(size=shape),
                       rng.uniform(0.5, 1.5, shape)))
    start = core.step_start(disc, u)
    assert not hasattr(start, "subface_fluxes")
    fresh = blending.low_order_subface_fluxes(disc, vm(u), 0.0, use_slopes=False)
    sf = start.face_parts.sf
    assert sf.shape == fresh.shape[:1] + (1,) + fresh.shape[1:]
    assert np.array_equal(sf[:, 0].view(np.int64), fresh.view(np.int64))
    assert not sf.flags.writeable
    mh = make_disc(ncells=8, model=m, boundary=boundary, limiter="mh")
    assert core.step_start(mh, u).face_parts is None


def test_low_order_error_names_stage_and_face(monkeypatch):
    # the halving error of the face-update check says which stage failed
    # and at which face its lowest failing constraint value sits
    failures = []
    low_order = core._low_order

    def recorded(disc, u, dt, start):
        try:
            return low_order(disc, u, dt, start)
        except StencilStateError as exc:
            failures.append((disc, u, dt, exc))
            raise

    monkeypatch.setattr(core, "_low_order", recorded)
    cfg = harness.case_config(harness.build_case("density_ratio"), points="gll",
                              correction="g2", limiter="fo", final_time=0.05)
    harness.run_case("density_ratio", cfg, cells=100)
    assert len(failures) > 10
    assert {exc.stage for *_, exc in failures} == {1, 2}
    for disc, u, dt, exc in failures:
        # variable-major: u (nvar, ne, p), sf (nvar, subface); first-order
        # fluxes serve every stage's interval
        model, b = disc.model, disc.boundary
        k = model.constraint_names.index(exc.constraint.removeprefix("low-order "))
        taus = np.array([row.tau * dt for row in core.STAGE_ROWS])
        sf = blending.low_order_subface_fluxes(disc, u, 0.0, use_slopes=False)
        # the stages before the failing one pass
        blending.low_order_face_updates(disc, blending.face_update_parts(disc, sf, u),
                                        taus[:exc.stage - 1])
        tau = taus[exc.stage - 1]
        flow = sf[:, ::disc.ops.degree + 1]
        f_int_m, f_int_p = sf[:, b.inner_subfaces[0]], sf[:, b.inner_subfaces[1]]
        low_m = u[:, b.cells[:-1], -1] - (tau / b.end_widths[0]) * (flow - f_int_m)
        low_p = u[:, b.cells[1:], 0] - (tau / b.end_widths[1]) * (f_int_p - flow)
        cons = model.constraints(np.stack([low_m, low_p], axis=1))[k]
        guarded = np.where(b.limited, cons, np.inf)
        assert exc.value == guarded.min() == guarded[:, exc.face].min() <= 0.0
        # the message is the one a halving has always printed
        assert str(exc) == (f"stencil state not evaluable: {exc.constraint} = "
                            f"{exc.value:.6e} (subcell update left the admissible set)")


def test_validate_admissible_returns_checked_values():
    m = models.Euler()
    u = vm(np.tile(m.conserved(1.0, 0.5, 2.0), (4, 3, 1)))
    assert np.array_equal(core.validate_admissible(m, u), m.constraints(u))
    assert core.validate_admissible(models.Burgers(), vm(np.ones((4, 3, 1)))) is None


@pytest.mark.parametrize("limiter", ["none", "fo", "mh"])
def test_step_min_constraints_are_the_new_state_minima(limiter):
    m = models.Euler()
    disc = make_disc(ncells=16, model=m, limiter=limiter)
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * disc.xn)
    u = m.conserved(rho, np.full_like(rho, 0.3), 1.0 + 0.2 * np.cos(2 * np.pi * disc.xn))
    unew, diag = core.mdrk_step(disc, em(u), 0.0, 1e-3)
    cons = m.constraints(vm(unew))
    assert np.array_equal(diag.min_constraints, cons.reshape(2, -1).min(axis=1))
    _, diag = core.mdrk_step(make_disc(ncells=16), np.sin(disc.xn)[..., None], 0.0, 1e-3)
    assert diag.min_constraints is None


def test_admissibility_abort_carries_location():
    m = models.Euler()
    cfg = core.RunConfig(final_time=1.0, boundary="periodic")
    grid = core.make_grid(0.0, 1.0, 6)
    disc = core.make_discretization(grid, m, cfg)
    u = np.tile(m.conserved(1.0, 0.0, 1.0), (6, 4, 1))
    u[3, 2, 2] = -0.01  # makes pressure negative at one node
    with pytest.raises(AdmissibilityError) as err:
        core.validate_admissible(m, vm(u), time=0.5)
    assert err.value.constraint == "pressure"
    assert err.value.element == 3 and err.value.node == 2


def test_source_constant_in_time_and_space():
    # du/dt = 1 with zero flux advances exactly for polynomial data
    m = models.LinearAdvection(0.0, source=lambda u, x, t: np.ones_like(u))
    cfg = core.RunConfig(final_time=1.0, boundary="periodic")
    grid = core.make_grid(0.0, 1.0, 6)
    disc = core.make_discretization(grid, m, cfg)
    u = np.full((6, 4, 1), 1.5)
    dt = 0.25
    out, _ = core.mdrk_step(disc, u, 0.0, dt)
    assert np.allclose(out, 1.5 + dt, atol=1e-14)


def test_source_linear_increment_identity():
    # for s linear in u the stencil reproduces s_u * u1 exactly
    s = lambda v, k: 3.0 * v
    rng = np.random.default_rng(9)
    u = rng.normal(size=(4, 4, 1))
    u1 = rng.normal(size=(4, 4, 1))
    out = core.flux_time_derivative(s, u, u1)
    assert np.allclose(out, 3.0 * u1, atol=1e-13)


def test_source_with_limiter_rejected():
    m = models.Euler(source=models.manufactured_source)
    cfg = core.RunConfig(final_time=1.0, boundary="periodic", limiter="mh")
    grid = core.make_grid(0.0, 1.0, 6)
    with pytest.raises(ConfigurationError):
        core.make_discretization(grid, m, cfg)


# ----------------------------------------------------------------------
# baseline integrator


def test_rkfr_constant_state():
    disc = make_disc()
    u = np.full((10, 4, 1), 1.1)
    out, _ = core.rkfr_step(disc, u, 0.0, 0.005)
    assert np.allclose(out, 1.1, atol=1e-14)


def test_rkfr_rejects_limiter():
    disc = make_disc(model=models.Euler(), limiter="fo")
    u = np.tile(models.Euler().conserved(1.0, 0.0, 1.0), (10, 4, 1))
    with pytest.raises(ConfigurationError):
        core.rkfr_step(disc, u, 0.0, 1e-3)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        core.RunConfig(dissipation="d3").validate()
    with pytest.raises(ConfigurationError):
        core.RunConfig(cfl=-0.1).validate()
    assert core.RunConfig().resolved_cfl() == pytest.approx(0.107)
