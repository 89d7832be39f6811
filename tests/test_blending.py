import itertools

import numpy as np
import pytest

from mdrkfr import blending, core, harness, models
from mdrkfr.errors import AdmissibilityError, StencilStateError


# the solver's inside runs on variable-major (nvar, ne, p) arrays, and so
# do the model methods; states built with the variable last go in and come
# out through these
vm, em = core.variable_major, core.element_major


def euler_disc(ncells=8, limiter="mh", boundary="periodic", bc_state=None, **kw):
    cfg = core.RunConfig(final_time=1.0, limiter=limiter, boundary=boundary, **kw)
    grid = core.make_grid(0.0, 1.0, ncells)
    return core.make_discretization(grid, models.Euler(), cfg, bc_state)


def scalar_disc(ncells=8, limiter="mh", **kw):
    cfg = core.RunConfig(final_time=1.0, limiter=limiter, **kw)
    grid = core.make_grid(0.0, 1.0, ncells)
    return core.make_discretization(grid, models.Burgers(), cfg)


def uniform_euler(disc, rho=1.0, v=0.0, p=1.0):
    shape = disc.xn.shape
    m = disc.model
    return m.conserved(np.full(shape, rho), np.full(shape, v), np.full(shape, p))


def face_updates(disc, sf, u, tau):
    """The checked FaceUpdates of subface fluxes sf over one interval tau,
    built by the face check's one call form."""
    parts = blending.face_update_parts(disc, sf, u)
    return blending.low_order_face_updates(disc, parts, np.array([tau]))[0]


# ----------------------------------------------------------------------
# smoothness indicator


def test_alpha_zero_on_constant_data():
    disc = scalar_disc()
    u = vm(np.full((8, 4, 1), 2.0))
    assert np.allclose(blending.smoothness_alpha(disc, u), 0.0)


def test_alpha_zero_on_smooth_resolved_data():
    disc = scalar_disc(ncells=32)
    u = vm(np.sin(2 * np.pi * disc.xn)[..., None])
    alpha = blending.smoothness_alpha(disc, u)
    assert float(alpha.max()) < 0.05


def test_alpha_saturates_on_step():
    # nine cells put the jump strictly inside an element
    disc = scalar_disc(ncells=9)
    u = vm(np.where(disc.xn < 0.5, 1.0, 0.0)[..., None])
    # the zero elements have no mode energy: alpha 0 there, with no 0/0
    # formed and dropped
    with np.errstate(divide="raise", invalid="raise"):
        alpha = blending.smoothness_alpha(disc, u)
    assert float(alpha.max()) == pytest.approx(blending.ALPHA_MAX)
    assert alpha[-1] == 0.0


def test_alpha_monotone_in_top_mode_energy():
    # raising the highest-mode content must not lower the indicator
    disc = scalar_disc()
    base = np.ones((8, 4))
    mode = blending._modal_inverse(3, "gl")  # nodal <- modal uses its inverse
    vand = np.linalg.inv(mode)
    alphas = []
    for amp in (0.0, 0.01, 0.05, 0.2, 1.0):
        modal = np.zeros(4)
        modal[0], modal[3] = 1.0, amp
        u = vm(np.tile(vand @ modal, (8, 1))[..., None])
        alphas.append(float(blending.smoothness_alpha(disc, u)[0]))
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))


def test_alpha_neighbour_spreading():
    disc = scalar_disc(ncells=16)
    u = np.ones((16, 4, 1))
    u[7] += np.array([1.0, -1.0, 1.0, -1.0])[:, None]  # rough element
    alpha = blending.smoothness_alpha(disc, vm(u))
    assert alpha[7] == pytest.approx(0.5)
    assert alpha[6] >= 0.25 - 1e-12 and alpha[8] >= 0.25 - 1e-12


# ----------------------------------------------------------------------
# subcell geometry and low-order schemes


def test_subcell_widths_match_weights():
    disc = scalar_disc()
    b, w = disc.boundary, disc.ops.weights
    left, right = b.sub_faces[:, 1:-1]
    assert np.allclose((right - left).reshape(8, 4), w[None, :] * disc.dx[:, None])
    assert np.allclose(b.sub_width[1:-1].reshape(8, 4), w[None, :] * disc.dx[:, None])
    assert np.array_equal(b.sub_weights.reshape(8, 4), np.broadcast_to(w, (8, 4)))
    subfaces = b.sub_faces[0, 1:]
    assert np.all(np.diff(subfaces) > 0)
    assert subfaces[0] == 0.0 and subfaces[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("points, correction", [("gl", "radau"), ("gll", "g2")])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("ncells", [1, 7, 40, 51, 400])
def test_every_element_face_is_a_subface_bitwise(points, correction, degree, ncells):
    # low_order_residual overwrites every (degree+1)-th subface flux with
    # the element-face flux, so those subfaces must be the grid faces
    cfg = core.RunConfig(degree=degree, points=points, correction=correction, cfl=0.1,
                         final_time=1.0, limiter="fo")
    grid = core.make_grid(0.1, 1.0, ncells)
    disc = core.make_discretization(grid, models.Burgers(), cfg)
    left, right = disc.boundary.sub_faces
    assert same_bits(left[1::degree + 1], grid.faces)
    assert same_bits(right[:-1:degree + 1], grid.faces)


def sign_minmod3(a, b, c):
    # the sign-and-magnitude form minmod3 once had, kept as the reference
    sa = np.sign(a)
    agree = (sa == np.sign(b)) & (sa == np.sign(c))
    mag = np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c)))
    return np.where(agree, sa * mag, 0.0)


def test_minmod_equals_sign_form_bit_for_bit():
    values = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf]
    a, b, c = np.array(list(itertools.product(values, repeat=3))).T
    assert same_bits(blending.minmod3(a, b, c), sign_minmod3(a, b, c))
    assert np.isnan(blending.minmod3(np.array([1.0]), np.array([np.nan]), np.array([2.0]))).all()


def reference_mh_fluxes(disc, u, tau):
    # the MUSCL-Hancock pass with the sign-form minmod, the subcell widths
    # and gap sums formed on every call, and both fallbacks applied whether
    # or not a trace needs them; also returns the evolved-trace mask
    model, b = disc.model, disc.boundary
    uf = u.reshape(u.shape[0], -1)
    up = np.take(uf, b.subcells, axis=1)
    up[:, 0] *= b.state_sign
    up[:, -1] *= b.state_sign
    gap_l, gap_r, _ = b.sub_gaps
    slopes = np.zeros_like(up)
    slopes[:, 1:-1] = sign_minmod3((uf - up[:, :-2]) / gap_l,
                                   (up[:, 2:] - up[:, :-2]) / (gap_l + gap_r),
                                   (up[:, 2:] - uf) / gap_r)
    offsets = b.sub_offsets
    traces = up[:, None] + slopes[:, None] * offsets
    slopes = np.where((model.constraints(traces) > 0.0).all(axis=(0, 1)), slopes, 0.0)
    traces = up[:, None] + slopes[:, None] * offsets
    f = model.flux(traces, b.sub_face_x)
    dflux = (f[:, 1] - f[:, 0]) / (offsets[1] - offsets[0])
    evolved = traces - (0.5 * tau * dflux)[:, None]
    ok = (model.constraints(evolved) > 0.0).all(axis=(0, 1))
    evolved = np.where(ok, evolved, up[:, None])
    return blending._subface_rusanov(model, evolved, b.sub_faces), ok


@pytest.mark.parametrize("tau, fallbacks", [(0.05, 0), (0.1, 1)])
def test_mh_evolved_trace_fallback_matches_reference(tau, fallbacks):
    # a quadratic velocity stretches the last element hardest: over 0.1
    # exactly one subcell's evolved traces leave the admissible set
    disc = euler_disc(limiter="mh", boundary="transmissive")
    shape = disc.xn.shape
    u = disc.model.conserved(np.ones(shape), 4.0 * disc.xn * disc.xn, np.ones(shape))
    expected, ok = reference_mh_fluxes(disc, u, tau)
    assert (~ok).sum() == fallbacks
    assert same_bits(blending.low_order_subface_fluxes(disc, u, tau, True), expected)


def test_minmod_properties():
    a = np.array([[1.0], [2.0], [-1.0], [0.5]])
    b = np.array([[2.0], [1.5], [-2.0], [-0.5]])
    c = np.array([[3.0], [1.0], [-0.5], [1.0]])
    out = blending.minmod3(a, b, c)
    assert np.allclose(out[:, 0], [1.0, 1.0, -0.5, 0.0])


def test_fo_flux_constant_state():
    disc = euler_disc(limiter="fo")
    u = uniform_euler(disc)
    sf = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=False)
    assert np.allclose(sf, disc.model.flux(u[:, 0, 0], 0.0)[:, None], atol=1e-14)


def test_mh_reduces_to_fo_for_zero_slopes():
    # piecewise-constant data has zero limited slopes everywhere
    disc = euler_disc(limiter="mh")
    rng = np.random.default_rng(0)
    u = uniform_euler(disc, rho=1.0, v=0.1, p=1.0)
    jump = rng.uniform(1.0, 2.0, size=(8, 1, 1))
    u = u * jump[..., 0]  # per-element scaling keeps nodal data constant per cell
    sf_fo = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=False)
    sf_mh = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=True)
    assert np.allclose(sf_fo, sf_mh, atol=1e-14)


def test_mh_failed_prediction_keeps_node_values():
    # an expansion ramp v = x: over a long interval the predicted traces of
    # every sloped subcell reach negative density, so each falls back to its
    # node value and the scheme reduces to first order exactly
    disc = euler_disc(limiter="mh", boundary="transmissive")
    shape = disc.xn.shape
    u = disc.model.conserved(np.ones(shape), disc.xn, np.ones(shape))
    sf_fo = blending.low_order_subface_fluxes(disc, u, 4.0, use_slopes=False)
    sf_short = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=True)
    assert not np.allclose(sf_short, sf_fo)
    assert np.array_equal(blending.low_order_subface_fluxes(disc, u, 4.0, use_slopes=True),
                          sf_fo)


def test_stacked_tau_fluxes_equal_per_tau_calls():
    # one reconstruction serves every interval: the stacked fluxes are the
    # per-interval ones bit for bit, and first-order fluxes ignore tau
    disc = euler_disc(limiter="mh", boundary="reflective")
    rng = np.random.default_rng(5)
    shape = disc.xn.shape
    u = disc.model.conserved(10.0 ** rng.uniform(-2.0, 1.0, shape),
                             rng.normal(size=shape), 10.0 ** rng.uniform(-2.0, 2.0, shape))
    taus = np.array([1e-4, 1e-2, 0.5])
    # the interval axis follows the variable axis
    stacked = blending.low_order_subface_fluxes(disc, u, taus, use_slopes=True)
    assert stacked.shape == (3, 3, 8 * 4 + 1)
    for sf, tau in zip(np.moveaxis(stacked, 1, 0), taus):
        assert np.array_equal(sf, blending.low_order_subface_fluxes(disc, u, tau, True))
    fo = [blending.low_order_subface_fluxes(disc, u, tau, use_slopes=False) for tau in taus]
    assert np.array_equal(fo[0], fo[1]) and np.array_equal(fo[0], fo[2])
    assert np.array_equal(fo[0], blending.low_order_subface_fluxes(disc, u, 7.0, False))
    mh = np.moveaxis(stacked, 1, 0)
    assert not np.array_equal(mh[0], mh[1])


def test_mh_exact_gradient_on_linear_data():
    # linear profiles are reconstructed exactly by the limited slopes, so
    # at vanishing evolution time both traces agree at every interior
    # subface and the two-state flux collapses to the pointwise flux
    disc = scalar_disc(ncells=4)
    u = vm((2.0 + 3.0 * disc.xn)[..., None])
    sf = blending.low_order_subface_fluxes(disc, u, 0.0, use_slopes=True)
    # skip the subfaces touching the edge subcells, whose slopes are
    # zeroed by the constant ghost extension
    exact_state = 2.0 + 3.0 * disc.boundary.sub_faces[0, 3:-2]
    assert np.allclose(sf[0, 2:-2], 0.5 * exact_state ** 2, atol=1e-13)
    sf_fo = blending.low_order_subface_fluxes(disc, u, 0.0, use_slopes=False)
    assert not np.allclose(sf_fo[0, 2:-2], 0.5 * exact_state ** 2, atol=1e-6)


def test_fo_mean_telescoping():
    disc = euler_disc(limiter="fo")
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.3 * rng.random((8, 4))
    p = 1.0 + 0.5 * rng.random((8, 4))
    u = disc.model.conserved(rho, 0.1 * rng.random((8, 4)), p)
    sf = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=False)
    fnum = rng.normal(size=(9, 3))
    rl = em(blending.low_order_residual(disc, sf, vm(fnum)))
    sums = np.einsum("p,epv->ev", disc.ops.weights, rl)
    assert np.allclose(sums, fnum[1:] - fnum[:-1], atol=1e-13)


def test_fo_single_element_against_hand_rolled_fv():
    # one advection element with prescribed face fluxes: the residual at
    # each subcell must match a directly coded finite-volume update
    cfg = core.RunConfig(final_time=1.0, limiter="fo")
    grid = core.make_grid(0.0, 1.0, 1)
    disc = core.make_discretization(grid, models.LinearAdvection(1.0), cfg)
    u = np.array([[[0.2], [0.9], [0.4], [0.7]]])
    sf = blending.low_order_subface_fluxes(disc, vm(u), 1e-3, use_slopes=False)
    fnum = np.array([[0.33], [0.55]])
    rl = em(blending.low_order_residual(disc, sf, vm(fnum)))
    w = disc.ops.weights
    vals = u[0, :, 0]
    # interior two-state fluxes for unit advection: upwind-ish average
    def rus(a, b):
        return 0.5 * (a + b) - 0.5 * max(1.0, 1.0) * (b - a)
    f_int = [rus(vals[i], vals[i + 1]) for i in range(3)]
    g = np.array([0.33] + f_int + [0.55])
    expected = (g[1:] - g[:-1]) / w
    assert np.allclose(rl[0, :, 0], expected, atol=1e-13)


# ----------------------------------------------------------------------
# blending and flux limiting


def test_blended_update_endpoints():
    high = np.ones((1, 4, 4))
    low = np.zeros((1, 4, 4))
    assert np.allclose(blending.blended_update(high, low, np.zeros(4)), high)
    assert np.allclose(blending.blended_update(high, low, np.ones(4)), low)
    with pytest.raises(ValueError):
        blending.blended_update(high, low, np.array([0.2, 1.4, 0.0, 0.0]))


def test_blended_update_refuses_nan():
    # the [0, 1] check is written so that NaN fails it
    with pytest.raises(ValueError):
        blending.blended_update(np.ones((1, 2, 4)), np.zeros((1, 2, 4)),
                                np.array([0.2, np.nan]))


def test_low_order_face_updates_are_the_limiter_endpoints():
    # the values the flux limiter pulls toward: each face's two subcell
    # updates with the subcell flux at the face, and a failing one raises
    disc = euler_disc(limiter="fo", ncells=8, boundary="reflective")
    p = np.where(disc.xn < 0.5, 1000.0, 0.01)
    u = disc.model.conserved(np.ones_like(p), np.zeros_like(p), p)
    sf = blending.low_order_subface_fluxes(disc, u, 1e-5, use_slopes=False)
    low = face_updates(disc, sf, u, 1e-5)
    w = disc.ops.weights
    low_m = u[:, 3, -1] - 1e-5 / (w[-1] * disc.dx[3]) * (sf[:, 16] - sf[:, 15])
    low_p = u[:, 4, 0] - 1e-5 / (w[0] * disc.dx[4]) * (sf[:, 17] - sf[:, 16])
    assert np.array_equal(low.cons[..., 4],
                          disc.model.constraints(np.stack([low_m, low_p], axis=1)))
    assert np.all(low.cons[:, disc.boundary.limited] > 0.0)
    with pytest.raises(StencilStateError, match="low-order pressure"):
        face_updates(disc, sf, u, 1e-2)


def test_blended_means_match_high_order_means():
    # Theorem-style identity: blending never changes element means
    disc = euler_disc(limiter="mh")
    rng = np.random.default_rng(2)
    rho = 1.0 + 0.5 * rng.random((8, 4))
    p = 1.0 + 0.5 * rng.random((8, 4))
    u = disc.model.conserved(rho, rng.normal(scale=0.2, size=(8, 4)), p)
    dt = 1e-3
    out_blend, diag = core.mdrk_step(disc, em(u), 0.0, dt)

    # rebuild the unblended update with the same (limited) face fluxes
    favg1, uavg1, _ = core.time_average(disc.model, u, [], disc.xn, disc.dxn, dt, disc.ops)
    u = em(u)
    w = disc.ops.weights
    mean_high_stage1 = (np.einsum("p,epv->ev", w, u)
                        - (0.5 * dt / disc.dx)[:, None]
                        * (diag.stages[0].fnum[1:] - diag.stages[0].fnum[:-1]))
    mean_blend_stage2 = (np.einsum("p,epv->ev", w, u)
                         - (dt / disc.dx)[:, None]
                         * (diag.stages[1].fnum[1:] - diag.stages[1].fnum[:-1]))
    assert np.allclose(np.einsum("p,epv->ev", w, out_blend), mean_blend_stage2,
                       atol=1e-13)
    assert np.all(np.isfinite(mean_high_stage1))


def test_flux_limiter_inactive_on_smooth_flow():
    disc = euler_disc(limiter="mh", ncells=16)
    rho = 2.0 + 0.1 * np.sin(2 * np.pi * disc.xn)
    u = disc.model.conserved(rho, np.ones_like(rho), np.full_like(rho, 2.0))
    sf = blending.low_order_subface_fluxes(disc, u, 1e-4, use_slopes=True)
    # candidate equals the high-order flux when alpha = 0
    fho = np.tile(disc.model.flux(u[:, 0, 0], 0.0)[:, None], (1, 17))
    low = face_updates(disc, sf, u, 1e-4)
    out, thetas = blending.blend_and_limit_face_flux(disc, fho, low, np.zeros(16))
    assert np.all(thetas == 1.0)
    assert np.allclose(out, fho, atol=1e-12)


def test_flux_limiter_endpoint_theta_zero():
    # a wildly inadmissible candidate flux collapses onto the subcell flux
    disc = euler_disc(limiter="fo", ncells=8)
    u = uniform_euler(disc, rho=1.0, v=0.0, p=1e-8)
    sf = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=False)
    crazy = np.tile(np.array([0.0, 1e6, 0.0])[:, None], (1, 9))
    low = face_updates(disc, sf, u, 1e-3)
    out, thetas = blending.blend_and_limit_face_flux(disc, crazy, low, np.zeros(8))
    flow = sf[:, :: 4]
    assert float(thetas.min()) < 1e-4
    assert np.allclose(out, flow, rtol=1e-3, atol=1e-6)


def test_flux_limiter_enforces_floor_on_blast_face():
    # face state from the interacting-blast setup where the raw flux
    # would drive pressure negative: corrected updates keep the margin
    disc = euler_disc(limiter="mh", ncells=8, boundary="reflective")
    p = np.where(disc.xn < 0.5, 1000.0, 0.01)
    u = disc.model.conserved(np.ones_like(p), np.zeros_like(p), p)
    tau = 2e-4
    sf = blending.low_order_subface_fluxes(disc, u, tau, use_slopes=True)
    fho = np.zeros((3, 9))
    fho[:, 4] = np.array([0.0, -5e3, -3e6])  # unphysical candidate at the jump
    low = face_updates(disc, sf, u, tau)
    out, thetas = blending.blend_and_limit_face_flux(disc, fho, low, np.zeros(8))
    # rebuild the tentative updates with the corrected flux
    w = disc.ops.weights
    p_idx = 4
    um = u[:, p_idx - 1, -1]
    upl = u[:, p_idx, 0]
    f_int_m = sf[:, p_idx * 4 - 1]
    f_int_p = sf[:, p_idx * 4 + 1]
    tld_m = um - tau / (w[-1] * disc.dx[p_idx - 1]) * (out[:, p_idx] - f_int_m)
    tld_p = upl - tau / (w[0] * disc.dx[p_idx]) * (f_int_p - out[:, p_idx])
    for state in (tld_m, tld_p):
        vals = disc.model.constraints(state)
        assert np.all(vals > 0.0)
    assert float(thetas.min()) < 1.0


# ----------------------------------------------------------------------
# scaling limiter


def test_scaling_limiter_identity_when_admissible():
    disc = euler_disc()
    u = uniform_euler(disc, rho=2.0, v=0.3, p=1.5)
    out = blending.scaling_limiter(disc, u.copy())
    assert np.allclose(out, u, atol=1e-15)


def test_scaling_limiter_squeezes_negative_pressure_node():
    disc = euler_disc(ncells=1)
    m = disc.model
    # mean pressure 1, one node pushed to p = -0.1
    rho = np.ones(4)
    p = np.array([1.4, 1.2, -0.1, 1.5])
    u = m.conserved(rho, np.zeros(4), p)[:, None]
    w = disc.ops.weights
    mean_before = np.einsum("p,vp->v", w, u[:, 0])
    out = blending.scaling_limiter(disc, u)
    mean_after = np.einsum("p,vp->v", w, out[:, 0])
    assert np.allclose(mean_after, mean_before, atol=1e-14)
    pbar = m.pressure(mean_before)
    assert np.all(m.pressure(out[:, 0]) >= 0.1 * pbar - 1e-12)


def test_scaling_limiter_theta_zero_collapses_to_mean():
    disc = euler_disc(ncells=1)
    m = disc.model
    rho = np.array([2.0, 2.0, 2.0, 2.0])
    # large kinetic energy at one node: pressure negative there, but the
    # element mean stays admissible
    mom = np.array([0.0, 0.0, 8.0, 0.0])
    e = np.array([3.0, 3.0, 3.0, 3.0])
    u = np.stack([rho, mom, e])[:, None]
    w = disc.ops.weights
    mean = np.einsum("p,vp->v", w, u[:, 0])
    assert m.pressure(mean) > 0  # limiter precondition
    out = blending.scaling_limiter(disc, u)
    assert np.all(m.constraints(out[:, 0]) > 0.0)
    assert np.allclose(np.einsum("p,vp->v", w, out[:, 0]), mean, atol=1e-13)


def test_scaling_limiter_rejects_bad_mean():
    disc = euler_disc(ncells=1)
    u = vm(np.tile(np.array([1.0, 0.0, -1.0]), (1, 4, 1)))
    with pytest.raises(AdmissibilityError):
        blending.scaling_limiter(disc, u)


def test_scaling_limiter_scalar_noop():
    disc = scalar_disc()
    u = vm(np.random.default_rng(3).normal(size=(8, 4, 1)))
    assert blending.scaling_limiter(disc, u) is u


# ----------------------------------------------------------------------
# the limiters against their one-call-per-constraint loops


def reference_flux_limiter(disc, fnum_ho, low, alpha):
    """blend_and_limit_face_flux evaluating every constraint afresh."""
    model, b = disc.model, disc.boundary
    flow = low.flow
    a = alpha[b.cells]
    af = 0.5 * (a[:-1] + a[1:])
    af[b.imposed] = 0.0
    fcur = (1.0 - af) * fnum_ho + af * flow
    thetas = np.ones((disc.grid.ncells + 1, model.nconstraints))
    eps = 0.1 * low.cons
    for k in range(model.nconstraints):
        pk = model.constraints(blending._side_updates(low, fcur))[k]
        ck = low.cons[k]
        need = b.limited & ~(pk >= eps[k])
        ratio = np.divide(eps[k] - ck, pk - ck, out=np.ones(need.shape), where=need)
        theta = np.clip(np.abs(ratio), 0.0, 1.0).min(axis=0)
        fcur = theta * fcur + (1.0 - theta) * flow
        thetas[:, k] = theta
    return fcur, thetas


def reference_scaling_limiter(disc, u, fired):
    """scaling_limiter evaluating every constraint afresh; appends the
    index of each constraint that squeezed u to fired."""
    model = disc.model
    mean = np.einsum("p,epv->ev", disc.ops.weights, em(u)).T
    for k in range(model.nconstraints):
        pbar = model.constraints(mean)[k]
        eps = 0.1 * pbar
        pj = model.constraints(u)[k]
        need = ~(pj >= eps[:, None])
        if not need.any():
            continue
        fired.append(k)
        ratio = np.divide(pbar[:, None] - eps[:, None], pbar[:, None] - pj,
                          out=np.ones(need.shape), where=need)
        theta = models.fold(np.minimum, np.clip(ratio, 0.0, 1.0), 1)
        u = mean[..., None] + theta[:, None] * (u - mean[..., None])
    return u


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# which constraints a constructed state breaks
BRANCHES = {"none": (), "density": (0,), "pressure": (1,), "both": (0, 1)}


def random_gas(disc, rng):
    shape = disc.xn.shape
    return disc.model.conserved(rng.uniform(0.5, 1.5, shape),
                                rng.normal(scale=0.1, size=shape),
                                rng.uniform(0.5, 1.5, shape))


# flux kicks (face, variable, multiple of the minus-side value over cm):
# mass breaks the density of the minus-side update, energy its pressure;
# at face 3 of "both" the pressure limiting starts from the flux that the
# density limiting already pulled
FLUX_KICKS = {"none": [], "density": [(3, 0, 5.0)], "pressure": [(6, 2, 5.0)],
              "both": [(3, 0, 5.0), (3, 2, 20.0), (6, 2, 5.0)]}


@pytest.mark.parametrize("boundary", ["periodic", "transmissive", "dirichlet"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_flux_limiter_matches_per_constraint_loop(branch, boundary):
    disc = euler_disc(limiter="fo", ncells=8, boundary=boundary,
                      bc_state=lambda x, t: np.array([1.0, 0.0, 2.5]))
    rng = np.random.default_rng(list(BRANCHES).index(branch))
    u = random_gas(disc, rng)
    sf = blending.low_order_subface_fluxes(disc, u, 1e-3, use_slopes=False)
    low = face_updates(disc, sf, u, 1e-3)
    # drawn face-major, the order these cases were written in
    fho = low.flow * (1.0 + 1e-3 * rng.normal(size=low.flow.shape[::-1]).T)
    for face, var, size in FLUX_KICKS[branch]:
        fho[var, face] += size * low.um[var, face] / low.cm[face]
    alpha = rng.uniform(0.0, 0.5, 8)
    out, thetas = blending.blend_and_limit_face_flux(disc, fho, low, alpha)
    ref_out, ref_thetas = reference_flux_limiter(disc, fho, low, alpha)
    assert same_bits(out, ref_out) and same_bits(thetas, ref_thetas)
    fired = tuple(k for k in range(2) if (thetas[:, k] < 1.0).any())
    assert fired == BRANCHES[branch]


@pytest.mark.parametrize("branch", BRANCHES)
def test_scaling_limiter_matches_per_constraint_loop(branch):
    # element 2 at rest with one node's density below a tenth of the mean,
    # element 5 with one node's pressure negative; in "both" the thin node
    # of element 2 has negative pressure too, so the pressure squeeze
    # starts from the state the density squeeze left
    disc = euler_disc(ncells=8)
    u = random_gas(disc, np.random.default_rng(10 + list(BRANCHES).index(branch)))
    if 0 in BRANCHES[branch]:
        u[1, 2, :] = 0.0
        u[0, 2, 1] = 1e-3
    if 1 in BRANCHES[branch]:
        u[2, 5, 2] = 0.5 * u[1, 5, 2] ** 2 / u[0, 5, 2] - 0.05
    if branch == "both":
        u[2, 2, 1] = -0.05
    fired = []
    ref = reference_scaling_limiter(disc, u, fired)
    assert same_bits(blending.scaling_limiter(disc, u), ref)
    assert tuple(fired) == BRANCHES[branch]


# ----------------------------------------------------------------------
# floating-point hygiene


@pytest.mark.parametrize("case_id, overrides", [
    ("blast", dict(points="gl", correction="radau", limiter="mh", final_time=0.004)),
    ("density_ratio", dict(points="gll", correction="g2", limiter="fo", final_time=0.02)),
])
def test_blended_runs_raise_no_floating_point_error(case_id, overrides):
    # the indicator, the flux limiter and the scaling limiter divide only
    # where they keep the quotient, so no inf or NaN is made and dropped
    case = harness.build_case(case_id)
    cfg = harness.case_config(case, **overrides)
    with np.errstate(divide="raise", invalid="raise"):
        result = harness.run_case(case_id, cfg, 100)
    assert result.steps > 0
    assert result.theta_min < 1.0
