"""The gas step's per-cell kernels write only into arrays they allocate.

Each kernel returns fresh arrays and leaves its inputs bitwise unchanged,
and its numbers are bit for bit those of the expression it replaced,
which the references below keep, on values with signed zeros, subnormal
momenta, densities near 1e-300 and products that overflow.  The memory
test pins what working in place bought: the tracemalloc peak of one
default blast-1600 step and of one MUSCL-Hancock pass.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mdrkfr import blending, core, harness, models

GAMMA = 1.4


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _in_place_call(fn, *inputs):
    """fn(*inputs), checked to leave every array input bitwise unchanged and
    to return arrays that share no memory with any of them."""
    arrays = [a for a in inputs if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    out = fn(*inputs)
    for a, b in zip(arrays, before):
        assert _same_bits(a, b)
    for o in out if isinstance(out, tuple) else (out,):
        assert not any(np.shares_memory(o, a) for a in arrays)
    return out


def _gas(rng, shape, scale="plain"):
    """Positive-density states (3,) + shape; scale picks the extreme ones."""
    rho = 10.0 ** rng.uniform(-2.0, 1.0, shape)
    m = rng.normal(size=shape)
    # the plain states have positive pressure
    e = 0.5 * m * m / rho + 10.0 ** rng.uniform(-1.0, 1.0, shape)
    if scale == "tiny":
        rho, m, e = 1e-300 * rho, 1e-300 * m, 1e-300 * e
        m[rng.random(shape) < 0.3] *= 1e-10  # subnormal
    elif scale == "huge":
        rho, m, e = 10.0 ** rng.uniform(-10.0, 10.0, shape), 1e150 * m, 1e300 * e
    m[rng.random(shape) < 0.2] = 0.0
    m[rng.random(shape) < 0.2] = -0.0
    return np.stack([rho, m, e])


def _reference_euler(u):
    """The Euler formulas as once written, one expression each."""
    rho, m, e = u
    v = m / rho
    p = (GAMMA - 1.0) * (e - 0.5 * m * v)
    pressure = (GAMMA - 1.0) * (e - 0.5 * (m * m) / rho)
    return {"flux": np.stack([m, p + m * v, (e + p) * v]),
            "speed": np.abs(v) + np.sqrt(GAMMA * p / rho),
            "pressure": pressure,
            "constraints": np.stack([rho, pressure]),
            "indicator_quantity": rho * pressure}


def _euler_methods(model):
    return {"flux": lambda w: model.flux(w, 0.0),
            "speed_and_flux": lambda w: model.speed_and_flux(w, 0.0),
            "pressure": model.pressure,
            "constraints": model.constraints,
            "indicator_quantity": model.indicator_quantity}


@pytest.mark.parametrize("scale", ["plain", "tiny", "huge"])
def test_euler_kernels_in_place_and_bit_for_bit(scale):
    rng = np.random.default_rng(1)
    u = _gas(rng, (2, 5, 4), scale)
    with np.errstate(all="ignore"):
        ref = _reference_euler(u)
        for name, fn in _euler_methods(models.Euler(GAMMA)).items():
            out = _in_place_call(fn, u)
            if name == "speed_and_flux":
                assert _same_bits(out[0], ref["speed"]) and _same_bits(out[1], ref["flux"])
            else:
                assert _same_bits(out, ref[name]), name


@pytest.mark.parametrize("scale", ["plain", "tiny", "huge"])
def test_euler_kernels_on_one_state_equal_the_array_path(scale):
    # a (3,) state has 0-d components, numpy scalars, which nothing can be
    # written into; both a view of it and a copy give the array's bits
    rng = np.random.default_rng(2)
    u = _gas(rng, (3, 4), scale)
    with np.errstate(all="ignore"):
        for name, fn in _euler_methods(models.Euler(GAMMA)).items():
            whole = fn(u)
            for e, q in np.ndindex(u.shape[1:]):
                for one in (u[:, e, q], u[:, e, q].copy()):
                    out = _in_place_call(fn, one)
                    if name == "speed_and_flux":
                        assert _same_bits(out[0], whole[0][e, q])
                        assert _same_bits(out[1], whole[1][:, e, q])
                    else:
                        assert _same_bits(out, whole[..., e, q]), name


def test_pressure_of_integer_states_is_a_float():
    # the pressure is formed in an array of its own, not of the state's dtype
    u = np.array([[2, 2], [1, 3], [5, 9]])
    assert _same_bits(models.Euler(GAMMA).pressure(u), _reference_euler(1.0 * u)["pressure"])


def test_numerical_flux_in_place_and_bit_for_bit():
    rng = np.random.default_rng(3)
    fm, fp, um, up = (_gas(rng, (17,), "huge") for _ in range(4))
    lam = 10.0 ** rng.uniform(-3.0, 160.0, 17)
    with np.errstate(all="ignore"):
        out = _in_place_call(models.numerical_flux, fm, fp, um, up, lam)
        assert _same_bits(out, 0.5 * (fm + fp) - 0.5 * lam * (up - um))


def test_five_point_in_place_and_bit_for_bit():
    rng = np.random.default_rng(4)
    values = [_gas(rng, (6, 4), "huge") for _ in range(4)]
    with np.errstate(all="ignore"):
        out = _in_place_call(core.five_point, *values)
        fp2, fp1, fm1, fm2 = values
        assert _same_bits(out, (8.0 * fp1 - fp2 - 8.0 * fm1 + fm2) / 12.0)


def _reference_time_derivative(eval_fn, u, u1):
    w = 2.0 * u1
    fp2, fp1, fm1, fm2 = (eval_fn(u + w, 2), eval_fn(u + u1, 1), eval_fn(u - u1, -1),
                          eval_fn(u - w, -2))
    return (8.0 * fp1 - fp2 - 8.0 * fm1 + fm2) / 12.0


@pytest.mark.parametrize("name", ["euler", "identity", "view"])
def test_flux_time_derivative_in_place_and_bit_for_bit(name):
    # the shifted states share one scratch array; a flux that hands back its
    # argument, or a view of it, must not see the next shift overwrite it
    eval_fn = {"euler": lambda v, k: models.Euler(GAMMA).flux(v, 0.0),
               "identity": lambda v, k: v,
               "view": lambda v, k: v[::-1]}[name]
    rng = np.random.default_rng(5)
    u = _gas(rng, (6, 4))
    u1 = 1e-3 * _gas(rng, (6, 4))
    out = _in_place_call(core.flux_time_derivative, eval_fn, u, u1)
    assert _same_bits(out, _reference_time_derivative(eval_fn, u, u1))


class _IdentityFlux(models.EquationModel):
    """f(u) = u, returned as the argument itself."""

    def flux(self, u, x):
        return u


def test_time_average_with_a_flux_that_returns_its_argument():
    disc = core.make_discretization(core.make_grid(0.0, 1.0, 6), _IdentityFlux(),
                                    core.RunConfig(final_time=1.0))
    rng = np.random.default_rng(6)
    u = rng.normal(size=(1,) + disc.xn.shape)
    dt, pieces = 1e-2, []
    favg, uavg, _ = core.time_average(disc.model, u, pieces, disc.xn, disc.dxn, dt, disc.ops)
    u1 = -(dt / disc.dxn) * core.apply_d(disc.ops.D, u)
    f1 = _reference_time_derivative(lambda v, k: v, u, u1)
    assert _same_bits(pieces[0]["u1"], u1) and _same_bits(pieces[0]["f1"], f1)
    assert _same_bits(favg, u + f1 / 4.0) and _same_bits(uavg, u + u1 / 4.0)


def test_combine_leaves_the_pieces_alone():
    rng = np.random.default_rng(7)
    pieces = [{"f": rng.normal(size=(3, 5, 4)), "f1": rng.normal(size=(3, 5, 4))}
              for _ in core.STAGE_ROWS]
    before = [{k: v.copy() for k, v in p.items()} for p in pieces]
    for k, row in enumerate(core.STAGE_ROWS):
        out = core.combine(row, pieces[:k + 1], "f")
        assert not any(np.shares_memory(out, v) for p in pieces for v in p.values())
    for p, q in zip(pieces, before):
        assert all(_same_bits(p[k], q[k]) for k in p)
    (f, f1), (_, fs1) = ((p["f"], p["f1"]) for p in pieces)
    assert _same_bits(core.combine(core.STAGE_ROWS[0], pieces[:1], "f"), f + f1 / 4.0)
    assert _same_bits(core.combine(core.STAGE_ROWS[1], pieces, "f"), f + (f1 + 2.0 * fs1) / 6.0)


def test_blended_update_in_place_and_bit_for_bit():
    rng = np.random.default_rng(8)
    high, low = rng.normal(size=(2, 3, 5, 4)) * 10.0 ** rng.uniform(-300, 300, (2, 3, 5, 4))
    alpha = rng.uniform(0.0, 1.0, 5)
    out = _in_place_call(blending.blended_update, high, low, alpha)
    a = np.repeat(alpha, 4).reshape(5, 4)
    assert _same_bits(out, (1.0 - a) * high + a * low)


@pytest.mark.parametrize("use_slopes", [False, True])
@pytest.mark.parametrize("boundary", ["periodic", "transmissive", "reflective"])
def test_low_order_subface_fluxes_leave_the_state_alone(use_slopes, boundary):
    cfg = core.RunConfig(limiter="mh" if use_slopes else "fo", boundary=boundary)
    disc = core.make_discretization(core.make_grid(0.0, 1.0, 6), models.Euler(GAMMA), cfg)
    u = _gas(np.random.default_rng(9), disc.xn.shape)
    # first-order fluxes do not read tau, so only MUSCL-Hancock takes an array
    for tau in (1e-3, np.array([5e-4, 1e-3]))[:1 + use_slopes]:
        _in_place_call(blending.low_order_subface_fluxes, disc, u, tau, use_slopes)


def test_blast_step_and_subcell_pass_keep_their_heap_small():
    # tracemalloc peak over the state's bytes on default blast-1600 after
    # two steps: 18.4x for one step and 14.4x for one MUSCL-Hancock pass,
    # against 29.6x and 28.8x when every formula built its temporaries
    cfg = dataclasses.replace(harness.case_config(harness.build_case("blast")),
                              final_time=2e-6)
    res = harness.run_case("blast", cfg, cells=1600)
    disc, u, t = res.disc, res.field.data, res.field.time
    start = core.step_start(disc, u)
    dt = core.compute_dt(disc, u, t, start)
    taus = np.array([row.tau * dt for row in core.STAGE_ROWS])
    peaks = {}
    tracemalloc.start()
    try:
        for name, run in (("step", lambda: core.mdrk_step(disc, u, t, dt, start)),
                          ("pass", lambda: blending.low_order_subface_fluxes(
                              disc, start.u, taus, use_slopes=True))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / u.nbytes
    finally:
        tracemalloc.stop()
    assert peaks["step"] < 22.0 and peaks["pass"] < 17.0, peaks
