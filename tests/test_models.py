import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrkfr.blending import _subface_rusanov
from mdrkfr.errors import ConfigurationError, StencilStateError
from mdrkfr.models import (Burgers, Euler, LinearAdvection, VariableAdvection,
                           exact_solution, fold, varadv_x2_speed)

finite_floats = st.floats(-50.0, 50.0)
positive_floats = st.floats(0.01, 50.0)


def euler_state(rho, v, p, gamma=1.4):
    # variable-leading, (3,) + the shape of rho
    return Euler(gamma).conserved(np.asarray(rho), np.asarray(v), np.asarray(p))


def test_burgers_flux_value():
    assert Burgers().flux(np.array([2.0]), 0.0) == pytest.approx(2.0)


def test_euler_stationary_flux():
    u = euler_state(1.0, 0.0, 1.0)
    assert np.allclose(Euler().flux(u, 0.0), [0.0, 1.0, 0.0])


def test_variable_advection_flux():
    m = VariableAdvection(varadv_x2_speed)
    assert m.flux(np.array([1.0]), 0.5) == pytest.approx(0.25)


@pytest.mark.parametrize("rho", [0.0, -0.1, np.nan, np.inf, -np.inf],
                         ids=["zero", "negative", "nan", "inf", "minus-inf"])
def test_euler_flux_requires_positive_density(rho):
    u = euler_state(1.0, 0.0, 1.0)
    u[0] = rho
    with pytest.raises(StencilStateError):
        Euler().flux(u, 0.0)
    with pytest.raises(StencilStateError):
        Euler().speed_and_flux(u, 0.0)


def test_euler_flux_guard_reports_minimum_or_nan():
    u = euler_state(np.ones(4), np.zeros(4), np.ones(4))
    u[0, 1], u[0, 2] = -0.5, -0.2
    with pytest.raises(StencilStateError) as err:
        Euler().flux(u, 0.0)
    assert err.value.value == -0.5
    u[0, 3] = np.inf
    with pytest.raises(StencilStateError) as err:
        Euler().flux(u, 0.0)
    assert np.isnan(err.value.value)


def test_euler_flux_of_no_states():
    assert Euler().flux(np.zeros((3, 0)), 0.0).shape == (3, 0)


def _stacked_flux(u, gamma=1.4):
    # the formulas as once written with np.stack, kept as the reference
    rho = u[0]
    v = u[1] / rho
    p = (gamma - 1.0) * (u[2] - 0.5 * u[1] * v)
    return np.stack([u[1], p + u[1] * v, (u[2] + p) * v])


def _stacked_constraints(u, gamma=1.4):
    # u[1] * u[1] is what an array's ** 2 computes; a scalar's ** 2 calls pow
    p = (gamma - 1.0) * (u[2] - 0.5 * (u[1] * u[1]) / u[0])
    return np.stack([u[0], p])


def _bitwise_equal(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=50, deadline=None)
@given(states=st.lists(st.tuples(positive_floats, finite_floats, positive_floats),
                       min_size=1, max_size=12))
def test_euler_outputs_equal_stacked_formulas(states):
    u = euler_state(*np.array(states).T)
    for shape in (u.shape, (3, 1) + u.shape[1:], (3,)):
        w = u.reshape(shape) if shape != (3,) else u[:, 0]
        assert _bitwise_equal(Euler().flux(w, 0.0), _stacked_flux(w))
        assert _bitwise_equal(Euler().constraints(w), _stacked_constraints(w))


@settings(max_examples=30, deadline=None)
@given(states=st.lists(st.tuples(positive_floats, finite_floats, positive_floats),
                       min_size=1, max_size=12),
       x=st.floats(-1.0, 1.0))
def test_euler_methods_on_variable_leading_states_equal_nodewise(states, x):
    # each method on a (3, ne, p) state gives, at every node, its value on
    # that node's (3,) state taken alone
    m = Euler()
    u = euler_state(*np.array(states).T).reshape(3, -1, 1)
    u = np.concatenate([u, 1.5 * u], axis=2)
    nodes = [(e, q) for e in range(u.shape[1]) for q in range(u.shape[2])]
    methods = {
        "flux": lambda w: m.flux(w, x),
        "speed": lambda w: m.speed(w, x),
        "constraints": m.constraints,
        "pressure": m.pressure,
        "indicator_quantity": m.indicator_quantity,
        "reflect_state": m.reflect_state,
        "reflect_flux": m.reflect_flux,
        "primitive": lambda w: np.stack(m.primitive(w)),
        "conserved": lambda w: m.conserved(*m.primitive(w)),
    }
    for name, fn in methods.items():
        whole = fn(u)
        assert whole.shape[-2:] == u.shape[1:], name
        for e, q in nodes:
            assert _bitwise_equal(whole[..., e, q], fn(u[:, e, q])), (name, e, q)


@settings(max_examples=50, deadline=None)
@given(states=st.lists(st.tuples(positive_floats, finite_floats, positive_floats),
                       min_size=1, max_size=12),
       x=st.floats(-1.0, 1.0))
def test_euler_speed_and_flux_equal_separate_calls(states, x):
    m = Euler()
    u = euler_state(*np.array(states).T)
    for w in (u, u.reshape(3, 1, -1), u[:, 0]):
        speed, flux = m.speed_and_flux(w, x)
        assert _bitwise_equal(speed, m.speed(w, x)) and _bitwise_equal(flux, m.flux(w, x))


def test_scalar_speed_and_flux_equal_separate_calls():
    rng = np.random.default_rng(3)
    u, x = rng.normal(size=(1, 5, 4)), rng.uniform(0.1, 1.0, (5, 4))
    for m in (LinearAdvection(-2.0), VariableAdvection(varadv_x2_speed), Burgers()):
        speed, flux = m.speed_and_flux(u, x)
        assert np.array_equal(speed, m.speed(u, x)) and _bitwise_equal(flux, m.flux(u, x))


@pytest.mark.parametrize("ufunc", [np.logical_and, np.minimum, np.maximum])
@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_fold_equals_reduce(ufunc, axis, length):
    rng = np.random.default_rng(length)
    shape = [5, 4, 3]
    shape[axis] = length
    a = rng.normal(size=shape)
    a[rng.random(a.shape) < 0.1] = np.nan
    a[rng.random(a.shape) < 0.1] = np.inf
    a[rng.random(a.shape) < 0.1] = -np.inf
    if ufunc is np.logical_and:
        a = a > 0.0
    expected = ufunc.reduce(a, axis=axis)
    out = fold(ufunc, a, axis)
    assert out.shape == expected.shape and out.dtype == expected.dtype
    assert np.array_equal(out, expected, equal_nan=True)


def rusanov_flux(model, ul, ur, x):
    # the subcell pass's two-state flux at one subface: the right trace of
    # the subcell before it is ul, the left trace of the one after it ur
    ul, ur = np.asarray(ul, dtype=float), np.asarray(ur, dtype=float)
    traces = np.stack([np.stack([ur, ur], axis=-1), np.stack([ul, ul], axis=-1)], axis=1)
    return _subface_rusanov(model, traces, np.full((2, 2), float(x)))[:, 0]


def test_rusanov_consistency_scalar():
    m = Burgers()
    u = np.array([0.7])
    assert np.allclose(rusanov_flux(m, u, u, 0.0), m.flux(u, 0.0))


def test_rusanov_burgers_jump():
    m = Burgers()
    # speeds 1 and 0, so the penalty coefficient is 1
    out = rusanov_flux(m, np.array([1.0]), np.array([0.0]), 0.0)
    assert out[0] == pytest.approx(0.75)


def test_rusanov_euler_consistency():
    m = Euler()
    u = euler_state(1.0, 0.0, 1.0)
    assert np.allclose(rusanov_flux(m, u, u, 0.0), [0.0, 1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(rho=positive_floats, v=finite_floats, p=positive_floats)
def test_rusanov_consistency_random_states(rho, v, p):
    m = Euler()
    u = euler_state(rho, v, p)
    assert np.allclose(rusanov_flux(m, u, u, 0.0), m.flux(u, 0.0), rtol=1e-12, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(rho=positive_floats, v=finite_floats, p=positive_floats)
def test_euler_primitive_round_trip(rho, v, p):
    m = Euler()
    u = euler_state(rho, v, p)
    r2, v2, p2 = m.primitive(u)
    scale = max(abs(p), abs(v), 1.0)
    assert abs(r2 - rho) <= 1e-14 * max(rho, 1.0)
    assert abs(v2 - v) <= 1e-12 * scale
    assert abs(p2 - p) <= 1e-11 * scale ** 2


def test_admissibility_values_euler():
    u = euler_state(1.0, 0.0, 2.5 * 0.4)  # E = 2.5 gives unit pressure
    u = np.array([1.0, 0.0, 2.5])
    vals = Euler().constraints(u)
    assert np.allclose(vals, [1.0, 1.0])


def test_admissibility_values_signal_not_error():
    u = np.array([-0.1, 0.0, 2.5])
    vals = Euler().constraints(u)
    assert vals[0] == pytest.approx(-0.1)


def test_admissibility_values_scalar_empty():
    assert Burgers().constraints(np.array([1.0])).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(rho1=positive_floats, v1=finite_floats, p1=positive_floats,
       rho2=positive_floats, v2=finite_floats, p2=positive_floats,
       theta=st.floats(0.0, 1.0))
def test_pressure_concavity(rho1, v1, p1, rho2, v2, p2, theta):
    m = Euler()
    u1 = euler_state(rho1, v1, p1)
    u2 = euler_state(rho2, v2, p2)
    mix = theta * u1 + (1 - theta) * u2
    lhs = m.pressure(mix)
    rhs = theta * m.pressure(u1) + (1 - theta) * m.pressure(u2)
    assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


def test_reflection_mirrors_momentum():
    m = Euler()
    u = euler_state(1.2, 0.7, 2.0)
    r = m.reflect_state(u)
    assert r[0] == u[0] and r[2] == u[2] and r[1] == -u[1]


def test_reflected_flux_identity():
    # f(reflect(u)) equals the mirrored flux, the property walls rely on
    m = Euler()
    u = euler_state(1.2, 0.7, 2.0)
    assert np.allclose(m.flux(m.reflect_state(u), 0.0), m.reflect_flux(m.flux(u, 0.0)))


def test_exact_linadv():
    # translation plus periodicity: x - t = -0.75 wraps to 0.25
    val = exact_solution("linadv_sine", 0.25, 1.0)
    assert val[0] == pytest.approx(np.sin(2 * np.pi * (-0.75)), abs=1e-14)
    assert val[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_varadv_at_t0():
    assert exact_solution("varadv_x2", 0.1, 0.0)[0] == pytest.approx(np.cos(np.pi * 0.05))


def test_exact_burgers_characteristics():
    x = np.linspace(0, 2 * np.pi, 9)
    t = 1.5
    u = exact_solution("burgers_sine", x, t)[..., 0]
    assert np.allclose(u, 0.2 * np.sin(x - u * t), atol=1e-13)


def test_exact_unknown_case():
    with pytest.raises(ConfigurationError):
        exact_solution("kelvin_helmholtz", 0.0, 0.0)


def test_euler_gamma_validation():
    with pytest.raises(ConfigurationError):
        Euler(gamma=0.9)


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_euler_gamma_refuses_non_finite(gamma):
    # NaN passes a range test written as gamma <= 1
    with pytest.raises(ConfigurationError, match=r"must lie in \(1, inf\)"):
        Euler(gamma=gamma)


def test_speed_bounds():
    m = Euler()
    u = euler_state(1.0, 2.0, 1.4)  # sound speed sqrt(1.96) = 1.4
    assert m.speed(u, 0.0) == pytest.approx(2.0 + 1.4)
    assert LinearAdvection(-2.0).speed(np.array([5.0]), 0.0) == pytest.approx(2.0)
    assert Burgers().speed(np.array([-3.0]), 0.0) == pytest.approx(3.0)
