import math
from fractions import Fraction

import numpy as np
import pytest

from mdrkfr import core
from mdrkfr.core import PRODUCTION_COEFFICIENTS, MdrkCoefficients
from mdrkfr.errors import ConfigurationError
from mdrkfr.order_conditions import (check_order_conditions, mdrk_ode_step,
                                     one_step_order_scan, semidiscrete_operator)


def test_production_coefficients_are_exact_zeros():
    res = check_order_conditions(PRODUCTION_COEFFICIENTS)
    assert res.all_zero()
    for r in res:
        assert isinstance(r, Fraction) and r == 0


def test_perturbed_b2_breaks_fourth_condition():
    c = PRODUCTION_COEFFICIENTS
    perturbed = MdrkCoefficients(c.a21, c.a21_hat, c.b1, Fraction(1, 10),
                                 c.b1_hat, c.b2_hat)
    res = check_order_conditions(perturbed)
    assert res.fourth == Fraction(1, 10) * Fraction(1, 2) ** 3
    assert res.fourth == Fraction(1, 80)


def test_zero_a21_fails_fifth_condition():
    # the rejected solution branch: no first-derivative stage weight works
    c = PRODUCTION_COEFFICIENTS
    degenerate = MdrkCoefficients(Fraction(0), Fraction(0), c.b1, c.b2,
                                  c.b1_hat, c.b2_hat)
    res = check_order_conditions(degenerate)
    assert res.fifth == Fraction(-1, 12)


def test_ode_step_reproduces_quartic_taylor_for_linear_systems():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    u = rng.normal(size=5)
    dt = 0.01
    out = mdrk_ode_step(lambda v: a @ v, u, dt)
    taylor = u.copy()
    term = u.copy()
    for k in range(1, 5):
        term = dt * (a @ term) / k
        taylor = taylor + term
    assert np.allclose(out, taylor, atol=1e-14)


def test_one_step_order_scan_slope():
    slope, dts, errors = one_step_order_scan()
    assert slope >= 4.7
    assert len(dts) == len(errors) >= 3
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


def per_column_operator(disc):
    """The semi-discrete operator built one unit vector at a time, the way
    semidiscrete_operator once did: column j is rkfr_rhs of unit vector j."""
    cells, p = disc.xn.shape
    n = cells * p
    a = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a[:, j] = core.rkfr_rhs(disc, e.reshape(1, cells, p), 0.0).ravel()
    return a


@pytest.mark.parametrize("points,correction", [("gl", "radau"), ("gll", "g2")])
@pytest.mark.parametrize("cells", [8, 5])
def test_semidiscrete_operator_equals_per_column_build(points, correction, cells):
    # one rkfr_rhs call on the identity stack gives every column's bits,
    # signs of zeros included, in the C order the column loop filled
    a, disc = semidiscrete_operator(cells, points, correction)
    ref = per_column_operator(disc)
    assert np.array_equal(a, ref) and np.array_equal(np.signbit(a), np.signbit(ref))
    assert (a == 0.0).any() and a.flags.c_contiguous


def test_one_step_scan_needs_three_points():
    with pytest.raises(ConfigurationError):
        one_step_order_scan(dts=[0.01, 0.005])


def test_scalar_nonlinear_ode_order_five():
    # u' = u^2 with u(0) = 1 has the closed solution 1/(1 - t)
    rhs = lambda v: v * v
    u0 = np.array([1.0])
    errs, dts = [], [0.02 / 2 ** k for k in range(4)]
    for dt in dts:
        out = mdrk_ode_step(rhs, u0, dt)
        errs.append(abs(out[0] - 1.0 / (1.0 - dt)))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert slope == pytest.approx(5.0, abs=0.2)


def test_solver_stage_rows_follow_the_tableau():
    # every interval and weight the step reads equals the tableau's, exactly
    c = PRODUCTION_COEFFICIENTS
    stages = (((c.a21,), (c.a21_hat,)), ((c.b1, c.b2), (c.b1_hat, c.b2_hat)))
    assert len(core.STAGE_ROWS) == len(stages)
    for row, (a, a_hat) in zip(core.STAGE_ROWS, stages):
        tau = sum(a)
        assert Fraction(row.tau) == tau
        assert [Fraction(w) for w in row.weights] == [x / tau for x in a]
        d = Fraction(row.denominator)
        assert [Fraction(n) / d for n in row.numerators] == [x / tau for x in a_hat]
        numerators = [int(n) for n in row.numerators]
        assert numerators == list(row.numerators)
        assert math.gcd(*numerators, int(d)) == 1
    # f + f1 / 4 over [t, t + dt/2], then f + (f1 + 2 fs1) / 6 over [t, t + dt]
    assert core.STAGE_ROWS == ((0.5, (1.0,), (1.0,), 4.0), (1.0, (1.0, 0.0), (1.0, 2.0), 6.0))
