"""Algebraic and empirical accuracy checks for the two-stage coefficients.

The tableau itself, core.PRODUCTION_COEFFICIENTS, lives with the solver,
which steps by the float rows core.STAGE_ROWS derived from it.  The five
order conditions are polynomial identities in the tableau entries, so
the residuals are evaluated in exact rational arithmetic.  The empirical
side applies single two-stage steps, taken by the same rows, to the
solver's semi-discrete advection operator on smooth data and fits the
local error slope, which must approach five (one-step error of a
fourth-order scheme).
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import core
from .errors import ConfigurationError
from .models import LinearAdvection


class OrderConditionResiduals(NamedTuple):
    first: Fraction
    second: Fraction
    third: Fraction
    fourth: Fraction
    fifth: Fraction
    a21_hat_consistency: Fraction

    def all_zero(self):
        return all(r == 0 for r in self)


def check_order_conditions(c: core.MdrkCoefficients) -> OrderConditionResiduals:
    """Residuals of the five conditions plus the derived-stage consistency.

    All zero exactly for the production coefficients; each residual is the
    left side minus the right side of its condition.
    """
    return OrderConditionResiduals(
        first=c.b1 + c.b2 - 1,
        second=c.b2 * c.a21 + c.b1_hat + c.b2_hat - Fraction(1, 2),
        third=c.b2 * c.a21 ** 2 + 2 * c.b2_hat * c.a21 - Fraction(1, 3),
        fourth=c.b2 * c.a21 ** 3 + 3 * c.b2_hat * c.a21 ** 2 - Fraction(1, 4),
        fifth=c.b2_hat * c.a21 ** 2 - Fraction(1, 12),
        a21_hat_consistency=c.a21_hat - c.a21 ** 2 / 2)


def mdrk_ode_step(rhs, u, dt):
    """One two-stage update of the system u' = rhs(u), by core.STAGE_ROWS.

    The temporal derivative of the right-hand side is replaced by the same
    five-point stencil the flux machinery uses, so this exercises both the
    tableau and the derivative approximation.
    """
    pieces, state = [], u
    for row in core.STAGE_ROWS:
        r = rhs(state)
        r1 = core.flux_time_derivative(lambda v, k: rhs(v), state, dt * r)
        pieces.append({"r": r, "r1": r1})
        state = u + row.tau * dt * core.combine(row, pieces, "r")
    return state


def semidiscrete_operator(cells=8, points="gl", correction="radau"):
    """Dense matrix of the baseline advection semi-discretisation.

    Built by applying the actual right-hand side to unit vectors, so the
    matrix is exactly what the solver integrates: one core.rkfr_rhs call
    takes the identity stack as the n variables of one state, and variable
    j's right-hand side is column j.
    """
    cfg = core.RunConfig(points=points, correction=correction, cfl=0.1, final_time=1.0)
    grid = core.make_grid(0.0, 1.0, cells)
    disc = core.make_discretization(grid, LinearAdvection(1.0), cfg)
    n = cells * (cfg.degree + 1)
    rhs = core.rkfr_rhs(disc, np.eye(n).reshape((n,) + disc.xn.shape), 0.0)
    return np.ascontiguousarray(rhs.reshape(n, n).T), disc


def one_step_order_scan(dts=None, cells=8, refinements=5, substeps=64,
                        points="gl", correction="radau"):
    """Fitted slope of the one-step time-integration error.

    The two-stage update (with the stencil-based derivative) is applied to
    the semi-discrete advection system on a fixed mesh; the reference flow
    of the same system comes from a five-stage fourth-order integrator run
    with `substeps` sub-steps, whose own error is smaller by the fourth
    power of the sub-step ratio.  Pure time error scales as dt^5, so the
    slope approaches five.  Returns (slope, dts, errors).
    """
    from . import ssprk

    a, disc = semidiscrete_operator(cells, points, correction)
    if dts is None:
        h = 1.0 / cells
        dts = [0.2 * h / 2 ** k for k in range(refinements)]
    if len(dts) < 3:
        raise ConfigurationError("order scan needs at least 3 step sizes")
    u0 = np.sin(2.0 * np.pi * disc.xn).ravel()
    rhs = lambda v: a @ v
    errors = []
    for dt in dts:
        u_one = mdrk_ode_step(rhs, u0, dt)
        u_ref = u0
        for _ in range(substeps):
            u_ref = ssprk.step(lambda v, t: rhs(v), u_ref, 0.0, dt / substeps)
        errors.append(float(np.linalg.norm(u_one - u_ref) / np.sqrt(len(u0))))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return slope, list(dts), errors
