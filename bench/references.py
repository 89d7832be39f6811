"""References the benchmark checks the solver against, written apart from it.

Nothing here imports the solver.  Quadrature rules come from numpy's own
Legendre module, the gas-case data are restated from the problem
definitions, the exact Riemann solution is Toro's iterative star-pressure
solve, and the smooth solutions are closed forms or characteristic solves.
"""

import numpy as np
from numpy.polynomial import legendre as npleg

GAMMA = 1.4


# ----------------------------------------------------------------------
# reference element


def reference_nodes(degree, kind):
    """Solution points and weights on [0, 1], ascending.

    "gl" is Gauss-Legendre; "gll" is Gauss-Lobatto-Legendre, whose interior
    points are the roots of P_N' and whose weights are 2 / (N (N+1) P_N^2)
    on [-1, 1].
    """
    n = degree + 1
    if kind == "gl":
        x, w = npleg.leggauss(n)
    elif kind == "gll":
        pn = npleg.Legendre.basis(degree)
        x = np.concatenate([[-1.0], np.sort(pn.deriv().roots().real), [1.0]])
        w = 2.0 / (degree * (degree + 1) * pn(x) ** 2)
    else:
        raise ValueError(f"unknown point kind {kind!r}")
    return (x + 1.0) / 2.0, w / 2.0


def mesh_nodes(faces, nodes):
    dx = np.diff(faces)
    return faces[:-1, None] + dx[:, None] * nodes[None, :]


def totals(u, faces, weights):
    """Domain integral of every conserved variable by nodal quadrature."""
    return np.einsum("e,p,epv->v", np.diff(faces), weights, u)


def l1_norm(err, faces, weights):
    return float(np.einsum("e,p,ep->", np.diff(faces), weights, np.abs(err)))


def l2_norm(err, faces, weights):
    """Quadrature L2 norm per variable of a nodal error field (ne, P, nvar)."""
    return np.sqrt(np.einsum("e,p,epv->v", np.diff(faces), weights, err * err))


# ----------------------------------------------------------------------
# gas dynamics


def conserved(rho, v, p, gamma=GAMMA):
    rho, v, p = np.broadcast_arrays(np.asarray(rho, float), np.asarray(v, float),
                                    np.asarray(p, float))
    return np.stack([rho, rho * v, p / (gamma - 1.0) + 0.5 * rho * v * v], axis=-1)


def density_pressure(u, gamma=GAMMA):
    rho = u[..., 0]
    return rho, (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] ** 2 / rho)


def euler_flux(u, gamma=GAMMA):
    rho, p = density_pressure(u, gamma)
    v = u[..., 1] / rho
    return np.stack([u[..., 1], u[..., 1] * v + p, (u[..., 2] + p) * v], axis=-1)


def blast_initial(x):
    """Woodward-Colella interacting blast waves on [0, 1]."""
    p = np.where(x < 0.1, 1000.0, np.where(x > 0.9, 100.0, 0.01))
    return conserved(np.ones_like(x), 0.0, p)


def titarev_toro_initial(x):
    """Shock at x = -4.5 running into a density wave of wavenumber 20 pi."""
    left = x <= -4.5
    rho = np.where(left, 1.515695, 1.0 + 0.1 * np.sin(20.0 * np.pi * x))
    return conserved(rho, np.where(left, 0.523346, 0.0), np.where(left, 1.805, 1.0))


def density_ratio_initial(x):
    """Thousand-to-one jump in density and pressure at x = 0.3."""
    jump = np.where(x < 0.3, 1000.0, 1.0)
    return conserved(jump, 0.0, jump)


def sedov_initial(x, faces):
    """Point blast: energy 3.2e6 deposited in the cell that holds x = 0.

    Every node of a cell carries the cell's value, so the data are
    constant per element.
    """
    centers = 0.5 * (faces[:-1] + faces[1:])
    dx = float(np.min(np.diff(faces)))
    e = np.where(np.abs(centers) <= dx / 2.0, 3.2e6 / dx, 1e-12)
    u = np.zeros(x.shape + (3,))
    u[..., 0] = 1.0
    u[..., 2] = e[:, None]
    return u


# ----------------------------------------------------------------------
# exact Riemann solver (Toro, "Riemann Solvers and Numerical Methods for
# Fluid Dynamics", chapter 4)


def _pressure_function(p, rho_k, p_k, c_k, gamma):
    """f_K(p) and its derivative for one side of the Riemann problem."""
    if p > p_k:  # shock
        a = 2.0 / ((gamma + 1.0) * rho_k)
        b = (gamma - 1.0) / (gamma + 1.0) * p_k
        q = np.sqrt(a / (p + b))
        return (p - p_k) * q, q * (1.0 - 0.5 * (p - p_k) / (b + p))
    ratio = p / p_k  # rarefaction
    e = (gamma - 1.0) / (2.0 * gamma)
    return (2.0 * c_k / (gamma - 1.0) * (ratio ** e - 1.0),
            ratio ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * c_k))


class RiemannSolution:
    """Self-similar exact solution of a 1-D gas Riemann problem."""

    def __init__(self, left, right, gamma=GAMMA, tol=1e-14, maxit=100):
        (self.rl, self.ul, self.pl), (self.rr, self.ur, self.pr) = left, right
        self.gamma = gamma
        g = gamma
        self.cl = np.sqrt(g * self.pl / self.rl)
        self.cr = np.sqrt(g * self.pr / self.rr)
        if 2.0 * (self.cl + self.cr) / (g - 1.0) <= self.ur - self.ul:
            raise ValueError("the data generate vacuum")
        du = self.ur - self.ul
        p = max(tol, 0.5 * (self.pl + self.pr))
        for _ in range(maxit):
            fl, dfl = _pressure_function(p, self.rl, self.pl, self.cl, g)
            fr, dfr = _pressure_function(p, self.rr, self.pr, self.cr, g)
            p_new = max(tol, p - (fl + fr + du) / (dfl + dfr))
            change = 2.0 * abs(p_new - p) / (p_new + p)
            p = p_new
            if change < tol:
                break
        else:
            raise RuntimeError("star pressure iteration did not converge")
        fl, _ = _pressure_function(p, self.rl, self.pl, self.cl, g)
        fr, _ = _pressure_function(p, self.rr, self.pr, self.cr, g)
        self.p_star = p
        self.u_star = 0.5 * (self.ul + self.ur) + 0.5 * (fr - fl)

    def wave_speed_bounds(self):
        """Slowest and fastest signal speeds (left and right outer waves)."""
        g, ps = self.gamma, self.p_star
        if ps > self.pl:
            s_left = self.ul - self.cl * np.sqrt((g + 1) / (2 * g) * ps / self.pl
                                                 + (g - 1) / (2 * g))
        else:
            s_left = self.ul - self.cl
        if ps > self.pr:
            s_right = self.ur + self.cr * np.sqrt((g + 1) / (2 * g) * ps / self.pr
                                                  + (g - 1) / (2 * g))
        else:
            s_right = self.ur + self.cr
        return s_left, s_right

    def sample(self, s):
        """Primitive (rho, v, p) at similarity coordinates s = (x - x0) / t."""
        s = np.asarray(s, dtype=float)
        g, ps, us = self.gamma, self.p_star, self.u_star
        rho, v, p = np.empty_like(s), np.empty_like(s), np.empty_like(s)
        gm, gp = (g - 1.0) / (g + 1.0), 2.0 / (g + 1.0)
        for side in (-1.0, 1.0):  # -1: left of the contact, +1: right
            if side < 0:
                rk, uk, pk, ck = self.rl, self.ul, self.pl, self.cl
                mask = s <= us
            else:
                rk, uk, pk, ck = self.rr, self.ur, self.pr, self.cr
                mask = s > us
            sq = s[mask]
            if ps > pk:  # shock
                speed = uk + side * ck * np.sqrt((g + 1) / (2 * g) * ps / pk + (g - 1) / (2 * g))
                r_star = rk * (ps / pk + gm) / (gm * ps / pk + 1.0)
                outside = side * (sq - speed) > 0
                rho[mask] = np.where(outside, rk, r_star)
                v[mask] = np.where(outside, uk, us)
                p[mask] = np.where(outside, pk, ps)
            else:  # rarefaction
                head = uk + side * ck
                c_star = ck * (ps / pk) ** ((g - 1) / (2 * g))
                tail = us + side * c_star
                outside = side * (sq - head) > 0
                inside = side * (sq - tail) < 0
                fan_c = gp * ck - side * gm * (uk - sq)
                fan_u = gp * (-side * ck + (g - 1) / 2 * uk + sq)
                fan_rho = rk * (fan_c / ck) ** (2.0 / (g - 1))
                fan_p = pk * (fan_c / ck) ** (2 * g / (g - 1))
                r_star = rk * (ps / pk) ** (1.0 / g)
                rho[mask] = np.where(outside, rk, np.where(inside, r_star, fan_rho))
                v[mask] = np.where(outside, uk, np.where(inside, us, fan_u))
                p[mask] = np.where(outside, pk, np.where(inside, ps, fan_p))
        return rho, v, p


# published Sod star state (Toro, table 4.3, test 1)
SOD_STAR = (0.30313, 0.92745)


def check_sod_star():
    """Return an error message unless the solver reproduces Sod's star state."""
    sod = RiemannSolution((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
    if abs(sod.p_star - SOD_STAR[0]) > 1e-5 or abs(sod.u_star - SOD_STAR[1]) > 1e-5:
        return f"Sod star state {sod.p_star:.6f}, {sod.u_star:.6f} != {SOD_STAR}"
    return None


DENSITY_RATIO_RIEMANN = ((1000.0, 0.0, 1000.0), (1.0, 0.0, 1.0))
DENSITY_RATIO_X0 = 0.3


# ----------------------------------------------------------------------
# smooth exact solutions


def linadv_sine(x, t):
    return np.sin(2.0 * np.pi * (x - t))[..., None]


def burgers_sine(x, t, amplitude=0.2):
    """u = A sin(x - u t) along characteristics, solved by bisection.

    Before the shock time 1 / A the characteristic map is monotone, so the
    root is unique within [-A, A].
    """
    lo = np.full_like(x, -amplitude)
    hi = np.full_like(x, amplitude)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = mid - amplitude * np.sin(x - mid * t) > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return (0.5 * (lo + hi))[..., None]


def varadv_x2(x, t):
    """u_t + (x^2 u)_x = 0 from u0 = cos(pi x / 2): characteristics x = y / (1 - t y)."""
    y = x / (1.0 + t * x)
    return (np.cos(0.5 * np.pi * y) / (1.0 + t * x) ** 2)[..., None]


def manufactured(x, t):
    """Forced gas flow: density and pressure waves moving at constant v = 0.5."""
    w = 2.0 * np.pi * (x - 0.5 * t)
    return conserved(2.0 + 0.2 * np.sin(w), 0.5, 2.0 + 0.5 * np.sin(w))


SMOOTH_EXACT = {
    "linadv_sine": linadv_sine,
    "burgers_sine": burgers_sine,
    "varadv_x2": varadv_x2,
    "source_manufactured": manufactured,
}
