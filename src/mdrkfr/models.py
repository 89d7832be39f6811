"""Conservation-law models: fluxes, wave speeds, admissibility constraints.

All model functions are vectorised over variable-leading states, shape
(nvar, ...), and return fluxes (nvar, ...) and constraint values (K, ...);
the coordinate argument broadcasts against the trailing axes.  A speed
keeps the shape its inputs give it, a scalar for linear advection, and a
caller that needs every point broadcasts it.  speed_and_flux gives both,
bit for bit; the gas model recovers v and p once for the two.  The
fluxes test no input: callers form them only on evaluable states (finite,
with positive density), as core checks every stencil and boundary state
and the subcell traces are admissible by construction.  Scalar models carry
nvar = 1 and no admissibility constraints; the gas-dynamics model has
the usual two (density, then pressure, ordered so the second is concave
once the first is positive).
"""

import numpy as np

from .errors import ConfigurationError


class EquationModel:
    """Base interface for a 1-D conservation law u_t + f(u, x)_x = s."""

    nvar = 1
    var_names = ("u",)
    constraint_names = ()

    def __init__(self, source=None):
        self.source = source

    @property
    def nconstraints(self):
        return len(self.constraint_names)

    @property
    def has_source(self):
        return self.source is not None

    def flux(self, u, x):
        raise NotImplementedError

    def speed(self, u, x):
        """Bound on the wave speed (spectral radius of the flux Jacobian)."""
        raise NotImplementedError

    def speed_and_flux(self, u, x):
        """(speed(u, x), flux(u, x)), for callers that need both."""
        return self.speed(u, x), self.flux(u, x)

    def constraints(self, u):
        """Values of the admissibility constraints, shape (K, ...)."""
        return np.zeros((0,) + u.shape[1:])

    def indicator_quantity(self, u):
        """Scalar field fed to the smoothness indicator."""
        return u[0]


class LinearAdvection(EquationModel):
    """u_t + a u_x = 0 with constant speed a."""

    def __init__(self, a=1.0, source=None):
        super().__init__(source)
        self.a = a

    def flux(self, u, x):
        return self.a * u

    def speed(self, u, x):
        return abs(self.a)


class VariableAdvection(EquationModel):
    """u_t + (a(x) u)_x = 0; the flux is genuinely x-dependent."""

    def __init__(self, a_of_x, source=None):
        super().__init__(source)
        self.a_of_x = a_of_x

    def flux(self, u, x):
        return np.asarray(self.a_of_x(np.asarray(x))) * u

    def speed(self, u, x):
        return np.abs(np.asarray(self.a_of_x(np.asarray(x))))


class Burgers(EquationModel):
    """u_t + (u^2 / 2)_x = 0."""

    def flux(self, u, x):
        return 0.5 * u * u

    def speed(self, u, x):
        return np.abs(u[0])


class Euler(EquationModel):
    """1-D compressible gas dynamics in conserved variables (rho, rho v, E)."""

    nvar = 3
    var_names = ("density", "momentum", "energy")
    constraint_names = ("density", "pressure")

    def __init__(self, gamma=1.4, source=None):
        super().__init__(source)
        # written so that NaN fails it
        if not 1.0 < gamma < np.inf:
            raise ConfigurationError(f"adiabatic constant must lie in (1, inf), got {gamma}")
        self.gamma = gamma

    def primitive(self, u):
        rho = u[0]
        v = u[1] / rho
        p = (self.gamma - 1.0) * (u[2] - 0.5 * u[1] * v)
        return rho, v, p

    def conserved(self, rho, v, p):
        rho, v, p = np.broadcast_arrays(rho, v, p)
        e = p / (self.gamma - 1.0) + 0.5 * rho * v * v
        return np.stack([rho, rho * v, e])

    def pressure(self, u, out=None):
        """(gamma - 1) (E - m^2 / 2 rho), written into out when given."""
        p = np.empty(np.shape(u[0]), dtype=np.result_type(u, 0.5)) if out is None else out
        # u[1] * u[1]: a float64 scalar's ** 2 calls pow, which can round unlike an array's square
        np.multiply(u[1], u[1], out=p)
        p *= 0.5
        p /= u[0]
        np.subtract(u[2], p, out=p)
        p *= self.gamma - 1.0
        return p if p.ndim else p[()]

    def _flux(self, u):
        """The flux and the velocity and pressure it was built from."""
        v = u[1] / u[0]
        p = u[1] * 0.5
        p *= v
        # a single state's p is a numpy scalar, which cannot be written into
        p = np.subtract(u[2], p, out=p if p.ndim else None)
        p *= self.gamma - 1.0
        out = np.empty((3,) + p.shape, dtype=p.dtype)
        out[0] = u[1]
        # out[k, ...] is a view, for a single state too
        np.add(np.multiply(u[1], v, out=out[1, ...]), p, out=out[1, ...])
        np.multiply(np.add(u[2], p, out=out[2, ...]), v, out=out[2, ...])
        return out, v, p

    def flux(self, u, x):
        return self._flux(u)[0]

    def speed(self, u, x):
        rho, v, p = self.primitive(u)
        return np.abs(v) + np.sqrt(self.gamma * p / rho)

    def speed_and_flux(self, u, x):
        out, v, p = self._flux(u)
        # v and p are _flux's own, and out holds neither; a single state's
        # are numpy scalars, which an in-place operator only rebinds
        p *= self.gamma
        p /= u[0]
        v = np.abs(v, out=v if v.ndim else None)
        v += np.sqrt(p, out=p if p.ndim else None)
        return v, out

    def constraints(self, u):
        out = np.empty((2,) + u.shape[1:], dtype=u.dtype)
        out[0] = u[0]
        self.pressure(u, out[1, ...])
        return out

    def indicator_quantity(self, u):
        q = self.pressure(u)
        q *= u[0]
        return q

    # reflective walls are defined for this model only
    def reflect_state(self, u):
        return np.stack([u[0], -u[1], u[2]])

    def reflect_flux(self, f):
        return np.stack([-f[0], f[1], -f[2]])


def fold(ufunc, a, axis=-1):
    """ufunc.reduce(a, axis) as one elementwise ufunc call per slice of a.

    Over a short axis (the nodes of (element, node) values) a reduction
    runs one C inner loop per row; whole slices keep every inner loop long.
    Only for order-free ufuncs (logical_and, minimum, maximum), where both
    forms give the same values.  A one-long axis gives a view.
    """
    lead = (slice(None),) * (axis % a.ndim)
    out = a[lead + (0,)]
    for k in range(1, a.shape[axis]):
        out = ufunc(out, a[lead + (k,)])
    return out


def numerical_flux(f_minus, f_plus, diss_minus, diss_plus, lam):
    """Central average of the face fluxes plus jump penalty on the traces."""
    out = f_minus + f_plus
    out *= 0.5
    jump = diss_plus - diss_minus
    jump *= 0.5 * lam
    return np.subtract(out, jump, out=out)


def varadv_x2_speed(x):
    return np.asarray(x) ** 2


def _varadv_x2_exact(x, t):
    x = np.asarray(x, dtype=float)
    y = x / (1.0 + t * x)
    return np.cos(np.pi * y / 2.0) / (1.0 + t * x) ** 2


def _burgers_sine_exact(x, t, amplitude=0.2, tol=1e-14, maxit=100):
    """Solve u = A sin(x - u t) by Newton along characteristics (pre-shock)."""
    x = np.asarray(x, dtype=float)
    u = amplitude * np.sin(x)
    for _ in range(maxit):
        phase = x - u * t
        g = u - amplitude * np.sin(phase)
        dg = 1.0 + amplitude * t * np.cos(phase)
        du = g / dg
        u = u - du
        if np.max(np.abs(du)) < tol:
            break
    return u


# manufactured gas-dynamics solution: travelling density and pressure waves
# with constant velocity, balanced by momentum and energy forcing
MS_RHO0, MS_RHO_AMP = 2.0, 0.2
MS_P0, MS_P_AMP = 2.0, 0.5
MS_V = 0.5
MS_K = 2.0 * np.pi


def manufactured_state(x, t, gamma=1.4):
    """The exact state at x, variable last like every stored field."""
    w = MS_K * (np.asarray(x, dtype=float) - MS_V * t)
    rho = MS_RHO0 + MS_RHO_AMP * np.sin(w)
    p = MS_P0 + MS_P_AMP * np.sin(w)
    u = Euler(gamma).conserved(rho, np.full_like(rho, MS_V), p)
    return np.ascontiguousarray(np.moveaxis(u, 0, -1))


def manufactured_source(u, x, t):
    w = MS_K * (np.asarray(x, dtype=float) - MS_V * t)
    forcing = MS_K * MS_P_AMP * np.cos(w)
    out = np.zeros((3,) + forcing.shape)
    out[1] = forcing
    out[2] = MS_V * forcing
    return out


_EXACT = {
    "linadv_sine": lambda x, t: np.sin(2.0 * np.pi * (np.asarray(x, dtype=float) - t))[..., None],
    "varadv_x2": lambda x, t: _varadv_x2_exact(x, t)[..., None],
    "burgers_sine": lambda x, t: _burgers_sine_exact(x, t)[..., None],
    "source_manufactured": manufactured_state,
}


def exact_solution(case_id, x, t):
    """Exact state for the catalogued cases that have one."""
    try:
        fn = _EXACT[case_id]
    except KeyError:
        raise ConfigurationError(f"no exact solution registered for case {case_id!r}")
    return fn(x, t)
