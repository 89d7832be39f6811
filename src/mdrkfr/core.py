"""Two-stage, fourth-order time stepping with flux reconstruction in space.

Each stage evolves the nodal solution with a time-averaged flux built by
the Jacobian-free approximate Lax-Wendroff procedure: flux time derivatives
are replaced by a five-point finite-difference stencil along solution
increments.  The stage-averaged flux is made continuous across elements by
correction functions and collocated, so one step needs two residual
assemblies regardless of the order.

Conventions used throughout:
    u        nodal solution, variable-major (nvar, ne, N+1), so u[0], u[1],
             ... are contiguous and each formula runs one long inner loop
    u1       dt * du/dt approximation at the nodes
    F        time-averaged flux over [t, t + dt/2] (first stage)
    Fs       time-averaged flux over [t, t + dt]   (second stage)
    faces    ne+1 element boundaries; face i sits between elements i-1, i;
             face values are (nvar, ne+1), element face traces (nvar, 2, ne)

The public layout is (ne, N+1, nvar): SolutionField.data and what
step_start, compute_dt, mdrk_step and rkfr_step take and return; only
those four convert (variable_major, element_major).
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import blending, operators, stability
from .errors import AdmissibilityError, ConfigurationError
from .models import EquationModel, fold, numerical_flux
from .operators import ReferenceOperators, gauss_legendre, make_operators, node_sums

BOUNDARY_KINDS = ("periodic", "transmissive", "reflective", "dirichlet_outflow",
                  "dirichlet")
LIMITER_KINDS = ("none", "fo", "mh")
FACE_SCHEMES = ("ae", "ea")


@dataclass(frozen=True)
class Grid:
    """Element boundaries of a 1-D mesh."""

    faces: np.ndarray

    def __post_init__(self):
        self.faces.setflags(write=False)

    @property
    def ncells(self):
        return len(self.faces) - 1

    @property
    def dx(self):
        return np.diff(self.faces)

    def nodes(self, ops):
        return self.faces[:-1, None] + np.diff(self.faces)[:, None] * ops.nodes[None, :]


def make_grid(xlo, xhi, ncells):
    if ncells < 1 or xhi <= xlo:
        raise ConfigurationError(f"bad mesh request: [{xlo}, {xhi}] with {ncells} cells")
    return Grid(np.linspace(xlo, xhi, ncells + 1))


@dataclass
class SolutionField:
    """Nodal degrees of freedom over a grid at one time level."""

    grid: Grid
    data: np.ndarray
    time: float = 0.0


@dataclass
class RunConfig:
    """All solver knobs; defaults follow the production setup."""

    degree: int = 3
    points: str = "gl"
    correction: str = "radau"
    dissipation: str = "d2"
    face_scheme: str = "ea"
    cfl: float | None = None
    safety: float = 0.98
    limiter: str = "none"
    boundary: str = "periodic"
    final_time: float = 1.0
    # smoothness indicator parameters (recorded here so runs are reproducible)
    alpha_max: float = 0.5
    alpha_min: float = 1e-3
    indicator_sharpness: float = 9.21024
    snapshot_every: int = 0

    def validate(self):
        if self.points not in operators.POINT_KINDS:
            raise ConfigurationError(f"unknown point kind {self.points!r}")
        if self.correction not in operators.CORRECTION_KINDS:
            raise ConfigurationError(f"unknown correction {self.correction!r}")
        if self.dissipation not in stability.DISSIPATION_KINDS:
            raise ConfigurationError(f"unknown dissipation {self.dissipation!r}")
        if self.face_scheme not in FACE_SCHEMES:
            raise ConfigurationError(f"unknown face scheme {self.face_scheme!r}")
        if self.limiter not in LIMITER_KINDS:
            raise ConfigurationError(f"unknown limiter {self.limiter!r}")
        if self.boundary not in BOUNDARY_KINDS:
            raise ConfigurationError(f"unknown boundary kind {self.boundary!r}")
        if not 0.0 < self.safety <= 1.0:
            raise ConfigurationError(f"safety factor must lie in (0, 1], got {self.safety}")
        # each range is written so that NaN fails it
        if self.cfl is not None and not 0.0 < self.cfl < np.inf:
            raise ConfigurationError(f"cfl must be positive and finite, got {self.cfl}")
        if not 0.0 < self.final_time < np.inf:
            raise ConfigurationError(
                f"final_time must be positive and finite, got {self.final_time}")
        if not 0.0 <= self.alpha_max <= 1.0:
            raise ConfigurationError(f"alpha_max must lie in [0, 1], got {self.alpha_max}")
        # from 0.5 up, the floor and the cap of the indicator cross
        if not 0.0 <= self.alpha_min < 0.5:
            raise ConfigurationError(f"alpha_min must lie in [0, 0.5), got {self.alpha_min}")
        if not 0.0 < self.indicator_sharpness < np.inf:
            raise ConfigurationError(
                f"indicator_sharpness must be positive and finite, got {self.indicator_sharpness}")
        if not 0 <= self.snapshot_every:
            raise ConfigurationError(
                f"snapshot_every must be 0 (off) or a step count, got {self.snapshot_every}")
        if self.cfl is None and self.degree != 3:
            raise ConfigurationError(
                f"default CFLs are certified for degree 3 only, got degree={self.degree}; "
                "set the cfl override")
        if self.points == "gll" and self.limiter == "mh":
            # GLL end nodes of neighbouring elements coincide, which leaves
            # the MUSCL-Hancock slopes across element faces undefined
            raise ConfigurationError(
                "limiter='mh' needs Gauss-Legendre points (points='gl'); "
                "with points='gll' use limiter=fo")
        return self

    def resolved_cfl(self):
        if self.cfl is not None:
            return self.cfl
        return stability.default_cfl(self.correction, self.dissipation)


@dataclass(frozen=True)
class Boundary:
    """Ghost values beyond the two ends of the mesh for one boundary kind.

    Every lookup that crosses a domain end (element neighbours, face
    traces, subcells) reads its ghost from the gathers here; nothing else
    branches on the boundary kind.  Periodic ends wrap: the ghost is the
    element or subcell at the far end, shifted by the domain length.  All
    other kinds mirror the end element across the end face; transmissive
    and the Dirichlet kinds copy its values, reflective walls also apply
    the model's reflection signs (momentum for states, mass and energy for
    fluxes).  At imposed faces (the left face for dirichlet_outflow, both
    for dirichlet) the numerical flux is the flux of bc_state(x, t), and it
    is neither blended nor limited.

    cells        ne+2 element indices: left ghost, 0..ne-1, right ghost
    traces       (trace, element) of the left and right ghost face values;
                 trace 0 is an element's left-face trace, 1 its right-face one
    subcells     subcell indices of the padded subcell line, ghosts at the ends
    sub_x, sub_dl, sub_dr   node positions and face offsets along that line
    sub_gap      node gaps x[i+1] - x[i] along that line
    state_sign, flux_sign   (nvar,) factors applied to ghost states and fluxes
    limited      (minus, plus) masks over faces: whether the interface flux
                 limiter keeps that side's subcell update admissible (not
                 ghosts, not imposed faces)
    end_widths   (minus, plus) widths of the subcells next to every face:
                 w[-1] * dx of the left element, w[0] * dx of the right one
    inner_subfaces   (minus, plus) subface indices of their other faces
    imposed      indices of the imposed faces
    """

    cells: np.ndarray
    traces: tuple
    subcells: np.ndarray
    sub_x: np.ndarray
    sub_dl: np.ndarray
    sub_dr: np.ndarray
    sub_gap: np.ndarray
    state_sign: np.ndarray
    flux_sign: np.ndarray
    limited: np.ndarray
    end_widths: np.ndarray
    inner_subfaces: np.ndarray
    imposed: np.ndarray
    bc_state: object = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def face_sides(self, faces, traces):
        """Minus/plus values at the ne+1 faces of the central face fluxes
        and of the dissipation traces, written into one array.

        Both are element face traces, (nvar, 2, ne); flux ghosts take
        flux_sign, trace ghosts state_sign.  Returns ((flux minus, flux
        plus), (trace minus, trace plus)), each (nvar, ne+1).
        """
        (sm, em), (sp, ep) = self.traces
        nvar, _, ne = faces.shape
        minus, plus = np.empty((2, 2, nvar, ne + 1), dtype=np.result_type(faces, traces))
        for k, (q, sign) in enumerate(((faces, self.flux_sign), (traces, self.state_sign))):
            minus[k, :, 1:] = q[:, 1]
            plus[k, :, :-1] = q[:, 0]
            np.multiply(q[:, sm, em], sign, out=minus[k, :, 0])
            np.multiply(q[:, sp, ep], sign, out=plus[k, :, -1])
        return (minus[0], plus[0]), (minus[1], plus[1])


def make_boundary(kind, grid, subcells, model, bc_state=None):
    """The ghost gathers of one boundary kind on one mesh."""
    ne, ns = grid.ncells, len(subcells.x)
    x, dl, dr = subcells.x, subcells.dl, subcells.dr
    imposed = {"dirichlet_outflow": [0], "dirichlet": [0, ne]}.get(kind, [])
    if imposed and bc_state is None:
        raise ConfigurationError("dirichlet boundaries need a boundary-state callable")
    if kind == "reflective" and model.nvar == 1:
        raise ConfigurationError("reflective walls are defined for the gas model only")
    limited = np.ones((2, ne + 1), dtype=bool)
    limited[:, imposed] = False
    ones = np.ones(model.nvar)
    state_sign = flux_sign = ones
    if kind == "periodic":
        cells = np.r_[ne - 1, 0:ne, 0]
        traces = ((1, ne - 1), (0, 0))
        sub = np.r_[ns - 1, 0:ns, 0]
        sub_x = np.concatenate([[x[-1] - subcells.length], x, [x[0] + subcells.length]])
        sub_dl, sub_dr = dl[sub], dr[sub]
    else:
        cells = np.r_[0, 0:ne, ne - 1]
        traces = ((0, 0), (1, ne - 1))
        sub = np.r_[0, 0:ns, ns - 1]
        xl, xr = grid.faces[0], grid.faces[-1]
        sub_x = np.concatenate([[2 * xl - x[0]], x, [2 * xr - x[-1]]])
        sub_dl = np.concatenate([[-dr[0]], dl, [-dr[-1]]])
        sub_dr = np.concatenate([[-dl[0]], dr, [-dl[-1]]])
        limited[0, 0] = limited[1, -1] = False
        if kind == "reflective":
            state_sign, flux_sign = model.reflect_state(ones), model.reflect_flux(ones)
    # the subcells next to every face; subface j is the left face of subcell j
    p = subcells.psub
    end_cells = np.stack([p * cells[:-1] + p - 1, p * cells[1:]])
    inner_subfaces = end_cells + np.array([[0], [1]])
    return Boundary(cells, traces, sub, sub_x, sub_dl, sub_dr, np.diff(sub_x), state_sign,
                    flux_sign, limited, subcells.h[end_cells], inner_subfaces,
                    np.array(imposed, dtype=int), bc_state)


@dataclass
class Discretization:
    """Immutable per-run bundle: mesh, operators, model, configuration,
    boundary closure and subcell line."""

    grid: Grid
    ops: ReferenceOperators
    model: EquationModel
    config: RunConfig
    boundary: Boundary
    subcells: blending.SubcellGeometry
    xn: np.ndarray = field(init=False)
    xf: np.ndarray = field(init=False)
    dx: np.ndarray = field(init=False)
    dxn: np.ndarray = field(init=False)

    def __post_init__(self):
        self.xn = self.grid.nodes(self.ops)
        self.xf = np.stack([self.grid.faces[:-1], self.grid.faces[1:]])
        self.dx = self.grid.dx
        # element widths at the nodes, so per-element factors run long loops
        self.dxn = np.repeat(self.dx, self.ops.degree + 1).reshape(self.xn.shape)


def make_discretization(grid, model, config, bc_state=None):
    config.validate()
    ops = make_operators(config.degree, config.points, config.correction)
    if model.has_source and config.limiter != "none":
        raise ConfigurationError("source terms are supported with limiter='none' only")
    subcells = blending.SubcellGeometry(grid, ops)
    boundary = make_boundary(config.boundary, grid, subcells, model, bc_state)
    return Discretization(grid, ops, model, config, boundary, subcells)


# ----------------------------------------------------------------------
# layout conversion and elementwise building blocks


def variable_major(u):
    """A (ne, p, nvar) state as the solver's contiguous (nvar, ne, p) array."""
    return np.ascontiguousarray(u.transpose(-1, *range(u.ndim - 1)))


def element_major(q):
    """Variable-major (nvar, ...) values as a new C-contiguous (..., nvar)."""
    return q.transpose(*range(1, q.ndim), 0).copy()


def apply_d(d_matrix, q):
    """D q along the node axis of variable-major q, bit for bit what
    np.einsum("pq,eqv->epv", d_matrix, q) gives with the variable last.

    For systems that einsum sums from zero in node order, as einsum over
    a node-major copy does with long inner loops; for one variable it
    sums in matmul's order and is called itself, on the same memory.
    """
    if q.shape[0] == 1:
        return np.einsum("pq,eqv->epv", d_matrix, q.reshape(q.shape[1:] + (1,))).reshape(q.shape)
    qt = np.ascontiguousarray(q.transpose(2, 0, 1))
    return np.ascontiguousarray(np.einsum("jp,pvn->vnj", d_matrix, qt))


def local_solution_derivative(u, f, dx, dt, d_matrix, s=None):
    """u1 = -(dt/dx) D f (+ dt s), dx at the nodes (Discretization.dxn)."""
    u1 = -(dt / dx) * apply_d(d_matrix, f)
    if s is not None:
        u1 = u1 + dt * s
    return u1


def flux_time_derivative(eval_fn, u, u1):
    """Five-point approximation of dt * d/dt of eval_fn along u + tau*u1.

    eval_fn(state, shift) evaluates the flux (or source) at the perturbed
    state; shift in {-2, -1, 1, 2} tells time-dependent integrands which
    sample time to use.  Exact whenever the composition is a polynomial of
    degree <= 4 in the path parameter.
    """
    w = 2.0 * u1
    fp2, fp1 = eval_fn(u + w, 2), eval_fn(u + u1, 1)  # 8 fp1 - fp2 is -fp2 + 8 fp1 bitwise
    return (8.0 * fp1 - fp2 - 8.0 * eval_fn(u - u1, -1) + eval_fn(u - w, -2)) / 12.0


def stage1_time_average(model, u, xn, dx, dt, ops, t=0.0):
    """First-stage averaged flux F = f + f1/4 and solution u + u1/4.

    The cache holds what stage two reuses unchanged: f, f1, u1, s, s1, and,
    with ea faces, face_f, face_f1 and face_bad (face_values_ea_stage1).
    """
    f = model.flux(u, xn)
    s = model.source(u, xn, t) if model.has_source else None
    u1 = local_solution_derivative(u, f, dx, dt, ops.D, s)
    f1 = flux_time_derivative(lambda v, k: model.flux(v, xn), u, u1)
    s1 = None
    if model.has_source:
        s1 = flux_time_derivative(lambda v, k: model.source(v, xn, t + k * dt), u, u1)
    cache = SimpleNamespace(f=f, f1=f1, u1=u1, s=s, s1=s1)
    favg = f + 0.25 * f1
    uavg = u + 0.25 * u1
    savg = s + 0.25 * s1 if model.has_source else None
    return favg, uavg, savg, cache


def stage2_time_average(model, u, ustar, cache, xn, dx, dt, ops, t=0.0):
    """Second-stage averages; stage-one f, f1, u1 are reused unchanged."""
    ts = t + 0.5 * dt
    fs = model.flux(ustar, xn)
    ss = model.source(ustar, xn, ts) if model.has_source else None
    us1 = local_solution_derivative(ustar, fs, dx, dt, ops.D, ss)
    fs1 = flux_time_derivative(lambda v, k: model.flux(v, xn), ustar, us1)
    favg = cache.f + (cache.f1 + 2.0 * fs1) / 6.0
    uavg = u + (cache.u1 + 2.0 * us1) / 6.0
    savg = None
    if model.has_source:
        ss1 = flux_time_derivative(lambda v, k: model.source(v, xn, ts + k * dt), ustar, us1)
        savg = cache.s + (cache.s1 + 2.0 * ss1) / 6.0
    return favg, uavg, savg, us1


def face_values_ae(favg, ops):
    """Extrapolate the nodal averaged flux to both faces of every element.

    Face traces, here and throughout, are (nvar, 2, ne) with [:, 0] and
    [:, 1] the (left, right) pair: node_sums of the rows of ops.V.
    """
    return node_sums(ops.V, favg)


def _evaluable(model, u):
    ok = np.isfinite(u).all(axis=0)
    if model.nvar > 1:
        ok &= np.real(u[0]) > 0.0
    return ok


def _ea_states(model, u, u1, ops):
    """Face traces of u and its increment, with the mask of faces that fall back.

    Wherever any of the five stencil states would not be evaluable (e.g.
    non-positive density after extrapolation), the trace is replaced by the
    admissible adjacent node value with zero increment, so the stencil can
    run over every face; callers overwrite those faces with the
    flux-extrapolation value afterwards.
    """
    ua, u1a = node_sums(ops.V, u), node_sums(ops.V, u1)
    stencil = np.empty(ua.shape[:1] + (5,) + ua.shape[1:], dtype=np.result_type(ua, u1a))
    stencil[:, 0] = ua
    np.add(ua, u1a, out=stencil[:, 1])
    np.subtract(ua, u1a, out=stencil[:, 2])
    np.multiply(u1a, 2.0, out=stencil[:, 4])
    np.add(ua, stencil[:, 4], out=stencil[:, 3])
    np.subtract(ua, stencil[:, 4], out=stencil[:, 4])
    bad = ~_evaluable(model, stencil).all(axis=0)
    if bad.any():
        ua = np.where(bad, np.stack([u[..., 0], u[..., -1]], axis=1), ua)
        u1a = np.where(bad, 0.0, u1a)
    return ua, u1a, bad


def _fall_back(value, bad, favg, ops):
    """Extrapolated nodal averaged flux at the faces marked bad."""
    if bad.any():
        value = np.where(bad, node_sums(ops.V, favg), value)
    return value


def face_values_ea_stage1(model, u, u1, ops, xf, favg):
    """Stage-one face fluxes built directly at the faces.

    The solution and its increment are extrapolated first; the same
    five-point stencil used at the solution points is then applied at the
    face coordinate.  Faces whose extrapolated states are not evaluable
    fall back to extrapolating the nodal averaged flux instead (the two
    constructions coincide on nodesets that include the endpoints).
    xf holds the (2, ne) left/right face coordinates of every element.
    Returns the (nvar, 2, ne) face values, then the face flux, its
    increment and the (2, ne) fallback mask, which stage two reuses.
    """
    ua, u1a, bad = _ea_states(model, u, u1, ops)
    fa = model.flux(ua, xf)
    f1a = flux_time_derivative(lambda v, k: model.flux(v, xf), ua, u1a)
    return _fall_back(fa + 0.25 * f1a, bad, favg, ops), fa, f1a, bad


def face_values_ea_stage2(model, ustar, us1, cache, ops, xf, favg2):
    """Stage-two face fluxes; stage-one face flux pieces are reused.

    Faces that fell back in stage one, or whose stage-two extrapolated
    states are not evaluable, use the flux extrapolation again.
    """
    ua, u1a, bad = _ea_states(model, ustar, us1, ops)
    fs1a = flux_time_derivative(lambda v, k: model.flux(v, xf), ua, u1a)
    value = cache.face_f + (cache.face_f1 + 2.0 * fs1a) / 6.0
    return _fall_back(value, bad | cache.face_bad, favg2, ops)


def fr_flux_derivative(favg, fnum_left, fnum_right, ops, traces=None):
    """Derivative of the corrected (continuous) flux at the solution points.

    fnum_left/fnum_right are the numerical fluxes at each element's own
    faces, shape (nvar, ne); traces are favg's face traces when the caller
    has them (face_values_ae).  For systems it is one einsum of ops.DB over
    the node-major values and the face jumps: D f from zero in node order,
    then + bL jump_l + bR jump_r, as the broadcast formula sums it.
    """
    nvar, ne, p = favg.shape
    if nvar == 1:
        if traces is None:
            traces = node_sums(ops.V, favg)
        return (apply_d(ops.D, favg)
                + ops.bL * (fnum_left - traces[:, 0])[..., None]
                + ops.bR * (fnum_right - traces[:, 1])[..., None])
    x = np.empty((p + 2, nvar, ne), dtype=np.result_type(favg, fnum_left))
    x[:p] = favg.transpose(2, 0, 1)
    if traces is None:
        traces = np.einsum("jp,pvn->vjn", ops.V, x[:p])
    np.subtract(fnum_left, traces[:, 0], out=x[p])
    np.subtract(fnum_right, traces[:, 1], out=x[p + 1])
    return np.ascontiguousarray(np.einsum("jk,kvn->vnj", ops.DB, x))


# ----------------------------------------------------------------------
# faces and imposed boundary fluxes


def _mean_speeds(disc, u):
    """Wave speed of each element's mean state, maximised over its nodes."""
    means = node_sums(disc.ops.weights, u)
    return fold(np.maximum, np.real(disc.model.speed(means[..., None], disc.xn)), 1)


def face_wave_speeds(disc, speeds):
    """Dissipation coefficient per face from the element-mean wave speeds."""
    s = speeds[disc.boundary.cells]
    return np.maximum(s[:-1], s[1:])


_XQ, _WQ = gauss_legendre(3)
_STAGE_QUAD = tuple(zip((_XQ + 1.0) / 2.0, _WQ / 2.0))


def _impose_fluxes(disc, fnum, t, tau=None):
    """Write the boundary-state flux into fnum at the imposed faces.

    A stage passes its interval length tau and gets the flux averaged over
    [t, t + tau] by three-point Gauss quadrature; the semi-discrete
    baseline passes none and gets the flux at t.
    """
    model, state = disc.model, disc.boundary.bc_state
    for i in disc.boundary.imposed:
        x = disc.grid.faces[i]
        if tau is None:
            fnum[:, i] = model.flux(np.asarray(state(x, t), dtype=float), x)
        else:
            fnum[:, i] = sum(w * model.flux(np.asarray(state(x, t + tau * th), dtype=float), x)
                             for th, w in _STAGE_QUAD)


def _assemble_face_flux(disc, faces, traces, lam, t, tau):
    """Numerical flux at every face for one stage, shape (nvar, ne+1).

    faces: per-element (left, right) central face values; traces: the face
    traces of the nodal states that feed the dissipation (the time-averaged
    solution for the d2 variant, the start-of-step solution for d1).
    """
    (fm, fp), (um, up) = disc.boundary.face_sides(faces, traces)
    fnum = numerical_flux(fm, fp, um, up, lam)
    _impose_fluxes(disc, fnum, t, tau)
    return fnum


# ----------------------------------------------------------------------
# admissibility checks and time-step control


def validate_admissible(model, u, time=None, step=None, detail=""):
    """Raise with located diagnostics when a nodal state is inadmissible.
    Returns the (K, ne, p) constraint values it checked, None for a model
    without constraints."""
    if not np.isfinite(u).all():
        finite = np.isfinite(u).all(axis=0)
        e, p = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise AdmissibilityError("finite", float("nan"), element=int(e), node=int(p),
                                 time=time, step=step, detail=detail or "non-finite state")
    if model.nconstraints == 0:
        return None
    vals = model.constraints(u)
    for k, name in enumerate(model.constraint_names):
        col = vals[k]
        if (col <= 0.0).any():
            e, p = np.unravel_index(int(np.argmin(col)), col.shape)
            raise AdmissibilityError(name, float(col[e, p]), element=int(e),
                                     node=int(p), time=time, step=step, detail=detail)
    return vals


@dataclass(frozen=True)
class StepStart:
    """The inputs of a step that depend on its start state alone.

    Built once per state (step_start) and read by compute_dt and by every
    halved mdrk_step attempt from that state; the arrays are read-only.

    u               the state, variable-major
    speeds          wave speed of every element mean (_mean_speeds)
    lam             dissipation coefficient of every face (face_wave_speeds)
    subface_fluxes  with limiter fo, the subcell-line Rusanov fluxes, which
                    read the nodal values only, not tau; None otherwise
    """

    u: np.ndarray
    speeds: np.ndarray
    lam: np.ndarray
    subface_fluxes: np.ndarray = None

    def __post_init__(self):
        for value in (self.u, self.speeds, self.lam, self.subface_fluxes):
            if value is not None:
                value.setflags(write=False)


def step_start(disc, u):
    """The StepStart of nodal state u, given as (ne, p, nvar)."""
    uv = variable_major(u)
    speeds = _mean_speeds(disc, uv)
    subface_fluxes = None
    if disc.config.limiter == "fo":
        subface_fluxes = blending.low_order_subface_fluxes(disc, uv, 0.0, use_slopes=False)
    return StepStart(uv, speeds, face_wave_speeds(disc, speeds), subface_fluxes)


def compute_dt(disc, u, t, start=None):
    """CFL time step from element-mean wave speeds, clamped to the horizon.

    u is (ne, p, nvar); start is its StepStart, when the caller has built
    it.  A mean speed that is not finite and non-negative (NaN from an
    inadmissible mean) raises an AdmissibilityError naming its element.
    """
    cfg = disc.config
    speeds = _mean_speeds(disc, variable_major(u)) if start is None else start.speeds
    # written so that NaN fails it
    ok = (speeds >= 0.0) & (speeds < np.inf)
    if not ok.all():
        e = int(np.argmin(ok))
        raise AdmissibilityError("mean wave speed", float(speeds[e]), element=e, time=t,
                                 detail="the time step needs finite element-mean wave speeds")
    # all speeds zero: a huge step, clamped to the horizon
    dt = cfg.safety * cfg.resolved_cfl() * float(np.min(disc.dx / np.maximum(speeds, 1e-300)))
    return min(dt, cfg.final_time - t)


# ----------------------------------------------------------------------
# the two-stage update


@dataclass
class StepDiagnostics:
    """Per-step record used by conservation and limiter tests."""

    fnum1: np.ndarray = None    # (ne+1, nvar) face fluxes of each stage
    fnum2: np.ndarray = None
    alpha1: np.ndarray = None
    alpha2: np.ndarray = None
    theta1: np.ndarray = None   # (ne+1, K) per-face, per-constraint flux-limiter factors
    theta2: np.ndarray = None
    theta_min: float = 1.0
    min_constraints: np.ndarray = None
    dt: float = 0.0


def _stage(disc, u, averages, faces, lam, t, tau, low, alpha_from, time, detail):
    """One stage: u - (tau/dx) * residual + tau * source, checked.

    averages is the stage's (favg, uavg, savg); faces are its
    extrapolate-then-average face values, or None to extrapolate favg.
    low is the stage's checked blending.FaceUpdates, or None with blending
    off.  With blending on, the residual is the alpha-blend of the high-
    and low-order residuals and the update passes the scaling limiter;
    with it off, alpha and thetas are None.  Returns (u_new, fnum, alpha,
    thetas, constraint values of u_new).
    """
    cfg = disc.config
    favg, uavg, savg = averages
    ae = faces is None
    if ae:
        faces = face_values_ae(favg, disc.ops)
    ud = uavg if cfg.dissipation == "d2" else u
    fnum = _assemble_face_flux(disc, faces, node_sums(disc.ops.V, ud), lam, t, tau)

    alpha = thetas = None
    if low is not None:
        alpha = blending.smoothness_alpha(disc, alpha_from)
        fnum, thetas = blending.blend_and_limit_face_flux(disc, fnum, low, alpha)
        r_low = blending.low_order_residual(disc, low.subface_fluxes, fnum)
    # extrapolated faces are the traces the residual needs
    residual = fr_flux_derivative(favg, fnum[:, :-1], fnum[:, 1:], disc.ops,
                                  faces if ae else None)
    if alpha is not None:
        residual = blending.blended_update(residual, r_low, alpha)
    unew = u - (tau / disc.dxn) * residual
    if savg is not None:
        unew = unew + tau * savg
    if alpha is not None:
        unew = blending.scaling_limiter(disc, unew)
    cons = validate_admissible(disc.model, unew, time=time, detail=detail)
    return unew, fnum, alpha, thetas, cons


def _low_order(disc, u, dt, start):
    """Both stages' checked low-order face updates, or Nones when unblended.

    They depend on u and the stage interval only, so they are built and
    checked before any high-order work: a step that has to be halved stops
    here.  First-order subcell fluxes come from start; MUSCL-Hancock ones
    are built for both intervals in one pass.
    """
    if disc.config.limiter == "none":
        return None, None
    taus = np.array((0.5 * dt, dt))
    subfaces = start.subface_fluxes
    if subfaces is None:
        subfaces = blending.low_order_subface_fluxes(disc, u, taus, use_slopes=True)
    return blending.low_order_face_updates(disc, subfaces, u, taus)


def mdrk_step(disc, u, t, dt, start=None):
    """One full two-stage update from t to t + dt.

    u is (ne, p, nvar) and start its StepStart, whose variable-major copy
    of u the step reads; without it the step builds its own.  Returns the
    new nodal array, a new (ne, p, nvar) array, and per-step diagnostics.
    Raises AdmissibilityError (with location context) if a stage output
    leaves the admissible set, and StencilStateError when intermediate
    stencil states or the low-order subcell updates next to element faces
    are not admissible; the caller may retry the latter with a smaller step.
    """
    model, ops = disc.model, disc.ops
    ea = disc.config.face_scheme == "ea"
    if start is None:
        start = step_start(disc, u)
    u, lam = start.u, start.lam
    low1, low2 = _low_order(disc, u, dt, start)

    # stage 1: averages over [t, t + dt/2]
    *avg1, cache = stage1_time_average(model, u, disc.xn, disc.dxn, dt, ops, t)
    faces1 = None
    if ea:
        faces1, cache.face_f, cache.face_f1, cache.face_bad = face_values_ea_stage1(
            model, u, cache.u1, ops, disc.xf, avg1[0])
    ustar, fnum1, alpha1, th1, _ = _stage(disc, u, avg1, faces1, lam, t, 0.5 * dt, low1, u,
                                          t, "after first stage")

    # stage 2: averages over [t, t + dt]
    *avg2, us1 = stage2_time_average(model, u, ustar, cache, disc.xn, disc.dxn, dt, ops, t)
    faces2 = None
    if ea:
        faces2 = face_values_ea_stage2(model, ustar, us1, cache, ops, disc.xf, avg2[0])
    unew, fnum2, alpha2, th2, cons = _stage(disc, u, avg2, faces2, lam, t, dt, low2, ustar,
                                            t + dt, "after second stage")

    mins = None
    if cons is not None:
        mins = cons.reshape(len(cons), -1).min(axis=1)
    theta_min = min([1.0] + [float(th.min()) for th in (th1, th2) if th is not None and th.size])
    diag = StepDiagnostics(fnum1=fnum1.T, fnum2=fnum2.T, alpha1=alpha1, alpha2=alpha2,
                           theta1=th1, theta2=th2, theta_min=theta_min,
                           min_constraints=mins, dt=dt)
    return element_major(unew), diag


# ----------------------------------------------------------------------
# Runge-Kutta reference integrator (comparison baseline)


def rkfr_rhs(disc, u, t):
    """Classical semi-discrete right-hand side with the corrected flux, of
    variable-major u."""
    model, ops = disc.model, disc.ops
    f = model.flux(u, disc.xn)
    lam = face_wave_speeds(disc, _mean_speeds(disc, u))
    traces = node_sums(ops.V, u)
    fnum = _assemble_face_flux(disc, model.flux(traces, disc.xf), traces, lam, t, None)
    dudt = -fr_flux_derivative(f, fnum[:, :-1], fnum[:, 1:], ops) / disc.dxn
    if model.has_source:
        dudt = dudt + model.source(u, disc.xn, t)
    return dudt


def rkfr_step(disc, u, t, dt):
    """Advance the baseline integrator by one step; u is (ne, p, nvar)."""
    from . import ssprk

    if disc.config.limiter != "none":
        raise ConfigurationError("the Runge-Kutta baseline runs unlimited")
    unew = ssprk.step(lambda v, tv: rkfr_rhs(disc, v, tv), variable_major(u), t, dt)
    validate_admissible(disc.model, unew, time=t + dt, detail="baseline step")
    return element_major(unew), StepDiagnostics(dt=dt)
