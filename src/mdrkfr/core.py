"""Two-stage, fourth-order time stepping with flux reconstruction in space.

Each stage evolves the nodal solution with a time-averaged flux built by
the Jacobian-free approximate Lax-Wendroff procedure: flux time derivatives
are replaced by a five-point finite-difference stencil along solution
increments.  The stage-averaged flux is made continuous across elements by
correction functions and collocated, so one step needs two residual
assemblies regardless of the order.

Both stages run one body, the stage loop of mdrk_step with time_average
and face_values_ea, which reads every interval and weight from
STAGE_ROWS.  Those are derived at import from PRODUCTION_COEFFICIENTS,
the tableau whose order conditions order_conditions checks exactly.

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

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import blending, operators, stability
from .errors import AdmissibilityError, ConfigurationError, StencilStateError
from .models import EquationModel, fold, numerical_flux
from .operators import ReferenceOperators, c_einsum, gauss_legendre, make_operators, node_sums

BOUNDARY_KINDS = ("periodic", "transmissive", "reflective", "dirichlet_outflow",
                  "dirichlet")
LIMITER_KINDS = ("none", "fo", "mh")
FACE_SCHEMES = ("ae", "ea")
# the allowed values of every str field of RunConfig
CHOICES = {"points": operators.POINT_KINDS, "correction": operators.CORRECTION_KINDS,
           "dissipation": stability.DISSIPATION_KINDS, "face_scheme": FACE_SCHEMES,
           "limiter": LIMITER_KINDS, "boundary": BOUNDARY_KINDS}

# compute_dt steps at this fraction of the CFL, just inside the certified limit
STEP_MARGIN = 0.98


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
    if isinstance(ncells, bool) or not isinstance(ncells, numbers.Integral) or ncells < 1:
        raise ConfigurationError(f"ncells must be a positive integer, got {ncells!r} cells")
    # written so that NaN fails it
    if not -np.inf < xlo < xhi < np.inf:
        raise ConfigurationError(f"xlo and xhi must be finite with xlo < xhi, got [{xlo}, {xhi}]")
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
    limiter: str = "none"
    boundary: str = "periodic"
    final_time: float = 1.0
    snapshot_every: int = 0

    def validate(self):
        # each field's kind is its annotation; a bool would pass as 0 or 1,
        # and a string fail a range check with a TypeError
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            if f.type is str:
                if value not in CHOICES[key]:
                    raise ConfigurationError(
                        f"unknown {key} {value!r}; expected one of {CHOICES[key]}")
            elif not (value is None and isinstance(None, f.type)):
                kind, word = ((numbers.Integral, "an integer") if f.type is int
                              else (numbers.Real, "a real number"))
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigurationError(f"{key} must be {word}, got {value!r}")
        # each range is written so that NaN fails it
        if self.cfl is not None and not 0.0 < self.cfl < np.inf:
            raise ConfigurationError(f"cfl must be positive and finite, got {self.cfl}")
        if not 0.0 < self.final_time < np.inf:
            raise ConfigurationError(
                f"final_time must be positive and finite, got {self.final_time}")
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
    sub_offsets  (left, right) offsets from each node of that line to its subcell's
                 faces; sub_face_x adds the node positions, sub_width subtracts them
    sub_gaps     (left, right, both) node gaps around every interior node of that line
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
    sub_offsets: np.ndarray
    sub_face_x: np.ndarray
    sub_width: np.ndarray
    sub_gaps: np.ndarray
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
    offsets, gap = np.stack([sub_dl, sub_dr]), np.diff(sub_x)
    return Boundary(cells, traces, sub, offsets, sub_x + offsets, offsets[1] - offsets[0],
                    np.stack([gap[:-1], gap[1:], gap[:-1] + gap[1:]]), state_sign, flux_sign,
                    limited, subcells.h[end_cells], inner_subfaces,
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
# the two-stage tableau


@dataclass(frozen=True)
class MdrkCoefficients:
    """Tableau of the two-stage, two-derivative update."""

    a21: Fraction
    a21_hat: Fraction
    b1: Fraction
    b2: Fraction
    b1_hat: Fraction
    b2_hat: Fraction


PRODUCTION_COEFFICIENTS = MdrkCoefficients(
    a21=Fraction(1, 2), a21_hat=Fraction(1, 8),
    b1=Fraction(1), b2=Fraction(0),
    b1_hat=Fraction(1, 6), b2_hat=Fraction(1, 3))


# one stage in floats: its interval over dt (the sum of its a), the weights
# a / tau of the stage values, and the weights a_hat / tau of their
# increments as integer numerators over their least common denominator
StageRow = namedtuple("StageRow", "tau weights numerators denominator")


def stage_rows(c):
    """The StageRows of tableau c: (a21; a21_hat), then (b1, b2; b1_hat, b2_hat)."""
    rows = []
    for a, a_hat in (((c.a21,), (c.a21_hat,)), ((c.b1, c.b2), (c.b1_hat, c.b2_hat))):
        tau = sum(a)
        incs = [x / tau for x in a_hat]
        d = math.lcm(*(x.denominator for x in incs))
        rows.append(StageRow(float(tau), tuple(float(x / tau) for x in a),
                             tuple(float(x * d) for x in incs), float(d)))
    return tuple(rows)


STAGE_ROWS = stage_rows(PRODUCTION_COEFFICIENTS)


def combine(row, pieces, name):
    """sum w v + (sum n v1) / d by one row over the stages' pieces[name] (v)
    and pieces[name + "1"] (v1), skipping zero terms and unit factors, so
    stage two is f + (f1 + 2 fs1) / 6 bit for bit (README, Numerical notes)."""
    value = increment = None
    for w, n, p in zip(row.weights, row.numerators, pieces):
        if w:
            v = p[name] if w == 1.0 else w * p[name]
            value = v if value is None else value + v
        if n:
            v = p[name + "1"] if n == 1.0 else n * p[name + "1"]
            increment = v if increment is None else np.add(
                v, increment, out=None if v is p[name + "1"] else v)
    # a lone unit increment is a piece itself (a step has two), not to be written into
    fresh = increment is not pieces[0][name + "1"] and increment is not pieces[-1][name + "1"]
    out = np.divide(increment, row.denominator, out=increment if fresh else None)
    out += value
    return out


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
        return c_einsum("pq,eqv->epv", d_matrix, q.reshape(q.shape[1:] + (1,))).reshape(q.shape)
    qt = np.ascontiguousarray(q.transpose(2, 0, 1))
    return np.ascontiguousarray(c_einsum("jp,pvn->vnj", d_matrix, qt))


def local_solution_derivative(u, f, dx, dt, d_matrix, s=None):
    """u1 = -(dt/dx) D f (+ dt s), dx at the nodes (Discretization.dxn)."""
    u1 = apply_d(d_matrix, f)
    u1 *= -(dt / dx)
    if s is not None:
        u1 += dt * s
    return u1


def flux_time_derivative(eval_fn, u, u1):
    """Five-point approximation of dt * d/dt of eval_fn along u + tau*u1.

    eval_fn(state, shift) evaluates the flux (or source) at the perturbed
    state; shift in {-2, -1, 1, 2} tells time-dependent integrands which
    sample time to use.  Exact whenever the composition is a polynomial of
    degree <= 4 in the path parameter.  The shifted states share one
    scratch array, replaced when a value eval_fn returns may alias it.
    """
    w = u1 * 2.0
    scratch = u + w
    fp2 = eval_fn(scratch, 2)
    scratch = np.add(u, u1, out=_spare(fp2, scratch))
    fp1 = eval_fn(scratch, 1)
    scratch = np.subtract(u, u1, out=_spare(fp1, scratch))
    fm1 = eval_fn(scratch, -1)
    scratch = np.subtract(u, w, out=_spare(fm1, scratch))
    del w
    fm2 = eval_fn(scratch, -2)
    del scratch
    return five_point(fp2, fp1, fm1, fm2)


def _spare(value, scratch):
    """scratch, or None when value is it or a view that may alias it."""
    return None if value is scratch or getattr(value, "base", None) is not None else scratch


def five_point(fp2, fp1, fm1, fm2):
    """The stencil combination of the values at shifts +2, +1, -1, -2."""
    out = fp1 * 8.0
    out -= fp2
    out -= fm1 * 8.0
    out += fm2
    return np.divide(out, 12.0, out=out)


def time_average(model, state, pieces, xn, dx, dt, ops, t=0.0):
    """The next stage's averaged flux, solution and source (None without one).

    The stage evaluates f, f1 = dt df/dt, u1 = dt du/dt and, with a source,
    s and s1 at its start state, which lives at time t.  It appends them,
    with the state as u, in one dict to pieces, the list of the step's
    earlier stages, and combines every stage's by its row of STAGE_ROWS.
    Before the shifted states are evaluated, _check_stencil raises a
    StencilStateError naming the stage when any of them is not evaluable.
    """
    f = model.flux(state, xn)
    s = model.source(state, xn, t) if model.has_source else None
    u1 = local_solution_derivative(state, f, dx, dt, ops.D, s)
    _check_stencil(model, state, u1, stage=len(pieces) + 1)
    f1 = flux_time_derivative(lambda v, k: model.flux(v, xn), state, u1)
    s1 = None
    if model.has_source:
        s1 = flux_time_derivative(lambda v, k: model.source(v, xn, t + k * dt), state, u1)
    pieces.append({"f": f, "f1": f1, "u": state, "u1": u1, "s": s, "s1": s1})
    row = STAGE_ROWS[len(pieces) - 1]
    savg = combine(row, pieces, "s") if model.has_source else None
    return combine(row, pieces, "f"), combine(row, pieces, "u"), savg


def face_values_ae(favg, ops):
    """Extrapolate the nodal averaged flux to both faces of every element.

    Face traces, here and throughout, are (nvar, 2, ne) with [:, 0] and
    [:, 1] the (left, right) pair: node_sums of the rows of ops.V.
    """
    return node_sums(ops.V, favg)


def _evaluable(model, u, u1=None):
    """Points at which u, or every state u + k u1 (k = -2..2) of the
    five-point stencil, is finite with positive density (systems).

    Every component of the three middle states lies between those of
    u - 2 u1 and u + 2 u1, in floats too (2 u1 is exact and rounding is
    monotone), so only those two are tested.
    """
    if u1 is not None:
        w = 2.0 * u1
        return _evaluable(model, u + w) & _evaluable(model, u - w)
    ok = np.isfinite(u).all(axis=0)
    if model.nvar > 1:
        ok &= np.real(u[0]) > 0.0
    return ok


def _face_stencil(ua, u1a):
    """The five face states ua, ua + u1a, ua - u1a, ua + 2 u1a, ua - 2 u1a,
    stacked on axis 1."""
    w = 2.0 * u1a
    return np.concatenate([ua, ua + u1a, ua - u1a, ua + w, ua - w], 1).reshape(len(ua), 5, 2, -1)


def _check_stencil(model, u, u1=None, stage=None):
    """Raise StencilStateError("density", least stencil density, NaN when
    one is not finite) unless _evaluable holds everywhere; this is the one
    place a flux's states are tested, and only models with constraints
    need it."""
    if model.constraint_names and not _evaluable(model, u, u1).all():
        rho = u[0] if u1 is None else np.stack([u[0] + 2.0 * u1[0], u[0] - 2.0 * u1[0]])
        raise StencilStateError("density", float(rho.min() if np.isfinite(rho).all() else np.nan),
                                detail="primitive recovery needs positive density", stage=stage)


def face_values_ea(model, state, pieces, ops, xf, favg):
    """The current stage's (nvar, 2, ne) face fluxes, built directly at the faces.

    The stage state and its increment u1 (pieces[-1], the stage's entry)
    are extrapolated first; the same five-point stencil used at the
    solution points then runs at the (2, ne) face coordinates xf, in one
    flux call, and the stage's row combines the face pieces of every stage
    so far.  Where any of a face's five stencil states is not evaluable
    (e.g. non-positive density after extrapolation) in this or an earlier
    stage, the face takes the extrapolated nodal averaged flux favg
    instead (the two constructions coincide on nodesets that include the
    endpoints); its five stencil states become the adjacent node value, so
    the flux call runs, and nothing reads their flux.  The face flux, its
    increment and the (2, ne) fallback mask go into pieces[-1].
    """
    stage, row = pieces[-1], STAGE_ROWS[len(pieces) - 1]
    stencil = _face_stencil(node_sums(ops.V, state), node_sums(ops.V, stage["u1"]))
    # its last two states, ua +- 2 u1a, bound the other three (_evaluable)
    bad = ~_evaluable(model, stencil[:, 3:]).all(axis=0)
    if bad.any():
        stencil[:, :, bad] = np.stack([state[..., 0], state[..., -1]], axis=1)[:, None, bad]
    # stage two weighs its own face flux by b2 = 0, so nothing reads it
    own = int(row.weights[-1] != 0)  # not a bool: f[:, True] would index by mask
    f = model.flux(stencil[:, 1 - own:], xf)
    if own:
        stage["face_f"] = f[:, 0].copy()  # a view would keep all five alive
    stage["face_f1"] = five_point(f[:, own + 2], f[:, own], f[:, own + 1], f[:, own + 3])
    stage["face_bad"] = bad
    for earlier in pieces[:-1]:
        bad = bad | earlier["face_bad"]
    value = combine(row, pieces, "face_f")
    if bad.any():
        value = np.where(bad, node_sums(ops.V, favg), value)
    return value


# the benchmark's layer spans still name the per-stage functions these replaced
stage1_time_average = stage2_time_average = time_average
face_values_ea_stage1 = face_values_ea_stage2 = face_values_ea


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
        traces = c_einsum("jp,pvn->vjn", ops.V, x[:p])
    np.subtract(fnum_left, traces[:, 0], out=x[p])
    np.subtract(fnum_right, traces[:, 1], out=x[p + 1])
    return np.ascontiguousarray(c_einsum("jk,kvn->vnj", ops.DB, x))


# ----------------------------------------------------------------------
# faces and imposed boundary fluxes


def _mean_speeds(disc, u):
    """Wave speed of each element's mean state, maximised over its nodes when
    it depends on x: a max of equal values is that value, NaN and -0 too."""
    means = node_sums(disc.ops.weights, u)
    speeds = np.real(disc.model.speed(means[..., None], disc.xn))
    if np.ndim(speeds) == 0:
        return np.full(len(disc.xn), speeds)
    if np.shape(speeds) == disc.xn.shape[:1] + (1,):
        return speeds[:, 0]
    return fold(np.maximum, np.broadcast_to(speeds, disc.xn.shape), 1)


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
    baseline passes none and gets the flux at t.  One flux call takes the
    states bc_state(x, t) of every imposed face at every sample time, once
    _check_stencil has passed them: they come from outside the solver.
    """
    b = disc.boundary
    if len(b.imposed):
        x = disc.grid.faces[b.imposed]
        times = [t] if tau is None else [t + tau * th for th, _ in _STAGE_QUAD]
        states = np.array([[b.bc_state(xi, ti) for ti in times] for xi in x], dtype=float)
        states = states.reshape(len(x), len(times), -1).T
        _check_stencil(disc.model, states)
        f = disc.model.flux(states, x)
        fnum[:, b.imposed] = (f[:, 0] if tau is None
                              else sum(w * f[:, j] for j, (_, w) in enumerate(_STAGE_QUAD)))


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
    if (vals <= 0.0).any():  # then name the first failing constraint
        k = int(np.argmax((vals <= 0.0).any(axis=(1, 2))))
        e, p = np.unravel_index(int(np.argmin(vals[k])), vals[k].shape)
        raise AdmissibilityError(model.constraint_names[k], float(vals[k, e, p]), element=int(e),
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
    alpha           with a limiter, stage one's smoothness alpha; None otherwise
    face_parts      with limiter fo, the face check's blending.face_update_parts
                    of the subcell-line Rusanov fluxes (face_parts.sf), which
                    read the nodal values only, not tau; None otherwise
    """

    u: np.ndarray
    speeds: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray = None
    face_parts: blending.FaceParts = None

    def __post_init__(self):
        for value in (self.u, self.speeds, self.lam, self.alpha, *(self.face_parts or ())):
            if value is not None:
                value.setflags(write=False)


def step_start(disc, u):
    """The StepStart of nodal state u, given as (ne, p, nvar)."""
    uv = variable_major(u)
    speeds = _mean_speeds(disc, uv)
    alpha = None if disc.config.limiter == "none" else blending.smoothness_alpha(disc, uv)
    parts = None
    if disc.config.limiter == "fo":
        parts = blending.face_update_parts(
            disc, blending.low_order_subface_fluxes(disc, uv, 0.0, use_slopes=False), uv)
    return StepStart(uv, speeds, face_wave_speeds(disc, speeds), alpha, parts)


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
    dt = STEP_MARGIN * cfg.resolved_cfl() * float(np.min(disc.dx / np.maximum(speeds, 1e-300)))
    return min(dt, cfg.final_time - t)


# ----------------------------------------------------------------------
# the two-stage update


StageRecord = namedtuple("StageRecord", "fnum alpha theta face_bad")


@dataclass
class StepDiagnostics:
    """Per-step record: one StageRecord per stage (none for the baseline
    step), the least constraint values of the step's output, and dt.

    A StageRecord holds the stage's (ne+1, nvar) face fluxes fnum, its
    alpha (ne,) and theta (ne+1, K), None when unblended, and face_bad,
    its own (2, ne) ea fallback mask, None under ae; stage k falls back
    on the union of the masks of stages 1..k.
    """

    stages: tuple = ()
    min_constraints: np.ndarray = None
    dt: float = 0.0

    @property
    def theta_min(self):
        """The least flux-limiter factor over the stages, 1.0 when none fired."""
        return min([1.0] + [float(s.theta.min()) for s in self.stages
                            if s.theta is not None and s.theta.size])


def _low_order(disc, u, dt, start):
    """Every stage's checked low-order face updates, or Nones when unblended.

    They depend on u and the stage interval only, so they are built and
    checked before any high-order work: a step that has to be halved stops
    here.  First-order check parts come from start; MUSCL-Hancock ones are
    built here, from one subcell pass over all intervals.
    """
    if disc.config.limiter == "none":
        return (None,) * len(STAGE_ROWS)
    taus = np.array([row.tau * dt for row in STAGE_ROWS])
    parts = start.face_parts
    if parts is None:
        parts = blending.face_update_parts(
            disc, blending.low_order_subface_fluxes(disc, u, taus, use_slopes=True), u)
    return blending.low_order_face_updates(disc, parts, taus)


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
    model, ops, cfg = disc.model, disc.ops, disc.config
    if start is None:
        start = step_start(disc, u)
    u, lam = start.u, start.lam
    lows = _low_order(disc, u, dt, start)

    # each stage starts from state, at time ts, and sets state to the checked
    # u - (tau/dx) residual + tau source; unblended, alpha and theta are None
    pieces, state, ts, stages = [], u, t, []
    for k, (row, low) in enumerate(zip(STAGE_ROWS, lows)):
        favg = uavg = ud = faces = traces = r_low = cons = None  # the last stage's die first
        tau = row.tau * dt
        favg, uavg, savg = time_average(model, state, pieces, disc.xn, disc.dxn, dt, ops, ts)
        if k == len(STAGE_ROWS) - 1:  # the last nodal combination is made
            for p in pieces:
                p["f"] = p["f1"] = p["s"] = p["s1"] = None
        if cfg.face_scheme == "ea":
            faces, traces = face_values_ea(model, state, pieces, ops, disc.xf, favg), None
        else:
            # extrapolated faces are the traces the residual needs
            faces = traces = face_values_ae(favg, ops)
        ud = uavg if cfg.dissipation == "d2" else u
        fnum = _assemble_face_flux(disc, faces, node_sums(ops.V, ud), lam, t, tau)
        alpha = theta = None
        if low is not None:
            alpha = start.alpha if k == 0 else blending.smoothness_alpha(disc, state)
            fnum, theta = blending.blend_and_limit_face_flux(disc, fnum, low, alpha)
            r_low = blending.low_order_residual(disc, low.subface_fluxes, fnum)
        residual = fr_flux_derivative(favg, fnum[:, :-1], fnum[:, 1:], ops, traces)
        if alpha is not None:
            residual = blending.blended_update(residual, r_low, alpha)
        residual *= tau / disc.dxn
        state = np.subtract(u, residual, out=residual)
        if savg is not None:
            state += tau * savg
        if alpha is not None:
            state = blending.scaling_limiter(disc, state)
        # a failed check is reported at the time the checked state lives at
        cons = validate_admissible(model, state, time=t + tau,
                                   detail=f"after {('first', 'second')[k]} stage")
        stages.append(StageRecord(fnum.T, alpha, theta, pieces[k].get("face_bad")))
        ts = t + tau

    mins = None if cons is None else cons.reshape(len(cons), -1).min(axis=1)
    return element_major(state), StepDiagnostics(tuple(stages), mins, dt)


# ----------------------------------------------------------------------
# Runge-Kutta reference integrator (comparison baseline)


def rkfr_rhs(disc, u, t):
    """Classical semi-discrete right-hand side with the corrected flux, of
    variable-major u; its nodal states and face traces pass _check_stencil
    before their fluxes are formed."""
    model, ops = disc.model, disc.ops
    _check_stencil(model, u)
    f = model.flux(u, disc.xn)
    lam = face_wave_speeds(disc, _mean_speeds(disc, u))
    traces = node_sums(ops.V, u)
    _check_stencil(model, traces)
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
