"""Subcell-based shock capturing and admissibility enforcement.

Each element is split into N+1 subcells whose widths are the quadrature
weights times the element width, so nodal values double as subcell means.
A smoothness coefficient alpha per element blends the high-order residual
with a first-order or MUSCL-Hancock finite-volume update on the subcells;
both schemes share the interface fluxes, which keeps every element mean
identical between the blended and unblended updates.  Interface fluxes are
additionally corrected so the low-order updates next to each face stay
admissible, and a nodal scaling limiter squeezes the solution polynomial
toward the (admissible) element mean afterwards.
"""

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError, StencilStateError
from .models import fold, numerical_flux
from .operators import build_nodeset, legendre, node_sums


# ----------------------------------------------------------------------
# smoothness indicator


@lru_cache(maxsize=None)
def _modal_inverse(degree, kind):
    """Nodal-to-modal transform for orthonormal Legendre on [0, 1]."""
    ns = build_nodeset(degree, kind)
    x = 2.0 * ns.nodes - 1.0
    vand = np.column_stack([np.sqrt(2 * j + 1) * legendre(j, x)[0]
                            for j in range(degree + 1)])
    return np.linalg.inv(vand)


# the indicator's fixed parameters, from Hennemann, Rueda-Ramirez, Hindenlang
# and Gassner (JCP 2021): the cap and floor of alpha, and the logistic's
# sharpness ln(9999), which puts alpha at 1e-4 where the energy is zero
ALPHA_MAX = 0.5
ALPHA_MIN = 1e-3
INDICATOR_SHARPNESS = 9.21024


def indicator_threshold(degree):
    return 0.5 * 10.0 ** (-1.8 * (degree + 1) ** 0.25)


def smoothness_alpha(disc, u):
    """Per-element blending coefficient in [0, ALPHA_MAX].

    Energy of the two highest Legendre modes of the indicator quantity is
    mapped through a logistic; tiny values floor to zero, saturated values
    cap at ALPHA_MAX, and one max-with-half-neighbour pass spreads the
    flag to adjacent elements.
    """
    degree = disc.ops.degree
    q = np.real(disc.model.indicator_quantity(u))
    modal = q @ _modal_inverse(degree, disc.ops.nodeset.kind).T
    sq = modal * modal
    total = sq.sum(axis=1)
    total_lo = total - sq[:, -1]
    e_top = np.divide(sq[:, -1], total, out=np.zeros(total.shape), where=total > 0.0)
    e_next = np.divide(sq[:, -2], total_lo, out=np.zeros(total.shape), where=total_lo > 0.0)
    energy = np.maximum(e_top, e_next)

    thresh = indicator_threshold(degree)
    alpha = 1.0 / (1.0 + np.exp(-INDICATOR_SHARPNESS / thresh * (energy - thresh)))
    alpha[alpha < ALPHA_MIN] = 0.0
    alpha[alpha > 1.0 - ALPHA_MIN] = 1.0
    alpha = np.minimum(alpha, ALPHA_MAX)

    padded = alpha[disc.boundary.cells]
    return np.maximum(alpha, 0.5 * np.maximum(padded[:-2], padded[2:]))


# ----------------------------------------------------------------------
# subcell geometry


class SubcellGeometry:
    """Global line of subcells covering the whole mesh.

    Arrays are flat over (element, node); ``subfaces`` has one more entry
    than there are subcells and its every P-th entry is an element face.
    """

    def __init__(self, grid, ops):
        w = ops.weights
        csum = np.concatenate([[0.0], np.cumsum(w)])
        csum[-1] = 1.0
        dx = grid.dx
        self.psub = len(w)
        sub = grid.faces[:-1, None] + dx[:, None] * csum[None, :]
        self.subfaces = np.concatenate([sub[:, :-1].ravel(), grid.faces[-1:]])
        self.x = (grid.faces[:-1, None] + dx[:, None] * ops.nodes[None, :]).ravel()
        self.h = (dx[:, None] * w[None, :]).ravel()
        # every subcell's quadrature weight, its width over its element's
        self.w = np.tile(w, grid.ncells)
        # node offsets to the subcell's own faces (left is negative)
        self.dl = self.subfaces[:-1] - self.x
        self.dr = self.subfaces[1:] - self.x
        self.length = grid.faces[-1] - grid.faces[0]
        # (left, right) face positions along the line padded with a ghost
        # subcell per end, whose outer faces repeat the end faces
        f, pf = self.subfaces, np.empty((2, len(self.subfaces) + 1))
        pf[0, 1:] = pf[1, :-1] = f
        pf[0, 0], pf[1, -1] = f[0], f[-1]
        self.padded_faces = pf


# ----------------------------------------------------------------------
# low-order subcell schemes


def minmod3(a, b, c):
    """Componentwise minmod of three slope candidates, bit for bit the sign
    and magnitude form with signed zeros and infinities; a NaN propagates."""
    return (np.maximum(np.minimum(np.minimum(a, b), c), 0.0)
            + np.minimum(np.maximum(np.maximum(a, b), c), 0.0))


def _admissible(model, states):
    """Points at which every candidate state, stacked on axis 1, satisfies
    every constraint."""
    return (model.constraints(states) > 0.0).all(axis=(0, 1))


def _subface_rusanov(model, traces, x):
    """Rusanov fluxes at the subfaces of the padded subcell line, (nvar, ...,
    N-1), from one speed_and_flux call on the (left, right) traces of its N
    subcells stacked on axis 1; x is SubcellGeometry.padded_faces."""
    x = x.reshape(x.shape[:1] + (1,) * (traces.ndim - 3) + x.shape[1:])
    s, f = model.speed_and_flux(traces, x)
    if np.shape(s) != traces.shape[1:]:
        s = np.broadcast_to(s, traces.shape[1:])
    s = np.maximum(s[1, ..., :-1], s[0, ..., 1:])  # the speeds die here
    return numerical_flux(f[:, 1, ..., :-1], f[:, 0, ..., 1:], traces[:, 1, ..., :-1],
                          traces[:, 0, ..., 1:], s)


def low_order_subface_fluxes(disc, u, tau, use_slopes):
    """Numerical fluxes at every subface of the global subcell line.

    First-order mode uses the nodal values directly; MUSCL-Hancock mode
    reconstructs limited linear profiles, evolves the subface traces half
    an interval, and feeds the evolved traces to the same two-state flux.
    Slopes are dropped wherever reconstruction or prediction would leave
    the admissible set, so the scheme degrades to first order exactly at
    the troubled subcells.

    The fluxes are (nvar, ns+1).  First-order fluxes do not read tau.  For
    MUSCL-Hancock, tau is one interval or an array of them, whose shape
    then follows the variable axis; the reconstruction is built once for
    all intervals.  Each subcell's (left, right) face traces are stacked
    on axis 1.
    """
    model, b = disc.model, disc.boundary
    uf = u.reshape(u.shape[0], -1)
    up = np.take(uf, b.subcells, axis=1)
    up[:, 0] *= b.state_sign
    up[:, -1] *= b.state_sign

    slopes = np.zeros_like(up)
    if use_slopes:
        slopes[:, 1:-1] = minmod3((uf - up[:, :-2]) / b.sub_gaps[0],
                                  (up[:, 2:] - up[:, :-2]) / b.sub_gaps[2],
                                  (up[:, 2:] - uf) / b.sub_gaps[1])
    traces = slopes[:, None] * b.sub_offsets
    traces += up[:, None]
    if use_slopes and not (ok := _admissible(model, traces)).all():
        slopes = np.where(ok, slopes, 0.0)
        traces = slopes[:, None] * b.sub_offsets
        traces += up[:, None]

    faces = disc.subcells.padded_faces
    if not use_slopes:
        return _subface_rusanov(model, traces, faces)

    lead = (slice(None),) + (None,) * np.ndim(tau)
    f = model.flux(traces, b.sub_face_x)
    dflux = f[:, 1] - f[:, 0]
    dflux /= b.sub_width
    step = (0.5 * np.asarray(tau))[..., None] * dflux[lead]
    evolved = traces[(slice(None),) + lead] - step[:, None]
    del f, dflux, step, traces, slopes  # the pass peaks here; only evolved and up are read
    # a slope zeroed after prediction leaves both traces unevolved at the
    # node value
    if not (ok := _admissible(model, evolved)).all():
        evolved = np.where(ok, evolved, up[lead][:, None])
    return _subface_rusanov(model, evolved, faces)


def low_order_residual(disc, subface_fluxes, fnum):
    """Nodal low-order residual with the shared element-face fluxes.

    Interior subface fluxes come from the subcell scheme; the first and
    last subcell of each element see the element-face numerical flux, the
    same one the high-order residual uses.  Scaled so the update reads
    u - (tau/dx) * residual.
    """
    g = np.array(subface_fluxes)
    # every p-th subface is an element face
    g[:, ::disc.ops.degree + 1] = fnum
    return ((g[:, 1:] - g[:, :-1]) / disc.subcells.w).reshape((len(g),) + disc.xn.shape)


def blended_update(high, low, alpha):
    """Convex combination of high- and low-order residuals, alpha per element."""
    # written so that NaN fails it
    if not ((alpha >= 0.0) & (alpha <= 1.0)).all():
        raise ValueError(f"blending coefficient outside [0, 1]: {alpha}")
    a = np.repeat(alpha, high.shape[-1]).reshape(high.shape[1:])
    out = high * (1.0 - a)
    return np.add(out, low * a, out=out)


# ----------------------------------------------------------------------
# interface flux correction


class FaceUpdates(NamedTuple):
    """The low-order updates of the two subcells next to every element face.

    Per face: the subcell flux at the face (flow), the start-of-step
    values of the minus subcell (last of the left element) and the plus
    subcell (first of the right one), tau over their widths, the subcell
    fluxes at their other faces, and the constraint values of the two
    updates with flow at the face, (K, 2, ne+1), minus side first.
    """

    subface_fluxes: np.ndarray
    flow: np.ndarray
    um: np.ndarray
    upl: np.ndarray
    cm: np.ndarray
    cp: np.ndarray
    f_int_m: np.ndarray
    f_int_p: np.ndarray
    cons: np.ndarray


def _side_updates(low, flux):
    """The two subcell updates of FaceUpdates low with flux at the face,
    (nvar, 2, ne+1), minus first."""
    out = np.empty(flux.shape[:1] + (2,) + flux.shape[1:], dtype=np.result_type(low.um, flux))
    np.subtract(low.um, low.cm * (flux - low.f_int_m), out=out[:, 0])
    np.subtract(low.upl, low.cp * (low.f_int_p - flux), out=out[:, 1])
    return out


FaceParts = namedtuple("FaceParts", "sf flow f_int dm dp um upl")


def face_update_parts(disc, subface_fluxes, u):
    """What low_order_face_updates reads besides tau: subface fluxes sf
    (nvar, intervals, ns+1), one interval for (nvar, ns+1) fluxes, their face
    and inner-subface values flow and f_int, the flux differences dm, dp
    across the two end subcells, and the states um, upl of those subcells."""
    b = disc.boundary
    sf = subface_fluxes if subface_fluxes.ndim == 3 else subface_fluxes[:, None]
    flow = sf[..., ::disc.ops.degree + 1]
    f_int = sf[..., b.inner_subfaces]
    return FaceParts(sf, flow, f_int, flow - f_int[:, :, 0], f_int[:, :, 1] - flow,
                     u[:, b.cells[:-1], -1], u[:, b.cells[1:], 0])


def low_order_face_updates(disc, parts, taus):
    """Build and check the low-order updates next to every element face.

    They depend on the start-of-step state and the stage interval only,
    so a step checks both stages' before its high-order work.  Raises
    StencilStateError when an update the interface limiter guards
    (Boundary.limited) leaves the admissible set: the limiter pulls the
    flux toward these updates, so no correction can help, but a shorter
    step can.

    parts are face_update_parts of the subface fluxes and the state, and
    taus a 1-D array of intervals; the subface fluxes have one interval
    per tau, or one that every interval shares.  Returns a tuple of one
    FaceUpdates per interval.  All intervals are built stacked and checked
    with one constraints call; the error carries stage, the first failing
    interval counted from 1, and face, the face of its lowest failing value.
    """
    model, b = disc.model, disc.boundary
    sf, flow, f_int, dm, dp, um, upl = parts
    # tau over the widths of the two end subcells
    c = taus[:, None, None] / b.end_widths
    sides = np.empty(um.shape[:1] + (len(taus), 2) + flow.shape[-1:],
                     dtype=np.result_type(um, sf))
    np.subtract(um[:, None], c[:, 0] * dm, out=sides[:, :, 0])
    np.subtract(upl[:, None], c[:, 1] * dp, out=sides[:, :, 1])
    cons = model.constraints(sides)
    bad = b.limited & ~(cons > 0.0)
    if bad.any():
        stage = int(np.argmax(bad.any(axis=(0, 2, 3))))
        k = int(np.argmax(bad[:, stage].any(axis=(1, 2))))
        values = np.where(bad[k, stage], cons[k, stage], np.inf)
        side, face = np.unravel_index(int(np.argmin(values)), values.shape)
        raise StencilStateError(f"low-order {model.constraint_names[k]}",
                                float(values[side, face]),
                                detail="subcell update left the admissible set",
                                stage=stage + 1, face=int(face))
    # a shared subface flux array serves every interval
    return tuple(FaceUpdates(sf[:, j], flow[:, j], um, upl, c[i, 0], c[i, 1], f_int[:, j, 0],
                             f_int[:, j, 1], cons[:, i])
                 for i, j in enumerate(np.minimum(np.arange(len(taus)), sf.shape[1] - 1)))


def blend_and_limit_face_flux(disc, fnum_ho, low, alpha):
    """Blend the interface flux toward the subcell flux and correct it.

    Starting from the alpha-weighted average of the high-order and subcell
    fluxes, each admissibility constraint is enforced in turn on the two
    tentative low-order updates adjacent to the face by pulling the flux
    toward the subcell flux exactly as far as concavity requires.  Faces
    whose tentative updates already satisfy the constraint (with the
    one-tenth-of-the-low-order-value margin) are left untouched.  low is
    the stage's checked FaceUpdates (low_order_face_updates).

    The constraint values of the tentative updates are evaluated once per
    candidate flux: a constraint that no face needs skips the theta work
    and leaves the flux at fcur + 0 * flow, which is what theta = 1
    computes and, for a finite flow, fcur itself, so the next constraint
    reuses the values.

    Returns the corrected fluxes and the (ne+1, K) per-face, per-constraint
    theta factors (all ones where no correction fired).
    """
    model, b = disc.model, disc.boundary
    ne = disc.grid.ncells
    flow = low.flow
    a = alpha[b.cells]
    af = 0.5 * (a[:-1] + a[1:])
    af[b.imposed] = 0.0
    fcur = (1.0 - af) * fnum_ho + af * flow
    thetas = np.ones((ne + 1, model.nconstraints))
    # ghost sides at non-periodic ends are left out by b.limited
    eps = 0.1 * low.cons
    cons = None
    for k in range(model.nconstraints):
        if cons is None:
            cons = model.constraints(_side_updates(low, fcur))
        pk = cons[k]
        ck = low.cons[k]
        need = b.limited & ~(pk >= eps[k])
        if not need.any():
            fcur = fcur + 0.0 * flow
            continue
        ratio = np.divide(eps[k] - ck, pk - ck, out=np.ones(need.shape), where=need)
        theta = np.clip(np.abs(ratio), 0.0, 1.0).min(axis=0)
        fcur = theta * fcur + (1.0 - theta) * flow
        thetas[:, k] = theta
        cons = None
    return fcur, thetas


# ----------------------------------------------------------------------
# nodal scaling limiter


def scaling_limiter(disc, u):
    """Squeeze each solution polynomial toward its element mean until all
    nodal constraint values clear one tenth of the mean's value.

    Constraints are enforced in their stated order so the concavity
    hypothesis of each later constraint holds when it is processed.  The
    element mean is preserved exactly.  The means' constraint values are
    evaluated once, the nodes' again only after a constraint squeezed u.
    """
    model = disc.model
    if model.nconstraints == 0:
        return u
    mean = node_sums(disc.ops.weights, u)
    cmean = model.constraints(mean)
    if not (cmean > 0.0).all():  # then name the first failing constraint
        k = int(np.argmax(~(cmean > 0.0).all(axis=1)))
        e = int(np.argmin(cmean[k]))
        raise AdmissibilityError(f"mean {model.constraint_names[k]}", float(cmean[k, e]),
                                 element=e,
                                 detail="inadmissible element mean reached the scaling limiter")
    cons = None
    for k in range(model.nconstraints):
        pbar = cmean[k]
        eps = 0.1 * pbar
        if cons is None:
            cons = model.constraints(u)
        pj = cons[k]
        need = ~(pj >= eps[:, None])
        if not need.any():
            continue
        ratio = np.divide(pbar[:, None] - eps[:, None], pbar[:, None] - pj,
                          out=np.ones(need.shape), where=need)
        theta = fold(np.minimum, np.clip(ratio, 0.0, 1.0), 1)
        u = mean[..., None] + theta[:, None] * (u - mean[..., None])
        cons = None
    return u
