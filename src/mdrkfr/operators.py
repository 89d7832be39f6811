"""Reference-element operators for the nodal solver.

Everything here lives on the reference interval [0, 1]: solution points,
quadrature weights, the Lagrange differentiation matrix, boundary
extrapolation vectors and the derivatives of the boundary correction
polynomials.  All operators are built once per (degree, point kind,
correction kind) and cached; the returned arrays are read-only.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

POINT_KINDS = ("gl", "gll")
CORRECTION_KINDS = ("radau", "g2")

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def legendre(n, x):
    """Evaluate the Legendre polynomial P_n and derivatives at x.

    Returns (P_n, P_n', P_n'') computed with the standard three-term
    recurrence and the derivative recurrences, which are exact at the
    endpoints as well.  x may be a scalar or an array.
    """
    x = np.asarray(x, dtype=float)
    p_prev, p = np.ones_like(x), x.copy()
    dp_prev, dp = np.zeros_like(x), np.ones_like(x)
    d2p_prev, d2p = np.zeros_like(x), np.zeros_like(x)
    if n == 0:
        return p_prev, dp_prev, d2p_prev
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dp_next = dp_prev + (2 * k + 1) * p
        d2p_next = d2p_prev + (2 * k + 1) * dp
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
        d2p_prev, d2p = d2p, d2p_next
    return p, dp, d2p


def gauss_legendre(npts):
    """Nodes and weights of the npts-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_npts starting from the Chebyshev approximation
    of the roots, converged to machine precision.
    """
    i = np.arange(npts)
    x = np.cos(np.pi * (4 * i + 3) / (4 * npts + 2))
    for _ in range(_NEWTON_MAXIT):
        p, dp, _ = legendre(npts, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp, _ = legendre(npts, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def gauss_lobatto(npts):
    """Nodes and weights of the npts-point Gauss-Lobatto rule on [-1, 1].

    Interior nodes are the roots of P'_{npts-1}, found by Newton iteration
    from the Chebyshev-Lobatto guess; endpoints are included exactly.
    """
    if npts < 2:
        raise ConfigurationError("Gauss-Lobatto rule needs at least 2 points")
    n = npts - 1
    x = np.cos(np.pi * np.arange(1, n) / n)  # interior initial guess
    for _ in range(_NEWTON_MAXIT):
        _, dp, d2p = legendre(n, x)
        dx = dp / d2p
        x = x - dx
        if x.size == 0 or np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
    p, _, _ = legendre(n, nodes)
    w = 2.0 / (n * (n + 1) * p * p)
    return nodes, w


@dataclass(frozen=True)
class NodeSet:
    """Solution points and quadrature weights on [0, 1]."""

    degree: int
    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def build_nodeset(degree, kind):
    """Build the degree+1 solution points of the requested kind on [0, 1]."""
    if kind not in POINT_KINDS:
        raise ConfigurationError(f"unknown point kind {kind!r}; expected one of {POINT_KINDS}")
    if degree < 1:
        raise ConfigurationError(f"degree must be >= 1, got {degree}")
    if kind == "gl":
        x, w = gauss_legendre(degree + 1)
    else:
        x, w = gauss_lobatto(degree + 1)
    return NodeSet(degree, kind, (x + 1.0) / 2.0, w / 2.0)


def _barycentric_weights(nodes):
    n = len(nodes)
    lam = np.ones(n)
    for p in range(n):
        lam[p] = 1.0 / np.prod(nodes[p] - np.delete(nodes, p))
    return lam


def build_diff_matrix(ns):
    """Differentiation matrix D with D[p, q] = l_q'(xi_p).

    Built from barycentric weights; exact for polynomial nodal data up to
    the nodeset degree.  Diagonal entries are set by the zero row-sum
    property (derivative of constants vanishes).
    """
    xi = ns.nodes
    lam = _barycentric_weights(xi)
    n = len(xi)
    d = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            if p != q:
                d[p, q] = (lam[q] / lam[p]) / (xi[p] - xi[q])
        d[p, p] = -np.sum(d[p, :])
    return d


def _lagrange_values(ns, z):
    """Values l_p(z) of all Lagrange basis polynomials at the point z."""
    xi = ns.nodes
    hit = np.nonzero(np.abs(xi - z) < 1e-14)[0]
    out = np.zeros(len(xi))
    if hit.size:
        out[hit[0]] = 1.0  # exact node selection, bitwise
        return out
    lam = _barycentric_weights(xi)
    terms = lam / (z - xi)
    return terms / np.sum(terms)


def build_face_vandermonde(ns):
    """Extrapolation vectors (VL, VR) with VL[p] = l_p(0), VR[p] = l_p(1)."""
    return _lagrange_values(ns, 0.0), _lagrange_values(ns, 1.0)


def _radau_right(m, x):
    """Right Radau polynomial of degree m and its derivative at x.

    R(x) = (-1)^m / 2 * (P_m(x) - P_{m-1}(x)); satisfies R(-1) = 1, R(1) = 0.
    """
    pm, dpm, _ = legendre(m, x)
    pm1, dpm1, _ = legendre(m - 1, x)
    sign = 0.5 * (-1.0) ** m
    return sign * (pm - pm1), sign * (dpm - dpm1)


def _correction_left_derivative(ns, correction):
    """g_L'(xi_p) for the requested correction polynomial on [0, 1].

    g_L is degree N+1 with g_L(0) = 1, g_L(1) = 0.  The Radau choice is the
    right Radau polynomial mapped to [0, 1]; g2 is the standard weighted
    combination of two successive Radau polynomials whose derivative also
    vanishes at the far boundary.
    """
    m = ns.degree + 1
    x = 2.0 * ns.nodes - 1.0
    if correction == "radau":
        _, dg = _radau_right(m, x)
    else:
        _, dgm = _radau_right(m, x)
        _, dgm1 = _radau_right(m - 1, x)
        dg = ((m - 1) * dgm + m * dgm1) / (2 * m - 1)
    return 2.0 * dg  # chain rule for the [0,1] -> [-1,1] map


def build_correction_derivatives(ns, correction):
    """Nodal derivative vectors (bL, bR) of the two correction polynomials.

    bR follows from the reflection g_R(xi) = g_L(1 - xi), evaluated
    analytically rather than by reindexing so that asymmetric nodesets
    would also be handled.
    """
    if correction not in CORRECTION_KINDS:
        raise ConfigurationError(
            f"unknown correction kind {correction!r}; expected one of {CORRECTION_KINDS}")
    bl = _correction_left_derivative(ns, correction)
    mirrored = NodeSet(ns.degree, ns.kind, np.ascontiguousarray((1.0 - ns.nodes)[::-1]),
                       np.ascontiguousarray(ns.weights[::-1]))
    br = -_correction_left_derivative(mirrored, correction)[::-1]
    return bl, br


def build_d1(d, bl, br, vl, vr):
    """Combined derivative matrix D1 = D - bL VL^T - bR VR^T."""
    if d.shape[0] != d.shape[1] or d.shape[0] != len(bl):
        raise ValueError("inconsistent operator shapes")
    return d - np.outer(bl, vl) - np.outer(br, vr)


@dataclass(frozen=True)
class ReferenceOperators:
    """Immutable bundle of all reference-element operators.  V is (VL, VR)
    stacked; DB is [D | bL | bR], the corrected flux derivative as one
    matrix over the nodal values and the two face jumps."""

    nodeset: NodeSet
    correction: str
    D: np.ndarray
    VL: np.ndarray
    VR: np.ndarray
    bL: np.ndarray
    bR: np.ndarray
    D1: np.ndarray
    V: np.ndarray
    DB: np.ndarray

    def __post_init__(self):
        for a in (self.D, self.VL, self.VR, self.bL, self.bR, self.D1, self.V, self.DB):
            a.setflags(write=False)

    @property
    def degree(self):
        return self.nodeset.degree

    @property
    def nodes(self):
        return self.nodeset.nodes

    @property
    def weights(self):
        return self.nodeset.weights


def node_sums(v, q):
    """Node-axis sums of variable-major q, (nvar, ne, p), weighted by the
    vector v, (nvar, ne), or by each row of a (m, p) v, (nvar, m, ne).

    Bit for bit np.einsum("p,epv->ev", row, q) with the variable last,
    which for systems sums from zero in node order, as einsum over a
    node-major (p, nvar, ne) copy does with long inner loops; for one
    variable einsum sums otherwise and runs on the same memory.
    """
    nvar, ne, p = q.shape
    if nvar == 1:
        return np.einsum("jp,epv->vje" if v.ndim == 2 else "p,epv->ve", v, q.reshape(ne, p, 1))
    qt = np.ascontiguousarray(q.transpose(2, 0, 1))
    return np.einsum("jp,pvn->vjn" if v.ndim == 2 else "p,pvn->vn", v, qt)


@lru_cache(maxsize=None)
def make_operators(degree=3, kind="gl", correction="radau"):
    """Build (and cache) the full operator set for one discretization."""
    ns = build_nodeset(degree, kind)
    d = build_diff_matrix(ns)
    vl, vr = build_face_vandermonde(ns)
    bl, br = build_correction_derivatives(ns, correction)
    return ReferenceOperators(ns, correction, d, vl, vr, bl, br, build_d1(d, bl, br, vl, vr),
                              np.stack([vl, vr]), np.hstack([d, bl[:, None], br[:, None]]))
