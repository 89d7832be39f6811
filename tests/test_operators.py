import numpy as np
import pytest

from mdrkfr.errors import ConfigurationError
from mdrkfr.operators import (_radau_right, build_correction_derivatives, build_d1,
                              build_diff_matrix, build_face_vandermonde,
                              build_nodeset, gauss_legendre, make_operators)


@pytest.fixture(params=["gl", "gll"])
def kind(request):
    return request.param


def test_gll_degree1_is_trapezoid():
    ns = build_nodeset(1, "gll")
    assert np.allclose(ns.nodes, [0.0, 1.0])
    assert np.allclose(ns.weights, [0.5, 0.5])


def test_gl_degree3_weights_match_golub_welsch():
    # independent oracle: numpy's Golub-Welsch nodes mapped to [0, 1]
    ns = build_nodeset(3, "gl")
    x_ref, w_ref = np.polynomial.legendre.leggauss(4)
    assert np.allclose(ns.nodes, (x_ref + 1) / 2, atol=1e-14)
    assert np.allclose(ns.weights, w_ref / 2, atol=1e-14)
    assert np.allclose(ns.weights, [0.173927, 0.326073, 0.326073, 0.173927], atol=5e-7)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6])
def test_quadrature_exactness(degree, kind):
    ns = build_nodeset(degree, kind)
    exact_up_to = 2 * degree + 1 if kind == "gl" else 2 * degree - 1
    for m in range(exact_up_to + 1):
        quad = float(np.sum(ns.weights * ns.nodes ** m))
        assert quad == pytest.approx(1.0 / (m + 1), abs=1e-13), f"monomial {m}"


def test_gl3_degree7_moment():
    ns = build_nodeset(3, "gl")
    assert float(np.sum(ns.weights * ns.nodes ** 7)) == pytest.approx(1 / 8, abs=1e-13)


def test_weights_sum_to_one(kind):
    for degree in (1, 3, 5):
        ns = build_nodeset(degree, kind)
        assert float(ns.weights.sum()) == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(ns.nodes) > 0)


def test_bad_nodeset_requests():
    with pytest.raises(ConfigurationError):
        build_nodeset(0, "gll")
    with pytest.raises(ConfigurationError):
        build_nodeset(3, "chebyshev")


def test_diff_matrix_degree1_gll():
    ns = build_nodeset(1, "gll")
    assert np.allclose(build_diff_matrix(ns), [[-1.0, 1.0], [-1.0, 1.0]])


def test_diff_matrix_exact_on_polynomials(kind):
    ns = build_nodeset(3, kind)
    d = build_diff_matrix(ns)
    assert np.allclose(d @ np.ones(4), 0.0, atol=1e-13)
    vals = ns.nodes ** 3
    assert np.allclose(d @ vals, 3 * ns.nodes ** 2, atol=1e-13)


def test_diff_matrix_nilpotent_on_polynomials(kind):
    ns = build_nodeset(3, kind)
    d = build_diff_matrix(ns)
    vals = 1.7 * ns.nodes ** 3 - 0.3 * ns.nodes + 2.0
    out = vals.copy()
    for _ in range(4):
        out = d @ out
    assert np.allclose(out, 0.0, atol=1e-10)


def test_face_vandermonde_gll_selects_endpoints():
    ns = build_nodeset(3, "gll")
    vl, vr = build_face_vandermonde(ns)
    assert (vl == np.eye(4)[0]).all()
    assert (vr == np.eye(4)[3]).all()


def test_face_vandermonde_partition_of_unity(kind):
    ns = build_nodeset(3, kind)
    vl, vr = build_face_vandermonde(ns)
    assert float(vl.sum()) == pytest.approx(1.0, abs=1e-14)
    assert float(vr.sum()) == pytest.approx(1.0, abs=1e-14)


def test_face_vandermonde_extrapolates_quadratic():
    ns = build_nodeset(3, "gl")
    _, vr = build_face_vandermonde(ns)
    assert float(vr @ ns.nodes ** 2) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("correction", ["radau", "g2"])
def test_correction_endpoint_integral(kind, correction):
    # quadrature of the derivative recovers the endpoint difference
    ns = build_nodeset(3, kind)
    bl, br = build_correction_derivatives(ns, correction)
    assert float(np.sum(ns.weights * bl)) == pytest.approx(-1.0, abs=1e-13)
    assert float(np.sum(ns.weights * br)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("correction", ["radau", "g2"])
def test_correction_reflection_symmetry(kind, correction):
    ns = build_nodeset(3, kind)
    bl, br = build_correction_derivatives(ns, correction)
    assert np.allclose(br, -bl[::-1], atol=1e-12)


def correction_left_value(ns, correction, xi):
    """g_L(xi) itself, for verification against closed forms."""
    m = ns.degree + 1
    x = 2.0 * np.asarray(xi, dtype=float) - 1.0
    if correction == "radau":
        g, _ = _radau_right(m, x)
        return g
    gm, _ = _radau_right(m, x)
    gm1, _ = _radau_right(m - 1, x)
    return ((m - 1) * gm + m * gm1) / (2 * m - 1)


def test_radau_midpoint_value():
    # for degree 3 the left correction at the midpoint is 3/16 exactly:
    # half the value of the degree-4 Legendre polynomial at the origin
    ns = build_nodeset(3, "gl")
    assert float(correction_left_value(ns, "radau", 0.5)) == pytest.approx(3 / 16, abs=1e-14)


def test_correction_endpoint_values():
    ns = build_nodeset(3, "gl")
    for corr in ("radau", "g2"):
        assert float(correction_left_value(ns, corr, 0.0)) == pytest.approx(1.0, abs=1e-13)
        assert float(correction_left_value(ns, corr, 1.0)) == pytest.approx(0.0, abs=1e-13)


def test_unknown_correction():
    ns = build_nodeset(3, "gl")
    with pytest.raises(ConfigurationError):
        build_correction_derivatives(ns, "dg2")


def test_d1_identity(kind):
    ops = make_operators(3, kind, "radau")
    expected = ops.D - np.outer(ops.bL, ops.VL) - np.outer(ops.bR, ops.VR)
    assert np.allclose(ops.D1, expected, atol=1e-14)
    # zero corrections collapse to the bare differentiation matrix
    z = np.zeros(4)
    assert np.allclose(build_d1(ops.D, z, z, ops.VL, ops.VR), ops.D)


def test_d1_row_sums(kind):
    ops = make_operators(3, kind, "radau")
    assert np.allclose(ops.D1 @ np.ones(4), -(ops.bL + ops.bR), atol=1e-13)


def test_corrected_derivative_exact_with_upwind_faces():
    # a degree-3 flux with exact face data reproduces its own derivative
    ops = make_operators(3, "gl", "radau")
    xi = ops.nodes
    coeffs = np.array([0.3, -1.2, 0.8, 2.0])
    poly = np.polynomial.Polynomial(coeffs)
    f = poly(xi)
    f_left, f_right = poly(0.0), poly(1.0)
    deriv = (f_left - ops.VL @ f) * ops.bL + ops.D @ f + (f_right - ops.VR @ f) * ops.bR
    assert np.allclose(deriv, poly.deriv()(xi), atol=1e-12)


def test_operator_cache_returns_same_object():
    assert make_operators(3, "gl", "radau") is make_operators(3, "gl", "radau")


def test_gauss_legendre_against_numpy():
    for n in (2, 5, 9):
        x, w = gauss_legendre(n)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.allclose(x, xr, atol=1e-14)
        assert np.allclose(w, wr, atol=1e-14)
