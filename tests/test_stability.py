import numpy as np
import pytest

from mdrkfr import core, models, ssprk, stability
from mdrkfr.errors import ConfigurationError
from mdrkfr.operators import make_operators

FULL_KAPPAS = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
SEARCHES = [("gl", "radau", "d1"), ("gl", "radau", "d2"),
            ("gll", "g2", "d1"), ("gll", "g2", "d2")]


@pytest.fixture(scope="module")
def ops_gl():
    return make_operators(3, "gl", "radau")


@pytest.fixture(scope="module")
def ops_gll():
    return make_operators(3, "gll", "g2")


def printed_d2_blocks(ops, sigma):
    """Closed-form stage matrices as an independent assembly oracle.

    The zero-block coefficient sign is fixed so constants are preserved;
    the printed form carries the opposite sign, which fails that check.
    """
    eye = np.eye(ops.degree + 1)
    t1 = eye - sigma / 4 * ops.D
    t2 = eye - sigma / 6 * ops.D
    t2s = -sigma / 3 * ops.D
    blvr = np.outer(ops.bL, ops.VR)
    cell = ops.D - np.outer(ops.bL, ops.VL)
    a1_m1 = 0.5 * blvr @ t1
    a1_0 = 0.5 * cell @ t1
    mix = t2 + t2s @ (eye - sigma * a1_0)
    return {
        -2: -blvr @ t2s @ a1_m1,
        -1: blvr @ mix - sigma * cell @ t2s @ a1_m1,
        0: cell @ mix,
        1: np.zeros_like(eye),
        2: np.zeros_like(eye),
    }


def a_matrices(setup):
    """Blocks in the -sigma^k A_k sign convention used in reports."""
    p = setup.ops.degree + 1
    eye = np.eye(p)
    c = setup.update
    s = setup.sigma
    return {
        -2: -c.get(-2, np.zeros((p, p))) / s**2,
        -1: -c.get(-1, np.zeros((p, p))) / s,
        0: (eye - c[0]) / s,
        +1: -c.get(+1, np.zeros((p, p))) / s,
        +2: -c.get(+2, np.zeros((p, p))) / s**2,
    }


def test_d2_matrices_match_closed_forms(ops_gl):
    sigma = 0.09
    setup = stability.assemble_matrices(ops_gl, sigma, "d2")
    oracle = printed_d2_blocks(ops_gl, sigma)
    derived = a_matrices(setup)
    for k in (-2, -1, 0, 1, 2):
        assert np.allclose(derived[k], oracle[k], atol=1e-12), f"block {k}"


def test_d2_upwind_structure(ops_gl):
    setup = stability.assemble_matrices(ops_gl, 0.1, "d2")
    assert +1 not in setup.update or np.allclose(setup.update[+1], 0.0)
    assert +2 not in setup.update or np.allclose(setup.update[+2], 0.0)


def test_d1_has_downwind_coupling(ops_gl):
    setup = stability.assemble_matrices(ops_gl, 0.08, "d1")
    assert np.abs(setup.update[+1]).max() > 1e-8
    assert np.abs(setup.update[+2]).max() > 1e-12


@pytest.mark.parametrize("diss", ["d1", "d2"])
def test_update_preserves_constants(ops_gl, diss):
    # spatially constant data must pass through unchanged for any sigma
    for sigma in (0.02, 0.08, 0.2):
        setup = stability.assemble_matrices(ops_gl, sigma, diss)
        total = sum(setup.update.values())
        assert np.allclose(total @ np.ones(4), np.ones(4), atol=1e-13)


def test_amplification_constant_mode(ops_gl):
    setup = stability.assemble_matrices(ops_gl, 0.09, "d2")
    h = stability.amplification_matrix(setup, 0.0)
    eig = np.linalg.eigvals(h)
    assert np.min(np.abs(eig - 1.0)) < 1e-12


def test_amplification_conjugate_symmetry(ops_gl):
    setup = stability.assemble_matrices(ops_gl, 0.09, "d2")
    e1 = np.sort_complex(np.linalg.eigvals(stability.amplification_matrix(setup, 1.1)))
    e2 = np.sort_complex(np.conj(np.linalg.eigvals(
        stability.amplification_matrix(setup, 2 * np.pi - 1.1))))
    assert np.allclose(e1, e2, atol=1e-12)


def test_radius_at_reported_cfl(ops_gl):
    setup = stability.assemble_matrices(ops_gl, 0.107, "d2")
    kappas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    assert stability.max_spectral_radius(setup, kappas) <= 1 + 1e-8


def test_monotone_onset(ops_gl):
    # the radius crosses one exactly once on the scanned grid
    sigmas = np.linspace(0.02, 0.2, 30)
    rad = np.array([r for _, r in stability.cfl_scan(ops_gl, "d2", sigmas, nkappa=256)])
    stable = rad <= 1 + 1e-10
    assert stable[0] and not stable[-1]
    flips = np.sum(stable[:-1] != stable[1:])
    assert flips == 1


def test_find_cfl_reproduces_reported_values(ops_gl, ops_gll):
    assert stability.find_cfl(ops_gl, "d2") == pytest.approx(0.107, abs=1e-3)
    assert stability.find_cfl(ops_gll, "d2") == pytest.approx(0.224, abs=1e-3)


def test_cfl_ratios(ops_gl, ops_gll):
    # soft cross-checks of the variant ratios
    g2_d2 = stability.find_cfl(ops_gll, "d2")
    radau_d2 = stability.find_cfl(ops_gl, "d2")
    assert g2_d2 / radau_d2 == pytest.approx(2.09, abs=0.06)
    radau_d1 = stability.find_cfl(ops_gl, "d1")
    g2_d1 = stability.find_cfl(ops_gll, "d1")
    assert radau_d2 / radau_d1 > 1.1
    assert g2_d2 / g2_d1 > 1.3


def test_point_kind_does_not_move_cfl():
    # nodal bases of the same polynomial space are similar matrices
    a = stability.find_cfl(make_operators(3, "gl", "radau"), "d2")
    b = stability.find_cfl(make_operators(3, "gll", "radau"), "d2")
    assert a == pytest.approx(b, abs=2e-3)


def test_solver_matches_amplification_prediction(ops_gl):
    # the strongest coupling test: a Fourier mode stepped by the actual
    # solver must follow H exactly
    rng = np.random.default_rng(42)
    ne = 16
    model = models.LinearAdvection(1.0)
    worst = 0.0
    for _ in range(10):
        sigma = float(rng.uniform(0.02, 0.107))
        m = int(rng.integers(1, ne // 2))
        cfg = core.RunConfig(final_time=1.0, cfl=sigma, dissipation="d2",
                             face_scheme="ea")
        grid = core.make_grid(0.0, 1.0, ne)
        disc = core.make_discretization(grid, model, cfg)
        dt = sigma / ne
        uhat = rng.normal(size=4) + 1j * rng.normal(size=4)
        phase = np.exp(2j * np.pi * m * grid.faces[:-1])
        u0 = uhat[None, :, None] * phase[:, None, None]
        u1, _ = core.mdrk_step(disc, u0, 0.0, dt)
        setup = stability.assemble_matrices(ops_gl, sigma, "d2")
        h = stability.amplification_matrix(setup, 2 * np.pi * m / ne)
        predicted = (h @ uhat)[None, :, None] * phase[:, None, None]
        worst = max(worst, float(np.abs(u1 - predicted).max()))
    assert worst < 1e-12


def test_rkfr_baseline_cfl(ops_gl):
    sigma = stability.find_rkfr_cfl(ops_gl)
    assert 0.15 < sigma < 0.3
    kappas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    g = stability.rkfr_update_matrix(ops_gl, sigma, kappas)
    assert float(np.max(np.abs(np.linalg.eigvals(g)))) <= 1 + 1e-9


def test_default_cfl_lookup():
    assert stability.default_cfl("radau", "d2") == pytest.approx(0.107)
    assert stability.default_cfl("g2", "d2") == pytest.approx(0.224)
    # start-of-step-trace defaults sit at the certified values, below the
    # blow-up-experiment numbers
    assert stability.default_cfl("radau", "d1") <= 0.09
    assert stability.default_cfl("g2", "d1") <= 0.16


@pytest.mark.parametrize("nkappa", [1, 2, 7, 256, 1023, 1024])
def test_half_wavenumbers_cover_every_conjugate_pair(nkappa):
    full = np.linspace(0.0, 2 * np.pi, nkappa, endpoint=False)
    half = stability._wavenumbers(nkappa)
    assert len(half) == nkappa // 2 + 1
    assert np.array_equal(half, full[:len(half)])
    assert half.max() <= np.pi
    # every sample of the full grid is a half-set sample or its conjugate
    folded = np.minimum(full, 2 * np.pi - full)
    assert np.abs(folded[:, None] - half[None, :]).min(axis=1).max() < 1e-12


@pytest.fixture(scope="module")
def certified():
    """Certified CFL of every search; the baseline's under dissipation None."""
    out = {(p, c, d): stability.find_cfl(make_operators(3, p, c), d) for p, c, d in SEARCHES}
    out[("gl", "radau", None)] = stability.find_rkfr_cfl(make_operators(3, "gl", "radau"))
    return out


@pytest.mark.parametrize("points,correction,diss", SEARCHES)
def test_half_set_radius_equals_full_set_radius(certified, points, correction, diss):
    ops = make_operators(3, points, correction)
    half = stability._wavenumbers(1024)
    for sigma in (0.05, certified[(points, correction, diss)], 0.3):
        setup = stability.assemble_matrices(ops, sigma, diss)
        assert stability.max_spectral_radius(setup, half) == pytest.approx(
            stability.max_spectral_radius(setup, FULL_KAPPAS), abs=1e-13)


def test_spectral_mapping_radius_matches_update_matrix(certified, ops_gl):
    lam = np.linalg.eigvals(stability._rkfr_symbol(ops_gl, FULL_KAPPAS))
    for sigma in (0.1, certified[("gl", "radau", None)], 0.3):
        mapped = np.max(np.abs(ssprk.amplification(sigma * lam[..., None, None])))
        direct = np.max(np.abs(np.linalg.eigvals(
            stability.rkfr_update_matrix(ops_gl, sigma, FULL_KAPPAS))))
        assert mapped == pytest.approx(direct, abs=1e-12)


def test_update_matrix_is_ssprk_of_symbol(ops_gl):
    m = -0.2 * (ops_gl.D - np.outer(ops_gl.bL, ops_gl.VL)
                + np.exp(-1j * FULL_KAPPAS)[:, None, None] * np.outer(ops_gl.bL, ops_gl.VR))
    assert np.array_equal(stability.rkfr_update_matrix(ops_gl, 0.2, FULL_KAPPAS),
                          ssprk.amplification(m))


def _full_radius(ops, diss, sigma):
    if diss is None:
        g = stability.rkfr_update_matrix(ops, sigma, FULL_KAPPAS)
        return float(np.max(np.abs(np.linalg.eigvals(g))))
    setup = stability.assemble_matrices(ops, sigma, diss)
    return stability.max_spectral_radius(setup, FULL_KAPPAS)


@pytest.mark.parametrize("points,correction,diss",
                         SEARCHES + [("gl", "radau", None)])
def test_certified_cfl_is_sharp_on_full_set(certified, points, correction, diss):
    ops = make_operators(3, points, correction)
    sigma = certified[(points, correction, diss)]
    assert _full_radius(ops, diss, sigma) <= 1 + 1e-10
    assert _full_radius(ops, diss, sigma + 5e-4) > 1 + 1e-10


def test_certified_cfls_are_unchanged(certified):
    # exact floats: the search's scan and bisection are fixed, so any
    # change in the radius evaluation that flips a decision shows here
    assert certified == {
        ("gl", "radau", "d1"): 0.08464592161016951,
        ("gl", "radau", "d2"): 0.10719067796610171,
        ("gll", "g2", "d1"): 0.14529449152542373,
        ("gll", "g2", "d2"): 0.224677436440678,
        ("gl", "radau", None): 0.21515148305084747,
    }


@pytest.mark.parametrize("nkappa", [0, -4])
def test_nonpositive_kappa_samples_are_refused(ops_gl, nkappa):
    with pytest.raises(ConfigurationError, match="wavenumber"):
        stability.find_cfl(ops_gl, "d2", nkappa=nkappa)
    with pytest.raises(ConfigurationError, match="wavenumber"):
        stability.cfl_scan(ops_gl, "d2", [0.05], nkappa=nkappa)
    with pytest.raises(ConfigurationError, match="wavenumber"):
        stability.find_rkfr_cfl(ops_gl, nkappa=nkappa)
