import threading

import numpy as np
import pytest

from fourier_oracle import printed_d2_blocks, printed_d2_symbol
from mdrkfr import core, models, ssprk, stability
from mdrkfr.errors import ConfigurationError
from mdrkfr.operators import make_operators

FULL_KAPPAS = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
SEARCHES = [("gl", "radau", "d1"), ("gl", "radau", "d2"),
            ("gll", "g2", "d1"), ("gll", "g2", "d2")]
PAIRINGS = [("gl", "radau"), ("gll", "g2")]
# bound on the downwind response of a d2 step, relative to its largest
# entry: 5.4e-16 measured at degree 3, sigma <= 0.6
DOWNWIND_ROUND_OFF = 2e-15


@pytest.fixture(scope="module")
def ops_gl():
    return make_operators(3, "gl", "radau")


@pytest.fixture(scope="module")
def ops_gll():
    return make_operators(3, "gll", "g2")


def a_matrices(c, s):
    """Blocks C_k at CFL s in the -sigma^k A_k sign convention used in reports."""
    p = len(c[0])
    eye = np.eye(p)
    return {
        -2: -c.get(-2, np.zeros((p, p))) / s**2,
        -1: -c.get(-1, np.zeros((p, p))) / s,
        0: (eye - c[0]) / s,
        +1: -c.get(+1, np.zeros((p, p))) / s,
        +2: -c.get(+2, np.zeros((p, p))) / s**2,
    }


def test_d2_matrices_match_closed_forms(ops_gl):
    sigma = 0.09
    blocks = stability.assemble_matrices(ops_gl, sigma, "d2")
    oracle = printed_d2_blocks(ops_gl, sigma)
    derived = a_matrices(blocks, sigma)
    for k in (-2, -1, 0, 1, 2):
        assert np.allclose(derived[k], oracle[k], atol=1e-12), f"block {k}"


def test_d2_upwind_structure(ops_gl):
    # upwind in exact arithmetic; the solver's step leaves round-off in
    # some downwind blocks (test_d2_step_is_upwind_to_round_off)
    for sigma in (0.02, 0.1, 0.107, 0.3):
        update = stability.assemble_matrices(ops_gl, sigma, "d2")
        assert {-2, -1, 0} <= set(update) <= {-2, -1, 0, 1, 2}
        scale = max(np.abs(m).max() for m in update.values())
        for k in set(update) & {1, 2}:
            assert np.abs(update[k]).max() <= DOWNWIND_ROUND_OFF * scale


def test_d1_has_downwind_coupling(ops_gl):
    blocks = stability.assemble_matrices(ops_gl, 0.08, "d1")
    assert np.abs(blocks[+1]).max() > 1e-8
    assert np.abs(blocks[+2]).max() > 1e-12


def _probe_response(points, correction, diss, sigma, face_scheme="ae", ncells=9):
    """One mdrk_step of unit-speed advection on ncells periodic unit cells
    from the unit probes: variable j is 1 at node j of the middle cell."""
    cfg = core.RunConfig(points=points, correction=correction, dissipation=diss,
                         face_scheme=face_scheme)
    disc = core.make_discretization(core.make_grid(0.0, float(ncells), ncells),
                                    models.LinearAdvection(1.0), cfg)
    u = np.zeros((ncells, 4, 4))
    u[ncells // 2] = np.eye(4)
    return core.mdrk_step(disc, u, 0.0, sigma)[0], disc, u


@pytest.mark.parametrize("sigma", [0.02, 0.107, 0.3, 0.6])
@pytest.mark.parametrize("diss", ["d1", "d2"])
@pytest.mark.parametrize("points,correction", PAIRINGS)
def test_step_reaches_two_cells_each_side(points, correction, diss, sigma):
    # the premise of the five-cell probe: nothing reaches three cells away,
    # so the five cells of assemble_matrices see the step of an open line
    response, _, _ = _probe_response(points, correction, diss, sigma)
    assert not response[:2].any() and not response[7:].any()
    blocks = stability.assemble_matrices(make_operators(3, points, correction), sigma, diss)
    for k in range(-2, 3):
        assert np.array_equal(response[4 - k], blocks.get(k, np.zeros((4, 4)))), k


@pytest.mark.parametrize("sigma", [0.02, 0.107, 0.3, 0.6])
@pytest.mark.parametrize("points,correction", PAIRINGS)
def test_d2_step_is_upwind_to_round_off(points, correction, sigma):
    # the downwind face flux is (f+ - u+) / 2 of the probed cell, zero in
    # exact arithmetic; the five-point increment of the linear flux is not
    # u1 bit for bit, so round-off of the largest entry is left
    response, _, _ = _probe_response(points, correction, "d2", sigma)
    assert np.abs(response[2:4]).max() <= DOWNWIND_ROUND_OFF * np.abs(response).max()


@pytest.mark.parametrize("points,correction", PAIRINGS)
def test_baseline_operator_reaches_the_upwind_cell_only(points, correction):
    _, disc, u = _probe_response(points, correction, "d2", 0.1)
    response = core.element_major(core.rkfr_rhs(disc, core.variable_major(u), 0.0))
    assert response[4].any() and response[5].any()
    assert not response[:4].any() and not response[6:].any()


@pytest.mark.parametrize("sigma", [0.02, 0.107, 0.3, 0.6])
@pytest.mark.parametrize("diss", ["d1", "d2"])
@pytest.mark.parametrize("points,correction", PAIRINGS)
def test_face_schemes_give_one_linear_step(points, correction, diss, sigma):
    # for a linear flux ea faces are the extrapolated ones, so the probe's
    # cheaper ae faces stand for both
    ea, _, _ = _probe_response(points, correction, diss, sigma, face_scheme="ea")
    ae, _, _ = _probe_response(points, correction, diss, sigma, face_scheme="ae")
    assert np.abs(ea - ae).max() <= 1e-13


@pytest.mark.parametrize("diss", ["d1", "d2"])
def test_update_preserves_constants(ops_gl, diss):
    # spatially constant data must pass through unchanged for any sigma
    for sigma in (0.02, 0.08, 0.2):
        blocks = stability.assemble_matrices(ops_gl, sigma, diss)
        total = sum(blocks.values())
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
    # solver must follow the closed-form H exactly
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
        h = printed_d2_symbol(ops_gl, sigma, 2 * np.pi * m / ne)
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


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -1e-3])
def test_scan_refuses_bad_cfl(ops_gl, sigma):
    # NaN used to reach eigvals as a LinAlgError, and would now fail the
    # probe step's admissibility check
    with pytest.raises(ConfigurationError, match="sigmas"):
        stability.cfl_scan(ops_gl, "d2", [0.05, sigma], nkappa=8)


def test_unknown_dissipation_is_refused(ops_gl):
    with pytest.raises(ConfigurationError, match="dissipation"):
        stability.find_cfl(ops_gl, "d3", nkappa=8)


@pytest.fixture
def no_trials(monkeypatch):
    """Fail at the first trial CFL, so a missing refusal fails at once:
    with tol = 0 the bisection would never end."""
    def trial(*args):
        raise AssertionError("the search ran a trial")
    monkeypatch.setattr(stability, "assemble_matrices", trial)
    monkeypatch.setattr(ssprk, "amplification", trial)


@pytest.mark.parametrize("name,value", [
    ("tol", 0.0),
    ("tol", -1e-3),
    ("tol", np.nan),
    ("sigma_max", np.nan),
    ("sigma_max", np.inf),
    ("sigma_max", 1e-4),    # below tol
    ("radius_tol", np.nan),
    ("radius_tol", -1e-3),
    ("nkappa", 64.0),
    ("nkappa", True),       # one sample
])
def test_degenerate_search_arguments_are_refused(ops_gl, no_trials, name, value):
    with pytest.raises(ConfigurationError, match=name):
        stability.find_cfl(ops_gl, "d2", **{name: value})
    if name != "nkappa":
        # the baseline solves its symbol before searching
        with pytest.raises(ConfigurationError, match=name):
            stability.find_rkfr_cfl(ops_gl, nkappa=2, **{name: value})


@pytest.mark.parametrize("search, expected", [
    (lambda: stability.find_cfl(make_operators(1, "gll", "g2"), "d2"), 0.9746),
    (lambda: stability.find_rkfr_cfl(make_operators(1, "gl", "radau")), 0.6628),
    (lambda: stability.find_rkfr_cfl(make_operators(1, "gl", "g2")), 1.5513),
    (lambda: stability.find_rkfr_cfl(make_operators(2, "gl", "g2")), 0.6705),
], ids=["find_cfl-1-g2-d2", "rkfr-1-radau", "rkfr-1-g2", "rkfr-2-g2"])
def test_search_scans_on_past_a_stable_sigma_max(search, expected):
    # every trial of the default scan up to sigma_max = 0.6 is stable for
    # these limits; the search used to return 0.6 itself
    assert abs(search() - expected) <= 2 * 5e-4


def test_search_stable_at_every_trial_is_refused():
    trials = []

    def radius(sigma, limit):
        trials.append(sigma)
        return 0.0

    with pytest.raises(ConfigurationError, match="stable at every trial"):
        stability._largest_stable(radius, 0.6, 5e-4, 1e-10)
    # tol, then 59 new trials per scan of the doubled range
    assert len(trials) == 1 + 59 * (stability.SCAN_DOUBLINGS + 1)
    assert max(trials) == 0.6 * 2 ** stability.SCAN_DOUBLINGS
    # a Fourier search too: the degree-3 limit lies far above 0.016
    with pytest.raises(ConfigurationError, match="stable at every trial"):
        stability.find_cfl(make_operators(3, "gl", "radau"), "d2", nkappa=16, sigma_max=2e-3,
                           tol=1e-4)


def _logged_search(monkeypatch, search):
    """search()'s result and the trial CFLs it assembled, in order."""
    trials = []
    assemble = stability.assemble_matrices

    def logged(ops, sigma, dissipation):
        trials.append(sigma)
        assert len(trials) < 200, "the bisection does not end"
        return assemble(ops, sigma, dissipation)

    with monkeypatch.context() as m:
        m.setattr(stability, "assemble_matrices", logged)
        return search(), trials


def test_bisection_ends_at_adjacent_floats(ops_gl, monkeypatch):
    # a tol below the float spacing near the answer stops where the
    # midpoint of the bracket rounds to one of its ends
    sigma, trials = _logged_search(
        monkeypatch, lambda: stability.find_cfl(ops_gl, "d2", nkappa=64, tol=1e-300))
    kappas = stability._wavenumbers(64)
    radius = [stability.max_spectral_radius(stability.assemble_matrices(ops_gl, s, "d2"), kappas)
              for s in (sigma, np.nextafter(sigma, 1.0))]
    assert radius[0] <= 1 + 1e-10 < radius[1]
    assert np.nextafter(sigma, 1.0) in trials


def _reference_cfl(ops, dissipation, nkappa, tol):
    """find_cfl's search with every trial solving every sample."""
    kappas = stability._wavenumbers(nkappa)
    return stability._largest_stable(
        lambda sig, limit: stability.max_spectral_radius(
            stability.assemble_matrices(ops, sig, dissipation), kappas),
        0.6, tol, 1e-10)


@pytest.mark.parametrize("tol", [5e-4, 1e-4])
@pytest.mark.parametrize("nkappa", [64, 255, 1024])
@pytest.mark.parametrize("points,correction,diss", SEARCHES)
def test_early_exit_decides_every_trial_as_a_full_solve(monkeypatch, points, correction,
                                                        diss, nkappa, tol):
    # an unstable trial may stop at one sample; the trials made, and so the
    # certified float, must be those of the search that solves them all
    ops = make_operators(3, points, correction)
    fast = _logged_search(monkeypatch, lambda: stability.find_cfl(ops, diss, nkappa=nkappa,
                                                                   tol=tol))
    full = _logged_search(monkeypatch, lambda: _reference_cfl(ops, diss, nkappa, tol))
    assert fast == full


def test_unstable_trials_mostly_solve_one_sample(monkeypatch):
    # matrices handed to eigvals per default search; solving all 513
    # samples at every trial takes 7,695, 8,721, 10,773 and 14,877.  eigvals
    # runs on several threads, so each call appends its own count (one
    # append cannot lose another's) and each search sums its calls' counts
    eigvals = np.linalg.eigvals
    counts = []

    def counted(a):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    solved = []
    for points, correction, diss in SEARCHES:
        start = len(counts)
        stability.find_cfl(make_operators(3, points, correction), diss)
        solved.append(sum(counts[start:]))
    assert solved == [6674, 6674, 9239, 12830]


def _complex_stack(n, seed=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))


def _cores(monkeypatch, n):
    monkeypatch.setattr(stability.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(stability.os, "cpu_count", lambda: n)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 33, 128, 513])
def test_eigvals_matches_one_call_bit_for_bit(monkeypatch, n, cores):
    _cores(monkeypatch, cores)
    h = _complex_stack(n)
    expected = np.linalg.eigvals(h)
    got = stability._eigvals(h)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))
    assert np.array_equal(stability._eigvals(h[0]), np.linalg.eigvals(h[0]))


def test_eigvals_raises_a_worker_error_in_the_caller(monkeypatch):
    _cores(monkeypatch, 3)
    h = _complex_stack(33)
    h[-1, 0, 0] = np.nan   # the last chunk, solved off the calling thread
    with pytest.raises(np.linalg.LinAlgError):
        stability._eigvals(h)


def test_eigvals_on_one_core_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    _cores(monkeypatch, 1)
    monkeypatch.setattr(stability.threading, "Thread", no_thread)
    h = _complex_stack(33)
    assert np.array_equal(stability._eigvals(h), np.linalg.eigvals(h))


def test_searches_leave_no_thread_behind(ops_gl):
    before = threading.active_count()
    stability.find_cfl(ops_gl, "d2", nkappa=64)
    stability.cfl_scan(ops_gl, "d2", [0.05, 0.2], nkappa=64)
    stability.find_rkfr_cfl(ops_gl, nkappa=64)
    assert threading.active_count() == before
