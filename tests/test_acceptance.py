"""Acceptance suite: one test per criterion, named so the verbose pytest
output reads as a per-criterion pass/fail report.

Heavier runs are shared through module-scoped fixtures.  Criteria with a
stated tolerance pin it here; nothing is deferred to later calibration.
"""

import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from fourier_oracle import printed_d2_symbol
from mdrkfr import blending, core, harness, models, stability
from mdrkfr.core import PRODUCTION_COEFFICIENTS
from mdrkfr.errors import AdmissibilityError, SolverAbort
from mdrkfr.operators import make_operators
from mdrkfr.order_conditions import check_order_conditions, one_step_order_scan


def case_cfg(case_id, **kw):
    return harness.case_config(harness.build_case(case_id), **kw)


@pytest.fixture(scope="module")
def linadv_reports():
    meshes = [20, 40, 80, 160]
    out = {}
    for label, kw in (("d2_ea", dict(face_scheme="ea")),
                      ("d2_ae", dict(face_scheme="ae")),
                      ("gll_g2", dict(points="gll", correction="g2"))):
        out[label] = harness.convergence_suite("linadv_sine", meshes,
                                               case_cfg("linadv_sine", **kw))
    out["rkfr"] = harness.convergence_suite("linadv_sine", meshes,
                                            case_cfg("linadv_sine"), scheme="rkfr")
    return out


def test_criterion_01_stability_table_values():
    # CFL 0.107 (GL+Radau+D2) and 0.224 (GLL+g2+D2), each within 1e-3,
    # computed in under 30 seconds
    tic = time.perf_counter()
    radau = stability.find_cfl(make_operators(3, "gl", "radau"), "d2")
    g2 = stability.find_cfl(make_operators(3, "gll", "g2"), "d2")
    elapsed = time.perf_counter() - tic
    print(f"criterion 1: cfl(radau,d2)={radau:.4f} cfl(g2,d2)={g2:.4f} "
          f"in {elapsed:.1f}s")
    assert radau == pytest.approx(0.107, abs=1e-3)
    assert g2 == pytest.approx(0.224, abs=1e-3)
    assert elapsed < 30.0


def test_criterion_02_operator_equivalence():
    # one solver step on a Fourier mode matches the closed-form
    # amplification matrix to 1e-12 for ten random (sigma, kappa) pairs
    rng = np.random.default_rng(2024)
    ne = 16
    ops = make_operators(3, "gl", "radau")
    model = models.LinearAdvection(1.0)
    worst = 0.0
    for _ in range(10):
        sigma = float(rng.uniform(0.02, 0.107))
        m = int(rng.integers(1, ne // 2))
        cfg = core.RunConfig(final_time=1.0, cfl=sigma, dissipation="d2")
        grid = core.make_grid(0.0, 1.0, ne)
        disc = core.make_discretization(grid, model, cfg)
        uhat = rng.normal(size=4) + 1j * rng.normal(size=4)
        phase = np.exp(2j * np.pi * m * grid.faces[:-1])
        u0 = uhat[None, :, None] * phase[:, None, None]
        u1, _ = core.mdrk_step(disc, u0, 0.0, sigma / ne)
        h = printed_d2_symbol(ops, sigma, 2 * np.pi * m / ne)
        predicted = (h @ uhat)[None, :, None] * phase[:, None, None]
        worst = max(worst, float(np.abs(u1 - predicted).max()))
    print(f"criterion 2: worst solver-vs-operator deviation {worst:.3e}")
    assert worst < 1e-12


def test_criterion_03_linear_advection_convergence(linadv_reports):
    # observed L2 orders in [3.7, 4.3] on meshes 20..160 at t=2 for the
    # three discretisations; errors within 2x of the RK baseline
    for label in ("d2_ea", "d2_ae", "gll_g2"):
        orders = linadv_reports[label].l2_orders[:, 0]
        print(f"criterion 3: {label} orders {np.round(orders, 3)}")
        assert np.all(orders >= 3.7) and np.all(orders <= 4.3), label
    ratio = linadv_reports["d2_ea"].l2[:, 0] / linadv_reports["rkfr"].l2[:, 0]
    print(f"criterion 3: error ratios vs baseline {np.round(ratio, 3)}")
    assert np.all(ratio <= 2.0)


def test_criterion_04_variable_advection():
    meshes = [20, 40, 80, 160]
    rep_ea = harness.convergence_suite("varadv_x2", meshes,
                                       case_cfg("varadv_x2", face_scheme="ea"))
    rep_ae = harness.convergence_suite("varadv_x2", meshes,
                                       case_cfg("varadv_x2", face_scheme="ae"))
    order_ea = rep_ea.l2_orders[-1, 0]
    print(f"criterion 4: EA finest order {order_ea:.3f}, "
          f"EA err {rep_ea.l2[-1, 0]:.3e} vs AE err {rep_ae.l2[-1, 0]:.3e}")
    assert order_ea >= 3.7
    assert rep_ea.l2[-1, 0] < rep_ae.l2[-1, 0]


def test_criterion_05_burgers_convergence():
    meshes = [20, 40, 80, 160]
    rep_ea = harness.convergence_suite("burgers_sine", meshes,
                                       case_cfg("burgers_sine", face_scheme="ea"))
    rep_ae = harness.convergence_suite("burgers_sine", meshes,
                                       case_cfg("burgers_sine", face_scheme="ae"))
    order_ea = rep_ea.l2_orders[-1, 0]
    order_ae = rep_ae.l2_orders[-1, 0]
    print(f"criterion 5: EA order {order_ea:.3f}, AE order {order_ae:.3f}")
    assert order_ea >= 3.7
    assert 3.2 <= order_ae <= 3.8  # the flux-extrapolation variant loses half an order


def test_criterion_06_conservation():
    # pre-shock quadratic-flux run: relative mass drift below 1e-12 and
    # the per-step element-mean identity below 1e-13
    records = []

    def on_step(result, before, diag):
        w = result.disc.ops.weights
        records.append({"dt": diag.dt, "fnum2": diag.stages[1].fnum,
                        "mean_before": np.einsum("p,epv->ev", w, before.data),
                        "mean_after": np.einsum("p,epv->ev", w, result.field.data)})

    res = harness.run_case("burgers_sine", case_cfg("burgers_sine"), cells=40,
                           on_step=on_step)
    dxs = res.disc.dx
    worst_ident = 0.0
    masses = []
    for rec in records:
        ident = rec["mean_after"] - (rec["mean_before"]
                                     - (rec["dt"] / dxs)[:, None]
                                     * (rec["fnum2"][1:] - rec["fnum2"][:-1]))
        worst_ident = max(worst_ident, float(np.abs(ident).max()))
        masses.append(float(np.sum(dxs[:, None] * rec["mean_before"])))
    masses.append(float(np.sum(dxs[:, None] * records[-1]["mean_after"])))
    scale = float(np.sum(dxs[:, None] * np.abs(records[0]["mean_before"])))
    drift = max(abs(m - masses[0]) for m in masses) / scale
    print(f"criterion 6: mass drift {drift:.3e}, mean identity {worst_ident:.3e}")
    assert drift < 1e-12
    assert worst_ident < 1e-13


def test_criterion_07_order_conditions():
    res = check_order_conditions(PRODUCTION_COEFFICIENTS)
    slope, _, _ = one_step_order_scan()
    print(f"criterion 7: residuals {tuple(res)}, one-step slope {slope:.3f}")
    assert res.all_zero()
    assert slope >= 4.7


def test_criterion_08_ae_equals_ea_on_endpoint_nodes():
    # with endpoint-including nodes the two face constructions coincide;
    # both runs advance independently and stay within 1e-13 every step
    cfg_ae = case_cfg("burgers_sine", points="gll", correction="g2",
                      face_scheme="ae", final_time=0.5)
    cfg_ea = case_cfg("burgers_sine", points="gll", correction="g2",
                      face_scheme="ea", final_time=0.5)
    _, disc_ae, fld = harness.make_run("burgers_sine", cfg_ae, cells=30)
    _, disc_ea, _ = harness.make_run("burgers_sine", cfg_ea, cells=30)
    u_ae = u_ea = fld.data
    t, worst = 0.0, 0.0
    for _ in range(150):
        dt = core.compute_dt(disc_ae, u_ae, t)
        u_ae, _ = core.mdrk_step(disc_ae, u_ae, t, dt)
        u_ea, _ = core.mdrk_step(disc_ea, u_ea, t, dt)
        worst = max(worst, float(np.abs(u_ae - u_ea).max()))
        t += dt
    print(f"criterion 8: worst per-step difference {worst:.3e}")
    assert worst < 1e-13


EULER_RUNS = [
    ("blast", 400),
    ("sedov", 201),
    ("density_ratio", 500),
    ("titarev_toro", 800),
]


@pytest.fixture(scope="module")
def euler_runs():
    """run(case_id, cells, limiter) -> (run_case result, seconds), each run made once.

    The accuracy claim below reads the density_ratio runs of criterion 9
    instead of running them again.
    """
    cache = {}

    def run(case_id, cells, limiter):
        if (case_id, cells, limiter) not in cache:
            tic = time.perf_counter()
            res = harness.run_case(case_id, case_cfg(case_id, limiter=limiter), cells=cells)
            cache[case_id, cells, limiter] = res, time.perf_counter() - tic
        return cache[case_id, cells, limiter]

    return run


@pytest.mark.parametrize("case_id,cells", EULER_RUNS)
@pytest.mark.parametrize("limiter", ["mh", "fo"])
def test_criterion_09_admissibility_runs(euler_runs, case_id, cells, limiter):
    res, elapsed = euler_runs(case_id, cells, limiter)
    min_rho, min_p = res.min_constraints
    print(f"criterion 9: {case_id}/{limiter} steps={res.steps} "
          f"min rho={min_rho:.3e} min p={min_p:.3e} {elapsed:.0f}s")
    assert res.field.time == pytest.approx(res.disc.config.final_time, abs=1e-10)
    assert min_rho > 0.0 and min_p > 0.0
    assert elapsed < 600.0


# MUSCL-Hancock subcells must beat first-order ones by this factor in L1
# density error on density_ratio-500.  Measured at t = 0.15 with GL/Radau
# points: mh 0.4088, fo 0.8947, a ratio of 0.457.  With its slopes set to
# zero mh gives fo's error exactly, so 0.6 separates the two with room
# for drift in either error.
MH_OVER_FO_L1 = 0.6


def test_criterion_09_mh_is_less_dissipative_than_fo(euler_runs):
    # the exact Riemann solver is read from the benchmark's file without
    # importing it as a module, so no bytecode cache is written next to it
    ref = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "references.py"))
    left, right = ref["DENSITY_RATIO_RIEMANN"]
    sol = ref["RiemannSolution"](left, right)
    errors = {}
    for limiter in ("mh", "fo"):
        res, _ = euler_runs("density_ratio", 500, limiter)
        faces = np.asarray(res.disc.grid.faces)
        _, weights = ref["reference_nodes"](res.disc.ops.degree, res.disc.config.points)
        rho_exact, _, _ = sol.sample((res.disc.xn - ref["DENSITY_RATIO_X0"]) / res.field.time)
        rho, _ = ref["density_pressure"](res.field.data)
        errors[limiter] = ref["l1_norm"](rho - rho_exact, faces, weights)
        # the benchmark's bound: half a cell width times the density jump
        bound = 0.5 * float(np.max(np.diff(faces))) * (left[0] - right[0])
        assert errors[limiter] < bound, (limiter, errors[limiter], bound)
    print(f"criterion 9: density_ratio-500 L1 density error mh={errors['mh']:.4f} "
          f"fo={errors['fo']:.4f}")
    assert errors["mh"] < MH_OVER_FO_L1 * errors["fo"]


@pytest.mark.parametrize("case_id,cells", [("blast", 400), ("sedov", 201)])
def test_criterion_09_unlimited_runs_abort(case_id, cells):
    with pytest.raises(SolverAbort) as err:
        harness.run_case(case_id, case_cfg(case_id, limiter="none"), cells=cells)
    print(f"criterion 9: {case_id} unlimited aborts with: {err.value}")


def test_criterion_10_limiter_algebra():
    # blended element means equal the shared-flux means to 1e-13; the
    # scaling limiter preserves means to 1e-14 and enforces the margin
    disc_cfg = core.RunConfig(final_time=1.0, limiter="mh", boundary="reflective")
    grid = core.make_grid(0.0, 1.0, 24)
    model = models.Euler()
    disc = core.make_discretization(grid, model, disc_cfg)
    case = harness.build_case("blast")
    u = case.initial(disc.xn)
    dt = core.compute_dt(disc, u, 0.0)
    w = disc.ops.weights
    out, diag = core.mdrk_step(disc, u, 0.0, dt)
    mean_new = np.einsum("p,epv->ev", w, out)
    mean_expected = (np.einsum("p,epv->ev", w, u)
                     - (dt / disc.dx)[:, None]
                     * (diag.stages[1].fnum[1:] - diag.stages[1].fnum[:-1]))
    # roundoff scales with the data (energies of a few thousand here), so
    # the identity is checked relative to the state magnitude
    worst_mean = float((np.abs(mean_new - mean_expected)
                        / (1.0 + np.abs(mean_expected))).max())

    # scaling limiter on a handmade troubled element
    p_nodes = np.array([1.4, 1.2, -0.1, 1.5])
    bad = model.conserved(np.ones(4), np.zeros(4), p_nodes)[:, None]
    mean_before = np.einsum("p,vp->v", w, bad[:, 0])
    limited = blending.scaling_limiter(disc, bad)
    mean_drift = float(np.abs(np.einsum("p,vp->v", w, limited[:, 0]) - mean_before).max())
    floor = 0.1 * model.pressure(mean_before)
    min_p = float(model.pressure(limited[:, 0]).min())
    print(f"criterion 10: blended-mean defect {worst_mean:.3e}, "
          f"scaling mean drift {mean_drift:.3e}, min p {min_p:.3e} >= {floor:.3e}")
    assert worst_mean < 1e-13
    assert mean_drift < 1e-14
    assert min_p >= floor - 1e-12
    assert np.all(model.constraints(limited[:, 0]) > 0.0)


def test_criterion_11_source_terms():
    rep = harness.convergence_suite("source_manufactured", [20, 40, 80],
                                    case_cfg("source_manufactured"))
    orders = rep.l2_orders[-1]
    print(f"criterion 11: manufactured-solution orders {np.round(orders, 3)}")
    assert np.all(orders >= 3.7)


def test_criterion_12_scope_note():
    # figure-level error magnitudes, wall-clock tables and all
    # two-dimensional results are intentionally not reproduced at desk
    # scale; the property suites above stand in for them
    print("criterion 12: figure magnitudes / timing tables / 2-D results "
          "are out of scope by design")
