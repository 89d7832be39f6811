"""The benchmark's workloads: which operations a round runs, and their checks.

An operation is one catalogued case run to its final time, or one CFL
search.  Every round of a workload runs the same operations, in an order
and with final times drawn from the seed, so every run attempts whole
rounds.  Checks compare each output with the references in
references.py; none of them compares with stored solver output.
"""

from dataclasses import dataclass, field

import numpy as np

import references as ref

DEGREE = 3
GLL_G2 = dict(points="gll", correction="g2", dissipation="d2")
# unit-speed advection mesh whose global update matrix certifies a CFL
# number; 8 divides the 1024 wavenumber samples of the Fourier search, so
# every mode of the mesh is one the search sampled
CERT_CELLS = 8
PAPER_CFL = {("radau", "d2"): 0.107, ("g2", "d2"): 0.224}
MIN_ORDER = 3.7
# the paper's average-then-extrapolate faces lose half an order on
# nonlinear fluxes; on Burgers they are held to that weaker claim
MIN_ORDER_AE_NONLINEAR = 3.2
MAX_RK_RATIO = 2.0
CONSERVATION_RTOL = 1e-11
# L1 density error allowed against the exact Riemann solution, in units of
# one cell width times the initial density jump
RIEMANN_L1_CELLS = 0.5
# point-sampled initial data; sedov deposits its energy per cell instead
GAS_INITIAL = {"blast": ref.blast_initial, "titarev_toro": ref.titarev_toro_initial,
               "density_ratio": ref.density_ratio_initial}


@dataclass
class Op:
    """One operation of a round."""

    name: str
    kind: str                      # "case" or "cfl"
    case: str = None
    cells: int = 0
    scheme: str = "mdrk"
    config: dict = field(default_factory=dict)
    group: str = None              # convergence series the run belongs to
    fit: bool = False              # step time enters the fixed/per-cell fit


@dataclass
class Outcome:
    """What an operation produced, with the element-steps it accepted."""

    op: Op
    seconds: float = 0.0            # measured
    reference_s: float = 0.0        # rescaled by the calibration pass before it
    cell_steps: int = 0
    attempts: int = 0
    result: object = None
    error: str = None              # raised, or failed its check
    check_failed: bool = False


def _jitter(rng, value):
    """Seed-drawn final time within half a percent of the nominal one."""
    return float(value * (1.0 + 0.01 * (rng.random() - 0.5)))


def _shock_blended(rng):
    runs = [("blast", 100, 0.002), ("blast", 400, 0.0004), ("blast", 1600, 0.00004),
            ("titarev_toro", 800, 0.03), ("density_ratio", 500, 0.003),
            ("sedov", 201, 0.00001)]
    return [Op(f"{c}-{n}", "case", c, n, config=dict(final_time=_jitter(rng, tf)),
               fit=(c == "blast")) for c, n, tf in runs]


def _shock_retry(rng):
    runs = [("blast", 50, 0.01), ("blast", 100, 0.01), ("density_ratio", 100, 0.05),
            ("sedov", 51, 0.0003)]
    return [Op(f"{c}-{n}-gll", "case", c, n,
               config=dict(final_time=_jitter(rng, tf), limiter="fo", face_scheme="ae",
                           **GLL_G2)) for c, n, tf in runs]


def _smooth(rng):
    series = [
        ("linadv_sine", "mdrk", "ea", (20, 40, 80, 160), 0.25),
        ("linadv_sine", "mdrk", "ae", (20, 40, 80, 160), 0.25),
        ("linadv_sine", "rkfr", "ea", (20, 40, 80, 160), 0.25),
        ("burgers_sine", "mdrk", "ea", (20, 40, 80, 160), 2.0),
        ("burgers_sine", "mdrk", "ae", (20, 40, 80, 160), 2.0),
        ("varadv_x2", "mdrk", "ea", (20, 40, 80), 0.5),
        ("source_manufactured", "mdrk", "ea", (20, 40, 80), 0.1),
    ]
    # no final-time jitter here: on the coarsest meshes the clamped last
    # step would move the pre-asymptotic orders from seed to seed
    ops = []
    for case, scheme, face, meshes, tf in series:
        group = f"{case}-{scheme}-{face}"
        for n in meshes:
            ops.append(Op(f"{group}-{n}", "case", case, n, scheme,
                          dict(final_time=tf, face_scheme=face), group,
                          fit=(group == "linadv_sine-mdrk-ea")))
    return ops


def _cfl_certify(rng):
    ops = [Op(f"find_cfl-{corr}-{diss}", "cfl",
              config=dict(points=pts, correction=corr, dissipation=diss))
           for pts, corr in (("gl", "radau"), ("gll", "g2")) for diss in ("d1", "d2")]
    ops.append(Op("find_rkfr_cfl", "cfl", scheme="rkfr",
                  config=dict(points="gl", correction="radau")))
    # the certificate mesh: unit-speed advection is scale-free, so any
    # domain must certify alike
    length = float(0.5 + 1.5 * rng.random())
    start = float(rng.random() - 0.5)
    for op in ops:
        op.config["domain"] = (start, start + length)
    return ops


# workload name -> builder of its operations from the seed's generator;
# BENCHMARK.json says why each workload is here
WORKLOADS = {
    "shock-blended": _shock_blended,
    "shock-retry": _shock_retry,
    "smooth-convergence": _smooth,
    "cfl-certify": _cfl_certify,
}


def make_ops(workload, seed):
    """The operations of one round, in the seed's order."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[workload](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


# ----------------------------------------------------------------------
# running


def case_config(pkg, op):
    harness = pkg["harness"]
    return harness.case_config(harness.build_case(op.case), **op.config)


def prepare(pkg, ops):
    """Set-up a user pays before the first step: operators, discretizations
    and initial fields, and the baseline's CFL certification."""
    for op in ops:
        if op.kind == "case":
            pkg["harness"].make_run(op.case, case_config(pkg, op), op.cells)
            if op.scheme == "rkfr":
                pkg["harness"].rkfr_default_cfl(DEGREE, "gl", "radau")
        else:
            pkg["operators"].make_operators(DEGREE, op.config["points"],
                                            op.config["correction"])
            _cert_discretization(pkg, op, 0.1)


def run_op(pkg, op):
    """Run one operation; exceptions propagate to the caller."""
    if op.kind == "case":
        res = pkg["harness"].run_case(op.case, case_config(pkg, op), cells=op.cells,
                                      scheme=op.scheme)
        return Outcome(op, cell_steps=res.steps * op.cells,
                       attempts=res.steps + res.retries, result=res)
    cfl, matrix = _certify(pkg, op)
    steps = matrix.shape[0]
    return Outcome(op, cell_steps=steps * CERT_CELLS, attempts=steps, result=(cfl, matrix))


def _cert_discretization(pkg, op, cfl):
    core = pkg["core"]
    cfg = core.RunConfig(points=op.config["points"], correction=op.config["correction"],
                         dissipation=op.config.get("dissipation", "d2"), cfl=cfl,
                         boundary="periodic")
    grid = core.make_grid(*op.config["domain"], CERT_CELLS)
    return core.make_discretization(grid, pkg["models"].LinearAdvection(1.0), cfg)


def _certify(pkg, op):
    """CFL search, then the solver's own global update matrix at that CFL.

    Column j of the matrix is one step of core.mdrk_step (or the baseline
    step) applied to the j-th unit vector on the certificate mesh.
    """
    stability, core = pkg["stability"], pkg["core"]
    ops = pkg["operators"].make_operators(DEGREE, op.config["points"],
                                          op.config["correction"])
    if op.scheme == "rkfr":
        cfl = stability.find_rkfr_cfl(ops)
        step = core.rkfr_step
    else:
        cfl = stability.find_cfl(ops, op.config["dissipation"])
        step = core.mdrk_step
    disc = _cert_discretization(pkg, op, cfl)
    dt = cfl * float(disc.dx[0])
    n = CERT_CELLS * (DEGREE + 1)
    matrix = np.empty((n, n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        unew, _ = step(disc, unit.reshape(CERT_CELLS, DEGREE + 1, 1), 0.0, dt)
        matrix[:, j] = unew.ravel()
    return cfl, matrix


# ----------------------------------------------------------------------
# checks: each returns an error message, or None when the output holds


def check(out):
    op = out.op
    if op.kind == "cfl":
        return _check_cfl(op, *out.result)
    res = out.result
    nodes, weights = ref.reference_nodes(DEGREE, res.disc.config.points)
    faces = np.asarray(res.disc.grid.faces)
    x = ref.mesh_nodes(faces, nodes)
    if not np.allclose(x, res.disc.xn, rtol=0.0, atol=1e-12 * np.ptp(faces)):
        return "solution points differ from the reference quadrature points"
    u = res.field.data
    if not np.all(np.isfinite(u)):
        return "non-finite state"
    t_goal = op.config["final_time"]
    if abs(res.field.time - t_goal) > 2e-12 * max(1.0, t_goal):
        return f"stopped at t = {res.field.time}, not {t_goal}"
    if op.case in ref.SMOOTH_EXACT:
        return None  # compared per series in check_series
    return _check_gas(op, res, x, faces, weights)


def _check_gas(op, res, x, faces, weights):
    u, t = res.field.data, res.field.time
    rho, p = ref.density_pressure(u)
    if not (rho.min() > 0.0 and p.min() > 0.0):
        return f"positivity lost: min density {rho.min():.3e}, min pressure {p.min():.3e}"

    # budgets: change of each total equals (inflow flux - outflow flux) * t
    initial = GAS_INITIAL.get(op.case)
    u0 = ref.sedov_initial(x, faces) if initial is None else initial(x)
    change = ref.totals(u, faces, weights) - ref.totals(u0, faces, weights)
    if op.case in ("blast", "sedov"):
        checked, expected = [0, 2], np.zeros(3)  # walls: mass and energy
    else:
        # Dirichlet (titarev_toro) or transmissive boundaries with the
        # initial boundary states still in place (density_ratio)
        flux = ref.euler_flux(initial(faces[[0, -1]]))
        checked, expected = [0, 1, 2], (flux[0] - flux[1]) * t
    scale = np.maximum(np.abs(ref.totals(u0, faces, weights)), np.abs(expected))
    for v in checked:
        if abs(change[v] - expected[v]) > CONSERVATION_RTOL * scale[v] + 1e-13:
            return (f"conservation: variable {v} changed by {change[v]:.15e}, "
                    f"budget {expected[v]:.15e}")

    if op.case == "density_ratio":
        sol = ref.RiemannSolution(*ref.DENSITY_RATIO_RIEMANN)
        s_left, s_right = sol.wave_speed_bounds()
        x0 = ref.DENSITY_RATIO_X0
        if not (x0 + s_left * t > faces[0] and x0 + s_right * t < faces[-1]):
            return "final time lets a wave reach the boundary"
        rho_exact, _, _ = sol.sample((x - x0) / t)
        err = ref.l1_norm(rho - rho_exact, faces, weights)
        jump = ref.DENSITY_RATIO_RIEMANN[0][0] - ref.DENSITY_RATIO_RIEMANN[1][0]
        bound = RIEMANN_L1_CELLS * float(np.max(np.diff(faces))) * jump
        if err > bound:
            return f"L1 density error {err:.4e} against the exact solution exceeds {bound:.4e}"
    return None


def check_series(outcomes):
    """Convergence checks over whole mesh series of one round.

    Returns {group: error message} for the series that fail: an L2 error
    that does not fall from one mesh to the next, an observed L2 order
    below MIN_ORDER between the two finest meshes (where the order is
    asymptotic), or, on linadv_sine, a two-stage error more than
    MAX_RK_RATIO times the baseline's.
    """
    errors, series = {}, {}
    for out in outcomes:
        if out.op.group is not None and out.error is None:
            nodes, weights = ref.reference_nodes(DEGREE, out.result.disc.config.points)
            faces = np.asarray(out.result.disc.grid.faces)
            exact = ref.SMOOTH_EXACT[out.op.case]
            err = out.result.field.data - exact(ref.mesh_nodes(faces, nodes),
                                                out.result.field.time)
            series.setdefault(out.op.group, {})[out.op.cells] = ref.l2_norm(err, faces, weights)
    for group, by_mesh in series.items():
        meshes = sorted(by_mesh)
        least = MIN_ORDER_AE_NONLINEAR if group == "burgers_sine-mdrk-ae" else MIN_ORDER
        for coarse, fine in zip(meshes, meshes[1:]):
            order = np.log(by_mesh[coarse] / by_mesh[fine]) / np.log(fine / coarse)
            if not np.all(order >= (least if fine == meshes[-1] else 0.0)):
                errors[group] = f"L2 order {order.min():.3f} between {coarse} and {fine} cells"
    two_stage, baseline = series.get("linadv_sine-mdrk-ea"), series.get("linadv_sine-rkfr-ea")
    if two_stage and baseline:
        for n in sorted(set(two_stage) & set(baseline)):
            ratio = float(two_stage[n][0] / baseline[n][0])
            if ratio > MAX_RK_RATIO:
                errors["linadv_sine-mdrk-ea"] = f"MDRK/RK L2 ratio {ratio:.3f} at {n} cells"
    return errors


def _check_cfl(op, cfl, matrix):
    radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    if not radius <= 1.0 + 1e-10:
        return f"global update matrix at CFL {cfl:.5f} has spectral radius {radius:.15f}"
    paper = PAPER_CFL.get((op.config["correction"], op.config.get("dissipation")))
    if paper is not None and abs(cfl - paper) > 1e-3:
        return f"certified CFL {cfl:.5f} differs from the published {paper}"
    return None
