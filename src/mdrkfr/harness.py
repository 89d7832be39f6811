"""Benchmark harness: case catalog, time loop, error norms, convergence.

The catalog reproduces the standard desk-scale setups: smooth advection
and Burgers waves for convergence, and the interacting blast waves,
high-frequency shock-entropy wave, strong rarefaction and point-blast
problems for the admissibility-preserving runs.
"""

import configparser
import hashlib
import time as _time
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from . import core, models, stability
from .errors import ConfigurationError, StencilStateError
from .operators import make_operators


@dataclass(frozen=True)
class CaseSpec:
    """One catalogued problem: model, domain, data, defaults."""

    name: str
    make_model: object
    xlo: float
    xhi: float
    boundary: str
    final_time: float
    default_cells: int
    initial: object = None          # state(x) sampled at the nodes
    initial_cellwise: object = None  # state(cell mean position, dx) per cell
    exact_id: str = None
    bc_state: object = None         # imposed state(x, t) for inflow boundaries
    default_limiter: str = "none"
    default_cfl: float = None
    description: str = ""

    @property
    def has_exact(self):
        return self.exact_id is not None

    def exact(self, x, t):
        return models.exact_solution(self.exact_id, x, t)


def _blast_initial(x):
    x = np.asarray(x, dtype=float)
    p = np.where(x < 0.1, 1000.0, np.where(x > 0.9, 100.0, 0.01))
    return core.element_major(models.Euler().conserved(np.ones_like(x), np.zeros_like(x), p))


def _titarev_toro_initial(x):
    x = np.asarray(x, dtype=float)
    rho = np.where(x <= -4.5, 1.515695, 1.0 + 0.1 * np.sin(20.0 * np.pi * x))
    v = np.where(x <= -4.5, 0.523346, 0.0)
    p = np.where(x <= -4.5, 1.805, 1.0)
    return core.element_major(models.Euler().conserved(rho, v, p))


@lru_cache(maxsize=16)
def _titarev_toro_exterior(x):
    """The initial state at face x, imposed at every time; read-only, as it is shared."""
    u = _titarev_toro_initial(x)
    u.setflags(write=False)
    return u


def _density_ratio_initial(x):
    x = np.asarray(x, dtype=float)
    rho = np.where(x < 0.3, 1000.0, 1.0)
    p = np.where(x < 0.3, 1000.0, 1.0)
    return core.element_major(models.Euler().conserved(rho, np.zeros_like(x), p))


def _sedov_cellwise(xc, dx):
    """Point blast: all energy deposited in the cell containing the origin."""
    xc = np.asarray(xc, dtype=float)
    e = np.where(np.abs(xc) <= dx / 2.0, 3.2e6 / dx, 1e-12)
    u = np.zeros(xc.shape + (3,))
    u[..., 0] = 1.0
    u[..., 2] = e
    return u


CATALOG = {
    "linadv_sine": CaseSpec(
        name="linadv_sine", make_model=lambda: models.LinearAdvection(1.0),
        xlo=0.0, xhi=1.0, boundary="periodic", final_time=2.0, default_cells=40,
        initial=lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float))[..., None],
        exact_id="linadv_sine",
        description="smooth sine advected over two periods"),
    "varadv_x2": CaseSpec(
        name="varadv_x2", make_model=lambda: models.VariableAdvection(models.varadv_x2_speed),
        xlo=0.1, xhi=1.0, boundary="dirichlet_outflow", final_time=1.0, default_cells=40,
        initial=lambda x: models.exact_solution("varadv_x2", x, 0.0),
        exact_id="varadv_x2",
        bc_state=lambda x, t: models.exact_solution("varadv_x2", x, t),
        description="space-dependent transport, inflow on the left"),
    "burgers_sine": CaseSpec(
        name="burgers_sine", make_model=models.Burgers,
        xlo=0.0, xhi=2.0 * np.pi, boundary="periodic", final_time=2.0, default_cells=40,
        initial=lambda x: 0.2 * np.sin(np.asarray(x, dtype=float))[..., None],
        exact_id="burgers_sine",
        description="smooth quadratic-flux wave before shock formation"),
    "blast": CaseSpec(
        name="blast", make_model=models.Euler,
        xlo=0.0, xhi=1.0, boundary="reflective", final_time=0.038, default_cells=400,
        initial=_blast_initial, default_limiter="mh",
        description="interacting blast waves between solid walls"),
    "titarev_toro": CaseSpec(
        name="titarev_toro", make_model=models.Euler,
        # neither boundary is reached by the shock before the final time:
        # the exterior state is the initial profile on both sides, and the
        # left boundary is a subsonic inflow besides, so both boundary
        # states are imposed (zero-gradient closures self-excite here)
        xlo=-5.0, xhi=5.0, boundary="dirichlet", final_time=5.0,
        default_cells=800, initial=_titarev_toro_initial,
        bc_state=lambda x, t: _titarev_toro_exterior(float(x)),
        default_limiter="mh",
        description="shock running into a high-frequency density wave"),
    "density_ratio": CaseSpec(
        name="density_ratio", make_model=models.Euler,
        xlo=0.0, xhi=1.0, boundary="transmissive", final_time=0.15, default_cells=500,
        initial=_density_ratio_initial, default_limiter="mh",
        description="thousand-to-one density jump with a strong rarefaction"),
    "sedov": CaseSpec(
        name="sedov", make_model=models.Euler,
        xlo=-1.0, xhi=1.0, boundary="reflective", final_time=0.001, default_cells=201,
        initial_cellwise=_sedov_cellwise, default_limiter="mh",
        description="point-energy blast, near-vacuum surroundings"),
    "source_manufactured": CaseSpec(
        name="source_manufactured",
        make_model=lambda: models.Euler(source=models.manufactured_source),
        xlo=0.0, xhi=1.0, boundary="periodic", final_time=0.4, default_cells=40,
        initial=lambda x: models.manufactured_state(x, 0.0),
        exact_id="source_manufactured",
        # unlimited smooth gas runs need margin below the scalar limit:
        # the shared dissipation coefficient exceeds the slower wave
        # speeds, which tightens the Fourier bound by several percent
        default_cfl=0.095,
        description="forced travelling waves with known solution"),
}


def build_case(case_id):
    try:
        return CATALOG[case_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown case {case_id!r}; available: {', '.join(sorted(CATALOG))}")


def case_config(case, **overrides):
    """RunConfig pre-filled with the case's boundary/horizon defaults."""
    cfg = core.RunConfig(boundary=case.boundary, final_time=case.final_time,
                         limiter=case.default_limiter, cfl=case.default_cfl)
    return replace(cfg, **overrides) if overrides else cfg


def initial_field(case, grid, ops):
    """Sample (or deposit, for cellwise data) the initial state."""
    xn = grid.nodes(ops)
    if case.initial_cellwise is not None:
        centers = 0.5 * (grid.faces[:-1] + grid.faces[1:])
        dx = float(np.min(grid.dx))
        u = np.repeat(case.initial_cellwise(centers, dx)[:, None, :], xn.shape[1], axis=1)
    else:
        u = np.asarray(case.initial(xn), dtype=float)
    return core.SolutionField(grid, u, 0.0)


def make_run(case_id, config=None, cells=None):
    """Discretization plus initial field for one catalogued case."""
    case = build_case(case_id)
    cfg = config if config is not None else case_config(case)
    if cfg.boundary != case.boundary:
        raise ConfigurationError(
            f"case {case_id!r} has {case.boundary!r} boundaries, "
            f"the configuration asks for {cfg.boundary!r}")
    grid = core.make_grid(case.xlo, case.xhi,
                          case.default_cells if cells is None else cells)
    model = case.make_model()
    disc = core.make_discretization(grid, model, cfg, case.bc_state)
    return case, disc, initial_field(case, grid, disc.ops)


SCHEMES = ("mdrk", "rkfr")
# a run that needs more steps, or a step that needs more halvings, aborts;
# 40 halvings, a floor of 2^-40 of the CFL step, leave room below the
# stage-one stencil bound of admissible states (run_case)
MAX_STEPS = 10 ** 7
MAX_HALVINGS = 40


@dataclass
class RunResult:
    """Final field plus run-level diagnostics."""

    disc: object
    field: core.SolutionField
    steps: int = 0
    # halvings per StencilStateError.constraint
    retry_reasons: Counter = field(default_factory=Counter)
    min_constraints: np.ndarray = None
    theta_min: float = 1.0
    wall_time: float = 0.0

    @property
    def retries(self):
        return sum(self.retry_reasons.values())


def run_case(case_id, config=None, cells=None, scheme="mdrk", on_step=None):
    """Advance a catalogued case to its final time.

    on_step(result, before, diag), when given, is called after every
    accepted step: result.field and result.steps already hold the new
    state and count, before is the SolutionField the step started from and
    diag the step's StepDiagnostics.
    A stencil failure shrinks the step by half and retries, up to
    MAX_HALVINGS times, before the abort propagates.  The failures this
    cures scale with the step size, but the step they need depends on the
    state: stage one's nodal stencil is evaluable for dt below min over
    nodes of rho / (2 |r|), with r = -(1/dx) D(rho v) the dt-free density
    rate, which admissible states can put more than 20 halvings below the
    CFL step.
    retry_reasons counts the halvings by the constraint that failed.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if scheme == "rkfr":
        base = config if config is not None else case_config(build_case(case_id))
        if base.cfl is None:
            config = replace(base, cfl=rkfr_default_cfl(base.degree, base.points,
                                                        base.correction))
    case, disc, fld = make_run(case_id, config, cells)
    mdrk = scheme == "mdrk"
    core.validate_admissible(disc.model, core.variable_major(fld.data), time=0.0, step=0,
                             detail="initial condition")

    result = RunResult(disc=disc, field=fld)
    tf = disc.config.final_time
    tic = _time.perf_counter()
    while tf - fld.time > 1e-12 * max(1.0, abs(tf)):
        if result.steps >= MAX_STEPS:
            raise RuntimeError(f"step budget exhausted at t = {fld.time}")
        # what every halved attempt from this state reuses
        start = core.step_start(disc, fld.data)
        dt = core.compute_dt(disc, fld.data, fld.time, start)
        for attempt in range(MAX_HALVINGS + 1):
            try:
                if mdrk:
                    unew, diag = core.mdrk_step(disc, fld.data, fld.time, dt, start)
                else:
                    unew, diag = core.rkfr_step(disc, fld.data, fld.time, dt)
                break
            except StencilStateError as exc:
                if attempt == MAX_HALVINGS:
                    raise
                dt = 0.5 * dt
                result.retry_reasons[exc.constraint] += 1
        if diag.min_constraints is not None:
            if result.min_constraints is None:
                result.min_constraints = diag.min_constraints.copy()
            else:
                result.min_constraints = np.minimum(result.min_constraints,
                                                    diag.min_constraints)
        result.theta_min = min(result.theta_min, diag.theta_min)
        before = fld
        fld = result.field = core.SolutionField(fld.grid, unew, fld.time + dt)
        result.steps += 1
        if on_step is not None:
            on_step(result, before, diag)
    result.wall_time = _time.perf_counter() - tic
    return result


@lru_cache(maxsize=None)
def rkfr_default_cfl(degree=3, points="gl", correction="radau"):
    """Fourier-certified CFL of the baseline integrator (cached)."""
    return stability.find_rkfr_cfl(make_operators(degree, points, correction))


# ----------------------------------------------------------------------
# norms and convergence


def error_norms(disc, u, exact_fn, t):
    """Quadrature L2 and nodal Linf error per variable."""
    err = u - np.asarray(exact_fn(disc.xn, t), dtype=float)
    w = disc.ops.weights
    l2 = np.sqrt(np.einsum("e,p,epv->v", disc.dx, w, err * err))
    linf = np.max(np.abs(err), axis=(0, 1))
    return l2, linf


@dataclass
class ConvergenceReport:
    """Errors, observed orders and timings over a mesh sequence."""

    case: str
    meshes: list
    l2: np.ndarray       # (nmesh, nvar)
    linf: np.ndarray
    l2_orders: np.ndarray  # (nmesh-1, nvar)
    linf_orders: np.ndarray
    wall_times: list
    warnings: list

    def format(self, var=0):
        lines = [f"{'cells':>7} {'L2':>13} {'order':>7} {'Linf':>13} {'order':>7} {'sec':>8}"]
        for i, m in enumerate(self.meshes):
            o2 = f"{self.l2_orders[i - 1, var]:7.3f}" if i else " " * 7
            oi = f"{self.linf_orders[i - 1, var]:7.3f}" if i else " " * 7
            lines.append(f"{m:7d} {self.l2[i, var]:13.6e} {o2} "
                         f"{self.linf[i, var]:13.6e} {oi} {self.wall_times[i]:8.2f}")
        return "\n".join(lines)


def check_meshes(case, meshes):
    """Refuse a mesh sequence before any of it runs; returns it as a list."""
    for nc in meshes:
        core.make_grid(case.xlo, case.xhi, nc)
    return list(meshes)


def convergence_suite(case_id, meshes, config=None, scheme="mdrk"):
    """Run one case over a mesh sequence and report observed orders."""
    if len(meshes) < 3:
        raise ConfigurationError("convergence study needs at least 3 meshes")
    case = build_case(case_id)
    if not case.has_exact:
        raise ConfigurationError(f"case {case_id!r} has no exact solution")
    check_meshes(case, meshes)
    # the observed orders divide by log2 of each refinement ratio
    if any(a >= b for a, b in zip(meshes, meshes[1:])):
        raise ConfigurationError(f"convergence meshes must strictly increase, got {list(meshes)}")
    l2s, linfs, times = [], [], []
    for nc in meshes:
        res = run_case(case_id, config=config, cells=nc, scheme=scheme)
        l2, linf = error_norms(res.disc, res.field.data, case.exact, res.field.time)
        l2s.append(l2)
        linfs.append(linf)
        times.append(res.wall_time)
    l2s, linfs = np.array(l2s), np.array(linfs)
    ratios = np.log2(np.asarray(meshes[1:], dtype=float) / np.asarray(meshes[:-1], dtype=float))
    l2_orders = np.log2(l2s[:-1] / l2s[1:]) / ratios[:, None]
    linf_orders = np.log2(linfs[:-1] / linfs[1:]) / ratios[:, None]
    warnings = []
    if np.any(l2s[1:] >= l2s[:-1]):
        warnings.append("non-monotone L2 error decay")
    return ConvergenceReport(case_id, list(meshes), l2s, linfs,
                             l2_orders, linf_orders, times, warnings)


# ----------------------------------------------------------------------
# snapshots and reference profiles


def config_hash(config):
    text = ";".join(f"{f.name}={getattr(config, f.name)!r}" for f in fields(config))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_snapshot(path, disc, u, t):
    """Plot-ready CSV: meta comments, header, one row per node."""
    x = disc.xn.ravel()
    vals = u.reshape(-1, u.shape[-1])
    with open(path, "w") as fh:
        fh.write(f"# meta: t={t:.17g}\n")
        fh.write(f"# meta: config={config_hash(disc.config)}\n")
        fh.write("x," + ",".join(disc.model.var_names) + "\n")
        for i in range(len(x)):
            fh.write(f"{x[i]:.17g}," + ",".join(f"{v:.17g}" for v in vals[i]) + "\n")


class Reference:
    """Piecewise-linear profile read from a snapshot-format CSV."""

    def __init__(self, x, values, names):
        self.x = x
        self.values = values
        self.names = names
        self.clamped = False

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        if np.any(xq < self.x[0]) or np.any(xq > self.x[-1]):
            self.clamped = True
        cols = [np.interp(xq, self.x, self.values[:, j])
                for j in range(self.values.shape[1])]
        return np.stack(cols, axis=-1)


def ingest_reference(path):
    """Read a reference profile; malformed rows report their line number."""
    xs, rows, names = [], [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if names is None:
                if parts[0] != "x" or len(parts) < 2:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected header 'x,<var>[,...]'")
                names = parts[1:]
                continue
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}")
            if len(vals) != len(names) + 1:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected {len(names) + 1} columns, got {len(vals)}")
            if not np.isfinite(vals).all():
                raise ConfigurationError(f"{path}:{lineno}: entries must be finite, got {line!r}")
            xs.append(vals[0])
            rows.append(vals[1:])
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    x = np.asarray(xs)
    # written so that NaN fails it
    if not (np.diff(x) >= 0).all():
        raise ConfigurationError(f"{path}: x column must be ascending")
    return Reference(x, np.asarray(rows), names)


# ----------------------------------------------------------------------
# configuration files


# RunConfig field -> its annotation: int, float, float | None or str
_CONFIG_KINDS = {f.name: f.type for f in fields(core.RunConfig)}


def _coerce(key, value):
    kind = _CONFIG_KINDS[key]
    try:
        if kind is int:
            return int(value)
        if kind is not str:
            return None if value.lower() == "none" else float(value)
    except ValueError:
        word = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {word}, got {value!r}") from None
    return value


def load_config(path=None, text=None, overrides=(), base=None):
    """RunConfig (plus extras) from a key=value file and override pairs.

    The file uses one [run] section; --override key=value pairs win over
    the file, and both win over the base config (the dataclass defaults
    when no base is given).  Returns (config, extras), extras holding cells,
    the one key not a RunConfig field; any other key, a misspelt one, is refused.
    """
    # no key uses interpolation, so a % reaches _coerce like any other character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None and not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path!r}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a missing [run] header, a repeated key or bytes that are not text
        source = "<string>" if text is not None else path
        raise ConfigurationError(f"cannot parse config {source!r}: {exc}") from None
    items = [(k, "=", v) for k, v in parser.items("run")] if parser.has_section("run") else []
    values, extras = {}, {}
    for key, sep, value in items + [item.partition("=") for item in overrides]:
        if not sep:
            raise ConfigurationError(f"override {key!r} is not key=value")
        key, value = key.strip(), str(value).strip()
        if key in _CONFIG_KINDS:
            values[key] = _coerce(key, value)
        else:
            extras[key] = value
    if set(extras) - {"cells"}:
        raise ConfigurationError(f"unknown configuration keys {sorted(set(extras) - {'cells'})}")
    cfg = replace(base, **values) if base is not None else core.RunConfig(**values)
    return cfg.validate(), extras
