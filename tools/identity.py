"""Compare the solver output of two source trees, bit for bit.

    python3 tools/identity.py <tree-a> <tree-b>

Each tree's package (<tree>/src/mdrkfr) is imported in its own
subprocess, without writing bytecode caches, and runs the same matrix of
short runs:

- every catalogue case (the smooth ones at 40 cells, blast, titarev_toro
  and density_ratio at 100, sedov at 51) under {gl/radau, gll/g2} x
  {ae, ea} faces, limiter none on the smooth cases and fo/mh on the gas
  cases (fo only with gll points), 30 steps each;
- d1 dissipation on every case with gl/radau, once with ea faces (mh on
  gas) and once with ae faces (fo on gas);
- the Runge-Kutta baseline on linadv_sine, varadv_x2 and
  source_manufactured (the one run where the gas flux and the
  manufactured source feed the baseline's right-hand side);
- linadv_sine and burgers_sine with fo and mh blending;
- 150 steps of every gas case under gl/ea/mh, gll/g2/ea/fo and
  gll/g2/ae/fo (the last halves about a third of its step attempts);
- 30 steps of blast at 400 cells in its default configuration, the
  benchmark's middle mesh;
- direct low_order_subface_fluxes calls on random gas states, with and
  without slopes, under three boundary kinds, and MUSCL-Hancock calls on
  smooth gas states over intervals long enough that about half of them
  fall back to the node values at some evolved traces;
- direct time_average and face_values_ea calls of both stages on seeded
  gas states with a forced fallback face;
- direct blend_and_limit_face_flux calls on the checked face updates of
  core._low_order, and scaling_limiter calls, on seeded gas states built
  so that no constraint, density only, pressure only, or both need
  limiting (the last with both acting on one face or element), so the
  limiters' rare branches are compared too;
- the gas step's per-cell kernels (the Euler methods, numerical_flux,
  five_point, flux_time_derivative, local_solution_derivative, combine,
  blended_update and the subcell fluxes) called directly on states with
  signed-zero and subnormal momenta, densities near 1e-300 and
  magnitudes near 1e150, where a regrouped formula changes bits;
- direct stability calls: find_cfl for every pairing and dissipation
  kind at each nkappa in SEARCH_NKAPPAS and tol in SEARCH_TOLS (24
  searches), find_rkfr_cfl for both pairings at each nkappa (6 searches),
  cfl_scan radii, the assemble_matrices blocks C_{-2..2} (absent ones as
  zeros) and max_spectral_radius at nkappa = 1 (one matrix, solved
  without splitting the stack) at the fixed SCAN_SIGMAS, the cfl_scan of
  `mdrkfr stability --scan` (40 CFLs up to 1.15 x the certified GLL/g2/d2
  CFL, 513 samples each, split over the cores), and _rkfr_symbol for both
  pairings at SYMBOL_KAPPAS: 157 records;
- harness.run_case itself on a few short runs (smooth, baseline and gas),
  on every gas case under gll/g2/ae/fo (each halves often, and the
  boundary kinds are reflective, dirichlet and transmissive) and on
  density_ratio under gl/ea/mh, which halves too; and one `mdrkfr run`
  through cli.main with --diagnostics, --output and a snapshot_every
  cadence.

The matrix runs step themselves: every step takes the compute_dt step
and halves it on StencilStateError, up to the tree's own
harness.MAX_HALVINGS times, as harness.run_case does.  Compared:
each accepted step's state, dt and StepDiagnostics fields (each stage's
fnum, alpha and theta, theta_min, minimum constraints), each run's retry
count and abort message, each direct call's outputs (fluxes, thetas,
states, fallback masks), each run_case result's steps, retries,
retry_reasons, min_constraints, theta_min and final field, and the exit
code, output (without the wall time) and every file of the CLI run, byte
for byte.
Arrays compare with np.array_equal plus equal np.signbit.  Exits 1 on
any mismatch and 2 when a tree fails to run the matrix.  A direct call
whose outputs are float arrays of one shape reports the largest |difference|.

The direct calls reach inside the solver, which runs on variable-major
(nvar, ne, p) states.  The tool builds every state with the variable last,
hands it to the solver variable-major (_solver), and records every output
with the variable last again (_record).  The constraint behind
each halving in the matrix runs is printed as a note only: trees may test
their admissibility conditions in different orders.  Only APIs that every
compared tree has are used.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile
from collections import Counter

import numpy as np

SMOOTH = {"linadv_sine": 40, "varadv_x2": 40, "burgers_sine": 40,
          "source_manufactured": 40}
GAS = {"blast": 100, "titarev_toro": 100, "density_ratio": 100, "sedov": 51}
PAIRINGS = (("gl", "radau"), ("gll", "g2"))
SHORT, LONG = 30, 150
BOUNDARIES = ("periodic", "transmissive", "reflective")
# the constraints (0 density, 1 pressure) a direct limiter call breaks
BRANCHES = {"none": (), "density": (0,), "pressure": (1,), "both": (0, 1)}
# GLL/g2 points with extrapolated faces and first-order blending, at the
# default CFL 0.224 x 0.98: about a third of the step attempts are halved
GLL_AE_FO = {"points": "gll", "correction": "g2", "face_scheme": "ae", "limiter": "fo"}
# (case, cells, scheme, config overrides) of the harness.run_case records
RUN_CASES = (
    ("linadv_sine", 20, "mdrk", {"final_time": 0.5}),
    ("source_manufactured", 20, "rkfr", {"final_time": 0.1}),
    ("blast", 100, "mdrk", {"final_time": 0.004}),
    ("sedov", 51, "mdrk", {"limiter": "fo", "final_time": 2e-4}),
    ("density_ratio", 100, "mdrk", {"points": "gll", "correction": "g2",
                                    "limiter": "fo", "final_time": 0.05}),
    ("blast", 50, "mdrk", {**GLL_AE_FO, "final_time": 0.01}),
    ("titarev_toro", 100, "mdrk", {**GLL_AE_FO, "final_time": 0.5}),
    ("density_ratio", 100, "mdrk", {**GLL_AE_FO, "final_time": 0.05}),
    ("sedov", 51, "mdrk", {**GLL_AE_FO, "final_time": 3e-4}),
    ("density_ratio", 100, "mdrk", {"face_scheme": "ea", "limiter": "mh", "final_time": 0.02}),
)
# Fourier CFL searches: wavenumber counts and tolerances, and fixed scan CFLs
SEARCH_NKAPPAS, SEARCH_TOLS = (64, 255, 1024), (5e-4, 1e-4)
SCAN_SIGMAS = np.linspace(0.02, 0.3, 15)
SYMBOL_KAPPAS = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
CLI_RUN = ["run", "--case", "sedov", "--cells", "51", "--limiter", "fo",
           "--final-time", "0.0002", "--diagnostics", "diag.csv", "--output", "snap.csv",
           "--override", "snapshot_every=7"]


def matrix():
    """(key, case, cells, scheme, config overrides, steps) of every run."""
    runs = []

    def add(case, cells, steps=SHORT, scheme="mdrk", **cfg):
        key = "/".join([case, scheme] + [f"{k}={v}" for k, v in sorted(cfg.items())]
                       + [f"steps={steps}"])
        runs.append((key, case, cells, scheme, cfg, steps))

    for points, correction in PAIRINGS:
        for face in ("ae", "ea"):
            for case, cells in SMOOTH.items():
                add(case, cells, points=points, correction=correction,
                    face_scheme=face, limiter="none")
            for case, cells in GAS.items():
                for limiter in ("fo", "mh") if points == "gl" else ("fo",):
                    add(case, cells, points=points, correction=correction,
                        face_scheme=face, limiter=limiter)
    for case, cells in {**SMOOTH, **GAS}.items():
        gas = case in GAS
        add(case, cells, dissipation="d1", face_scheme="ea",
            limiter="mh" if gas else "none")
        add(case, cells, dissipation="d1", face_scheme="ae",
            limiter="fo" if gas else "none")
    for case in ("linadv_sine", "varadv_x2", "source_manufactured"):
        add(case, SMOOTH[case], scheme="rkfr", limiter="none")
    for case in ("linadv_sine", "burgers_sine"):
        for limiter in ("fo", "mh"):
            add(case, SMOOTH[case], limiter=limiter)
    for case, cells in GAS.items():
        add(case, cells, LONG, face_scheme="ea", limiter="mh")
        add(case, cells, LONG, points="gll", correction="g2", face_scheme="ea",
            limiter="fo")
        add(case, cells, LONG, points="gll", correction="g2", face_scheme="ae",
            limiter="fo")
    add("blast", 400)
    return runs


def run_one(case_id, cells, scheme, overrides, steps):
    """Outputs of one run: per-step records, retries, reasons, abort."""
    from mdrkfr import core, errors, harness

    case = harness.build_case(case_id)
    cfg = harness.case_config(case, **overrides)
    if scheme == "rkfr" and cfg.cfl is None:
        cfg = dataclasses.replace(cfg, cfl=harness.rkfr_default_cfl(
            cfg.degree, cfg.points, cfg.correction))
    _, disc, fld = harness.make_run(case_id, cfg, cells)
    step_fn = core.mdrk_step if scheme == "mdrk" else core.rkfr_step
    u, t = fld.data, 0.0
    out = {"steps": [], "retries": 0, "reasons": [], "abort": None}
    try:
        for n in range(steps):
            if disc.config.final_time - t <= 1e-12:
                break
            dt = core.compute_dt(disc, u, t)
            for attempt in range(harness.MAX_HALVINGS + 1):
                try:
                    unew, diag = step_fn(disc, u, t, dt)
                    break
                except errors.StencilStateError as exc:
                    if attempt == harness.MAX_HALVINGS:
                        raise
                    out["reasons"].append((n, exc.constraint))
                    out["retries"] += 1
                    dt = 0.5 * dt
            out["steps"].append({"u": unew, "dt": dt, **_diagnostics(diag)})
            u, t = unew, t + dt
    except errors.SolverAbort as exc:
        out["abort"] = f"{type(exc).__name__}: {exc}"
    return out


def _diagnostics(diag):
    """A StepDiagnostics as fnum1, fnum2, alpha1, alpha2, theta1, theta2 (stage
    k's fields, None for a baseline step), theta_min, min_constraints and dt."""
    out = {"theta_min": diag.theta_min, "min_constraints": diag.min_constraints, "dt": diag.dt}
    for name in ("fnum", "alpha", "theta"):
        for k in (1, 2):
            out[f"{name}{k}"] = getattr(diag.stages[k - 1], name) if diag.stages else None
    return out


def _solver(a):
    """A variable-last array as the solver's contiguous variable-major one."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _record(a):
    """A variable-major solver array (or model state) with the variable last."""
    return np.moveaxis(a, 0, -1)


def direct_subface_calls(ncalls=240, seed=7):
    """low_order_subface_fluxes on random gas states, one record per call."""
    from mdrkfr import blending, errors

    rng = np.random.default_rng(seed)
    records = []
    for i in range(ncalls):
        kind = BOUNDARIES[i % 3]
        limiter = "mh" if i % 2 else "fo"
        disc = _gas_disc(kind, limiter)
        u = _random_gas(disc, rng)
        tau = 10.0 ** rng.uniform(-5.0, -1.0)
        try:
            value = _record(blending.low_order_subface_fluxes(
                disc, _solver(u), tau, limiter == "mh"))
        except errors.SolverAbort as exc:
            value = f"{type(exc).__name__}: {exc}"
        records.append((f"direct/subface/{i}/{kind}/{limiter}", value))
    return records


def direct_mh_fallback_calls(ncalls=48, seed=17):
    """MUSCL-Hancock low_order_subface_fluxes on smooth gas states over long
    intervals, where about half the calls evolve some traces out of the
    admissible set and fall back to the node values there; every other
    call stacks two intervals."""
    from mdrkfr import blending, errors

    rng = np.random.default_rng(seed)
    records = []
    for i in range(ncalls):
        kind = BOUNDARIES[i % 3]
        disc = _gas_disc(kind, "mh")
        x = disc.xn
        rho = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(rng.normal() * x)
        p = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(rng.normal() * x)
        c = np.sqrt(1.4 * p / rho).max()
        v = c * (rng.normal() + rng.normal() * x + 3.0 * rng.normal() * x * x)
        u = _solver(_record(disc.model.conserved(rho, v, p)))
        speed = float(np.max(disc.model.speed(u, x)))
        h = float(np.min(disc.dx[:, None] * disc.ops.weights))
        tau = 10.0 ** rng.uniform(1.0, 2.0) * h / speed
        if i % 2:
            tau = np.array([0.5, 1.0]) * tau
        try:
            value = _record(blending.low_order_subface_fluxes(disc, u, tau, True))
        except errors.SolverAbort as exc:
            value = f"{type(exc).__name__}: {exc}"
        records.append((f"direct/mh-fallback/{i}/{kind}", value))
    return records


def direct_face_calls(ncalls=48, seed=13):
    """time_average and face_values_ea of both stages on seeded gas states.

    Each stage starts from its own state, random around one density and
    one pressure level.  In stage one, one element's last node holds a
    fiftieth of its other nodes' least density, so that element's
    right-face trace extrapolates below zero and the face falls back; the
    stage-two faces fall back where stage one's did.  Recorded: both
    stages' face fluxes and fallback masks.
    """
    from mdrkfr import core, errors

    rng = np.random.default_rng(seed)
    records = []
    for i in range(ncalls):
        kind = BOUNDARIES[i % 3]
        disc = _gas_disc(kind, "none")
        model, ops, shape = disc.model, disc.ops, disc.xn.shape
        states = []
        for _ in range(2):
            rho = 10.0 ** rng.uniform(-1.0, 1.0) * rng.uniform(0.5, 1.5, shape)
            p = 10.0 ** rng.uniform(-1.0, 1.0) * rng.uniform(0.5, 1.5, shape)
            states.append([rho, rng.normal(size=shape), p])
        e = rng.integers(shape[0])
        states[0][0][e, -1] = 0.02 * states[0][0][e, :-1].min()
        states = [_solver(_record(model.conserved(*q))) for q in states]
        speed = float(np.max(model.speed(states[0], disc.xn)))
        dt = 10.0 ** rng.uniform(-4.0, -2.0) * float(np.min(disc.dx)) / speed
        pieces, value = [], []
        try:
            for state in states:
                favg, _, _ = core.time_average(model, state, pieces, disc.xn, disc.dxn, dt, ops)
                value.append(_record(core.face_values_ea(model, state, pieces, ops,
                                                               disc.xf, favg)))
                value.append(pieces[-1]["face_bad"])
            value = tuple(value)
        except errors.SolverAbort as exc:
            value = f"{type(exc).__name__}: {exc}"
        records.append((f"direct/ea-faces/{i}/{kind}", value))
    return records


# the families of extreme states the kernel calls draw from, per node
EXTREMES = ("signed-zero", "subnormal", "tiny-density", "huge")


def _extreme_gas(rng, shape):
    """Variable-leading gas states (3,) + shape, each node from a random
    family of EXTREMES: momenta +-0; subnormal momenta; densities near
    1e-300 with momenta whose products m v can be subnormal; magnitudes
    near 1e150 with m v = m^2 / rho around the largest float, where one
    grouping of a product overflows and another does not."""
    rho = 10.0 ** rng.uniform(-1.0, 1.0, shape)
    m = rng.normal(size=shape)
    e = 0.5 * m * m / rho + 10.0 ** rng.uniform(-1.0, 1.0, shape)
    family = rng.integers(len(EXTREMES), size=shape)
    zero, sub, tiny, huge = (family == k for k in range(len(EXTREMES)))
    m[zero] = np.copysign(0.0, rng.normal(size=shape))[zero]
    m[sub] *= 1e-310
    rho[tiny] = 10.0 ** rng.uniform(-308.0, -290.0, shape)[tiny]
    m[tiny] = (rho * 10.0 ** rng.uniform(-20.0, 0.0, shape) * rng.normal(size=shape))[tiny]
    e[tiny] = (rho * 10.0 ** rng.uniform(-1.0, 1.0, shape))[tiny]
    m[huge] *= 10.0 ** rng.uniform(145.0, 155.0, shape)[huge]
    # m^2 / rho from 10^307 to 10^308.8, past the largest float 1.8e308
    rho[huge] = (m / 10.0 ** rng.uniform(307.6, 308.2, shape) * m
                 * 10.0 ** rng.uniform(-0.6, 0.0, shape))[huge]
    e[huge] = 10.0 ** rng.uniform(300.0, 308.0, shape)[huge]
    return np.stack([rho, m, e])


def direct_kernel_calls(ncalls=24, seed=19):
    """The per-cell kernels of the gas step called directly on extreme states.

    Regrouping a formula, say 0.5 * (m * v) for (0.5 * m) * v, changes
    bits on subnormal momenta and where a product overflows, which states
    of the catalogue never reach.  Each call records: every Euler method
    on the states and on one (3,) state, numerical_flux, five_point,
    flux_time_derivative of the flux, local_solution_derivative, both
    stage rows of combine, blended_update and low_order_subface_fluxes in
    both modes; an abort records its message.
    """
    from mdrkfr import blending, core, errors, models

    rng = np.random.default_rng(seed)
    records = []
    for i in range(ncalls):
        kind = BOUNDARIES[i % 3]
        disc = _gas_disc(kind, "mh")
        model, shape, x = disc.model, disc.xn.shape, disc.xn
        u, ub, v1 = (_extreme_gas(rng, shape) for _ in range(3))
        # an increment that keeps every shifted density positive
        u1 = u * rng.uniform(-0.4, 0.4, u.shape)
        calls = {
            "flux": lambda: model.flux(u, x),
            "speed_and_flux": lambda: model.speed_and_flux(u, x),
            "pressure": lambda: model.pressure(u),
            "constraints": lambda: model.constraints(u),
            "indicator_quantity": lambda: model.indicator_quantity(u),
            "one-state": lambda: (model.flux(u[:, 0, 0], 0.0), model.speed_and_flux(
                u[:, 0, 0], 0.0), model.pressure(u[:, 0, 0]), model.constraints(u[:, 0, 0]),
                model.indicator_quantity(u[:, 0, 0])),
            "numerical_flux": lambda: models.numerical_flux(
                ub, u1, u, v1, 10.0 ** rng.uniform(-3.0, 160.0, shape)),
            "five_point": lambda: core.five_point(u, ub, u1, v1),
            "flux_time_derivative": lambda: core.flux_time_derivative(
                lambda w, k: model.flux(w, x), u, u1),
            "local_solution_derivative": lambda: core.local_solution_derivative(
                u, ub, disc.dxn, 10.0 ** rng.uniform(-6.0, 0.0), disc.ops.D, v1),
            "combine": lambda: tuple(
                core.combine(row, [{"f": u, "f1": ub}, {"f": u1, "f1": v1}][:k + 1], "f")
                for k, row in enumerate(core.STAGE_ROWS)),
            "blended_update": lambda: blending.blended_update(u, ub, rng.uniform(0.0, 1.0,
                                                                                   shape[0])),
            "subface-fo": lambda: _record(blending.low_order_subface_fluxes(
                disc, _solver(np.moveaxis(u, 0, -1)), 1e-3, False)),
            "subface-mh": lambda: _record(blending.low_order_subface_fluxes(
                disc, _solver(np.moveaxis(u, 0, -1)), np.array([5e-4, 1e-3]), True)),
        }
        for name, call in calls.items():
            with np.errstate(all="ignore"):
                try:
                    value = call()
                except errors.SolverAbort as exc:
                    value = f"{type(exc).__name__}: {exc}"
            records.append((f"direct/kernel/{i}/{kind}/{name}", value))
    return records


def _gas_disc(kind, limiter, ncells=6):
    from mdrkfr import core, models

    cfg = core.RunConfig(limiter=limiter, boundary=kind)
    return core.make_discretization(core.make_grid(0.0, 1.0, ncells), models.Euler(), cfg)


def _random_gas(disc, rng):
    shape = disc.xn.shape
    rho = 10.0 ** rng.uniform(-3.0, 1.0, shape)
    p = 10.0 ** rng.uniform(-4.0, 3.0, shape)
    v = rng.normal(scale=5.0, size=shape) * (rng.random(shape) > 0.1)
    return _record(disc.model.conserved(rho, v, p))


def direct_limiter_calls(ncalls=96, seed=11):
    """blend_and_limit_face_flux and scaling_limiter on seeded gas states.

    Flux limiter: a small step keeps the low-order face updates
    admissible; they are stage one's of core._low_order at dt = 2 tau,
    whose interval is then exactly tau.  A kick to the candidate's mass (energy) flux at a
    random face drives its minus-side density (pressure) negative; about
    half of the density calls need a pressure correction after the
    density one.  "both" kicks both fluxes at one face and the energy at
    another.  Scaling limiter: element-wise states whose nodes all clear
    a tenth of their mean's values; then one element at rest gets a node
    with a hundredth of the density, one node elsewhere a negative
    pressure, and "both" also makes the thin node's pressure negative.
    """
    from mdrkfr import blending, core, errors

    rng = np.random.default_rng(seed)
    records = []
    for i in range(ncalls):
        kind, branch = BOUNDARIES[i % 3], list(BRANCHES)[i % 4]
        disc = _gas_disc(kind, "mh" if i % 2 else "fo")
        ne = disc.grid.ncells
        u = _random_gas(disc, rng)
        us = _solver(u)
        speed = np.max(disc.model.speed(us, disc.xn))
        tau = 0.05 * float(np.min(disc.dx[:, None] * disc.ops.weights)) / speed
        try:
            low = core._low_order(disc, us, 2 * tau, core.step_start(disc, u))[0]
            flow, um, f_int_m = _record(low.flow), _record(low.um), _record(low.f_int_m)
            cm = low.cm[:, None]
            fho = flow * (1.0 + 1e-3 * rng.normal(size=flow.shape))
            faces = rng.choice(np.arange(1, ne), size=2, replace=False)
            kicks = {"density": [(faces[0], 0)], "pressure": [(faces[0], 2)],
                     "both": [(faces[0], 0), (faces[0], 2), (faces[1], 2)]}.get(branch, [])
            # the minus-side low-order update with the subcell flux at the face
            lowm = um - cm * (flow - f_int_m)
            for face, var in kicks:
                fho[face, var] += 20.0 * abs(lowm[face, var]) / cm[face, 0]
            fnum, thetas = blending.blend_and_limit_face_flux(
                disc, _solver(fho), low, rng.uniform(0.0, 0.5, ne))
            value = (_record(fnum), thetas)
        except errors.SolverAbort as exc:
            value = f"{type(exc).__name__}: {exc}"
        records.append((f"direct/flux-limiter/{i}/{kind}/{branch}", value))

        # element-wise levels with nodal spread a limiter leaves alone
        shape = disc.xn.shape
        u = _record(disc.model.conserved(
            10.0 ** rng.uniform(-3.0, 1.0, (ne, 1)) * rng.uniform(0.5, 1.5, shape),
            rng.normal(scale=5.0, size=(ne, 1)),
            10.0 ** rng.uniform(-4.0, 3.0, (ne, 1)) * rng.uniform(0.5, 1.5, shape)))
        thin, hot = rng.choice(ne, size=2, replace=False)
        node = rng.integers(disc.ops.degree + 1, size=2)
        if 0 in BRANCHES[branch]:
            u[thin, :, 1] = 0.0
            u[thin, node[0], 0] = 0.01 * u[thin, :, 0].mean()
        if 1 in BRANCHES[branch]:
            rho, m, _ = u[hot, node[1]]
            u[hot, node[1], 2] = 0.5 * m * m / rho - 0.1 * u[hot, :, 2].mean()
        if branch == "both":
            u[thin, node[0], 2] = -0.1 * u[thin, :, 2].mean()
        try:
            value = _record(blending.scaling_limiter(disc, _solver(u)))
        except errors.SolverAbort as exc:
            value = f"{type(exc).__name__}: {exc}"
        records.append((f"direct/scaling-limiter/{i}/{kind}/{branch}", value))
    return records


def direct_stability_calls():
    """Certified CFLs of find_cfl and find_rkfr_cfl, cfl_scan radii, the
    update blocks, one-sample spectral radii and the baseline's symbol."""
    from mdrkfr import stability
    from mdrkfr.operators import make_operators

    records = []
    for points, correction in PAIRINGS:
        ops = make_operators(3, points, correction)
        zero = np.zeros((ops.degree + 1,) * 2)
        for diss in ("d1", "d2"):
            for nkappa in SEARCH_NKAPPAS:
                for tol in SEARCH_TOLS:
                    records.append((f"direct/find_cfl/{correction}/{diss}/{nkappa}/{tol}",
                                    stability.find_cfl(ops, diss, nkappa=nkappa, tol=tol)))
            records.append((f"direct/cfl_scan/{correction}/{diss}",
                            np.array(stability.cfl_scan(ops, diss, SCAN_SIGMAS))))
            for sigma in SCAN_SIGMAS:
                blocks = stability.assemble_matrices(ops, sigma, diss)
                records.append((f"direct/assemble_matrices/{correction}/{diss}/{sigma}",
                                np.array([blocks.get(k, zero) for k in range(-2, 3)])))
                records.append((f"direct/max_spectral_radius/{correction}/{diss}/{sigma}/1",
                                stability.max_spectral_radius(blocks, stability._wavenumbers(1))))
            if correction == "g2" and diss == "d2":
                # the sigmas of `mdrkfr stability --scan` at its defaults
                sigmas = np.linspace(0.005, stability.find_cfl(ops, diss) * 1.15, 40)
                records.append((f"direct/cfl_scan/{correction}/{diss}/cli",
                                np.array(stability.cfl_scan(ops, diss, sigmas))))
        for nkappa in SEARCH_NKAPPAS:
            records.append((f"direct/find_rkfr_cfl/{correction}/{nkappa}",
                            stability.find_rkfr_cfl(ops, nkappa=nkappa)))
        records.append((f"direct/_rkfr_symbol/{correction}",
                        stability._rkfr_symbol(ops, SYMBOL_KAPPAS)))
    return records


def run_case_records():
    """harness.run_case results of RUN_CASES, one record per run."""
    from mdrkfr import errors, harness

    records = []
    for case_id, cells, scheme, overrides in RUN_CASES:
        cfg = harness.case_config(harness.build_case(case_id), **overrides)
        try:
            res = harness.run_case(case_id, cfg, cells=cells, scheme=scheme)
            value = {"steps": res.steps, "retries": res.retries,
                     "retry_reasons": dict(res.retry_reasons),
                     "min_constraints": res.min_constraints, "theta_min": res.theta_min,
                     "time": res.field.time, "u": res.field.data}
        except errors.SolverAbort as exc:
            value = {"abort": f"{type(exc).__name__}: {exc}"}
        key = "/".join([case_id, str(cells), scheme]
                       + [f"{k}={v}" for k, v in sorted(overrides.items())])
        records.append((f"run_case/{key}", value))
    return records


def cli_record():
    """Exit code, output without the wall time, and every file of CLI_RUN."""
    from mdrkfr import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(CLI_RUN)
            files = {}
            for name in sorted(os.listdir(tmp)):
                with open(name, "rb") as fh:
                    files[name] = fh.read()
        finally:
            os.chdir(cwd)
    value = {"exit code": code, "stdout": re.sub(r"wall=\S+", "", out.getvalue()),
             "stderr": err.getvalue(), **{f"file {n}": b for n, b in files.items()}}
    return [("cli/" + " ".join(CLI_RUN), value)]


def worker(tree, path):
    src = os.path.realpath(os.path.join(tree, "src"))
    sys.path.insert(0, src)
    import mdrkfr

    if not os.path.realpath(mdrkfr.__file__).startswith(src + os.sep):
        sys.exit(f"imported {mdrkfr.__file__}, not the package under {src}")
    with open(path, "wb") as fh:
        for key, case, cells, scheme, overrides, steps in matrix():
            pickle.dump((key, run_one(case, cells, scheme, overrides, steps)), fh)
        for record in (direct_subface_calls() + direct_mh_fallback_calls()
                       + direct_face_calls() + direct_limiter_calls() + direct_kernel_calls()
                       + direct_stability_calls() + run_case_records() + cli_record()):
            pickle.dump(record, fh)


def _records(path):
    with open(path, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


def same(a, b):
    """Equal values, arrays compared with array_equal plus signbit."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        if a.dtype.kind not in "fc":
            return np.array_equal(a, b)
        return (np.array_equal(a, b, equal_nan=True)
                and np.array_equal(np.signbit(a.real), np.signbit(b.real))
                and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))
    if isinstance(a, float) and isinstance(b, float):
        return same(np.array(a), np.array(b))
    return type(a) is type(b) and a == b


def _largest_difference(a, b):
    """' by up to |difference|' of two float arrays of one shape, else ''."""
    if not (isinstance(a, (float, np.ndarray)) and isinstance(b, (float, np.ndarray))):
        return ""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype.kind not in "fc" or b.dtype.kind not in "fc":
        return ""
    return f" by up to {float(np.max(np.abs(a - b), initial=0.0)):.2e}"


def compare(path_a, path_b):
    """Mismatch descriptions, counts of what was compared, reason notes."""
    mismatches, notes, counts = [], [], Counter()
    for (key_a, out_a), (key_b, out_b) in zip(_records(path_a), _records(path_b)):
        if key_a != key_b:
            raise SystemExit(f"record order differs: {key_a} against {key_b}")
        if key_a.startswith("direct/"):
            counts["direct calls"] += 1
            if not same(out_a, out_b):
                mismatches.append(f"{key_a}: outputs differ{_largest_difference(out_a, out_b)}")
            continue
        kind = key_a.split("/", 1)[0]
        if kind in ("run_case", "cli"):
            counts[f"{kind} runs"] += 1
            for name in sorted(set(out_a) | set(out_b)):
                counts["values"] += 1
                if not same(out_a.get(name), out_b.get(name)):
                    mismatches.append(f"{key_a}: {name} differs")
            continue
        counts["runs"] += 1
        counts["halvings"] += out_a["retries"]
        for name in ("retries", "abort"):
            counts["values"] += 1
            if out_a[name] != out_b[name]:
                mismatches.append(f"{key_a}: {name} {out_a[name]!r} != {out_b[name]!r}")
        if out_a["reasons"] != out_b["reasons"]:
            notes.append(key_a)
        if len(out_a["steps"]) != len(out_b["steps"]):
            mismatches.append(f"{key_a}: {len(out_a['steps'])} != {len(out_b['steps'])} steps")
        for n, (ra, rb) in enumerate(zip(out_a["steps"], out_b["steps"])):
            counts["accepted steps"] += 1
            for name in sorted(set(ra) | set(rb)):
                counts["values"] += 1
                if not same(ra.get(name), rb.get(name)):
                    mismatches.append(f"{key_a}: step {n} {name} differs")
    return mismatches, counts, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    # internal: --worker TREE OUT runs the matrix on one tree into OUT
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(*args.trees)

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"tree{i}.pickle") for i in range(2)]
        procs = [subprocess.Popen([sys.executable, "-B", os.path.abspath(__file__),
                                   "--worker", tree, path], env=env)
                 for tree, path in zip(args.trees, paths)]
        if any([proc.wait() != 0 for proc in procs]):
            print("a worker failed", file=sys.stderr)
            return 2
        mismatches, counts, notes = compare(*paths)
    print(", ".join(f"{counts[k]} {k}" for k in ("runs", "accepted steps", "halvings",
                                                 "direct calls", "run_case runs",
                                                 "cli runs", "values"))
          + f"; {len(mismatches)} mismatches")
    for line in mismatches[:50]:
        print("MISMATCH", line)
    if notes:
        print(f"note: the constraint behind a halving differs in {len(notes)} runs, "
              f"e.g. {notes[0]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
