"""Command-line interface.

Subcommands: run, convergence, stability, order-check, compare.  Exit
codes: 0 on success, 1 on configuration and usage errors, 2 when a run
aborts on an admissibility violation.
"""

import argparse
import contextlib
import csv
import os
import sys

import numpy as np

from . import core, harness, order_conditions, stability
from .errors import ConfigurationError, SolverAbort
from .operators import make_operators

# the RunConfig fields settable by flag (--face-scheme sets face_scheme),
# in --help order; a choice field takes its values from core.CHOICES
FLAGS = ("points", "correction", "dissipation", "face_scheme", "limiter",
         "cfl", "final_time")


def _add_config_arguments(p):
    p.add_argument("--config", help="key = value configuration file ([run] section)")
    p.add_argument("--override", action="append", default=[], metavar="K=V",
                   help="override a config entry (repeatable)")
    for key in FLAGS:
        kind = {"choices": core.CHOICES[key]} if key in core.CHOICES else {"type": float}
        p.add_argument("--" + key.replace("_", "-"), **kind)


def _build_config(args, case):
    """Case defaults, overlaid by the config file, overlaid by CLI flags."""
    overrides = list(args.override)
    for key in FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            overrides.append(f"{key}={value}")
    return harness.load_config(args.config, overrides=overrides,
                               base=harness.case_config(case))


def _cell_count(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{key}: {text!r} is not a cell count") from None


def _meshes(args, case):
    return harness.check_meshes(case, [_cell_count("meshes", m) for m in args.meshes.split(",")])


def _write_limiter_rows(writer, step, t, model, stage):
    """Sparse limiter activity of one StageRecord: element alphas and face thetas.

    Only elements with a nonzero blending coefficient and faces whose
    flux was actually pulled toward the subcell flux produce rows.
    """
    for e in np.nonzero(stage.alpha > 0.0)[0]:
        writer.writerow([step, f"{t:.9e}", "alpha", int(e),
                         f"{float(stage.alpha[e]):.6e}"])
    if stage.theta is not None and stage.theta.size:
        for k, name in enumerate(model.constraint_names):
            for f in np.nonzero(stage.theta[:, k] < 1.0)[0]:
                writer.writerow([step, f"{t:.9e}", f"theta_{name}", int(f),
                                 f"{float(stage.theta[f, k]):.6e}"])


def _write_numbered_snapshot(path, res):
    """Snapshot named by the step count: out.csv -> out_000007.csv."""
    stem, ext = os.path.splitext(path)
    harness.write_snapshot(f"{stem}_{res.steps:06d}{ext}", res.disc, res.field.data,
                           res.field.time)


def _cmd_run(args):
    case = harness.build_case(args.case)
    cfg, extras = _build_config(args, case)
    cells = args.cells
    if cells is None:
        cells = _cell_count("cells", extras.get("cells", case.default_cells))
    snapshots = bool(args.output and cfg.snapshot_every)
    with contextlib.ExitStack() as stack:
        writer = None
        if args.diagnostics:
            writer = csv.writer(stack.enter_context(open(args.diagnostics, "w", newline="")))
            writer.writerow(["step", "t", "kind", "id", "value"])

        def on_step(result, before, diag):
            if writer is not None and diag.stages and diag.stages[-1].alpha is not None:
                _write_limiter_rows(writer, result.steps - 1, before.time,
                                    result.disc.model, diag.stages[-1])
            if snapshots and result.steps % cfg.snapshot_every == 0:
                _write_numbered_snapshot(args.output, result)

        res = harness.run_case(args.case, cfg, cells=cells, scheme=args.scheme,
                               on_step=on_step)
    if snapshots:
        _write_numbered_snapshot(args.output, res)
    reasons = ", ".join(f"{name}: {n}" for name, n in res.retry_reasons.most_common())
    reasons = f" ({reasons})" if reasons else ""
    print(f"case={args.case} cells={cells} steps={res.steps} "
          f"t={res.field.time:.6g} wall={res.wall_time:.2f}s retries={res.retries}{reasons}")
    if res.min_constraints is not None:
        names = res.disc.model.constraint_names
        mins = ", ".join(f"min {n}={v:.6e}" for n, v in zip(names, res.min_constraints))
        print(mins)
    if case.has_exact:
        l2, linf = harness.error_norms(res.disc, res.field.data, case.exact,
                                       res.field.time)
        print("L2  :", " ".join(f"{v:.6e}" for v in l2))
        print("Linf:", " ".join(f"{v:.6e}" for v in linf))
    if args.output:
        harness.write_snapshot(args.output, res.disc, res.field.data, res.field.time)
        print(f"snapshot written to {args.output}")
    return 0


def _cmd_convergence(args):
    case = harness.build_case(args.case)
    cfg, _ = _build_config(args, case)
    meshes = _meshes(args, case)
    rep = harness.convergence_suite(args.case, meshes, cfg, scheme=args.scheme)
    for var, name in enumerate(case.make_model().var_names):
        print(f"-- {name}")
        print(rep.format(var))
    for w in rep.warnings:
        print("warning:", w)
    return 0


def _cmd_stability(args):
    ops = make_operators(3, args.points, args.correction)
    sigma = stability.find_cfl(ops, args.dissipation, nkappa=args.kappa_samples)
    print(f"correction={args.correction} points={args.points} "
          f"dissipation={args.dissipation} cfl={round(sigma, 3)}")
    if args.scan:
        sigmas = np.linspace(0.005, sigma * 1.15, 40)
        print("sigma,max_abs_eigenvalue")
        for s, r in stability.cfl_scan(ops, args.dissipation, sigmas,
                                       nkappa=args.kappa_samples):
            print(f"{s:.6f},{r:.9f}")
    return 0


def _cmd_order_check(args):
    res = order_conditions.check_order_conditions(core.PRODUCTION_COEFFICIENTS)
    print("order-condition residuals (exact rational arithmetic):")
    for name, value in res._asdict().items():
        print(f"  {name}: {value}")
    slope, dts, errs = order_conditions.one_step_order_scan()
    print(f"one-step error slope: {slope:.3f} (expect about 5)")
    for dt, e in zip(dts, errs):
        print(f"  dt={dt:.3e}  error={e:.6e}")
    return 0 if res.all_zero() and slope >= 4.7 else 1


def _cmd_compare(args):
    case = harness.build_case(args.case)
    cfg, _ = _build_config(args, case)
    if not case.has_exact:
        raise ConfigurationError(f"case {args.case!r} has no exact solution to compare against")
    meshes = _meshes(args, case)
    print(f"{'cells':>7} {'two-stage L2':>14} {'baseline L2':>14} {'ratio':>7}")
    for nc in meshes:
        res_m = harness.run_case(args.case, cfg, cells=nc, scheme="mdrk")
        l2m, _ = harness.error_norms(res_m.disc, res_m.field.data, case.exact,
                                     res_m.field.time)
        res_r = harness.run_case(args.case, cfg, cells=nc, scheme=args.baseline)
        l2r, _ = harness.error_norms(res_r.disc, res_r.field.data, case.exact,
                                     res_r.field.time)
        print(f"{nc:7d} {l2m[0]:14.6e} {l2r[0]:14.6e} {l2m[0] / l2r[0]:7.3f}")
    print(f"baseline cfl: {res_r.disc.config.cfl:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="mdrkfr",
                                     description="1-D conservation-law solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="advance one case to its final time")
    p.add_argument("--case", required=True, choices=sorted(harness.CATALOG))
    p.add_argument("--cells", type=int)
    p.add_argument("--scheme", choices=harness.SCHEMES, default="mdrk")
    p.add_argument("--output", help="write final snapshot CSV here")
    p.add_argument("--diagnostics", help="write limiter diagnostics CSV here")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("convergence", help="mesh-refinement study")
    p.add_argument("--case", required=True, choices=sorted(harness.CATALOG))
    p.add_argument("--meshes", default="20,40,80,160")
    p.add_argument("--scheme", choices=harness.SCHEMES, default="mdrk")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("stability", help="Fourier CFL limit")
    for key in ("correction", "dissipation", "points"):
        p.add_argument("--" + key, choices=core.CHOICES[key], default=getattr(core.RunConfig, key))
    p.add_argument("--kappa-samples", type=int, default=1024, dest="kappa_samples")
    p.add_argument("--scan", action="store_true", help="also print a sigma scan")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("order-check", help="order-condition residuals and one-step order")
    p.set_defaults(func=_cmd_order_check)

    p = sub.add_parser("compare", help="error comparison against the RK baseline")
    p.add_argument("--case", required=True, choices=sorted(harness.CATALOG))
    p.add_argument("--baseline", choices=("rkfr",), default="rkfr")
    p.add_argument("--meshes", default="20,40,80")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's usage errors exit 2, an abort's code
        return exc.code and 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SolverAbort as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
