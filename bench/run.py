"""Time-to-solution benchmark of the mdrkfr solver.

Run from the repository root:

    python3 bench/run.py --workload shock-blended --seed 1 --seconds 25 --trace 0

--workload all runs every workload in turn in this one process.  With
--trace 0 the run measures end-to-end metrics; with --trace 1 it alternates
untraced rounds with rounds traced per layer and reports the layer metrics
and the tracing overhead.  The metric names and units are those listed in
BENCHMARK.json.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
solver sources could not be imported.

Times are reported in reference seconds.  On a shared host other tenants
change the processor's speed by tens of percent, in spells of seconds and
in drifts over minutes.  So one pass of a fixed calibration kernel is
timed just before every operation, and the operation's time is rescaled
by that pass to the kernel's typical time on the reference machine,
CALIBRATION_S.  Each operation then counts with its median over the run's
rounds.  Measured seconds go to standard error.
"""

import os

# one BLAS thread: the solver's matrices are a few rows wide, and extra
# threads only add scheduling noise on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import references  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, span_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "blending", "models", "stability", "ssprk", "harness", "operators")
SETUP_REPEATS = 7
clock = time.perf_counter

# median pass of the calibration kernel on the reference machine, a 2-core
# virtual machine (Intel Xeon at 2.1 GHz, numpy 2.4.6), over 272 passes
# spread across 200 seconds
CALIBRATION_S = 0.0076
_CAL_STATE = 1.0 + np.random.default_rng(0).random((200, 4, 3))
_CAL_WEIGHTS = np.array([0.1739, 0.3261, 0.3261, 0.1739])


def calibrate():
    """Seconds one pass of a fixed kernel takes now.

    The kernel is made of what the solver spends its time on: small numpy
    operations on nodal states and the Python calls between them.  It uses
    no solver code, so a change to the solver cannot move it.
    """
    u = _CAL_STATE
    start = clock()
    for _ in range(120):
        rho = u[..., 0]
        v = u[..., 1] / rho
        p = 0.4 * (u[..., 2] - 0.5 * u[..., 1] * v)
        f = np.stack([u[..., 1], p + u[..., 1] * v, (u[..., 2] + p) * v], axis=-1)
        means = np.einsum("p,epv->ev", _CAL_WEIGHTS, f)
        padded = np.concatenate([means[:1], means, means[-1:]])
        if np.any(rho <= 0.0) or not np.all(np.isfinite(padded)):
            raise RuntimeError("calibration kernel produced an inadmissible state")
    return clock() - start


def fresh_import():
    """Import the solver package anew, so set-up includes its import."""
    for name in [n for n in sys.modules if n == "mdrkfr" or n.startswith("mdrkfr.")]:
        del sys.modules[name]
    importlib.import_module("mdrkfr")
    return {name: importlib.import_module(f"mdrkfr.{name}") for name in MODULES}


def setup(ops, tracer=None):
    """Import, operators, discretizations, baseline CFL; returns (pkg, seconds).

    Garbage left by earlier rounds is collected first, and installing the
    tracer is not counted in the set-up time.  The seconds are measured
    seconds.
    """
    gc.collect()
    start = clock()
    pkg = fresh_import()
    seconds = clock() - start
    if tracer is not None:
        tracer.install(pkg)
    start = clock()
    workloads.prepare(pkg, ops)
    return pkg, seconds + clock() - start


def run_round(pkg, ops, calibration):
    """Run every operation once and check each output.

    Times one pass of the calibration kernel before every operation and
    appends those times to calibration.  Each outcome carries its measured
    seconds and its reference seconds, rescaled by the pass before it.
    """
    outcomes = []
    for op in ops:
        calibration.append(calibrate())
        start = clock()
        try:
            out = workloads.run_op(pkg, op)
        except Exception as exc:  # a raising operation counts as failed
            out = workloads.Outcome(op, error=f"{type(exc).__name__}: {exc}")
        out.seconds = clock() - start
        out.reference_s = out.seconds * CALIBRATION_S / calibration[-1]
        if out.error is None:
            out.error = workloads.check(out)
            out.check_failed = out.error is not None
        outcomes.append(out)
    for group, message in workloads.check_series(outcomes).items():
        for out in outcomes:
            if out.op.group == group and out.error is None:
                out.error, out.check_failed = message, True
    for out in outcomes:
        if out.error is not None:
            print(f"  {out.op.name}: {out.error}", file=sys.stderr)
        out.result = None  # checked; keeps memory flat across rounds
    return outcomes


def typical(rounds, key=lambda o: o.reference_s):
    """Each operation's median figure over the given rounds, by name."""
    figures = {}
    for outcomes in rounds:
        for o in outcomes:
            figures.setdefault(o.op.name, []).append(key(o))
    return {name: statistics.median(v) for name, v in figures.items()}


def end_to_end(rounds, setups):
    """setups holds the reference seconds of each set-up."""
    wall = sum(typical(rounds).values())
    cell_steps = statistics.median(sum(o.cell_steps for o in r) for r in rounds)
    return {
        "wall_s": wall,
        "cell_steps_per_s": cell_steps / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def step_fit(untraced):
    """Least-squares step time against cells over the workload's fit runs.

    Uses untraced rounds: each fit run's median time per step attempt, in
    reference seconds.  Returns (fixed us per step, us per cell), zeros
    without two meshes.
    """
    fit_rounds = [[o for o in r if o.op.fit and o.error is None and o.attempts]
                  for r in untraced]
    per_attempt = typical(fit_rounds, key=lambda o: o.reference_s / o.attempts)
    cells = {o.op.name: o.op.cells for r in fit_rounds for o in r}
    if len(set(cells.values())) < 2:
        return 0.0, 0.0
    x = np.array([cells[name] for name in per_attempt], dtype=float)
    y = np.array(list(per_attempt.values()))
    slope, intercept = np.polyfit(x, y, 1)
    return 1e6 * intercept, 1e6 * slope


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracers, untraced, scale):
    """Per-layer metrics: medians over traced rounds of per-round figures."""
    per_round = []
    for tracer in tracers:
        c = tracer.counts
        m = dict.fromkeys(span_metrics(), 0.0)
        m.update({k: v * scale for k, v in tracer.self_s.items()})
        steps = c["core.step_calls"]
        attempts, rejected = c["harness.step_attempts"], c["harness.rejected_attempts"]
        m.update({
            "harness.step_attempts": attempts,
            "harness.rejected_attempts": rejected,
            "harness.accept_ratio": _ratio(attempts - rejected, attempts),
            "models.flux_calls_per_step": _ratio(c["models.flux_calls"], steps),
            "models.flux_rows_per_call": _ratio(c["models.flux_rows"], c["models.flux_calls"]),
            "models.constraints_calls_per_step": _ratio(c["models.constraints_calls"], steps),
            "blending.blended_elements": c["blending.blended_elements"],
            "blending.limited_faces": c["blending.limited_faces"],
            "stability.radius_evals": c["stability.radius_evals"],
        })
        per_round.append(m)
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    step_ms = scale * np.concatenate([np.asarray(t.step_ms) for t in tracers])
    metrics["core.step_samples"] = int(step_ms.size)
    metrics["core.step_p50_ms"] = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
    metrics["core.step_p99_ms"] = float(np.percentile(step_ms, 99)) if step_ms.size else 0.0
    fixed, per_cell = step_fit(untraced)
    metrics["core.step_fixed_us"], metrics["core.step_per_cell_us"] = fixed, per_cell
    return metrics


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics, attempted, failed, correct)."""
    ops = workloads.make_ops(name, seed)
    rounds, calibration = [], []
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            pkg, seconds_taken = setup(ops)
            setups.append(seconds_taken * CALIBRATION_S / before)
        deadline = clock() + seconds
        while not rounds or clock() < deadline:
            rounds.append(run_round(pkg, ops, calibration))
        scale = CALIBRATION_S / statistics.median(calibration)
        metrics = end_to_end(rounds, setups)
    else:
        # every round sets up afresh, so traced rounds include set-up layers;
        # traced and untraced rounds alternate, pair by pair in swapped order,
        # and the overhead compares the two rounds of each pair
        tracers, untraced, ratios = [], [], []
        deadline = clock() + seconds
        while not rounds or clock() < deadline:
            order = (False, True) if len(rounds) % 4 == 0 else (True, False)
            pair = {}
            for traced_round in order:
                tracer = Tracer() if traced_round else None
                pkg, _ = setup(ops, tracer)
                pair[traced_round] = run_round(pkg, ops, calibration)
                rounds.append(pair[traced_round])
                if traced_round:
                    tracers.append(tracer)
                else:
                    untraced.append(pair[traced_round])
            ratios.append(sum(o.seconds for o in pair[True])
                          / sum(o.seconds for o in pair[False]))
        scale = CALIBRATION_S / statistics.median(calibration)
        metrics = layer_metrics(tracers, untraced, scale)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    reference = typical(rounds)
    for op in ops:
        times = [o.seconds for r in rounds for o in r if o.op is op]
        print(f"  {op.name}: median {statistics.median(times):.4f} s measured, "
              f"{reference[op.name]:.4f} s reference, over {len(times)} rounds",
              file=sys.stderr)
    print(f"  calibration: fastest {1e3 * min(calibration):.3f} ms, median "
          f"{1e3 * statistics.median(calibration):.3f} ms; scale {scale:.4f}", file=sys.stderr)
    outcomes = [o for r in rounds for o in r]
    failed = sum(o.error is not None for o in outcomes)
    correct = not any(o.check_failed for o in outcomes)
    return metrics, len(outcomes), failed, correct


def result_line(spec, metrics, attempted, failed, correct, prefix=""):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {prefix + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "mdrkfr" / "__init__.py").is_file():
        print(f"error: solver sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec_file = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]
    problem = references.check_sod_star()
    if problem is not None:
        print(f"error: exact Riemann reference is wrong: {problem}", file=sys.stderr)
        return 3

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        print(f"{name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
              file=sys.stderr)
        metrics, attempted, failed, correct = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        line = result_line(spec, metrics, attempted, failed, correct,
                           prefix=f"{name}/" if len(names) > 1 else "")
        for key, m in line["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
        combined["correct"] &= correct
        combined["attempted"] += attempted
        combined["failed"] += failed
        combined["metrics"].update(line["metrics"])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
