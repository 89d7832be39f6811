"""Time two source trees on one benchmark workload in alternating pairs.

    python3 tools/pairs.py <tree-a> <tree-b> --workload W --pairs N --seconds S --seed K

Pair i runs `python3 bench/run.py --workload W --seed K+i --seconds S
--trace 0` once inside each tree, tree a first in even pairs and tree b
first in odd ones, so a drift of the host's speed over the session falls
on both trees alike.  Each run's last line of standard output is its
result; a run that exits non-zero, is not `correct` or has failed
operations stops the comparison.

Tree a is the baseline.  For every end-to-end metric the table gives each
tree's median and quartiles over the pairs, the pairs tree b wins (the
direction is BENCHMARK.json's `better`), and whether tree b's median is
better or worse than tree a's by more than tree a's interquartile range.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class RunRefused(RuntimeError):
    """A benchmark run whose result cannot be compared."""


def parse_result(stdout, returncode=0):
    """Metric name -> value of one run's output, or RunRefused."""
    lines = stdout.strip().splitlines()
    if returncode or not lines:
        raise RunRefused(f"exit code {returncode}, {len(lines)} lines of output")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RunRefused(f"correct={result['correct']}, failed={result['failed']} "
                         f"of {result['attempted']} operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_bench(tree, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout, proc.returncode)
    except RunRefused as exc:
        raise RunRefused(f"{tree}, seed {seed}: {exc}\n{proc.stderr[-2000:]}") from None


def summarize(pairs, better):
    """One row per metric of both trees over pairs, a list of (a, b)
    metric dicts; better maps a metric name to "lower" or "higher"."""
    rows = []
    for name in pairs[0][0]:
        # --workload all prefixes every metric with its workload's name
        sign = 1.0 if better[name.rsplit("/", 1)[-1]] == "lower" else -1.0
        a = np.array([p[0][name] for p in pairs], dtype=float)
        b = np.array([p[1][name] for p in pairs], dtype=float)
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        iqr = qa[2] - qa[0]
        # positive when tree b is better
        gain = sign * (qa[1] - qb[1])
        rows.append({"metric": name, "a": tuple(qa), "b": tuple(qb),
                     "wins": int(np.sum(sign * (a - b) > 0.0)), "pairs": len(pairs),
                     "change": (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan"),
                     "beyond_iqr": "better" if gain > iqr else "worse" if -gain > iqr else "no"})
    return rows


def format_rows(rows):
    width = max(len(r["metric"]) for r in rows)
    lines = [f"{'metric':<{width}} {'a median [q1, q3]':>30} {'b median [q1, q3]':>30} "
             f"{'change':>8} {'b wins':>7}  beyond a's IQR"]
    for r in rows:
        a, b = (f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (r["a"], r["b"]))
        lines.append(f"{r['metric']:<{width}} {a:>30} {b:>30} {r['change']:>+8.2%} "
                     f"{r['wins']:>3}/{r['pairs']:<3}  {r['beyond_iqr']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs, trees = [], (args.tree_a, args.tree_b)
    for i in range(args.pairs):
        seed, result = args.seed + i, [None, None]
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            result[k] = run_bench(trees[k], args.workload, seed, args.seconds)
        pairs.append(tuple(result))
        print(f"pair {i + 1}, seed {seed}: " + ", ".join(
            f"{name} {pairs[-1][0][name]:.6g} -> {pairs[-1][1][name]:.6g}"
            for name in pairs[-1][0]), file=sys.stderr)
    print(format_rows(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
