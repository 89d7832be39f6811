"""The summary of tools/pairs.py on canned benchmark results."""

import json
import runpy
from pathlib import Path

import pytest

PAIRS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "pairs.py"))
BETTER = {"wall_s": "lower", "cell_steps_per_s": "higher"}


def _line(correct=True, failed=0, **values):
    return json.dumps({"correct": correct, "attempted": 4, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}})


def test_summary_counts_wins_in_each_metric_direction():
    a_wall, b_wall = [1.20, 1.22, 1.25, 1.21, 1.30], [1.15, 1.17, 1.26, 1.16, 1.18]
    pairs = [({"wall_s": wa, "cell_steps_per_s": 100.0}, {"wall_s": wb, "cell_steps_per_s": r})
             for wa, wb, r in zip(a_wall, b_wall, [99.0, 101.0, 100.0, 98.0, 97.0])]
    wall, rate = PAIRS["summarize"](pairs, BETTER)
    # medians 1.22 and 1.17; quartiles by linear interpolation
    assert wall["metric"] == "wall_s"
    assert wall["a"] == pytest.approx((1.21, 1.22, 1.25))
    assert wall["b"] == pytest.approx((1.16, 1.17, 1.18))
    assert wall["wins"] == 4 and wall["pairs"] == 5
    assert wall["change"] == pytest.approx(-0.05 / 1.22)
    # the gap 0.05 exceeds a's IQR 0.04
    assert wall["beyond_iqr"] == "better"
    # higher is better: one win, one tie, and a median 1.0 below an IQR of 0
    assert rate["wins"] == 1 and rate["beyond_iqr"] == "worse"
    table = PAIRS["format_rows"]([wall, rate])
    assert "wall_s" in table and "4/5" in table and "-4.10%" in table


def test_summary_within_the_baseline_spread_is_no_gain():
    pairs = [({"wall_s": a}, {"wall_s": b}) for a, b in [(1.0, 0.99), (1.2, 1.19), (1.1, 1.09)]]
    (row,) = PAIRS["summarize"](pairs, BETTER)
    assert row["wins"] == 3 and row["beyond_iqr"] == "no"


def test_summary_reads_the_direction_of_workload_prefixed_metrics():
    # --workload all names every metric "<workload>/<metric>"
    pairs = [({"cfl-certify/wall_s": 1.0}, {"cfl-certify/wall_s": 0.9})] * 2
    (row,) = PAIRS["summarize"](pairs, BETTER)
    assert row["wins"] == 2 and row["beyond_iqr"] == "better"


def test_parse_result_reads_the_last_line_and_refuses_bad_runs():
    out = "noise\n" + _line(wall_s=1.5) + "\n"
    assert PAIRS["parse_result"](out) == {"wall_s": 1.5}
    refused = PAIRS["RunRefused"]
    for text, code in [(_line(correct=False, wall_s=1.0), 0), (_line(failed=1, wall_s=1.0), 0),
                       (_line(wall_s=1.0), 2), ("", 0)]:
        with pytest.raises(refused):
            PAIRS["parse_result"](text, code)
