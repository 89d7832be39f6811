"""The benchmark's per-layer tracer wraps solver functions by name
(bench/tracing.py SPANS); a renamed or removed function would leave its
layer metric at zero without an error.  Only the tracer's file is read."""

import importlib
import inspect
import runpy
from pathlib import Path

from mdrkfr import models

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _is_function(value):
    # make_operators is wrapped by lru_cache
    return inspect.isfunction(inspect.unwrap(value))


def test_every_benchmark_span_names_a_solver_function():
    # run_path compiles the file without writing a bytecode cache next to it
    tracing = runpy.run_path(str(TRACING))
    for module_name, spans in tracing["SPANS"].items():
        module = importlib.import_module(f"mdrkfr.{module_name}")
        for name in spans:
            assert _is_function(getattr(module, name, None)), f"{module_name}.{name}"
    for method in tracing["MODEL_SPANS"]:
        assert _is_function(getattr(models.EquationModel, method, None)), method
