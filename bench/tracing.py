"""Per-layer spans recorded from outside the solver.

A Tracer replaces chosen functions of a freshly imported mdrkfr package with
wrappers that time each call.  Spans nest on one stack: a span's self time
is its duration minus the time of the spans it contains, and it is added to
the layer metric its function belongs to.  Unwrapped helpers count toward
the nearest wrapped caller.  Spans are folded into totals as they close,
except step spans, whose durations are kept for percentiles.
"""

import functools
import time
from collections import Counter

import numpy as np

# function name -> per-layer metric that receives its self time
SPANS = {
    "harness": {
        "run_case": "harness.loop_self_s",
        "make_run": "harness.make_run_s",
    },
    "core": {
        "mdrk_step": "core.step_self_s",
        "rkfr_step": "core.step_self_s",
        "stage1_time_average": "core.stage_average_s",
        "stage2_time_average": "core.stage_average_s",
        "face_values_ea_stage1": "core.ea_faces_s",
        "face_values_ea_stage2": "core.ea_faces_s",
        "face_values_ae": "core.ae_faces_s",
        "_assemble_face_flux": "core.face_flux_s",
        "face_wave_speeds": "core.face_flux_s",
        "fr_flux_derivative": "core.fr_residual_s",
        "compute_dt": "core.compute_dt_s",
        "validate_admissible": "core.admissibility_check_s",
        "rkfr_rhs": "core.rkfr_rhs_s",
    },
    "blending": {
        "smoothness_alpha": "blending.indicator_s",
        "low_order_subface_fluxes": "blending.subcell_flux_s",
        "blend_and_limit_face_flux": "blending.flux_limiter_s",
        "low_order_residual": "blending.low_order_residual_s",
        "scaling_limiter": "blending.scaling_limiter_s",
    },
    "stability": {
        "find_cfl": "stability.find_cfl_s",
        "find_rkfr_cfl": "stability.find_rkfr_cfl_s",
        "assemble_matrices": "stability.assemble_s",
        "amplification_matrix": "stability.assemble_s",
        "rkfr_update_matrix": "stability.assemble_s",
    },
    "ssprk": {"step": "ssprk.step_s"},
    "operators": {"make_operators": "operators.make_operators_s"},
}

# methods of every equation model class
MODEL_SPANS = {"flux": "models.flux_s", "constraints": "models.constraints_s"}


def span_metrics():
    """Every metric that receives self time."""
    names = {m for spans in SPANS.values() for m in spans.values()}
    return names | set(MODEL_SPANS.values()) | {"stability.eig_s"}


class _Delegate:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Self time per layer metric, event counts and step durations."""

    def __init__(self):
        self.self_s = Counter()
        self.counts = Counter()
        self.step_ms = []
        self._stack = []
        self._run_depth = 0

    def wrap(self, fn, metric, on_exit=None, on_enter=None):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if on_enter is not None:
                on_enter()
            result, raised = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[metric] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if on_exit is not None:
                    on_exit(args, result, elapsed, raised)

        return traced

    # -- hooks that turn spans into counts

    def _enter_run(self):
        self._run_depth += 1

    def _exit_run(self, args, result, elapsed, raised):
        self._run_depth -= 1

    def _exit_step(self, args, result, elapsed, raised):
        self.step_ms.append(1e3 * elapsed)
        self.counts["core.step_calls"] += 1
        if self._run_depth:
            self.counts["harness.step_attempts"] += 1
            self.counts["harness.rejected_attempts"] += raised

    def _exit_alpha(self, args, result, elapsed, raised):
        if not raised:
            self.counts["blending.blended_elements"] += int(np.count_nonzero(result > 0.0))

    def _exit_limiter(self, args, result, elapsed, raised):
        if not raised and result[1].size:
            self.counts["blending.limited_faces"] += int(
                np.count_nonzero((result[1] < 1.0).any(axis=1)))

    def _exit_flux(self, args, result, elapsed, raised):
        u = np.asarray(args[1])
        self.counts["models.flux_calls"] += 1
        self.counts["models.flux_rows"] += u.size // u.shape[-1]

    def _exit_constraints(self, args, result, elapsed, raised):
        self.counts["models.constraints_calls"] += 1

    def _exit_eig(self, args, result, elapsed, raised):
        self.counts["stability.radius_evals"] += 1

    def install(self, modules):
        """Wrap the span functions of one imported package.

        modules maps short names ("core", "harness", ...) to module objects.
        Every module-level alias of a wrapped function is replaced, so calls
        made through `from x import f` names are traced too.
        """
        hooks = {
            "run_case": (self._exit_run, self._enter_run),
            "mdrk_step": (self._exit_step, None),
            "rkfr_step": (self._exit_step, None),
            "smoothness_alpha": (self._exit_alpha, None),
            "blend_and_limit_face_flux": (self._exit_limiter, None),
        }
        replaced = {}
        for mod_name, spans in SPANS.items():
            module = modules[mod_name]
            for fn_name, metric in spans.items():
                original = getattr(module, fn_name)
                on_exit, on_enter = hooks.get(fn_name, (None, None))
                replaced[id(original)] = (original, self.wrap(original, metric, on_exit, on_enter))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

        models = modules["models"]
        model_hooks = {"flux": self._exit_flux, "constraints": self._exit_constraints}
        for value in list(vars(models).values()):
            if isinstance(value, type) and issubclass(value, models.EquationModel):
                for method, metric in MODEL_SPANS.items():
                    if method in vars(value):
                        setattr(value, method, self.wrap(vars(value)[method], metric,
                                                         model_hooks[method]))

        stability = modules["stability"]
        eigvals = self.wrap(np.linalg.eigvals, "stability.eig_s", self._exit_eig)
        stability.np = _Delegate(np, linalg=_Delegate(np.linalg, eigvals=eigvals))
