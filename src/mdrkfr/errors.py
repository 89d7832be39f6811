"""Exception types shared across the solver."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent user configuration (unknown case, bad knob)."""


class SolverAbort(RuntimeError):
    """Base class for runtime failures that terminate a run."""


class AdmissibilityError(SolverAbort):
    """A solution state left the admissible set.

    Carries enough context to locate the failure: which constraint went
    non-positive, where, and when.
    """

    def __init__(self, constraint, value, element=None, node=None, time=None,
                 step=None, detail=""):
        self.constraint = constraint
        self.value = value
        self.element = element
        self.node = node
        self.time = time
        self.step = step
        msg = f"admissibility violated: {constraint} = {value:.6e}"
        if element is not None:
            msg += f" at element {element}"
        if node is not None:
            msg += f", node {node}"
        if time is not None:
            msg += f", t = {time:.6e}"
        if step is not None:
            msg += f", step {step}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StencilStateError(SolverAbort):
    """A perturbed or extrapolated state required by the time-derivative
    stencil left the model's evaluable domain (e.g. non-positive density).

    The time loop treats this as retriable: it halves the step and repeats
    it, up to harness.MAX_HALVINGS (12) times, before giving up.

    A failed low-order face-update check also names the stage (1 or 2)
    and the face (0..ne) of its lowest failing value; other failures
    leave both None.
    """

    def __init__(self, constraint, value, detail="", stage=None, face=None):
        self.constraint = constraint
        self.value = value
        self.stage = stage
        self.face = face
        msg = f"stencil state not evaluable: {constraint} = {value:.6e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
