"""Exception hierarchy for shrinkerlab.

Every failure mode raised by the library derives from ShrinkerLabError so
callers can catch library errors without masking programming errors.
"""


class ShrinkerLabError(Exception):
    """Base class for all shrinkerlab errors."""


class InvalidCurve(ShrinkerLabError):
    """Curve data violates a construction invariant (size, simplicity, spacing)."""


class DegenerateCurve(ShrinkerLabError):
    """Metric speed fell below tolerance; differential geometry undefined."""


class InterpolationFailure(ShrinkerLabError):
    """Resampling produced a curve that breaks the curve invariants."""


class BlowupDetected(ShrinkerLabError):
    """Curvature exceeded the configured cap during a flow step."""


class StepRejected(ShrinkerLabError):
    """A time step or a run's step plan is refused: a step beyond its bound,
    a cfl out of range, or a run past its step or stored-node budget."""


class ConvexityLost(ShrinkerLabError):
    """A flow started from convex data produced a non-convex frame.

    start is the batch index of the curve when `flowcore.run_flows` finds
    it at frame 0, before any step (its start is not convex), else None.
    """

    start = None


class NotShrinking(ShrinkerLabError):
    """Enclosed area is not decreasing linearly; no singularity to estimate."""


class TimeOutOfRange(ShrinkerLabError):
    """A frame time is not strictly before the singular time."""


class NotAGraph(ShrinkerLabError):
    """Target curve is not a single-valued normal graph over the base.

    frame is the index of the failing frame pair when `gauge.normal_graphs`
    raises it, else None.
    """

    frame = None


class FrameMissing(ShrinkerLabError):
    """A required frame (e.g. at tau +/- delta) is absent from the trajectory."""


class EnergyUnderflow(ShrinkerLabError):
    """Energy I fell below the floor; frequency quotient undefined."""


class WindowTooShort(ShrinkerLabError):
    """Fit window contains too few frames for a stable regression."""


class ConvergenceFailure(ShrinkerLabError):
    """Eigenvalue solve did not converge."""


class ConfigInvalid(ShrinkerLabError):
    """Scenario configuration is malformed.

    Parameters
    ----------
    message : str
        Human-readable description.
    field : str, optional
        Name of the offending configuration key.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = "%s: %s" % (field, message)
        super().__init__(message)
