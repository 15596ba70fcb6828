"""Numerical laboratory for curve shortening flow and its rescaled picture."""

__version__ = "0.1.0"

from .curvegeo import (
    DiscreteCurve,
    GeometryFields,
    circle,
    distance_to_circle,
    ellipse,
    f_functional,
    fourier_curve,
    gaussian_weights,
    geometry,
    hausdorff_distance,
    random_fourier,
    resample,
    shrinker_quantity,
    support_function,
)
from .errors import (
    BlowupDetected,
    ConfigInvalid,
    ConvergenceFailure,
    ConvexityLost,
    DegenerateCurve,
    EnergyUnderflow,
    FrameMissing,
    InterpolationFailure,
    InvalidCurve,
    NotAGraph,
    NotShrinking,
    ShrinkerLabError,
    StepRejected,
    TimeOutOfRange,
    WindowTooShort,
)
from .flowcore import (
    FlowTrajectory,
    StepControl,
    estimate_singularity,
    rescale_to_rmcf,
    run_flows,
    run_mcf,
    run_rmcf,
)
from .gauge import (
    apply_L,
    graph_hausdorff,
    normal_graph,
    normal_graphs,
    reconstruct,
    residual,
    residuals,
)
from .spectral import (
    Spectrum,
    WeightedOperator,
    assemble,
    eigenpairs,
    rayleigh_bound,
)
from .frequency import (
    FrequencyTrace,
    monitor,
    shrinker_energy,
    superexponential_flag,
)

_LABCLI_NAMES = ("ScenarioConfig", "build_curve", "experiment_rate",
                 "experiment_separation", "main", "parse_config",
                 "parse_config_text", "run", "validate_config")


def __getattr__(name):
    # the scenario runner loads on first use, so that `python -m
    # shrinkerlab.labcli` finds it not yet imported and runpy stays silent
    if name in _LABCLI_NAMES:
        from . import labcli
        return getattr(labcli, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
