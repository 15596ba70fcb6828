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
)
from .errors import (
    BlowupDetected,
    ConfigInvalid,
    ConvergenceFailure,
    ConvexityLost,
    DegenerateCurve,
    EnergyUnderflow,
    ExactShrinker,
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
    SingularityEstimate,
    StepControl,
    estimate_singularity,
    rescale_to_rmcf,
    run_flows,
    run_mcf,
    run_rmcf,
)
from .gauge import (
    GraphFunction,
    ResidualReport,
    apply_L,
    graph_hausdorff,
    normal_graph,
    reconstruct,
    residual,
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
    approach_series,
    monitor,
    shrinker_energy,
    superexponential_flag,
)
from .labcli import (
    ScenarioConfig,
    build_curve,
    experiment_rate,
    experiment_separation,
    main,
    parse_config,
    parse_config_text,
    run,
    validate_config,
)
