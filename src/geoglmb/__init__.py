"""Clay property profiles from sparse, noisy depth observations.

Each property column of a site table is treated as one labeled object; a
generalized labeled multi-Bernoulli filter over the resulting labeled
random finite sets carries association ambiguity, missed detections, and
noise, and a maximum a posteriori readout yields per-depth estimates.
"""
from .errors import (
    ConfigError,
    FilterDivergenceError,
    GeoGlmbError,
    InfeasibleAssociationError,
    SiteTableError,
    WeightCollapseError,
)
from .gaussian import (
    Gaussian,
    MotionModel,
    SensorModel,
    kalman_predict,
    kalman_update,
    transition_matrices,
)
from .lrfs import (
    GlmbDensity,
    GlmbHypothesis,
    Label,
    best_hypothesis_with_cardinality,
    cardinality_distribution,
    empty_density,
)
from .filter import (
    BirthEntry,
    BirthModel,
    EstimateSeries,
    TrackEstimate,
    TruncationConfig,
    build_log_cost,
    extract_map_trajectories,
    joint_predict_update,
    run_sequence,
)
from .scenario import (
    PROPERTIES,
    Scenario,
    SiteRecord,
    bundled_records,
    bundled_site_path,
    depth_intervals,
    load_site_table,
    scenario_to_csv,
    synthesize_observations,
)
from .evaluation import (
    RunReport,
    build_report,
    compare_reports,
    ospa,
    rmse,
    write_metrics_csv,
    write_report_json,
)
from .experiment import (
    ExperimentConfig,
    run_experiment,
    run_monte_carlo,
    run_trial,
)

__version__ = "0.1.0"
