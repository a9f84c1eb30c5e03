"""style-lens: driving-style analytics and style-conditioned forecasting.

Quantifies driving style from 2-D vehicle trajectories (fixed-matrix TDBM
scoring and unsupervised kinematic clustering), reproduces the associated
dataset-distribution analyses as data artifacts, and demonstrates
style-conditioned trajectory forecasting with a factorized style-context
embedding bank, validated on bundled synthetic scenario generators.
"""

from .embed import (
    EmbeddingBank,
    StyleIndex,
    bank_gradients,
    context_classify,
    lookup,
    style_index,
)
from .forecast import (
    Forecast,
    ForecastModel,
    MetricsRow,
    TrainingExample,
    evaluate,
    examples_from_scenes,
    predict,
    train,
    wta_loss,
)
from .kdsc import (
    DEFAULT_SUBSET,
    ClusterModel,
    assign,
    fit_kdsc,
    label_clusters,
)
from .kinematics import FEATURE_NAMES, KinematicFeatures, extract_features, gamma
from .report import (
    BoxplotStats,
    cluster_speed_distribution,
    kinematics_by_style,
    mdsi_tdbm_heatmap,
    run_report,
    style_histogram,
)
from .stats import WelchResult, betainc_reg, quantile_inclusive, welch_t_test
from .synth import DEFAULT_PARAMS, StyleParams, gen_cruise, gen_yellow_light
from .tdbm import (
    B_MATRIX,
    StyleClass,
    StyleScores,
    TdbmConfig,
    TdbmFeatureVector,
    build_tdbm_features,
    tdbm_classify,
    tdbm_score,
)
from .traj import (
    Scene,
    StyleLensError,
    TrajectoryError,
    TrajectorySample,
    derivatives,
    load_scenes,
    resample_uniform,
    save_scenes,
)

__version__ = "0.1.0"
