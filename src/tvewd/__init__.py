"""Time-varying extended Wold decomposition for volatility series.

A locally stationary AR view of a daily volatility series is inverted into
its time-varying moving-average shock structure, which is re-expressed on a
dyadic (Haar) persistence-scale system.  The package provides the
realized-volatility ingest pipeline, the local linear kernel estimator, the
multiscale decomposition and its persistence-share analytics, multiscale
h-step forecasting, benchmark models, a rolling out-of-sample evaluation
harness with Diebold-Mariano tests, a simulation module with known ground
truth, and a command-line interface.
"""

from .benchmarks import (
    MODEL_NAMES,
    ModelSpec,
    ewd_static_forecast,
    har_fit_forecast,
    har_terms,
    tvar_forecast,
    tvhar_fit_forecast,
)
from .evaluate import (
    DMResult,
    EvaluationReport,
    RollingPlan,
    dm_test,
    format_report,
    grid_search,
    mae,
    rmse,
    rolling_evaluate,
    significance_marks,
)
from .forecast import ScaleWeights, estimate_weights, forecast_scale
from .locreg import (
    EstimationError,
    KernelSpec,
    TvpArFit,
    boundary_fit,
    fit_tvp_ar,
    local_level,
)
from .rv import (
    DataQualityError,
    TradingCalendar,
    annualize,
    load_ticks,
    realized_variance,
    rv_pipeline,
    sample_five_minute,
    stream_rv,
)
from .series import VolatilitySeries, load_series, store_series
from .sim import Curve, SimResult, TvpArScenario, simulate
from .wold import (
    ExplosiveWarning,
    MultiscaleConfig,
    MultiscaleDecomposition,
    PersistenceShares,
    ar_to_ma,
    decompose,
    haar_coefficients,
    haar_energy_gap,
    haar_innovations,
    persistence_shares,
    scale_components,
)

__version__ = "0.1.0"
