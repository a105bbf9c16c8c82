"""Active learning for flow-based network traffic classification.

A library plus benchmark harness: pool-based and stream-based active
learning over flow-feature datasets, a from-scratch random-forest learner,
eight query strategies, a simulated (optionally noisy) oracle, stopping
criteria, and TAR/TTR benchmark reporting.
"""

from . import errors
from .bench import (
    CsvSource,
    ExperimentConfig,
    ExperimentRow,
    emit_report,
    load_rows,
    run_experiment,
)
from .dataset import (
    Dataset,
    DriftSpec,
    FeatureSchema,
    IngestionConfig,
    Scaler,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_csv,
    standardize,
    subset_size,
)
from .engine import (
    IterationRecord,
    Oracle,
    PoolState,
    RunHistory,
    Stabilization,
    StopReason,
    StoppingCriteria,
    StreamConfig,
    check_stop,
    make_pool,
    oracle_label,
    run_pool_loop,
    run_stream_loop,
)
from .forest import (
    Committee,
    ForestModel,
    ForestParams,
    ProbabilityDistribution,
    evaluate_accuracy,
    fit_committee,
    fit_forest,
)
from .metrics import ConfusionMatrix, TimingRecord, confusion, f1_macro, tar, ttr
from .strategies import (
    LalParams,
    StrategyConfig,
    entropy,
    information_density,
    kl_disagreement,
    lal_state_features,
    least_confidence,
    margin,
    score_pool,
    select_batch,
    train_lal_regressor,
    vote_entropy,
)

__version__ = "0.1.0"
