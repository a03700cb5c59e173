"""The paper's primary contribution: the REM-generation toolchain.

Data containers (:class:`REMDataset`), the §III-B preprocessing
pipeline, the predictor families of Fig. 8, the REM product itself, and
the end-to-end :func:`generate_rem` pipeline.
"""

from . import predictors
from .dataset import REMDataset
from .density import DensityPoint, DensityStudyResult, density_sweep
from .fingerprinting import (
    FingerprintEvaluation,
    FingerprintLocalizer,
    evaluate_fingerprinting,
)
from .handover import HandoverEvent, HandoverPlan, hysteresis_tradeoff, plan_handovers
from .relay import RelayPlacement, place_relay, relay_gain_db
from .pipeline import (
    DEFAULT_KNN_GRID,
    ToolchainConfig,
    ToolchainResult,
    generate_rem,
)
from .preprocessing import (
    PreprocessConfig,
    PreprocessResult,
    preprocess,
    train_test_split,
)
from .rem import (
    RadioEnvironmentMap,
    RemGrid,
    build_rem,
    build_rem_layers,
    build_uncertainty_rem,
)

__all__ = [
    "predictors",
    "REMDataset",
    "DensityPoint",
    "DensityStudyResult",
    "density_sweep",
    "FingerprintEvaluation",
    "FingerprintLocalizer",
    "evaluate_fingerprinting",
    "HandoverEvent",
    "HandoverPlan",
    "hysteresis_tradeoff",
    "plan_handovers",
    "RelayPlacement",
    "place_relay",
    "relay_gain_db",
    "ToolchainConfig",
    "ToolchainResult",
    "generate_rem",
    "DEFAULT_KNN_GRID",
    "PreprocessConfig",
    "PreprocessResult",
    "preprocess",
    "train_test_split",
    "RadioEnvironmentMap",
    "RemGrid",
    "build_rem",
    "build_rem_layers",
    "build_uncertainty_rem",
]
