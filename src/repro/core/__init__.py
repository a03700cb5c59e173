"""The paper's primary contribution: the REM-generation toolchain.

Data containers (:class:`REMDataset`), the §III-B preprocessing
pipeline, the predictor families of Fig. 8, the REM product itself, and
the end-to-end pipeline behind :func:`repro.serve.run_job`.
"""

from . import predictors
from .dataset import REMDataset
from .density import DensityPoint, DensityStudyResult, density_sweep
from .fingerprinting import (
    FingerprintEvaluation,
    FingerprintLocalizer,
    evaluate_fingerprinting,
)
from .pipeline import DEFAULT_KNN_GRID, ToolchainResult
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
    "ToolchainResult",
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
