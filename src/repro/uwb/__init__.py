"""UWB localization substrate: anchors, TWR/TDoA ranging, EKF.

Simulates the Crazyflie Loco Positioning System the paper relies on for
location-annotating REM samples: anchor layouts, the two ranging modes,
and the on-board extended Kalman filter (after Mueller et al. 2015).
"""

from .anchors import LPS_RANGE_M, MIN_ANCHORS_3D, Anchor, AnchorLayout, corner_layout
from .kalman import EkfConfig, PositionVelocityEkf
from .localization import (
    HoveringAccuracyResult,
    LocalizationMode,
    PositionEstimator,
    evaluate_hovering_accuracy,
)
from .ranging import (
    RangingConfig,
    TdoaRanging,
    TwrMeasurement,
    TwrRanging,
)

__all__ = [
    "Anchor",
    "AnchorLayout",
    "corner_layout",
    "LPS_RANGE_M",
    "MIN_ANCHORS_3D",
    "EkfConfig",
    "PositionVelocityEkf",
    "LocalizationMode",
    "PositionEstimator",
    "HoveringAccuracyResult",
    "evaluate_hovering_accuracy",
    "RangingConfig",
    "TwrRanging",
    "TdoaRanging",
    "TwrMeasurement",
]
