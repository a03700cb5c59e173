"""The end-to-end toolchain: campaign → preprocessing → model → REM.

The implementation behind :func:`repro.serve.run_job`, the one build
path: fly the (simulated) fleet, preprocess the samples, tune and fit a
predictor, and build the fine-grained 3-D REM of the flight volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..perf import StageTimer
from ..radio.scenario_cache import cache_enabled, default_cache
from ..radio.scenarios import DemoScenario, build_scenario
from ..station.campaign import CampaignConfig, CampaignResult, run_campaign
from .predictors import (
    GridSearchResult,
    KnnRegressor,
    ParamGrid,
    Predictor,
    grid_search,
    rmse,
)
from .preprocessing import PreprocessConfig, PreprocessResult, preprocess
from .rem import RadioEnvironmentMap, build_rem, build_rem_layers

__all__ = ["ToolchainResult"]

#: The paper's k-NN hyper-parameter grid (§III-B): neighbor counts,
#: weighting schemes, Minkowski exponents and one-hot scales.
DEFAULT_KNN_GRID = ParamGrid(
    n_neighbors=[3, 8, 16],
    weights=["uniform", "distance"],
    p=[1.0, 2.0],
    onehot_scale=[1.0, 3.0],
)


@dataclass(frozen=True)
class ToolchainConfig:
    """The pipeline's argument bundle, built by ``RemJobSpec.toolchain_config``.

    It has no defaults: :class:`~repro.serve.spec.RemJobSpec` is the one
    place they live.
    """

    campaign: CampaignConfig
    preprocess: PreprocessConfig
    rem_resolution_m: float
    tune_hyperparameters: bool
    cv_folds: int


@dataclass
class ToolchainResult:
    """Everything the pipeline produced, stage by stage."""

    scenario: DemoScenario
    campaign: CampaignResult
    preprocessing: PreprocessResult
    predictor: Predictor
    test_rmse_dbm: float
    rem: RadioEnvironmentMap
    search: Optional[GridSearchResult] = None
    #: The REM's uncertainty (std, dB) map when the run asked for it.
    uncertainty: Optional[RadioEnvironmentMap] = None

    def summary(self) -> Dict[str, float]:
        """Headline numbers of the run."""
        return {
            "samples": float(len(self.campaign.log)),
            "retained": float(self.preprocessing.retained_samples),
            "test_rmse_dbm": self.test_rmse_dbm,
            "rem_macs": float(len(self.rem.macs)),
        }


def _run_toolchain(
    predictor: Optional[Predictor],
    config: ToolchainConfig,
    timer: StageTimer,
    with_uncertainty: bool = False,
) -> ToolchainResult:
    """The toolchain implementation behind ``run_job``.

    The world construction and the campaign sim route through the
    process-level :class:`repro.radio.scenario_cache.ScenarioCache` —
    both are pure functions of the campaign config, so sweep cells
    sharing a ``(scenario, seed, acquisition)`` triple fly once and
    reuse the result (set ``REPRO_SCENARIO_CACHE=0`` to disable).
    ``timer`` receives per-stage wall spans.  ``with_uncertainty``
    renders the uncertainty map in the same lattice pass as the REM
    (both time under the ``rem`` span).
    """
    cache = default_cache() if cache_enabled() else None
    with timer.span("scenario"):
        if cache is not None:
            scenario = cache.scenario(config.campaign.scenario, config.campaign.seed)
        else:
            scenario = build_scenario(
                config.campaign.scenario, seed=config.campaign.seed
            )
    with timer.span("campaign"):
        if cache is not None:
            campaign = cache.campaign(config.campaign, scenario, fly=run_campaign)
        else:
            campaign = run_campaign(scenario=scenario, config=config.campaign)
    with timer.span("preprocess"):
        prep = preprocess(campaign.log, config.preprocess)

    search: Optional[GridSearchResult] = None
    with timer.span("fit"):
        if predictor is None:
            if config.tune_hyperparameters:
                search = grid_search(
                    KnnRegressor(),
                    prep.train,
                    DEFAULT_KNN_GRID,
                    k_folds=config.cv_folds,
                )
                predictor = search.best
            else:
                predictor = KnnRegressor(
                    n_neighbors=16, weights="distance", p=2.0, onehot_scale=3.0
                ).fit(prep.train)
        else:
            predictor.fit(prep.train)

    with timer.span("score"):
        test_rmse = rmse(prep.test.rssi_dbm, predictor.predict(prep.test))
    uncertainty: Optional[RadioEnvironmentMap] = None
    lattice = (prep.dataset, scenario.flight_volume, config.rem_resolution_m)
    with timer.span("rem"):
        if with_uncertainty:
            rem, uncertainty = build_rem_layers(predictor, *lattice)
        else:
            rem = build_rem(predictor, *lattice)
    return ToolchainResult(
        scenario=scenario,
        campaign=campaign,
        preprocessing=prep,
        predictor=predictor,
        test_rmse_dbm=test_rmse,
        rem=rem,
        search=search,
        uncertainty=uncertainty,
    )
