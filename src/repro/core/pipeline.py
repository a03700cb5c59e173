"""The end-to-end toolchain: campaign → preprocessing → model → REM.

One call reproduces the whole system of the paper: fly the (simulated)
fleet, preprocess the samples, tune and fit a predictor, and build the
fine-grained 3-D REM of the flight volume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..perf import StageTimer, maybe_span
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
from .rem import RadioEnvironmentMap, build_rem

__all__ = ["ToolchainConfig", "ToolchainResult", "generate_rem"]

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
    """Configuration of the full REM-generation pipeline."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    rem_resolution_m: float = 0.25
    tune_hyperparameters: bool = True
    cv_folds: int = 4


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

    def summary(self) -> Dict[str, float]:
        """Headline numbers of the run."""
        return {
            "samples": float(len(self.campaign.log)),
            "retained": float(self.preprocessing.retained_samples),
            "test_rmse_dbm": self.test_rmse_dbm,
            "rem_macs": float(len(self.rem.macs)),
        }


def generate_rem(
    scenario: Optional[DemoScenario] = None,
    predictor: Optional[Predictor] = None,
    config: Optional[ToolchainConfig] = None,
) -> ToolchainResult:
    """Run the complete toolchain and return the REM plus diagnostics.

    .. deprecated::
        ``generate_rem`` is a thin alias kept for source compatibility;
        :func:`repro.serve.jobs.run_job` with a
        :class:`~repro.serve.spec.RemJobSpec` is the sole supported
        build path (content-addressed, cache-hit aware, sweepable via
        :class:`~repro.serve.jobset.JobSetSpec`).  Calling this emits a
        :class:`DeprecationWarning`.

    Whenever the call is fully described by its config (no live
    scenario or predictor objects, nothing a JSON spec cannot carry),
    it routes through a :class:`~repro.serve.spec.RemJobSpec` so the
    two entry points cannot drift apart.  Calls carrying live objects
    take the direct implementation path (:func:`_run_toolchain`).

    Parameters
    ----------
    scenario:
        RF world; built from ``config.campaign.scenario`` (the registry
        name) when omitted.
    predictor:
        Estimator to use.  When omitted, a k-NN regressor is grid-search
        tuned exactly as in §III-B (unless ``tune_hyperparameters`` is
        off, in which case the paper's best configuration is used).
    config:
        Pipeline configuration.
    """
    warnings.warn(
        "generate_rem is deprecated; build through repro.serve.run_job "
        "with a RemJobSpec (see repro.serve.jobset for sweeps)",
        DeprecationWarning,
        stacklevel=2,
    )
    config = config or ToolchainConfig()
    if scenario is None and predictor is None:
        # Imported lazily: repro.serve sits above core in the layering.
        from ..serve.jobs import run_job
        from ..serve.spec import RemJobSpec

        spec = RemJobSpec.from_toolchain_config(config, with_uncertainty=False)
        if spec is not None:
            return run_job(spec).result
    return _run_toolchain(scenario=scenario, predictor=predictor, config=config)


def _run_toolchain(
    scenario: Optional[DemoScenario],
    predictor: Optional[Predictor],
    config: ToolchainConfig,
    timer: Optional[StageTimer] = None,
) -> ToolchainResult:
    """The toolchain implementation behind :func:`generate_rem`/``run_job``.

    When no live ``scenario`` object is passed, the world construction
    and the campaign sim route through the process-level
    :class:`repro.radio.scenario_cache.ScenarioCache` — both are pure
    functions of the campaign config, so sweep cells sharing a
    ``(scenario, seed, acquisition)`` triple fly once and reuse the
    result (set ``REPRO_SCENARIO_CACHE=0`` to disable).  An optional
    :class:`repro.perf.StageTimer` receives per-stage wall spans.
    """
    cache = default_cache() if scenario is None and cache_enabled() else None
    if scenario is None:
        with maybe_span(timer, "scenario"):
            if cache is not None:
                scenario = cache.scenario(
                    config.campaign.scenario, config.campaign.seed
                )
            else:
                scenario = build_scenario(
                    config.campaign.scenario, seed=config.campaign.seed
                )
    with maybe_span(timer, "campaign"):
        if cache is not None:
            campaign = cache.campaign(
                config.campaign, scenario, fly=run_campaign
            )
        else:
            campaign = run_campaign(scenario=scenario, config=config.campaign)
    with maybe_span(timer, "preprocess"):
        prep = preprocess(campaign.log, config.preprocess)

    search: Optional[GridSearchResult] = None
    with maybe_span(timer, "fit"):
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

    with maybe_span(timer, "score"):
        test_rmse = rmse(prep.test.rssi_dbm, predictor.predict(prep.test))
    with maybe_span(timer, "rem"):
        rem = build_rem(
            predictor,
            prep.dataset,
            scenario.flight_volume,
            resolution_m=config.rem_resolution_m,
        )
    return ToolchainResult(
        scenario=scenario,
        campaign=campaign,
        preprocessing=prep,
        predictor=predictor,
        test_rmse_dbm=test_rmse,
        rem=rem,
        search=search,
    )
