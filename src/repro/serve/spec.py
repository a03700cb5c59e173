"""The job spec: one JSON record that names a complete REM build.

A :class:`RemJobSpec` pins everything a reproducible map build needs —
the scenario name (registry entries and ``generated:`` specs alike),
the acquisition mode, the predictor and its hyper-parameters, the
lattice resolution, the preprocessing knobs and the master seed — and
round-trips through JSON.  Its canonical JSON form is hashed into the
job **digest**: because every build is a pure function of its spec,
the digest doubles as the content address of the finished artifact
(see :mod:`~repro.serve.artifact`).

The spec is the only way to describe a build, and the only place its
defaults live.  The ``ToolchainConfig`` / ``CampaignConfig`` /
``ActiveSamplingConfig`` layer below it is the implementation's
argument bundle, reached through :meth:`RemJobSpec.toolchain_config`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from ..core.pipeline import ToolchainConfig
from ..core.predictors import (
    IdwRegressor,
    KnnRegressor,
    MeanPerMacBaseline,
    MlpRegressor,
    OrdinaryKrigingRegressor,
    PerMacKnnRegressor,
    Predictor,
)
from ..core.preprocessing import PreprocessConfig
from ..station.campaign import ACQUISITION_STRATEGIES, CampaignConfig

__all__ = ["RemJobSpec", "PREDICTOR_FACTORIES"]

#: Predictor registry: spec ``predictor`` name → estimator class.  The
#: spec's ``hyperparameters`` dict is splatted into the constructor.
PREDICTOR_FACTORIES = {
    "knn": KnnRegressor,
    "per_mac_knn": PerMacKnnRegressor,
    "idw": IdwRegressor,
    "kriging": OrdinaryKrigingRegressor,
    "baseline": MeanPerMacBaseline,
    "mlp": MlpRegressor,
}


@dataclass(frozen=True)
class RemJobSpec:
    """Everything a reproducible REM build needs, as one JSON record.

    The defaults are the paper's build: the condo scenario, the
    72-waypoint lattice campaign and a grid-search-tuned k-NN at a
    0.25 m lattice.
    """

    #: Scenario name: a registry entry or a ``generated:...`` spec name.
    scenario: str = "condo"
    #: Master seed (scenario build + campaign RNG streams).
    seed: int = 63
    #: ``"lattice"`` (the paper's fixed grid) or ``"active"``.
    acquisition: str = "lattice"
    #: Predictor registry name (see :data:`PREDICTOR_FACTORIES`).
    predictor: str = "knn"
    #: Constructor overrides for ``predictor`` (empty = its defaults,
    #: or the paper-best k-NN when ``predictor == "knn"``).
    hyperparameters: Dict[str, object] = field(default_factory=dict)
    #: Grid-search the k-NN hyper-parameters (§III-B).  Only valid for
    #: ``predictor == "knn"`` with no explicit ``hyperparameters``.
    tune: bool = True
    cv_folds: int = 4
    #: REM lattice step (m).
    resolution_m: float = 0.25
    # Preprocessing (§III-B) knobs.
    min_samples_per_mac: int = 16
    test_fraction: float = 0.25
    split_seed: int = 7
    #: Active-sampling tunables (with ``acquisition == "active"`` or
    #: ``"fleet"`` — the fleet loop shares them; ``None`` = the
    #: :class:`~repro.station.ActiveSamplingConfig` defaults).  Keys
    #: follow ``ActiveSamplingConfig.from_job_fields``.
    active: Optional[Dict[str, object]] = None
    #: Fleet tunables (only with ``acquisition == "fleet"``; ``None`` =
    #: the :class:`~repro.station.FleetConfig` defaults).  Keys follow
    #: ``FleetConfig.from_job_fields``.
    fleet: Optional[Dict[str, object]] = None
    #: Also build the predictive-uncertainty layer of the artifact.
    with_uncertainty: bool = True
    #: Artifact tensor dtype: ``"float64"`` (exact) or ``"float32"``
    #: (half the storage/page-cache footprint; served values stay
    #: within 1e-3 dB of the float64 build).
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("scenario name must be non-empty")
        # Resolve the scenario eagerly (registry lookup / generated-name
        # parse, no build) so a typo'd name is a spec error at the API
        # boundary, not a traceback from the middle of a job.
        from ..radio.scenarios import get_scenario

        try:
            get_scenario(self.scenario)
        except KeyError as exc:
            raise ValueError(f"unknown scenario in job spec: {exc}") from None
        if self.acquisition not in ACQUISITION_STRATEGIES:
            raise ValueError(
                f"unknown acquisition {self.acquisition!r}; "
                f"choose from {ACQUISITION_STRATEGIES}"
            )
        if self.predictor not in PREDICTOR_FACTORIES:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {sorted(PREDICTOR_FACTORIES)}"
            )
        if self.resolution_m <= 0:
            raise ValueError("resolution_m must be positive")
        if self.min_samples_per_mac < 1:
            raise ValueError("min_samples_per_mac must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )
        if self.tune and (self.predictor != "knn" or self.hyperparameters):
            raise ValueError(
                "tune=True grid-searches the k-NN family; it requires "
                "predictor='knn' with no explicit hyperparameters"
            )
        # Normalize numeric field types so JSON spellings of the same
        # job (48 vs 48.0, "seed": 7.0) hash to the same digest.
        for name in ("seed", "cv_folds", "min_samples_per_mac", "split_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("resolution_m", "test_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Detach from caller-owned mutable dicts (the spec is a value).
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))
        if self.active is not None and self.acquisition not in (
            "active",
            "fleet",
        ):
            raise ValueError(
                "active tunables require acquisition='active' or 'fleet'"
            )
        if self.fleet is not None and self.acquisition != "fleet":
            raise ValueError("fleet tunables require acquisition='fleet'")
        if self.acquisition in ("active", "fleet"):
            # Validate eagerly and canonicalize to the *full*, typed
            # field dict, so equivalent spellings of the same
            # acquisition loop (``None`` vs ``{}`` vs defaults spelled
            # out, ints vs floats) cannot hash to different digests.
            object.__setattr__(self, "active", dict(self.active or {}))
            if self.acquisition == "fleet":
                object.__setattr__(self, "fleet", dict(self.fleet or {}))
            campaign = self._campaign_config()
            object.__setattr__(self, "active", campaign.active.to_job_fields())
            if self.acquisition == "fleet":
                object.__setattr__(
                    self, "fleet", campaign.fleet.to_job_fields()
                )
        try:
            self.canonical_json()
        except TypeError as exc:
            raise ValueError(
                f"job-spec fields must be JSON-serializable: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # JSON round-trip and content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-compatible dict with every field explicit."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RemJobSpec":
        """Inverse of :meth:`to_dict` (unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown job-spec field(s) {unknown}; choose from {sorted(known)}"
            )
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Human-friendly JSON form (see :meth:`canonical_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RemJobSpec":
        """Parse a spec from JSON text."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a job spec must be a JSON object")
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """The canonical (sorted, minimal) JSON form behind the digest."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content address of this job: SHA-256 of the canonical JSON.

        Builds are pure functions of their spec, so equal specs (same
        scenario, seed, predictor, ...) always produce byte-identical
        artifacts — the spec digest therefore addresses the artifact.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # the implementation-layer adapters
    # ------------------------------------------------------------------
    def _campaign_config(self) -> CampaignConfig:
        return CampaignConfig.from_job_fields(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "acquisition": self.acquisition,
                "active": self.active,
                "fleet": self.fleet,
            }
        )

    def toolchain_config(self) -> ToolchainConfig:
        """The :class:`ToolchainConfig` this spec describes."""
        return ToolchainConfig(
            campaign=self._campaign_config(),
            preprocess=PreprocessConfig(
                min_samples_per_mac=self.min_samples_per_mac,
                test_fraction=self.test_fraction,
                split_seed=self.split_seed,
            ),
            rem_resolution_m=self.resolution_m,
            tune_hyperparameters=self.tune,
            cv_folds=self.cv_folds,
        )

    def build_predictor(self) -> Optional[Predictor]:
        """Instantiate the spec's estimator (unfitted).

        Returns ``None`` for the default k-NN family with no explicit
        hyper-parameters — the pipeline then grid-searches (``tune``)
        or applies the paper-best configuration itself.
        """
        if self.predictor == "knn" and not self.hyperparameters:
            return None
        return PREDICTOR_FACTORIES[self.predictor](**self.hyperparameters)
