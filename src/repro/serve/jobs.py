"""The job facade: one call from spec to (cached) artifact.

``run_job(spec)`` is the system's only build entry point: it adapts
the JSON :class:`~repro.serve.spec.RemJobSpec` onto the implementation
layer (``ToolchainConfig`` → campaign → preprocessing → predictor →
REM and, in the same lattice pass, its uncertainty layer), stamps
provenance and — when an
:class:`~repro.serve.artifact.ArtifactStore` is supplied — persists
the artifact under its digest.  Because builds are pure functions of
their spec, a second ``run_job`` with the same spec and store is a
cache hit: the artifact is loaded, no campaign is re-flown.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.pipeline import _run_toolchain
from ..core.rem import (
    build_uncertainty_rem,  # noqa: F401 - perfbench wraps the uncertainty layer here
)
from ..perf import StageTimer
from .artifact import ArtifactStore, RemArtifact
from .spec import RemJobSpec

__all__ = ["run_job"]


def run_job(spec: RemJobSpec, store: Optional[ArtifactStore] = None) -> RemArtifact:
    """Build (or fetch) the REM artifact the spec describes.

    Parameters
    ----------
    spec:
        The complete job description; equal specs always produce
        byte-identical artifacts.
    store:
        Optional artifact store.  When the spec's digest is already
        present, the stored artifact is returned with
        ``cache_hit=True`` and nothing is re-flown; otherwise the
        fresh artifact is saved before returning.
    """
    if store is not None:
        try:
            artifact = store.load(spec.digest())
        except KeyError:
            pass
        else:
            artifact.cache_hit = True
            return artifact

    timer = StageTimer()
    start = time.perf_counter()
    result = _run_toolchain(
        predictor=spec.build_predictor(),
        config=spec.toolchain_config(),
        timer=timer,
        with_uncertainty=spec.with_uncertainty,
    )
    wall_s = time.perf_counter() - start

    rem, uncertainty = result.rem, result.uncertainty
    if spec.dtype != "float64":
        # Builds always run in float64; the artifact carries the cast
        # tensors (half the footprint, served values within 1e-3 dB).
        rem = rem.astype(spec.dtype)
        if uncertainty is not None:
            uncertainty = uncertainty.astype(spec.dtype)
    artifact = RemArtifact(
        spec=spec,
        rem=rem,
        uncertainty=uncertainty,
        provenance={
            "scenario": spec.scenario,
            "seed": spec.seed,
            "acquisition": spec.acquisition,
            "predictor": spec.predictor,
            "samples": len(result.campaign.log),
            "retained_samples": result.preprocessing.retained_samples,
            "test_rmse_dbm": float(result.test_rmse_dbm),
            "n_macs": len(result.rem.macs),
            "resolution_m": spec.resolution_m,
            "wall_time_s": wall_s,
            # Stage breakdown (repro.perf.StageTimer): scenario /
            # campaign / preprocess / fit / score / rem (the REM and its
            # uncertainty layer render in one pass), so `repro report`
            # can attribute build-time regressions.
            "stage_wall_s": {
                stage: round(seconds, 6)
                for stage, seconds in timer.wall_s().items()
            },
        },
        result=result,
    )
    if store is not None:
        store.save(artifact)
    return artifact
