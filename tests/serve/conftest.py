"""Shared fixtures for the serving-layer tests.

Synthetic artifacts are built directly from a random dataset (no
campaign flight) so service/store/HTTP tests stay fast; the job-facade
tests that need a real build use the session-scoped ``tiny_spec``
(a 6-waypoint active campaign, ~1 s).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.dataset import REMDataset
from repro.core.predictors import KnnRegressor
from repro.core.rem import _rem_npz_payload, build_rem, build_uncertainty_rem
from repro.radio.geometry import Cuboid
from repro.serve import ArtifactStore, RemArtifact, RemJobSpec

VOLUME = Cuboid((0.0, 0.0, 0.0), (4.0, 3.0, 2.0))


def make_artifact(seed: int, n_macs: int = 3, n_samples: int = 120) -> RemArtifact:
    """A deterministic synthetic artifact keyed (digested) by ``seed``."""
    rng = np.random.default_rng(seed)
    vocabulary = tuple(f"aa:bb:cc:00:00:{i:02x}" for i in range(n_macs))
    positions = rng.uniform(
        VOLUME.min_corner, VOLUME.max_corner, size=(n_samples, 3)
    )
    dataset = REMDataset(
        positions=positions,
        mac_indices=rng.integers(0, n_macs, size=n_samples),
        channels=np.full(n_samples, 6),
        rssi_dbm=rng.uniform(-90.0, -40.0, size=n_samples),
        mac_vocabulary=vocabulary,
    )
    predictor = KnnRegressor(
        n_neighbors=4, weights="distance", p=2.0, onehot_scale=3.0
    ).fit(dataset)
    rem = build_rem(predictor, dataset, VOLUME, resolution_m=0.5)
    uncertainty = build_uncertainty_rem(predictor, dataset, VOLUME, resolution_m=0.5)
    spec = RemJobSpec(
        seed=seed,
        tune=False,
        hyperparameters={"n_neighbors": 4, "onehot_scale": 3.0},
        resolution_m=0.5,
    )
    return RemArtifact(
        spec=spec,
        rem=rem,
        uncertainty=uncertainty,
        provenance={"seed": seed, "samples": n_samples, "test_rmse_dbm": 1.0},
    )


def save_legacy_npz(root, artifact: RemArtifact, sidecar_version: int) -> Path:
    """Write ``artifact`` in the retired compressed store layout.

    The tensors go into one ``<digest>.npz`` archive under ``rem_`` /
    ``unc_`` keys.  A version-1 sidecar has no ``storage`` (or
    ``dtype``) key; a version-2 one records ``{"format": "npz"}``.
    """
    payload = {}
    for prefix, layer in (("rem_", artifact.rem), ("unc_", artifact.uncertainty)):
        if layer is not None:
            for key, value in _rem_npz_payload(layer).items():
                payload[prefix + key] = value
    npz_path = Path(root) / f"{artifact.digest}.npz"
    np.savez_compressed(npz_path, **payload)
    record = artifact.record()
    if sidecar_version == 1:
        record["format"] = 1
        del record["dtype"]
    else:
        record["storage"] = {"format": "npz"}
    (Path(root) / f"{artifact.digest}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return npz_path


def assert_mappable(store: ArtifactStore, digest: str) -> None:
    """The stored tensors come back as a memory map, not a heap copy."""
    assert isinstance(store.load(digest, mmap=True).rem._stack, np.memmap)


@pytest.fixture(scope="session")
def artifacts():
    """Three distinct synthetic artifacts (distinct digests)."""
    return [make_artifact(seed) for seed in (11, 22, 33)]


@pytest.fixture(scope="session")
def seeded_store(tmp_path_factory, artifacts):
    """A session store pre-populated with the synthetic artifacts."""
    store = ArtifactStore(tmp_path_factory.mktemp("artifact-store"))
    for artifact in artifacts:
        store.save(artifact)
    return store


@pytest.fixture(scope="session")
def tiny_spec():
    """The smallest real job: a 6-waypoint active campaign."""
    return RemJobSpec(
        acquisition="active",
        active={"seed_waypoints": 6, "batch_size": 6, "budget_waypoints": 6},
        tune=False,
        min_samples_per_mac=2,
        resolution_m=0.8,
    )
