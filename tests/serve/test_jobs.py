"""run_job: the spec→artifact facade, determinism, cache hits."""

import pytest

import repro.core.pipeline as pipeline
from repro.serve import ArtifactStore, RemJobSpec, run_job

from tests.serve.conftest import assert_mappable


@pytest.fixture(scope="module")
def built(tiny_spec):
    """One real build shared by the read-only assertions."""
    return run_job(tiny_spec)


class TestRunJob:
    def test_artifact_carries_maps_and_provenance(self, built, tiny_spec):
        assert built.spec == tiny_spec
        assert built.rem.macs  # something got mapped
        assert built.uncertainty is not None
        assert built.uncertainty.macs == built.rem.macs
        assert built.rem.grid.resolution_m == tiny_spec.resolution_m
        for key in (
            "scenario",
            "seed",
            "samples",
            "retained_samples",
            "test_rmse_dbm",
            "n_macs",
            "wall_time_s",
        ):
            assert key in built.provenance
        assert built.provenance["wall_time_s"] > 0
        assert built.result is not None  # fresh build keeps the toolchain

    def test_stage_walls_cover_the_build(self, built):
        stages = built.provenance["stage_wall_s"]
        # The held-out scoring has its own span rather than falling
        # between "fit" and "rem".
        assert "score" in stages
        # Both lattice layers render in one pass, timed under "rem".
        assert "rem" in stages
        assert "uncertainty" not in stages
        wall = built.provenance["wall_time_s"]
        assert sum(stages.values()) == pytest.approx(wall, rel=0.05)

    def test_same_spec_same_seed_same_content(self, built, tiny_spec):
        again = run_job(tiny_spec)
        assert again.digest == built.digest
        assert again.content_hash() == built.content_hash()

    def test_cache_hit_skips_the_campaign(
        self, tmp_path, tiny_spec, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        calls = {"n": 0}
        real = pipeline.run_campaign

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_campaign", counting)
        first = run_job(tiny_spec, store)
        assert not first.cache_hit
        assert_mappable(store, first.digest)
        flights = calls["n"]
        assert flights >= 1
        second = run_job(tiny_spec, store)
        assert second.cache_hit
        assert calls["n"] == flights  # no re-fly
        assert second.content_hash() == first.content_hash()

    def test_without_uncertainty(self, tiny_spec):
        from dataclasses import replace

        artifact = run_job(replace(tiny_spec, with_uncertainty=False))
        assert artifact.uncertainty is None


class TestFleetEquivalencePin:
    """The one-drone acquisition loop, pinned at the artifact-byte level.

    ``acquisition="active"`` flies the one-drone fleet, so both specs
    build one artifact — distinct spec digests, one pinned content hash
    (first recorded from the dedicated single-drone loop the fleet
    replaced, re-recorded once for the windowed UWB filter).
    """

    SMALL = {
        "seed_waypoints": 6,
        "batch_size": 4,
        "budget_waypoints": 10,
        "lattice_nx": 4,
        "lattice_ny": 3,
        "lattice_nz": 2,
    }
    COMMON = {
        "tune": False,
        "with_uncertainty": False,
        "resolution_m": 0.8,
        "min_samples_per_mac": 3,
    }
    CONTENT_HASH = "81d934f228fcf8a70e55c8bf8691e5e1ff762dd125b9c1c74fc5a2bec1582eb8"

    def test_one_drone_fleet_builds_the_active_artifact(self):
        active_spec = RemJobSpec(
            acquisition="active", active=self.SMALL, **self.COMMON
        )
        fleet_spec = RemJobSpec(
            acquisition="fleet",
            active=self.SMALL,
            fleet={"n_drones": 1},
            **self.COMMON,
        )
        # Different jobs by address (the spec names the acquisition) ...
        assert fleet_spec.digest() != active_spec.digest()
        # ... the same recorded bytes by content.
        for spec in (active_spec, fleet_spec):
            artifact = run_job(spec)
            assert artifact.content_hash() == self.CONTENT_HASH
            assert artifact.provenance["samples"] == 378
