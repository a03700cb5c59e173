"""run_job: the spec→artifact facade, determinism, cache hits."""

import pytest

import repro.core.pipeline as pipeline
from repro.serve import ArtifactStore, RemJobSpec, run_job


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
    """The K=1 fleet degeneration, pinned at the artifact-byte level.

    A one-drone fleet flies the exact flights of the active campaign
    (same RNG stream forks, same sample order), so the built artifact
    must be byte-identical — distinct spec digests, one content hash.
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
        active_artifact = run_job(active_spec)
        fleet_artifact = run_job(fleet_spec)
        # ... same bytes by content.
        assert fleet_artifact.content_hash() == active_artifact.content_hash()
        assert (
            fleet_artifact.provenance["samples"]
            == active_artifact.provenance["samples"]
        )
