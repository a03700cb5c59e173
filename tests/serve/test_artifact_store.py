"""ArtifactStore: content-addressed persistence of REM artifacts."""

import numpy as np
import pytest

from repro.serve import ArtifactStore

from tests.serve.conftest import make_artifact


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path):
        artifact = make_artifact(seed=5)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load(artifact.digest)
        assert loaded.spec == artifact.spec
        assert loaded.provenance == artifact.provenance
        np.testing.assert_array_equal(
            loaded.rem.field_tensor(), artifact.rem.field_tensor()
        )
        np.testing.assert_array_equal(
            loaded.uncertainty.field_tensor(),
            artifact.uncertainty.field_tensor(),
        )
        assert loaded.rem.macs == artifact.rem.macs
        assert loaded.rem.mac_vocabulary == artifact.rem.mac_vocabulary
        assert loaded.content_hash() == artifact.content_hash()

    def test_loaded_artifact_has_no_live_result(self, seeded_store, artifacts):
        loaded = seeded_store.load(artifacts[0].digest)
        assert loaded.result is None
        assert not loaded.cache_hit

    def test_uncertainty_free_artifact_round_trips(self, tmp_path):
        artifact = make_artifact(seed=6)
        artifact.uncertainty = None
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load(artifact.digest)
        assert loaded.uncertainty is None
        assert loaded.content_hash() == artifact.content_hash()

    def test_missing_digest_raises_keyerror(self, seeded_store):
        with pytest.raises(KeyError):
            seeded_store.load("0" * 64)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_half_stored_artifact_raises_keyerror(self, tmp_path, mmap):
        import shutil

        payload_only = make_artifact(seed=7)
        sidecar_only = make_artifact(seed=8)
        store = ArtifactStore(tmp_path)
        store.save(payload_only)
        store.save(sidecar_only)
        (tmp_path / f"{payload_only.digest}.json").unlink()
        shutil.rmtree(tmp_path / sidecar_only.digest)
        for digest in (payload_only.digest, sidecar_only.digest, "bad\0digest"):
            with pytest.raises(KeyError):
                store.load(digest, mmap=mmap)

    def test_contains(self, seeded_store, artifacts):
        assert artifacts[0].digest in seeded_store
        assert "0" * 64 not in seeded_store


class TestListing:
    def test_list_matches_digests(self, seeded_store, artifacts):
        records = seeded_store.list()
        assert [r["digest"] for r in records] == seeded_store.digests()
        assert len(records) == len(artifacts)
        assert {r["digest"] for r in records} == {a.digest for a in artifacts}

    def test_records_carry_spec_and_provenance(self, seeded_store):
        record = seeded_store.list()[0]
        assert record["spec"]["scenario"] == "condo"
        assert "content_hash" in record
        assert record["provenance"]["samples"] == 120

    def test_resave_is_noop(self, tmp_path):
        artifact = make_artifact(seed=7)
        store = ArtifactStore(tmp_path)
        first = store.save(artifact)
        stamp = first.stat().st_mtime_ns
        assert store.save(artifact) == first
        assert first.stat().st_mtime_ns == stamp  # untouched, not rewritten
