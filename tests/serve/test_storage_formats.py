"""Storage: the npy-per-tensor layout, mmap loads, legacy npz reads, dtypes."""

import dataclasses
import json

import numpy as np
import pytest

from repro.serve import ArtifactStore, QueryRequest, RemService

from tests.serve.conftest import assert_mappable, make_artifact, save_legacy_npz


class TestNpyLayout:
    def test_round_trip_is_exact(self, tmp_path):
        artifact = make_artifact(seed=41)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load(artifact.digest)
        np.testing.assert_array_equal(
            loaded.rem.field_tensor(), artifact.rem.field_tensor()
        )
        np.testing.assert_array_equal(
            loaded.uncertainty.field_tensor(),
            artifact.uncertainty.field_tensor(),
        )
        assert loaded.rem.macs == artifact.rem.macs
        assert loaded.content_hash() == artifact.content_hash()

    def test_layout_is_npy_directory(self, tmp_path):
        artifact = make_artifact(seed=42)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        payload_dir = tmp_path / artifact.digest
        assert (payload_dir / "rem_stack.npy").is_file()
        assert (payload_dir / "unc_stack.npy").is_file()
        sidecar = json.loads((tmp_path / f"{artifact.digest}.json").read_text())
        assert sidecar["storage"]["format"] == "npy"
        assert sidecar["dtype"] == "float64"

    def test_mmap_load_shares_pages(self, tmp_path):
        artifact = make_artifact(seed=43)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load(artifact.digest, mmap=True)
        # The stack must still BE the memory map — any copy on the way
        # in would defeat cross-process page sharing.
        assert isinstance(loaded.rem._stack, np.memmap)
        np.testing.assert_array_equal(
            loaded.rem.field_tensor(), artifact.rem.field_tensor()
        )

    def test_legacy_npz_beside_npy(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compressed = make_artifact(seed=44)
        mappable = make_artifact(seed=45)
        save_legacy_npz(tmp_path, compressed, sidecar_version=2)
        store.save(mappable)
        assert (tmp_path / f"{compressed.digest}.npz").is_file()
        assert (tmp_path / mappable.digest / "rem_stack.npy").is_file()
        assert set(store.digests()) == {compressed.digest, mappable.digest}
        for digest in (compressed.digest, mappable.digest):
            assert digest in store
            store.load(digest)

    def test_uncertainty_free_npy_round_trips(self, tmp_path):
        artifact = make_artifact(seed=46)
        artifact.uncertainty = None
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load(artifact.digest, mmap=True)
        assert loaded.uncertainty is None
        assert loaded.content_hash() == artifact.content_hash()

    def test_mmap_request_on_npz_still_loads(self, tmp_path):
        artifact = make_artifact(seed=47)
        save_legacy_npz(tmp_path, artifact, sidecar_version=2)
        loaded = ArtifactStore(tmp_path).load(artifact.digest, mmap=True)
        assert not isinstance(loaded.rem._stack, np.memmap)  # zip: eager
        assert loaded.content_hash() == artifact.content_hash()

    def test_unknown_format_rejected(self, tmp_path):
        for fmt in ("hdf5", "npz"):
            with pytest.raises(ValueError, match="storage format"):
                ArtifactStore(tmp_path, default_format=fmt)
        ArtifactStore(tmp_path, default_format="npy")  # the one layout

    def test_orphaned_payload_directory_is_replaced(self, tmp_path):
        # A save that dies after renaming its payload directory into
        # place but before writing the sidecar leaves an orphan; the
        # next save of that digest must replace it, not fail on
        # rename(2)'s "Directory not empty".
        artifact = make_artifact(seed=48)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        (tmp_path / f"{artifact.digest}.json").unlink()
        assert artifact.digest not in store
        assert store.save(artifact) == tmp_path / artifact.digest
        assert artifact.digest in store
        loaded = store.load(artifact.digest)
        assert loaded.content_hash() == artifact.content_hash()


class TestLegacyNpz:
    """Stores written before npy became the only layout still serve."""

    @pytest.fixture(params=[1, 2], ids=["v1-sidecar", "v2-npz-sidecar"])
    def sidecar_version(self, request):
        return request.param

    def test_loads_bit_exactly(self, tmp_path, sidecar_version):
        artifact = make_artifact(seed=71)
        save_legacy_npz(tmp_path, artifact, sidecar_version)
        for mmap in (False, True):
            loaded = ArtifactStore(tmp_path).load(artifact.digest, mmap=mmap)
            for got, want in (
                (loaded.rem, artifact.rem),
                (loaded.uncertainty, artifact.uncertainty),
            ):
                assert got.field_tensor().dtype == want.field_tensor().dtype
                np.testing.assert_array_equal(got.field_tensor(), want.field_tensor())
                assert got.macs == want.macs
                assert got.mac_vocabulary == want.mac_vocabulary
            assert loaded.spec == artifact.spec
            assert loaded.provenance == artifact.provenance
            assert loaded.content_hash() == artifact.content_hash()

    def test_uncertainty_free_loads(self, tmp_path, sidecar_version):
        artifact = make_artifact(seed=72)
        artifact.uncertainty = None
        save_legacy_npz(tmp_path, artifact, sidecar_version)
        loaded = ArtifactStore(tmp_path).load(artifact.digest)
        assert loaded.uncertainty is None
        assert loaded.content_hash() == artifact.content_hash()

    def test_listed_and_counted(self, tmp_path, sidecar_version):
        artifact = make_artifact(seed=73)
        store = ArtifactStore(tmp_path)
        save_legacy_npz(tmp_path, artifact, sidecar_version)
        assert artifact.digest in store
        assert store.digests() == [artifact.digest]
        assert store.count() == 1

    def test_resave_is_noop_returning_the_archive(self, tmp_path, sidecar_version):
        artifact = make_artifact(seed=74)
        store = ArtifactStore(tmp_path)
        npz_path = save_legacy_npz(tmp_path, artifact, sidecar_version)
        sidecar = (tmp_path / f"{artifact.digest}.json").read_bytes()
        stamp = npz_path.stat().st_mtime_ns
        assert store.save(artifact) == npz_path
        assert npz_path.stat().st_mtime_ns == stamp
        assert (tmp_path / f"{artifact.digest}.json").read_bytes() == sidecar
        assert not (tmp_path / artifact.digest).exists()
        assert store.count() == 1

    def test_served_from_a_mixed_store(self, tmp_path, sidecar_version):
        legacy = make_artifact(seed=75)
        fresh = make_artifact(seed=76)
        store = ArtifactStore(tmp_path)
        save_legacy_npz(tmp_path, legacy, sidecar_version)
        store.save(fresh)
        service = RemService(store, capacity=2, mmap=True)
        points = np.random.default_rng(3).uniform((0, 0, 0), (4, 3, 2), (16, 3))
        for artifact in (legacy, fresh):
            served = service.handle(QueryRequest(artifact.digest, points)).values
            np.testing.assert_array_equal(served, artifact.rem.query_many(points))
        assert_mappable(store, fresh.digest)


class TestFloat32:
    def test_astype_halves_footprint(self):
        artifact = make_artifact(seed=51)
        small = artifact.astype("float32")
        assert small.dtype == "float32"
        assert artifact.dtype == "float64"  # original untouched
        assert (
            small.rem.field_tensor().nbytes
            == artifact.rem.field_tensor().nbytes // 2
        )

    def test_float32_values_within_tolerance(self, tmp_path):
        artifact = make_artifact(seed=52)
        small = artifact.astype("float32")
        store = ArtifactStore(tmp_path)
        store.save(small)
        loaded = store.load(small.digest, mmap=True)
        assert str(loaded.rem.dtype) == "float32"
        rng = np.random.default_rng(7)
        points = rng.uniform((0, 0, 0), (4, 3, 2), size=(64, 3))
        np.testing.assert_allclose(
            loaded.rem.query_many(points),
            artifact.rem.query_many(points),
            atol=1e-3,
        )

    def test_dtype_recorded_in_sidecar(self, tmp_path):
        small = make_artifact(seed=53).astype("float32")
        store = ArtifactStore(tmp_path)
        store.save(small)
        sidecar = json.loads((tmp_path / f"{small.digest}.json").read_text())
        assert sidecar["dtype"] == "float32"
        assert store.load(small.digest).record()["dtype"] == "float32"

    def test_spec_rejects_unknown_dtype(self):
        spec = make_artifact(seed=54).spec
        with pytest.raises(ValueError):
            dataclasses.replace(spec, dtype="float16")


class TestCachedCount:
    def test_count_tracks_saves(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.count() == 0
        first = make_artifact(seed=61)
        store.save(first)
        assert store.count() == 1
        store.save(make_artifact(seed=62))
        assert store.count() == 2
        store.save(first)  # no-op resave
        assert store.count() == 2

    def test_count_sees_external_writes(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        reader = ArtifactStore(tmp_path)
        assert reader.count() == 0
        writer.save(make_artifact(seed=63))
        # The cache keys on the directory mtime, so a different store
        # instance writing to the same root is picked up.
        assert reader.count() == 1
