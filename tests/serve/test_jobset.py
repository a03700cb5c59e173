"""The campaign factory: grid expansion, fan-out, resume, robustness."""

import json
import os
import signal
import threading
import time

import pytest

from repro.serve import (
    ArtifactStore,
    JobSetRunner,
    JobSetSpec,
    RemJobSpec,
    run_jobset,
)
from repro.serve.jobset import FAILED_LEDGER

from tests.serve.conftest import assert_mappable

#: Shared non-axis fields that keep every cell a sub-second build.
TINY_BASE = {
    "active": {"seed_waypoints": 6, "batch_size": 6, "budget_waypoints": 6},
    "min_samples_per_mac": 2,
    "with_uncertainty": False,
}


def tiny_jobset(**overrides):
    params = dict(
        seeds=(1, 2),
        predictors=("idw", "baseline"),
        acquisitions=("active",),
        resolutions=(0.8,),
        base=TINY_BASE,
    )
    params.update(overrides)
    return JobSetSpec(**params)


class TestJobSetSpec:
    def test_expansion_is_the_cartesian_product(self):
        jobset = JobSetSpec(
            scenarios=("condo", "demo"),
            seeds=(1, 2, 3),
            predictors=("knn", "idw"),
            acquisitions=("lattice", "active"),
            resolutions=(0.5, 1.0),
        )
        jobs = jobset.jobs()
        assert jobset.count == 2 * 3 * 2 * 2 * 2
        assert len(jobs) == jobset.count
        cells = {
            (j.scenario, j.seed, j.predictor, j.acquisition, j.resolution_m)
            for j in jobs
        }
        assert len(cells) == jobset.count  # all distinct
        assert all(isinstance(j, RemJobSpec) for j in jobs)

    def test_expansion_order_is_deterministic(self):
        jobset = tiny_jobset()
        first = [j.digest() for j in jobset.jobs()]
        second = [j.digest() for j in jobset.jobs()]
        assert first == second

    def test_json_round_trip_preserves_digest(self):
        jobset = tiny_jobset()
        again = JobSetSpec.from_json(jobset.to_json())
        assert again == jobset
        assert again.digest() == jobset.digest()

    def test_digest_tracks_content(self):
        assert tiny_jobset().digest() != tiny_jobset(seeds=(1, 2, 3)).digest()

    def test_tune_only_applies_to_untouched_knn(self):
        jobset = JobSetSpec(
            predictors=("knn", "idw"),
            base={"tune": True, "test_fraction": 0.3},
        )
        by_predictor = {j.predictor: j for j in jobset.jobs()}
        assert by_predictor["knn"].tune is True
        assert by_predictor["idw"].tune is False
        assert by_predictor["idw"].test_fraction == 0.3

    def test_active_tunables_only_attach_to_active_cells(self):
        jobset = tiny_jobset(acquisitions=("lattice", "active"))
        by_acquisition = {j.acquisition: j for j in jobset.jobs()}
        assert by_acquisition["lattice"].active is None
        assert by_acquisition["active"].active is not None

    def test_fleet_tunables_only_attach_to_fleet_cells(self):
        jobset = tiny_jobset(
            acquisitions=("lattice", "active", "fleet"),
            base={**TINY_BASE, "fleet": {"n_drones": 3}},
        )
        by_acquisition = {j.acquisition: j for j in jobset.jobs()}
        assert by_acquisition["lattice"].active is None
        assert by_acquisition["lattice"].fleet is None
        assert by_acquisition["active"].fleet is None
        assert by_acquisition["active"].active is not None
        assert by_acquisition["fleet"].fleet["n_drones"] == 3
        # The fleet loop shares the active tunables.
        assert by_acquisition["fleet"].active is not None

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobSetSpec(seeds=())

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            JobSetSpec(seeds=(1, 1))

    def test_axis_fields_in_base_rejected(self):
        with pytest.raises(ValueError, match="base may not carry"):
            JobSetSpec(base={"seed": 7})

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="psychic"):
            JobSetSpec(predictors=("psychic",))

    def test_invalid_cell_rejected_eagerly(self):
        with pytest.raises(ValueError):
            JobSetSpec(scenarios=("not-a-world",))

    def test_invalid_active_tunable_rejected_eagerly(self):
        with pytest.raises(ValueError, match="refit_every_scans"):
            JobSetSpec(
                acquisitions=("active", "fleet"),
                base={"active": {"refit_every_scans": 0}},
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job-set field"):
            JobSetSpec.from_dict({"seedz": [1]})


class TestInlineRunner:
    def test_build_then_full_cache_resume(self, tmp_path):
        store = ArtifactStore(tmp_path)
        jobset = tiny_jobset()
        result = run_jobset(jobset, store, workers=0)
        assert result.built == 4
        assert result.failed == 0 and not result.aborted
        assert store.count() == 4

        again = run_jobset(jobset, store, workers=0)
        assert again.cached == 4 and again.built == 0
        assert {r.status for r in again.records} == {"cached"}

    def test_progress_callback_sees_every_job(self, tmp_path):
        ticks = []
        result = run_jobset(
            tiny_jobset(),
            ArtifactStore(tmp_path),
            workers=0,
            progress=ticks.append,
        )
        assert len(ticks) == 4
        assert [t.done for t in ticks] == [1, 2, 3, 4]
        assert ticks[-1].total == 4
        assert all(t.status == "built" for t in ticks)
        # ETA becomes available once the first build has landed.
        assert any(t.eta_s is not None for t in ticks)
        assert result.elapsed_s >= sum(r.wall_s for r in result.records) * 0.5

    def test_all_cached_sweep_reports_zero_eta(self, tmp_path):
        # Regression: a sweep where *every* cell is a cache hit never
        # sees a build to extrapolate a rate from; the final tick must
        # say 0.0 (done), not hang on "unknown".
        store = ArtifactStore(tmp_path)
        jobset = tiny_jobset()
        run_jobset(jobset, store, workers=0)

        ticks = []
        again = run_jobset(jobset, store, workers=0, progress=ticks.append)
        assert again.cached == 4 and again.built == 0
        assert [t.status for t in ticks] == ["cached"] * 4
        assert [t.eta_s for t in ticks] == [None, None, None, 0.0]
        assert ticks[-1].done == ticks[-1].total == 4

    def test_runner_parameter_validation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="workers"):
            JobSetRunner(store, workers=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            JobSetRunner(store, timeout_s=0)
        with pytest.raises(ValueError, match="max_failures"):
            JobSetRunner(store, max_failures=-1)


class TestPoolRunner:
    def test_spawn_pool_builds_and_resumes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        jobset = tiny_jobset(seeds=(1,))  # 2 jobs: keep spawn startup cheap
        result = run_jobset(jobset, store, workers=2, start_method="spawn")
        assert result.built == 2 and result.failed == 0
        for digest in store.digests():
            assert_mappable(store, digest)
        again = run_jobset(jobset, store, workers=2, start_method="spawn")
        assert again.cached == 2 and again.built == 0

    def test_fork_pool_matches_inline_content(self, tmp_path):
        jobset = tiny_jobset()
        inline_store = ArtifactStore(tmp_path / "inline")
        pool_store = ArtifactStore(tmp_path / "pool")
        run_jobset(jobset, inline_store, workers=0)
        run_jobset(jobset, pool_store, workers=2, start_method="fork")
        inline = {
            r["digest"]: r["content_hash"] for r in inline_store.list()
        }
        pool = {r["digest"]: r["content_hash"] for r in pool_store.list()}
        assert inline == pool  # byte-identical artifacts either way

    def test_timeout_and_circuit_breaker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBSET_DELAY_S", "30")
        store = ArtifactStore(tmp_path)
        result = run_jobset(
            tiny_jobset(),
            store,
            workers=1,
            start_method="fork",
            timeout_s=0.3,
            max_failures=0,
        )
        assert result.failed == 1
        assert result.skipped == 3
        assert result.aborted
        failed = [r for r in result.records if r.status == "failed"]
        assert "timeout" in failed[0].error

        ledger = json.loads((tmp_path / FAILED_LEDGER).read_text())
        assert len(ledger["failures"]) == 1
        entry = ledger["failures"][0]
        assert entry["digest"] == failed[0].digest
        assert entry["spec"] == failed[0].spec
        assert "timeout" in entry["error"]

    def test_stale_ledger_removed_at_run_start(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / FAILED_LEDGER).write_text('{"failures": [{"stale": true}]}')
        result = run_jobset(tiny_jobset(seeds=(1,)), store, workers=0)
        assert result.failed == 0
        assert not (tmp_path / FAILED_LEDGER).exists()


class TestKillAndResume:
    def _kill_first_busy_worker(self, runner, killed):
        """Poll the runner's pool and SIGKILL the first busy worker."""
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            for worker in list(runner._workers):
                current = worker.current
                if current is not None and worker.process.is_alive():
                    killed["digest"] = current[0]
                    os.kill(worker.process.pid, signal.SIGKILL)
                    return
            time.sleep(0.01)

    def test_sigkilled_worker_job_fails_resume_rebuilds_only_it(
        self, tmp_path, monkeypatch
    ):
        """The tentpole resumability contract, adversarially.

        SIGKILL a worker mid-build; the sweep records that job failed
        and completes the rest.  Restarting the same sweep over the
        same store rebuilds ONLY the killed digest (everything finished
        is a cache hit), and the final store is byte-identical to one
        from an uninterrupted run.
        """
        jobset = tiny_jobset()  # 4 jobs
        store = ArtifactStore(tmp_path / "interrupted")

        # Slow the builds enough that the kill lands mid-job.
        monkeypatch.setenv("REPRO_JOBSET_DELAY_S", "0.8")
        runner = JobSetRunner(store, workers=1, start_method="fork")
        killed = {}
        killer = threading.Thread(
            target=self._kill_first_busy_worker, args=(runner, killed)
        )
        killer.start()
        result = runner.run(jobset)
        killer.join(timeout=30)

        assert killed, "the killer thread never saw a busy worker"
        assert result.failed == 1
        assert result.built == 3
        failed = [r for r in result.records if r.status == "failed"]
        assert failed[0].digest == killed["digest"]
        assert "worker died" in failed[0].error
        ledger = json.loads((tmp_path / "interrupted" / FAILED_LEDGER).read_text())
        assert [f["digest"] for f in ledger["failures"]] == [killed["digest"]]
        assert store.count() == 3  # the killed job left nothing behind

        # Resume (no artificial delay): only the killed digest rebuilds.
        monkeypatch.delenv("REPRO_JOBSET_DELAY_S")
        resumed = run_jobset(jobset, store, workers=1, start_method="fork")
        assert resumed.built == 1
        assert resumed.cached == 3
        rebuilt = [r for r in resumed.records if r.status == "built"]
        assert rebuilt[0].digest == killed["digest"]
        cached = {r.digest for r in resumed.records if r.status == "cached"}
        assert killed["digest"] not in cached
        assert store.count() == 4

        # Byte-identical to an uninterrupted run of the same jobset.
        reference = ArtifactStore(tmp_path / "reference")
        run_jobset(jobset, reference, workers=0)
        resumed_hashes = {
            r["digest"]: r["content_hash"] for r in store.list()
        }
        reference_hashes = {
            r["digest"]: r["content_hash"] for r in reference.list()
        }
        assert resumed_hashes == reference_hashes


@pytest.mark.slow
class TestSweepContentHashes:
    """The benchmark's ``sweep_acquire`` grid, pinned byte for byte.

    The grid of ``perfbench/cold.py`` (``sweep_jobset``) with split seed
    1: two worlds x k-NN/IDW x active/fleet, untuned, world seed 63.
    The cells run campaigns with online refits, holdout scoring, and
    lattice passes, so any drift in those paths changes a hash here.
    """

    #: The grid's cells in expansion order, and each one's content hash.
    CELLS = (
        ("condo", "knn", "active"),
        ("condo", "knn", "fleet"),
        ("condo", "idw", "active"),
        ("condo", "idw", "fleet"),
        ("office", "knn", "active"),
        ("office", "knn", "fleet"),
        ("office", "idw", "active"),
        ("office", "idw", "fleet"),
    )
    CONTENT_HASHES = (
        "0d93e8093342aab5d21905eb1407a2aca8816070b7e9d2fa79bf9ce8b40a2f8a",
        "47b85d0a3c1622c11b145235b8c136b5ce95a75909dfc30e37791ea7f91c13cc",
        "449e7e625432ea11679ef3df9839e953b2b5a355636bc6f10e03e1bc7bfaaae4",
        "db3a73a96f9f044b4341d6b2a246f1aa63c5dfe5d3cc63de8802b898fae95e98",
        "fb84af04e55b8f196fc248e928a9687dc9fb99fea1d1334b9a6de95c685cfc2d",
        "2b220aadb871990e9683942a2843470368ded99937a88a12992accaaf4233327",
        "e636034d4210dcaf98daad0469cd30a71fa25da4b51c4a81f5f149a6ec253f78",
        "7cce4672a660a065b28d1b7b765d70fd9d58614b23ada26c3fa669683255a81b",
    )

    def test_sweep_cells_keep_their_content_hash(self, tmp_path):
        jobset = JobSetSpec(
            scenarios=("condo", "office"),
            seeds=(63,),
            predictors=("knn", "idw"),
            acquisitions=("active", "fleet"),
            base={"tune": False, "split_seed": 1},
        )
        store = ArtifactStore(tmp_path)
        result = JobSetRunner(store, workers=0).run(jobset)
        assert result.failed == 0
        hashes = []
        for record in result.records:
            spec = record.spec
            cell = (spec["scenario"], spec["predictor"], spec["acquisition"])
            hashes.append((cell, store.load(record.digest).content_hash()))
        assert hashes == list(zip(self.CELLS, self.CONTENT_HASHES))
