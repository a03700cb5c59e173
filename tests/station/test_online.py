"""Unit tests for the online REM builder."""

import numpy as np
import pytest

from repro.core.predictors import IdwRegressor, KnnRegressor, rmse
from repro.station.online import OnlineRemBuilder
from repro.wifi import ScanRecord


def scan_records(rng, macs, position, base=-70.0):
    records = []
    for i, mac in enumerate(macs):
        rssi = int(base - 2 * i - 3.0 * position[0] + rng.normal(0, 1.0))
        records.append(ScanRecord(ssid=f"net{i}", rssi_dbm=rssi, mac=mac, channel=6))
    return records


MACS = [f"aa:aa:aa:aa:aa:{i:02x}" for i in range(4)]


class TestIngestion:
    def test_refit_cadence(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=3, holdout_fraction=0.0)
        snapshots = []
        for i in range(9):
            position = (0.3 * i, 0.5, 1.0)
            snap = builder.add_scan(position, scan_records(rng, MACS, position))
            if snap is not None:
                snapshots.append(snap)
        assert len(snapshots) == 3
        assert snapshots[-1].scans_ingested == 9
        assert builder.ready

    def test_not_ready_before_first_refit(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=5, holdout_fraction=0.0)
        builder.add_scan((0, 0, 1), scan_records(rng, MACS, (0, 0, 1)))
        assert not builder.ready
        with pytest.raises(RuntimeError):
            builder.predict((0, 0, 1), MACS[0])

    def test_prediction_tracks_field(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=4, holdout_fraction=0.0)
        for i in range(16):
            position = (0.25 * i % 3.0, (i % 4) * 0.8, 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        near = builder.predict((0.2, 0.5, 1.0), MACS[0])
        far = builder.predict((2.8, 0.5, 1.0), MACS[0])
        # The synthetic field decays 3 dB per meter of x.
        assert near > far

    def test_unknown_mac_rejected(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=2, holdout_fraction=0.0)
        for i in range(4):
            builder.add_scan(
                (float(i), 0, 1), scan_records(rng, MACS, (float(i), 0, 1))
            )
        with pytest.raises(KeyError):
            builder.predict((0, 0, 1), "ff:ff:ff:ff:ff:ff")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineRemBuilder(refit_every_scans=0)
        with pytest.raises(ValueError):
            OnlineRemBuilder(holdout_fraction=1.0)


class TestEdgeCases:
    def test_empty_scans_count_toward_cadence_without_refitting(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=2, holdout_fraction=0.0)
        for _ in range(6):
            assert builder.add_scan((0.0, 0.0, 1.0), []) is None
        assert builder.scans_ingested == 6
        assert builder.samples_ingested == 0
        assert not builder.ready

    def test_empty_scan_completes_cadence_over_real_data(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=3, holdout_fraction=0.0)
        builder.add_scan((0.0, 0.0, 1.0), scan_records(rng, MACS, (0.0, 0.0, 1.0)))
        builder.add_scan((1.0, 0.0, 1.0), scan_records(rng, MACS, (1.0, 0.0, 1.0)))
        snap = builder.add_scan((2.0, 0.0, 1.0), [])
        assert snap is not None
        assert snap.scans_ingested == 3
        assert builder.ready

    def test_empty_scans_do_not_consume_holdout_draws(self, rng):
        """An RF-dark corner must not skew the later holdout split."""
        plain = OnlineRemBuilder(refit_every_scans=100, holdout_fraction=0.5, seed=11)
        interleaved = OnlineRemBuilder(
            refit_every_scans=100, holdout_fraction=0.5, seed=11
        )
        for i in range(10):
            position = (float(i), 0.0, 1.0)
            records = scan_records(rng, MACS, position)
            plain.add_scan(position, records)
            interleaved.add_scan((9.9, 9.9, 9.9), [])  # dark scan between
            interleaved.add_scan(position, records)
        assert len(plain._holdout_rows) == len(interleaved._holdout_rows)

    def test_refit_every_scan_cadence(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=1, holdout_fraction=0.0)
        for i in range(4):
            position = (float(i), 0.0, 1.0)
            snap = builder.add_scan(position, scan_records(rng, MACS, position))
            assert snap is not None
        assert len(builder.history) == 4

    def test_cadence_boundary_is_exact(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=5, holdout_fraction=0.0)
        refits = []
        for i in range(11):
            position = (float(i), 0.0, 1.0)
            snap = builder.add_scan(position, scan_records(rng, MACS, position))
            if snap is not None:
                refits.append(i + 1)
        assert refits == [5, 10]

    def test_refit_now_outside_cadence(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=50, holdout_fraction=0.0)
        position = (0.5, 0.5, 1.0)
        builder.add_scan(position, scan_records(rng, MACS, position))
        assert not builder.ready
        snap = builder.refit_now()
        assert snap is not None
        assert builder.ready
        assert snap.scans_ingested == 1

    def test_refit_now_without_data_returns_none(self):
        builder = OnlineRemBuilder()
        assert builder.refit_now() is None
        assert not builder.ready

    def test_snapshot_monotonicity(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=3, holdout_fraction=0.2, seed=2)
        for i in range(18):
            position = (0.3 * i, 0.2 * (i % 5), 1.0)
            macs = MACS[: 2 + (i % 3)]  # vocabulary grows over time
            builder.add_scan(position, scan_records(rng, macs, position))
        history = builder.history
        assert len(history) >= 3
        for field in ("scans_ingested", "samples_ingested", "distinct_macs"):
            values = [getattr(snap, field) for snap in history]
            assert values == sorted(values), f"{field} regressed"

    def test_dataset_includes_train_and_holdout(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=2, holdout_fraction=0.5, seed=9)
        for i in range(8):
            position = (float(i), 0.0, 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        dataset = builder.dataset()
        assert len(dataset) == builder.samples_ingested
        assert len(builder._holdout_rows) > 0  # split actually happened
        assert set(dataset.mac_vocabulary) == set(MACS)

    def test_uncertainty_requires_model(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=10)
        with pytest.raises(RuntimeError):
            builder.uncertainty([(0.0, 0.0, 1.0)])
        for i in range(10):
            position = (float(i), 0.0, 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        stds = builder.uncertainty([(0.0, 0.0, 1.0), (50.0, 50.0, 1.0)])
        assert stds.shape == (2,)
        assert stds[1] > stds[0]  # far from every sample => less certain


class TestHoldoutFold:
    def test_all_holdout_rows_fold_into_first_fit(self, rng):
        """Regression: every early draw landing in holdout used to leave
        refit_now() returning None while uncertainty() raised mid-campaign."""
        builder = OnlineRemBuilder(
            refit_every_scans=100, holdout_fraction=0.9, seed=0
        )
        for i in range(3):
            position = (float(i), 0.0, 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        # Engineer the failure mode directly: whatever the draws did,
        # force the samples-but-no-train state the unlucky RNG produces.
        builder._holdout_rows.extend(builder._train_rows)
        builder._train_rows.clear()
        builder._dataset_cache = None
        assert builder.samples_ingested > 0
        snap = builder.refit_now()
        assert snap is not None
        assert builder.ready
        stds = builder.uncertainty([(0.0, 0.0, 1.0)])  # used to raise
        assert stds.shape == (1,)
        # The folded rows train the model; holdout scoring is skipped
        # for this fit and resumes with later draws.
        assert snap.holdout_rmse_dbm is None
        assert len(builder._holdout_rows) == 0

    def test_refit_now_with_no_rows_still_returns_none(self):
        builder = OnlineRemBuilder(holdout_fraction=0.9)
        assert builder.refit_now() is None
        assert not builder.ready


class TestIncrementalRefit:
    def _replay(self, incremental, n=30, holdout=0.25):
        rng = np.random.default_rng(99)
        builder = OnlineRemBuilder(
            refit_every_scans=4,
            holdout_fraction=holdout,
            seed=13,
            incremental=incremental,
        )
        for i in range(n):
            position = (0.3 * i % 3.0, 0.2 * (i % 7), 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        return builder

    def test_incremental_equals_scratch(self):
        fast = self._replay(incremental=True)
        slow = self._replay(incremental=False)
        assert len(fast.history) == len(slow.history)
        for a, b in zip(fast.history, slow.history):
            if a.holdout_rmse_dbm is None:
                assert b.holdout_rmse_dbm is None
            else:
                assert a.holdout_rmse_dbm == pytest.approx(
                    b.holdout_rmse_dbm, abs=1e-9
                )
        for point in [(0.1, 0.2, 1.0), (2.5, 1.1, 1.0)]:
            for mac in MACS:
                assert fast.predict(point, mac) == pytest.approx(
                    slow.predict(point, mac), abs=1e-9
                )
        stds_fast = fast.uncertainty([(0.5, 0.5, 1.0), (9.0, 9.0, 1.0)])
        stds_slow = slow.uncertainty([(0.5, 0.5, 1.0), (9.0, 9.0, 1.0)])
        np.testing.assert_allclose(stds_fast, stds_slow, rtol=0.0, atol=1e-9)

    def test_refit_mode_counters(self):
        fast = self._replay(incremental=True)
        slow = self._replay(incremental=False)
        # First refit is necessarily full (no model yet); with a stable
        # vocabulary every later cadence refit takes the delta path.
        assert fast.refits_full == 1
        assert fast.refits_incremental == len(fast.history) - 1
        assert fast.history[0].refit_mode == "full"
        assert all(s.refit_mode == "incremental" for s in fast.history[1:])
        assert slow.refits_incremental == 0
        assert slow.refits_full == len(slow.history)
        assert all(s.refit_wall_s >= 0.0 for s in fast.history)

    def test_vocabulary_growth_falls_back_to_full_refit(self, rng):
        fast = OnlineRemBuilder(
            refit_every_scans=3, holdout_fraction=0.0, incremental=True
        )
        slow = OnlineRemBuilder(
            refit_every_scans=3, holdout_fraction=0.0, incremental=False
        )
        for i in range(18):
            position = (0.4 * i % 3.0, 0.3 * (i % 5), 1.0)
            macs = MACS[: 2 + (i // 6)]  # vocabulary grows twice
            records = scan_records(rng, macs, position)
            fast.add_scan(position, records)
            slow.add_scan(position, records)
        # Each vocabulary change forces a full refit on the fast path.
        assert fast.refits_full >= 3
        assert fast.refits_incremental >= 1
        for mac in MACS:
            assert fast.predict((1.0, 0.5, 1.0), mac) == pytest.approx(
                slow.predict((1.0, 0.5, 1.0), mac), abs=1e-9
            )


def dense_holdout_rmse(builder):
    """The holdout score from scratch: k-NN's dense reference ``predict``."""
    holdout = builder._dataset(builder._holdout_rows)
    if len(holdout) == 0:
        return None
    return rmse(holdout.rssi_dbm, builder.model.predict(holdout))


class TestIncrementalScore:
    """Every snapshot's score ≡ the dense reference over the whole holdout."""

    @staticmethod
    def assert_scores_match(builder, scans, refit_now_every=None):
        """Feed ``scans``, checking each snapshot as it is taken."""
        checked = 0
        for i, (position, records) in enumerate(scans):
            snaps = [builder.add_scan(position, records)]
            if refit_now_every and (i + 1) % refit_now_every == 0:
                snaps.append(builder.refit_now())
            for snap in snaps:
                if snap is None:
                    continue
                expected = dense_holdout_rmse(builder)
                if expected is None:
                    assert snap.holdout_rmse_dbm is None
                else:
                    assert snap.holdout_rmse_dbm == pytest.approx(
                        expected, rel=0.0, abs=1e-9
                    )
                    checked += 1
        return checked

    @staticmethod
    def scans(rng, n, macs_at=lambda i: MACS):
        out = []
        for i in range(n):
            position = (0.3 * i % 3.0, 0.2 * (i % 7), 1.0 + 0.1 * (i % 3))
            out.append((position, scan_records(rng, macs_at(i), position)))
        return out

    def test_cadence_incremental_refits(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=3, holdout_fraction=0.3, seed=4)
        assert self.assert_scores_match(builder, self.scans(rng, 45)) >= 10
        assert builder.refits_full == 1
        assert builder.refits_incremental >= 10

    def test_vocabulary_growth_makes_held_out_macs_scorable(self, rng):
        # MAC 3 is only heard from scan 20 on, so early held-out MAC-3
        # rows cannot be scored until a full refit adds MAC 3.
        builder = OnlineRemBuilder(refit_every_scans=2, holdout_fraction=0.4, seed=7)
        scans = self.scans(rng, 40, lambda i: MACS if i >= 20 else MACS[:3])
        unscorable_seen = False
        for position, records in scans:
            snap = builder.add_scan(position, records)
            if snap is None:
                continue
            held_out = len(builder._holdout_rows)
            scorable = len(builder._dataset(builder._holdout_rows))
            unscorable_seen |= scorable < held_out
            expected = dense_holdout_rmse(builder)
            assert snap.holdout_rmse_dbm == pytest.approx(expected, abs=1e-9)
        assert unscorable_seen
        assert "aa:aa:aa:aa:aa:03" in builder.vocabulary
        assert builder.refits_full >= 2
        assert len(builder._dataset(builder._holdout_rows)) == len(
            builder._holdout_rows
        )

    def test_refit_now_holdout_to_train_swap(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=4, holdout_fraction=0.5, seed=1)
        first = self.scans(rng, 3)
        for position, records in first:
            builder.add_scan(position, records)
        builder._holdout_rows.extend(builder._train_rows)
        builder._train_rows.clear()
        builder._dataset_cache = None
        snap = builder.refit_now()
        assert snap is not None and snap.holdout_rmse_dbm is None
        assert self.assert_scores_match(builder, self.scans(rng, 30), 5) >= 5

    def test_full_refits_only(self, rng):
        builder = OnlineRemBuilder(
            refit_every_scans=3, holdout_fraction=0.3, seed=4, incremental=False
        )
        assert self.assert_scores_match(builder, self.scans(rng, 30)) >= 5
        assert builder.refits_incremental == 0

    def test_fewer_training_rows_than_neighbors(self, rng):
        # Four beacons a scan and a refit every scan: the training set
        # stays below n_neighbors=16 for the first refits, so k grows.
        builder = OnlineRemBuilder(refit_every_scans=1, holdout_fraction=0.3, seed=6)
        assert self.assert_scores_match(builder, self.scans(rng, 12)) >= 3
        assert builder.history[0].samples_ingested < 16

    def test_no_holdout(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=2, holdout_fraction=0.0)
        self.assert_scores_match(builder, self.scans(rng, 10))
        assert all(s.holdout_rmse_dbm is None for s in builder.history)

    def test_idw_factory(self, rng):
        builder = OnlineRemBuilder(
            predictor_factory=IdwRegressor,
            refit_every_scans=3,
            holdout_fraction=0.3,
            seed=4,
        )
        assert self.assert_scores_match(builder, self.scans(rng, 30), 7) >= 5
        assert builder.refits_incremental >= 5

    def test_uniform_p1_knn_factory(self, rng):
        builder = OnlineRemBuilder(
            predictor_factory=lambda: KnnRegressor(
                n_neighbors=5, weights="uniform", p=1.0, onehot_scale=1.0
            ),
            refit_every_scans=2,
            holdout_fraction=0.3,
            seed=8,
        )
        assert self.assert_scores_match(builder, self.scans(rng, 30)) >= 5


class TestConvergence:
    def test_holdout_rmse_improves_with_data(self, rng):
        builder = OnlineRemBuilder(refit_every_scans=5, holdout_fraction=0.3, seed=7)
        for i in range(60):
            position = (3.0 * rng.random(), 2.5 * rng.random(), 1.0)
            builder.add_scan(position, scan_records(rng, MACS, position))
        scores = [s.holdout_rmse_dbm for s in builder.history if s.holdout_rmse_dbm]
        assert len(scores) >= 2
        # Later refits should be no worse than the first (within noise).
        assert scores[-1] <= scores[0] + 0.75

    def test_on_campaign_scans(self, campaign_result):
        """Replay the real campaign through the online builder."""
        by_scan = {}
        for s in campaign_result.log:
            key = (s.uav_name, s.waypoint_index)
            by_scan.setdefault(key, []).append(s)
        builder = OnlineRemBuilder(refit_every_scans=12, holdout_fraction=0.25, seed=3)
        for key in sorted(by_scan):
            samples = by_scan[key]
            records = [
                ScanRecord(
                    ssid=s.ssid, rssi_dbm=s.rssi_dbm, mac=s.mac, channel=s.channel
                )
                for s in samples
            ]
            builder.add_scan(samples[0].position, records)
        assert builder.ready
        assert builder.scans_ingested == 72
        final = builder.history[-1]
        assert final.holdout_rmse_dbm is not None
        assert final.holdout_rmse_dbm < 6.5
