"""Property-based tests (hypothesis) for core invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictors import KnnRegressor, rmse
from repro.link import BoundedQueue
from repro.radio import BandSegment, band_overlap_mhz, overlap_fraction
from repro.radio.geometry import Wall, crossed_walls
from repro.radio.materials import DRYWALL
from repro.uwb import PositionVelocityEkf
from tests.core.test_predictors import dataset_from_arrays

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
coords = st.tuples(finite, finite, finite)


class TestQueueInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        operations=st.lists(st.one_of(st.integers(0, 1000), st.none()), max_size=200),
    )
    def test_never_exceeds_capacity_and_conserves_items(self, capacity, operations):
        queue = BoundedQueue(capacity)
        taken = []
        for op in operations:
            if op is None:
                item = queue.poll()
                if item is not None:
                    taken.append(item)
            else:
                queue.offer(op)
            assert len(queue) <= capacity
        stats = queue.stats
        assert stats.enqueued == len(taken) + len(queue) + 0
        assert stats.dequeued == len(taken)
        assert stats.high_watermark <= capacity


class TestSpectrumProperties:
    bands = st.builds(
        BandSegment,
        center_mhz=st.floats(2300, 2600, allow_nan=False),
        width_mhz=st.floats(0.1, 50, allow_nan=False),
    )

    @given(a=bands, b=bands)
    def test_overlap_symmetric_and_bounded(self, a, b):
        overlap = band_overlap_mhz(a, b)
        assert overlap == band_overlap_mhz(b, a)
        assert 0.0 <= overlap <= min(a.width_mhz, b.width_mhz) + 1e-9

    @given(a=bands, b=bands)
    def test_fraction_in_unit_interval(self, a, b):
        assert 0.0 <= overlap_fraction(a, b) <= 1.0 + 1e-12

    @given(a=bands)
    def test_self_overlap_is_full(self, a):
        assert overlap_fraction(a, a) == pytest.approx(1.0, abs=1e-9)


class TestGeometryProperties:
    @given(p=coords, q=coords, offset=st.floats(-100, 100, allow_nan=False))
    def test_crossings_symmetric_under_reversal(self, p, q, offset):
        wall = Wall(0, offset, ((-1e3, 1e3), (-1e3, 1e3)), DRYWALL)
        forward = crossed_walls(p, q, [wall])
        backward = crossed_walls(q, p, [wall])
        assert len(forward) == len(backward)

    @given(p=coords, offset=st.floats(-100, 100, allow_nan=False))
    def test_zero_length_segment_crosses_nothing(self, p, offset):
        wall = Wall(1, offset, ((-1e3, 1e3), (-1e3, 1e3)), DRYWALL)
        assert crossed_walls(p, p, [wall]) == []


class TestEkfProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n_updates=st.integers(1, 40),
    )
    def test_covariance_stays_psd_under_random_updates(self, seed, n_updates):
        rng = np.random.default_rng(seed)
        ekf = PositionVelocityEkf(rng.uniform(-1, 1, 3))
        for _ in range(n_updates):
            ekf.predict(float(rng.uniform(0.01, 0.2)))
            anchor = rng.uniform(-5, 5, 3)
            measured = float(abs(rng.normal(3.0, 1.0))) + 0.1
            ekf.update_range(anchor, measured, sigma_m=float(rng.uniform(0.05, 0.3)))
        eigenvalues = np.linalg.eigvalsh(ekf.P)
        assert eigenvalues.min() > -1e-8
        assert np.allclose(ekf.P, ekf.P.T)


class TestKnnProperties:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 40))
    def test_k1_memorizes_training_set(self, seed, n):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 5, size=(n, 3))
        # Ensure distinct positions so nearest neighbor is unambiguous.
        positions += np.arange(n)[:, None] * 1e-3
        rssi = rng.uniform(-90, -40, n)
        data = dataset_from_arrays(positions, np.zeros(n, dtype=int), rssi)
        model = KnnRegressor(n_neighbors=1).fit(data)
        assert np.allclose(model.predict(data), rssi)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_predictions_bounded_by_training_range(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 5, size=(30, 3))
        rssi = rng.uniform(-90, -40, 30)
        data = dataset_from_arrays(positions, np.zeros(30, dtype=int), rssi)
        model = KnnRegressor(n_neighbors=5, weights="uniform").fit(data)
        queries = dataset_from_arrays(
            rng.uniform(-2, 7, size=(20, 3)),
            np.zeros(20, dtype=int),
            np.zeros(20),
            vocabulary=data.mac_vocabulary,
        )
        predictions = model.predict(queries)
        assert predictions.min() >= rssi.min() - 1e-9
        assert predictions.max() <= rssi.max() + 1e-9


class TestJobFieldAdapterProperties:
    """run_job is the sole build path: the config adapters feeding it
    (``to_job_fields``/``from_job_fields``) must be lossless through a
    JSON round trip for every spec-representable config."""

    @staticmethod
    def active_configs():
        from repro.station import ActiveSamplingConfig

        def build(seed_wp, extra_budget, batch, target, patience, values):
            return ActiveSamplingConfig(
                seed_waypoints=seed_wp,
                batch_size=batch,
                budget_waypoints=seed_wp + extra_budget,
                target_rmse_dbm=target,
                patience_rounds=patience,
                min_improvement_dbm=values[0],
                travel_weight_db_per_m=values[1],
                lattice_nx=3 + patience,
                lattice_margin_m=values[2],
                flight_leg_s=values[3],
                scan_window_s=values[4],
                refit_every_scans=1 + batch,
                holdout_fraction=values[5],
                builder_seed=seed_wp,
            )

        return st.builds(
            build,
            seed_wp=st.integers(1, 12),
            extra_budget=st.integers(0, 60),
            batch=st.integers(1, 8),
            target=st.one_of(st.none(), st.floats(1.0, 10.0, allow_nan=False)),
            patience=st.integers(0, 4),
            values=st.tuples(
                st.floats(0.0, 1.0, allow_nan=False),
                st.floats(0.0, 2.0, allow_nan=False),
                st.floats(0.1, 0.5, allow_nan=False),
                st.floats(1.0, 8.0, allow_nan=False),
                st.floats(0.5, 5.0, allow_nan=False),
                st.floats(0.05, 0.5, allow_nan=False),
            ),
        )

    @settings(deadline=None, max_examples=50)
    @given(active=active_configs())
    def test_active_config_round_trips_through_json(self, active):
        from repro.station import ActiveSamplingConfig

        fields = json.loads(json.dumps(active.to_job_fields()))
        assert ActiveSamplingConfig.from_job_fields(fields) == active

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 10_000),
        scenario=st.sampled_from(("condo", "demo", "office", "warehouse")),
        acquisition=st.sampled_from(("lattice", "active")),
        active=st.one_of(st.none(), active_configs()),
    )
    def test_campaign_config_round_trips_through_json(
        self, seed, scenario, acquisition, active
    ):
        from repro.station import CampaignConfig

        config = CampaignConfig(
            seed=seed,
            scenario=scenario,
            acquisition=acquisition,
            active=active if acquisition == "active" else None,
        )
        fields = json.loads(json.dumps(config.to_job_fields()))
        assert CampaignConfig.from_job_fields(fields) == config

    def test_non_representable_configs_refuse_to_convert(self):
        from repro.station import ActiveSamplingConfig, CampaignConfig

        with pytest.raises(ValueError, match="anchor_count"):
            CampaignConfig(anchor_count=4).to_job_fields()
        with pytest.raises(ValueError, match="no_fly"):
            ActiveSamplingConfig(
                no_fly=(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),)
            ).to_job_fields()


class TestMetricProperties:
    values = st.lists(st.floats(-100, 0, allow_nan=False), min_size=1, max_size=50)

    @given(y=values)
    def test_rmse_zero_iff_identical(self, y):
        assert rmse(y, y) == 0.0

    @given(y=values, shift=st.floats(0.1, 20, allow_nan=False))
    def test_rmse_of_constant_shift(self, y, shift):
        shifted = [v + shift for v in y]
        assert (
            rmse(y, shifted) == np.float64(shift)
            or abs(rmse(y, shifted) - shift) < 1e-9
        )
