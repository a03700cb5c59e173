"""The burst update's direct LAPACK solve ≡ ``np.linalg.solve``, bit for bit."""

import importlib.util
import sys
import warnings

import numpy as np
import pytest

from repro.radio.geometry import Cuboid
from repro.uwb import PositionVelocityEkf, kalman
from repro.uwb.anchors import corner_layout
from repro.uwb.ranging import RangingConfig, TdoaRanging


@pytest.fixture()
def layout():
    return corner_layout(Cuboid((0.0, 0.0, 0.0), (3.74, 3.20, 2.10)))


def well_conditioned(rng, m):
    """A burst-shaped system: ``S`` as the update forms it, and the
    right-hand side as the ``(m, 7)`` transpose of a ``(7, m)`` buffer."""
    h = rng.normal(size=(m, 3))
    p = rng.normal(size=(3, 3))
    S = h @ (p @ p.T + np.eye(3)) @ h.T + rng.uniform(0.01, 0.1) * np.eye(m)
    rhs_t = rng.normal(size=(7, m))
    return S, rhs_t.T


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def bursts(layout, ranging, n, seed):
    """``n`` ticks of a tag sweeping the room: gated rows, and some
    bursts that see only part of the layout."""
    tdoa = TdoaRanging(layout, ranging)
    t = np.linspace(0.0, 1.0, n)[:, None]
    path = 0.5 + 0.5 * np.sin(np.array([7.0, 5.0, 3.0]) * 2 * np.pi * t)
    path = np.array([-0.5, -0.5, 0.0]) + path * np.array([4.7, 4.2, 2.1])
    stacked, diffs = tdoa.measure_stacked(path, np.random.default_rng(seed))
    return path[0], list(zip(stacked, diffs))


class TestDirectSolve:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_every_burst_size_matches_linalg_solve(self, m):
        rng = np.random.default_rng(m)
        for _ in range(50):
            S, rhs = well_conditioned(rng, m)
            expected = np.linalg.solve(S, np.ascontiguousarray(rhs))
            assert_same_bytes(np.linalg.solve(S, rhs), expected)
            with kalman._linalg_errstate():
                direct = kalman._solve(S, rhs)
            assert_same_bytes(direct, expected)
            assert direct.flags.c_contiguous
            assert_same_bytes(kalman._checked_solve(S, rhs), expected)

    def test_singular_system_raises_without_a_warning(self):
        S = np.zeros((3, 3))
        rhs = np.ones((7, 3)).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                kalman._checked_solve(S, rhs)
            with kalman._linalg_errstate(), pytest.raises(np.linalg.LinAlgError):
                kalman._solve(S, rhs)


class TestTickBlock:
    def test_block_matches_per_call_updates(self, layout):
        ranging = RangingConfig(
            max_range_m=3.6, nlos_probability=0.3, nlos_bias_max_m=2.0
        )
        start, ticks = bursts(layout, ranging, 1500, seed=8)
        per_call = PositionVelocityEkf(start)
        blocked = PositionVelocityEkf(start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with blocked.tick_block():
                for pairs, z in ticks:
                    per_call.predict(0.04)
                    per_call.update_tdoa_stacked(pairs, z, 0.18)
                    blocked.predict(0.04)
                    blocked.update_tdoa_stacked(pairs, z, 0.18)
                    assert_same_bytes(blocked.x, per_call.x)
                    assert_same_bytes(blocked.P, per_call.P)
        assert per_call.rejected_updates > 50
        assert len({len(z) for _, z in ticks}) >= 3
        assert blocked.accepted_updates == per_call.accepted_updates

    def test_singular_burst_raises_in_and_after_a_block(self, layout):
        ekf = PositionVelocityEkf((1.0, 1.0, 1.0))
        stacked, diffs = TdoaRanging(layout).measure_stacked(
            (1.2, 1.1, 1.0), np.random.default_rng(0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                with ekf.tick_block():
                    ekf.update_tdoa_stacked(stacked, diffs, 0.0)
            # The block restored the checked solve on its way out.
            with pytest.raises(np.linalg.LinAlgError):
                ekf.update_tdoa_stacked(stacked, diffs, 0.0)


def load_kalman_copy(monkeypatch):
    """A fresh copy of ``repro.uwb.kalman``, imported under the test's
    ``sys.modules``; the installed module is left as it is."""
    name = "kalman_without_private_linalg"
    spec = importlib.util.spec_from_file_location(name, kalman.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestFallback:
    def test_missing_private_module_falls_back_to_linalg_solve(
        self, layout, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
        fallback = load_kalman_copy(monkeypatch)
        assert fallback._gufunc_solve is None
        assert fallback._solve is fallback._checked_solve is np.linalg.solve

        ranging = RangingConfig(nlos_probability=0.3, nlos_bias_max_m=2.0)
        start, ticks = bursts(layout, ranging, 600, seed=9)
        direct = PositionVelocityEkf(start)
        public = fallback.PositionVelocityEkf(start)
        for ekf in (direct, public):
            with ekf.tick_block():
                for pairs, z in ticks:
                    ekf.predict(0.04)
                    ekf.update_tdoa_stacked(pairs, z, 0.18)
        assert_same_bytes(public.x, direct.x)
        assert_same_bytes(public.P, direct.P)
        assert public.rejected_updates == direct.rejected_updates > 0

        fresh = fallback.PositionVelocityEkf((1.0, 1.0, 1.0))
        stacked, diffs = TdoaRanging(layout).measure_stacked(
            (1.2, 1.1, 1.0), np.random.default_rng(0)
        )
        with pytest.raises(np.linalg.LinAlgError):
            with fresh.tick_block():
                fresh.update_tdoa_stacked(stacked, diffs, 0.0)

    def test_installed_module_uses_the_gufunc(self):
        assert kalman._gufunc_solve is np.linalg._umath_linalg.solve
