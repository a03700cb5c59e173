"""The k-NN neighbor search ≡ its always-merging oracle, byte for byte.

:mod:`tests.oracles` keeps the search as it was before it learned to
skip the merge of rows whose same-MAC top-k already wins, and before
:func:`~repro.core.predictors.knn._stable_topk` ran its tie pass only on
crowded rows.  Every public path must give the oracle's bytes, in C
order: the inverse-distance row sums depend on the memory layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictors import KnnRegressor
from repro.core.predictors.knn import _squared_distances, _stable_topk
from tests.core.test_predictors import dataset_from_arrays
from tests.oracles import (
    ReferenceKnn,
    reference_squared_distances,
    reference_stable_topk,
)


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
    assert actual.flags.c_contiguous


# ----------------------------------------------------------------------
# _squared_distances and _stable_topk
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m=st.integers(1, 30),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
)
def test_squared_distances_match_the_allocating_form(seed, n, m, scale):
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, scale, size=(m, 3))
    a = rng.uniform(0.0, scale, size=(n, 3))
    shared = rng.random(n) < 0.5  # coincident points snap to zero
    a[shared] = b[rng.integers(0, m, size=int(shared.sum()))]
    assert_same_bytes(_squared_distances(a, b), reference_squared_distances(a, b))


def planted_rows(rng, n, m, k, levels, near_ties, pads):
    """Distances on a coarse ladder (exact ties, crowded bands when the
    ladder is short), some nudged by ±1 ulp or by just over the tie
    band, some exact zeros, and rows padded with ``+inf`` after at
    least ``k`` finite entries."""
    values = rng.integers(0, levels, size=(n, m)) * 0.25
    values[rng.random((n, m)) < 0.1] = 0.0
    if near_ties:
        up = rng.random((n, m)) < 0.2
        down = rng.random((n, m)) < 0.2
        values[up] = np.nextafter(values[up], np.inf)
        values[down] = np.nextafter(values[down], -np.inf).clip(0.0)
        wide = rng.random((n, m)) < 0.1
        values[wide] *= 1.0 + 3e-9
    if pads and k < m:
        finite = rng.integers(k, m + 1, size=n)
        values[np.arange(m) >= finite[:, None]] = np.inf
    return values


class TestStableTopk:
    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        m=st.integers(1, 40),
        k=st.integers(1, 44),
        levels=st.sampled_from([1, 2, 3, 8, 1000]),
        near_ties=st.booleans(),
        pads=st.booleans(),
    )
    def test_matches_the_always_cumsum_oracle(
        self, seed, n, m, k, levels, near_ties, pads
    ):
        rng = np.random.default_rng(seed)
        values = planted_rows(rng, n, m, k, levels, near_ties, pads)
        idx, pow_ = _stable_topk(values, k)
        ref_idx, ref_pow = reference_stable_topk(values, k)
        assert_same_bytes(idx, ref_idx)
        assert_same_bytes(pow_, ref_pow)

    def test_crowded_and_plain_rows_in_one_call(self):
        values = np.array(
            [
                [3.0, 1.0, 2.0, 2.0, 2.0, 0.5],  # crowded: three tie for 2nd
                [3.0, 1.0, 2.0, 4.0, 5.0, 0.5],  # plain
                [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # all tied
                [0.0, 0.0, np.inf, np.inf, np.inf, np.inf],  # pads
            ]
        )
        idx, pow_ = _stable_topk(values, 2)
        assert idx.tolist() == [[1, 5], [1, 5], [0, 1], [0, 1]]
        ref_idx, ref_pow = reference_stable_topk(values, 2)
        assert_same_bytes(idx, ref_idx)
        assert_same_bytes(pow_, ref_pow)


# ----------------------------------------------------------------------
# The neighbor search
# ----------------------------------------------------------------------
def scan_data(rng, n_scans, n_macs, lattice):
    """A campaign-like log: each scan hears a subset of the MACs at one
    shared position, and MAC popularity is skewed, so some MACs have
    fewer than k samples and some dominate a region."""
    positions = rng.uniform(0.0, 6.0, size=(n_scans, 3))
    if lattice:
        positions = np.round(positions * 2.0) / 2.0
    popularity = 0.9 ** np.arange(n_macs)
    rows, macs = [], []
    for scan in range(n_scans):
        heard = np.flatnonzero(rng.random(n_macs) < popularity)
        rows.extend([scan] * len(heard))
        macs.extend(heard)
    rows, macs = np.array(rows), np.array(macs)
    # One MAC crowds the first corner of the volume.
    crowd = rng.uniform(0.0, 1.5, size=(40, 3))
    if lattice:
        crowd = np.round(crowd * 2.0) / 2.0
    all_positions = np.vstack([positions[rows], crowd])
    all_macs = np.concatenate([macs, np.zeros(len(crowd), dtype=int)])
    rssi = (
        -45.0
        - 3.0 * all_positions[:, 0]
        - 1.5 * all_macs
        + rng.normal(0.0, 2.0, len(all_macs))
    )
    return dataset_from_arrays(all_positions, all_macs, rssi)


def queries(rng, train, n, lattice):
    """Query rows of mixed MACs: fresh points, and training positions
    (exact matches) under other MACs."""
    fresh = rng.uniform(-0.5, 6.5, size=(n, 3))
    if lattice:
        fresh = np.round(fresh * 2.0) / 2.0
    reused = train.positions[rng.integers(0, len(train), size=n // 2)]
    points = np.vstack([fresh, reused])
    macs = rng.integers(0, train.n_macs, size=len(points))
    return points, macs


def both(train, **params):
    return KnnRegressor(**params).fit(train), ReferenceKnn(**params).fit(train)


PARAMS = st.fixed_dictionaries(
    {
        "n_neighbors": st.sampled_from([1, 3, 8]),
        "weights": st.sampled_from(["uniform", "distance"]),
        "p": st.sampled_from([1.0, 2.0]),
        "onehot_scale": st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
    }
)


class TestNeighborSearch:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), params=PARAMS, lattice=st.booleans())
    def test_every_path_matches_the_oracle(self, seed, params, lattice):
        rng = np.random.default_rng(seed)
        train = scan_data(rng, n_scans=30, n_macs=7, lattice=lattice)
        model, oracle = both(train, **params)
        points, macs = queries(rng, train, 60, lattice)
        lattice_macs = np.arange(train.n_macs)

        for actual, expected in zip(
            model.grid_layers(points, lattice_macs),
            oracle.grid_layers(points, lattice_macs),
        ):
            assert_same_bytes(actual, expected)
        assert_same_bytes(
            model.predict_mac_grid(points, lattice_macs),
            oracle.predict_mac_grid(points, lattice_macs),
        )
        assert_same_bytes(
            model.predict_points(points, macs), oracle.predict_points(points, macs)
        )
        assert_same_bytes(
            model.predict_points_std(points, macs),
            oracle.predict_points_std(points, macs),
        )
        for actual, expected in zip(
            model.neighbors(points, macs), oracle.neighbors(points, macs)
        ):
            assert_same_bytes(actual, expected)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
    def test_cv_predict_matches_the_oracle(self, seed, lattice):
        rng = np.random.default_rng(seed)
        data = scan_data(rng, n_scans=40, n_macs=6, lattice=lattice)
        order = rng.permutation(len(data))
        train = data.subset(order[: len(data) * 3 // 4])
        validation = data.subset(order[len(data) * 3 // 4 :])
        param_sets = [
            {"n_neighbors": k, "weights": w, "p": p, "onehot_scale": s}
            for k in (3, 8)
            for w in ("uniform", "distance")
            for p in (1.0, 2.0)
            for s in (0.5, 3.0)
        ]
        assert_same_bytes(
            KnnRegressor().cv_predict(train, validation, param_sets),
            ReferenceKnn().cv_predict(train, validation, param_sets),
        )

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), params=PARAMS, lattice=st.booleans())
    def test_merged_neighbors_match_the_oracle(self, seed, params, lattice):
        rng = np.random.default_rng(seed)
        data = scan_data(rng, n_scans=40, n_macs=6, lattice=lattice)
        first = len(data) // 2
        head = data.subset(np.arange(first))
        tail = data.subset(np.arange(first, len(data)))
        model, oracle = both(head, **params)
        points, macs = queries(rng, data, 40, lattice)
        kept = model.neighbors(points, macs)
        oracle_kept = oracle.neighbors(points, macs)
        model.partial_fit(tail)
        oracle.partial_fit(tail)
        for actual, expected in zip(
            model.merge_neighbors(points, macs, *kept, first),
            oracle.merge_neighbors(points, macs, *oracle_kept, first),
        ):
            assert_same_bytes(actual, expected)

    @pytest.mark.parametrize("lattice", [False, True])
    def test_lattice_mixes_merged_and_kept_rows(self, lattice):
        """Some (row, MAC) cells take other-MAC neighbors, which only the
        merge (or the dense fallback) can give; others keep same-MAC
        neighbors only."""
        rng = np.random.default_rng(5)
        train = scan_data(rng, n_scans=30, n_macs=7, lattice=lattice)
        params = {"n_neighbors": 3, "p": 1.0, "onehot_scale": 0.5}
        model, oracle = both(train, **params)
        points, _ = queries(rng, train, 200, lattice)
        mixed = same_only = 0
        for mac in range(train.n_macs):
            macs = np.full(len(points), mac)
            idx, pow_ = model.neighbors(points, macs)
            for actual, expected in zip((idx, pow_), oracle.neighbors(points, macs)):
                assert_same_bytes(actual, expected)
            other = model._train_macs[idx] != mac
            mixed += int(other.any(axis=1).sum())
            same_only += int((~other).all(axis=1).sum())
        assert mixed > 0 and same_only > 0
        for actual, expected in zip(
            model.grid_layers(points, np.arange(train.n_macs)),
            oracle.grid_layers(points, np.arange(train.n_macs)),
        ):
            assert_same_bytes(actual, expected)
