"""The tuned pipeline path: run_job with the §III-B grid search."""

import pytest

from repro.serve import RemJobSpec, run_job

#: The grid search shares one k-NN pass per fold across its 24
#: configurations, so a tuned build takes seconds and runs in the fast
#: tier.


@pytest.fixture(scope="module")
def tuned_result():
    spec = RemJobSpec(resolution_m=0.5, cv_folds=3, with_uncertainty=False)
    return run_job(spec).result


class TestTunedPipeline:
    def test_search_attached(self, tuned_result):
        assert tuned_result.search is not None
        assert set(tuned_result.search.best_params) <= {
            "n_neighbors",
            "weights",
            "p",
            "onehot_scale",
        }

    def test_winner_uses_distance_weights(self, tuned_result):
        # The paper's grid search selected distance weighting.
        assert tuned_result.search.best_params["weights"] == "distance"

    def test_tuned_beats_or_matches_baseline(self, tuned_result):
        from repro.core.predictors import MeanPerMacBaseline, rmse

        prep = tuned_result.preprocessing
        baseline = MeanPerMacBaseline().fit(prep.train)
        baseline_rmse = rmse(prep.test.rssi_dbm, baseline.predict(prep.test))
        assert tuned_result.test_rmse_dbm < baseline_rmse

    def test_ranking_sorted(self, tuned_result):
        ranking = tuned_result.search.ranking()
        scores = [cv.mean_rmse for cv in ranking]
        assert scores == sorted(scores)


def test_default_spec_pins_the_tuned_build():
    # `repro jobs run` with the default spec: the §III-B search over
    # DEFAULT_KNN_GRID picks this winner and held-out error.
    artifact = run_job(RemJobSpec())
    assert artifact.result.search.best_params == {
        "n_neighbors": 8,
        "weights": "distance",
        "p": 2.0,
        "onehot_scale": 3.0,
    }
    assert artifact.provenance["test_rmse_dbm"] == pytest.approx(
        3.7876941658324617, abs=1e-9
    )
    # Every byte of the REM and its uncertainty map: the UWB filter,
    # the grid search and the lattice pass all keep their bits.
    assert artifact.content_hash() == (
        "711517090705d6be2abee1cf25bed83146a83f1f49ca60b56e56cd014f586477"
    )
