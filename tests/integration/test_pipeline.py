"""End-to-end pipeline test (run_job on an untuned spec)."""

import pytest

from repro import RemJobSpec, ToolchainResult, run_job


@pytest.fixture(scope="module")
def pipeline_result():
    # Hyper-parameter tuning off: the grid search is exercised separately
    # and would quadruple the runtime here.
    spec = RemJobSpec(tune=False, resolution_m=0.5, with_uncertainty=False)
    return run_job(spec).result


class TestGenerateRem:
    def test_result_complete(self, pipeline_result):
        assert isinstance(pipeline_result, ToolchainResult)
        assert len(pipeline_result.campaign.log) > 2000
        assert pipeline_result.preprocessing.retained_samples > 2000
        assert pipeline_result.rem.macs

    def test_rmse_reasonable(self, pipeline_result):
        assert 3.0 < pipeline_result.test_rmse_dbm < 6.0

    def test_summary_fields(self, pipeline_result):
        summary = pipeline_result.summary()
        assert set(summary) == {"samples", "retained", "test_rmse_dbm", "rem_macs"}

    def test_rem_covers_flight_volume(self, pipeline_result):
        rem = pipeline_result.rem
        volume = pipeline_result.scenario.flight_volume
        mac = rem.macs[0]
        value = rem.query(tuple(volume.center), mac)
        assert -110 < value < -30

    def test_dark_region_analysis_usable(self, pipeline_result):
        fraction = pipeline_result.rem.dark_fraction(-70.0)
        assert 0.0 <= fraction <= 1.0
