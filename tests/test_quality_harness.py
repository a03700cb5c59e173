"""The quality harness (``tools/quality.py``) and its committed baseline."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
STAT_KEYS = {"n", "mean", "p50", "p95", "min", "max"}


def load_harness():
    spec = importlib.util.spec_from_file_location("quality", REPO / "tools/quality.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quality():
    return load_harness()


@pytest.mark.slow
def test_two_runs_agree_exactly(quality):
    # Every input is seeded, so the report is a pure function of the
    # commit: a rerun that differs means an unseeded draw crept in.
    first = quality.report([1, 2])
    second = quality.report([1, 2])
    assert first == second
    assert first["metrics"]["build.annotation_error_cm"]["n"] > 100
    assert len(first["tuned_winner"]) == 2


def test_baseline_covers_every_metric_and_bound():
    baseline = json.loads((REPO / "QUALITY.json").read_text())
    assert baseline["seeds"] == list(range(1, 11))
    assert baseline["bounds"] == {
        "mean_rel": 0.05,
        "p95_rel": 0.10,
        "winner_min_share": 0.9,
    }
    metrics = baseline["metrics"]
    for prefix in ("build", "condo.active", "condo.fleet", "office.active"):
        for name in ("annotation_error_cm", "holdout_rmse_db", "map_rmse_db"):
            assert set(metrics[f"{prefix}.{name}"]) == STAT_KEYS
    assert any(name.startswith("office.fleet.rmse_at_") for name in metrics)
    assert "hover.mean_error_cm" in metrics
    assert len(baseline["tuned_winner"]) == 10


def test_check_applies_the_bounds(quality):
    baseline = json.loads((REPO / "QUALITY.json").read_text())
    assert quality.check(baseline, baseline) == []
    moved = json.loads(json.dumps(baseline))
    name = "build.annotation_error_cm"
    moved["metrics"][name]["mean"] *= 1.06
    moved["metrics"][name]["p95"] *= 1.09
    moved["tuned_winner"][:2] = [{}, {}]
    failures = quality.check(baseline, moved)
    assert len(failures) == 2
    assert failures[0].startswith(f"{name}: mean")
    assert failures[1].startswith("tuned winner: same on 8 of 10")
