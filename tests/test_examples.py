"""Smoke tests: the example scripts must run end to end.

The slow examples (full grid search / long Monte-Carlo) are exercised
through their underlying APIs elsewhere; here we run the fast ones as a
user would.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name, argv=()):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / f"{name}.py"), *argv]
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        _run_example("quickstart")
        out = capsys.readouterr().out
        assert "test RMSE" in out
        assert "strongest AP" in out

    def test_interference_survey(self, capsys):
        _run_example("interference_survey")
        out = capsys.readouterr().out
        assert "radio off" in out
        assert "lost" in out

    def test_fleet_campaign(self, tmp_path, capsys):
        output = tmp_path / "samples.csv"
        _run_example("fleet_campaign", ["--quick", str(output)])
        assert output.exists()
        out = capsys.readouterr().out
        assert "2-drone fleet" in out
        assert "round 0: tours" in out
        assert "archived" in out

    def test_rem_planning(self, capsys):
        _run_example("rem_planning")
        out = capsys.readouterr().out
        assert "dark" in out

    def test_multi_technology(self, capsys):
        _run_example("multi_technology")
        out = capsys.readouterr().out
        assert "BLE" in out
        assert "§II-A holds" in out

    def test_online_mapping(self, capsys):
        _run_example("online_mapping")
        out = capsys.readouterr().out
        assert "holdout RMSE" in out

    def test_rem_server(self, capsys):
        _run_example("rem_server", ["--quick"])
        out = capsys.readouterr().out
        assert "cache hit = True" in out
        assert "healthz : ok" in out
        assert "served ≡ direct" in out
        assert "cluster : 2 workers" in out
        assert "worker exit codes [0, 0]" in out
        assert "servers stopped" in out

    def test_generated_city(self, capsys):
        _run_example("generated_city", ["--quick"])
        out = capsys.readouterr().out
        assert "generated:room-grid" in out
        assert "generated:corridor-spine" in out
        assert "generated:open-plan" in out
        assert "REM" in out
        assert "reproduce any of these worlds" in out
