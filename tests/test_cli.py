"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.serve import ArtifactStore

from tests.serve.conftest import assert_mappable


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["campaign"],
            ["campaign", "--output", "x.csv"],
            ["figures", "--figure", "5"],
            ["endurance"],
            ["localization"],
            ["density", "--counts", "3,6"],
            ["rem", "--resolution", "0.5"],
            ["--seed", "7", "campaign"],
        ):
            args = parser.parse_args(argv)
            assert args.command

    def test_bad_figure_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "9"])

    def test_active_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--active", "--budget", "24", "--target-rmse", "4.5"]
        )
        assert args.active
        assert args.budget == 24
        assert args.target_rmse == pytest.approx(4.5)
        assert args.batch == 6  # default

    def test_active_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert not args.active
        assert args.budget == 72
        assert args.target_rmse is None

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--fleet", "3", "--separation", "1.2"]
        )
        assert args.fleet == 3
        assert args.separation == pytest.approx(1.2)

    def test_fleet_defaults_off(self):
        args = build_parser().parse_args(["campaign"])
        assert args.fleet == 0
        assert args.separation == pytest.approx(0.5)


class TestCommands:
    def test_campaign_with_csv(self, tmp_path, capsys):
        output = tmp_path / "samples.csv"
        code = main(["campaign", "--output", str(output)])
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "total samples" in out
        assert "distinct MACs" in out

    def test_campaign_active(self, tmp_path, capsys):
        output = tmp_path / "active.csv"
        code = main(
            [
                "campaign",
                "--active",
                "--budget",
                "10",
                "--batch",
                "4",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "active sampling" in out
        assert "stopped: budget" in out
        assert "final holdout RMSE" in out

    def test_campaign_active_bad_budget(self, capsys):
        assert main(["campaign", "--active", "--budget", "0"]) == 2

    def test_campaign_fleet(self, tmp_path, capsys):
        output = tmp_path / "fleet.csv"
        code = main(
            [
                "campaign",
                "--fleet",
                "2",
                "--budget",
                "12",
                "--batch",
                "4",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "2-drone" in out
        assert "round 0: tours" in out
        assert "stopped: budget" in out
        assert "fleet makespan" in out
        assert "final holdout RMSE" in out

    def test_campaign_fleet_bad_flags(self, capsys):
        assert main(["campaign", "--fleet", "-1"]) == 2
        assert main(["campaign", "--fleet", "2", "--budget", "0"]) == 2
        assert main(["campaign", "--fleet", "2", "--batch", "0"]) == 2

    def test_figure5(self, capsys):
        assert main(["figures", "--figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "off" in out

    def test_endurance(self, capsys):
        assert main(["endurance"]) == 0
        out = capsys.readouterr().out
        assert "scans in" in out

    def test_localization(self, capsys):
        assert main(["localization"]) == 0
        out = capsys.readouterr().out
        assert "anchors" in out
        assert "twr" in out and "tdoa" in out

    def test_rem_export(self, tmp_path, capsys):
        output = tmp_path / "rem.json"
        code = main(["rem", "--output", str(output), "--resolution", "0.6"])
        assert code == 0
        data = json.loads(output.read_text())
        assert data["resolution_m"] == 0.6
        assert data["fields"]

    def test_rem_export_npz_suffix_dispatch(self, tmp_path, capsys):
        from repro.core.rem import RadioEnvironmentMap

        output = tmp_path / "rem.npz"
        code = main(["rem", "--out", str(output), "--resolution", "0.6"])
        assert code == 0
        assert output.exists()
        rem = RadioEnvironmentMap.load_npz(output)
        assert rem.grid.resolution_m == 0.6
        assert rem.macs


class TestScenariosCommand:
    def test_parser_accepts_subcommands(self):
        parser = build_parser()
        for argv in (
            ["scenarios", "list"],
            ["scenarios", "list", "--json"],
            ["scenarios", "describe", "condo"],
            ["scenarios", "generate", "--template", "open-plan"],
            ["scenarios", "generate", "--set", "floors=3", "--out", "x.json"],
        ):
            args = parser.parse_args(argv)
            assert args.scenarios_command

    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_list_names_registry_and_templates(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("condo", "office-tower", "room-grid", "corridor-spine"):
            assert name in out

    def test_list_json(self, capsys):
        assert main(["scenarios", "list", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        record = envelope["result"]
        assert "condo" in record["registered"]
        assert "open-plan" in record["templates"]
        assert "office-tower" in record["generated_presets"]

    def test_describe_registry_name(self, capsys):
        assert main(["scenarios", "describe", "warehouse"]) == 0
        out = capsys.readouterr().out
        assert "walls" in out
        assert "flight volume" in out

    def test_describe_generated_name_json(self, capsys):
        code = main(
            [
                "scenarios",
                "describe",
                "generated:room-grid?floors=2&seed=5",
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        record = envelope["result"]
        assert record["generated"]["floors"] == 2
        assert record["n_walls"] > 0

    def test_generate_emits_canonical_spec(self, capsys):
        code = main(
            [
                "scenarios",
                "generate",
                "--template",
                "corridor-spine",
                "--set",
                "floors=4",
            ]
        )
        assert code == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["template"] == "corridor-spine"
        assert spec["floors"] == 4

    def test_generate_spec_file_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "spec.json"
        assert (
            main(
                [
                    "--seed",
                    "9",
                    "scenarios",
                    "generate",
                    "--set",
                    "floors=2",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        spec = json.loads(out_path.read_text())
        assert spec["seed"] == 9  # global --seed feeds the spec
        capsys.readouterr()
        assert main(["scenarios", "describe", str(out_path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)["result"]
        assert record["generated"]["spec"]["floors"] == 2

    def test_generate_bad_set_syntax_exits(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "generate", "--set", "floors"])

    def test_generate_set_overrides_compose_onto_spec_file(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "spec.json"
        assert (
            main(
                [
                    "scenarios",
                    "generate",
                    "--set",
                    "floors=2",
                    "--out",
                    str(spec_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["scenarios", "generate", "--spec", str(spec_path), "--set", "floors=5"]
        )
        assert code == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["floors"] == 5  # --set wins over the file

    def test_generate_template_conflicts_with_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"template": "open-plan"}')
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "scenarios",
                    "generate",
                    "--spec",
                    str(spec_path),
                    "--template",
                    "room-grid",
                ]
            )

    def test_campaign_runs_in_generated_scenario(self, capsys):
        code = main(
            [
                "--scenario",
                "generated:room-grid?floors=1&width_m=12&depth_m=9&seed=4",
                "campaign",
                "--active",
                "--budget",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "active sampling" in out


class TestJobsAndServeCommands:
    def test_jobs_and_serve_parse(self):
        parser = build_parser()
        for argv in (
            ["jobs", "run"],
            ["jobs", "run", "spec.json", "--store", "s", "--json"],
            ["jobs", "run", "--set", "seed=7"],
            ["jobs", "list", "--store", "s"],
            ["serve", "--port", "0", "--capacity", "2"],
        ):
            args = parser.parse_args(argv)
            assert args.command in ("jobs", "serve")

    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])

    TINY_JOB = [
        "--set",
        "acquisition=active",
        "--set",
        'active={"seed_waypoints":6,"batch_size":6,"budget_waypoints":6}',
        "--set",
        "tune=false",
        "--set",
        "min_samples_per_mac=2",
        "--set",
        "resolution_m=0.8",
    ]

    def test_jobs_run_builds_then_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["jobs", "run", "--store", store, *self.TINY_JOB]) == 0
        assert "(built)" in capsys.readouterr().out
        built = ArtifactStore(store)
        (digest,) = built.digests()
        assert_mappable(built, digest)
        assert main(["jobs", "run", "--store", store, *self.TINY_JOB]) == 0
        out = capsys.readouterr().out
        assert "(cache hit)" in out
        assert "APs mapped" in out

    def test_jobs_run_spec_file_and_json_record(self, tmp_path, capsys):
        from repro.serve import RemJobSpec

        spec = RemJobSpec(
            acquisition="active",
            active={
                "seed_waypoints": 6,
                "batch_size": 6,
                "budget_waypoints": 6,
            },
            tune=False,
            min_samples_per_mac=2,
            resolution_m=0.8,
        )
        spec_path = tmp_path / "job.json"
        spec_path.write_text(spec.to_json())
        store = str(tmp_path / "artifacts")
        code = main(
            ["jobs", "run", str(spec_path), "--store", store, "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        record = envelope["result"]
        assert record["digest"] == spec.digest()
        assert record["provenance"]["samples"] > 0

        capsys.readouterr()
        assert main(["jobs", "list", "--store", store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["result"]
        assert [r["digest"] for r in records] == [spec.digest()]

    def test_jobs_list_empty_store(self, tmp_path, capsys):
        assert main(["jobs", "list", "--store", str(tmp_path / "empty")]) == 0
        assert "no artifacts" in capsys.readouterr().out

    def test_jobs_run_bad_spec_fails(self, tmp_path, capsys):
        code = main(
            [
                "jobs",
                "run",
                "--store",
                str(tmp_path),
                "--set",
                "acquisition=psychic",
            ]
        )
        assert code == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_jobs_run_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["jobs", "run", "--store", str(tmp_path), "--set", "scenario=nope"]
        )
        assert code == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_jobs_run_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["jobs", "run", str(tmp_path / "absent.json"), "--store", str(tmp_path)]
        )
        assert code == 2
        assert "bad job spec" in capsys.readouterr().err


class TestSweepAndReportCommands:
    TINY_SWEEP = [
        "--set",
        "seeds=[1,2]",
        "--set",
        'predictors=["idw","baseline"]',
        "--set",
        'acquisitions=["active"]',
        "--set",
        "resolutions=[0.8]",
        "--set",
        (
            'base={"active":{"seed_waypoints":6,"batch_size":6,'
            '"budget_waypoints":6},"min_samples_per_mac":2,'
            '"with_uncertainty":false}'
        ),
    ]

    def test_sweep_and_report_parse(self):
        parser = build_parser()
        for argv in (
            ["jobs", "sweep"],
            ["jobs", "sweep", "set.json", "--workers", "0", "--json"],
            ["jobs", "sweep", "--timeout", "5", "--max-failures", "2"],
            ["report", "--store", "s", "--csv", "rows.csv", "--out", "r.md"],
            ["report", "--by", "scenario", "--value", "wall_time_s", "--json"],
        ):
            args = parser.parse_args(argv)
            assert args.command in ("jobs", "report")

    def test_sweep_builds_then_resume_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        base = ["jobs", "sweep", "--store", store, "--workers", "0"]
        assert main([*base, *self.TINY_SWEEP]) == 0
        out = capsys.readouterr().out
        assert "4 built, 0 cached" in out
        built = ArtifactStore(store)
        assert built.count() == 4
        for digest in built.digests():
            assert_mappable(built, digest)

        assert main([*base, "--json", *self.TINY_SWEEP]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        summary = envelope["result"]
        assert summary["cached"] == 4 and summary["built"] == 0
        assert {r["status"] for r in summary["records"]} == {"cached"}

    def test_all_cached_sweep_prints_cached_summary(self, tmp_path, capsys):
        # Regression: a fully-cached resume used to report the generic
        # built/failed/skipped line with no usable rate or ETA; it now
        # states the cache hit count and the elapsed wall and exits 0.
        store = str(tmp_path / "artifacts")
        base = ["jobs", "sweep", "--store", store, "--workers", "0"]
        assert main([*base, *self.TINY_SWEEP]) == 0
        capsys.readouterr()

        assert main([*base, *self.TINY_SWEEP]) == 0
        out = capsys.readouterr().out
        assert "cached 4/4" in out
        assert "all jobs already in the store" in out
        # The final tick resolves to a zero ETA, not "unknown".
        assert "eta 0s" in out

    def test_sweep_spec_file_and_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.serve import JobSetSpec

        jobset = JobSetSpec(
            seeds=(5,),
            predictors=("baseline",),
            acquisitions=("active",),
            resolutions=(0.8,),
            base={
                "active": {
                    "seed_waypoints": 6,
                    "batch_size": 6,
                    "budget_waypoints": 6,
                },
                "min_samples_per_mac": 2,
                "with_uncertainty": False,
            },
        )
        spec_path = tmp_path / "set.json"
        store = str(tmp_path / "artifacts")
        spec_path.write_text(jobset.to_json())
        code = main(
            [
                "jobs",
                "sweep",
                str(spec_path),
                "--store",
                store,
                "--workers",
                "0",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)["result"]
        assert summary["jobset_digest"] == jobset.digest()
        assert summary["built"] == 1

        monkeypatch.setattr("sys.stdin", io.StringIO(jobset.to_json()))
        code = main(
            ["jobs", "sweep", "-", "--store", store, "--workers", "0", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["cached"] == 1

    def test_sweep_bad_spec_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "jobs",
                "sweep",
                "--store",
                str(tmp_path),
                "--set",
                'predictors=["psychic"]',
            ]
        )
        assert code == 2
        assert "bad job-set spec" in capsys.readouterr().err

    def test_report_end_to_end_from_sidecars_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        store = str(tmp_path / "artifacts")
        assert (
            main(
                [
                    "jobs",
                    "sweep",
                    "--store",
                    store,
                    "--workers",
                    "0",
                    *self.TINY_SWEEP,
                ]
            )
            == 0
        )
        capsys.readouterr()
        # The report must come from the JSON sidecars alone — no
        # re-simulation and not a single artifact/tensor load.
        from repro.serve import ArtifactStore

        def _no_loads(self, *args, **kwargs):
            raise AssertionError("report stage must not load artifacts")

        monkeypatch.setattr(ArtifactStore, "load", _no_loads)
        csv_path = tmp_path / "rows.csv"
        md_path = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--store",
                store,
                "--csv",
                str(csv_path),
                "--out",
                str(md_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test_rmse_dbm by predictor" in out
        assert "idw" in out and "baseline" in out

        header, *rows = csv_path.read_text().strip().splitlines()
        assert header.startswith("digest,scenario,seed,predictor")
        assert len(rows) == 4
        report = md_path.read_text()
        assert "#" in report  # the bar chart rendered

    def test_report_json_envelope(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert (
            main(
                [
                    "jobs",
                    "sweep",
                    "--store",
                    store,
                    "--workers",
                    "0",
                    *self.TINY_SWEEP,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", "--store", store, "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        result = envelope["result"]
        assert len(result["rows"]) == 4
        assert set(result["stats"]) == {"idw", "baseline"}
        for stats in result["stats"].values():
            assert stats["n"] == 2

    def test_generate_json_envelope(self, capsys):
        code = main(
            [
                "scenarios",
                "generate",
                "--template",
                "open-plan",
                "--set",
                "floors=2",
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["result"]["spec"]["floors"] == 2
        assert envelope["result"]["metadata"]["n_walls"] > 0
