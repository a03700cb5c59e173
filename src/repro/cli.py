"""Command-line interface: ``python -m repro <command>``.

Subcommands map one-to-one onto the reproduction's top-level flows:

* ``campaign``     — fly the 72-waypoint demo campaign, print §III-A
  statistics, optionally archive samples to CSV;
* ``figures``      — regenerate the paper's figures as ASCII;
* ``endurance``    — run the §III-A endurance protocol;
* ``localization`` — the §II-B anchor/mode accuracy table;
* ``density``      — the future-work REM density curve;
* ``rem``          — generate a REM and export it (JSON or ``.npz``,
  dispatched on the output suffix);
* ``scenarios``    — list registered/generated worlds, describe one,
  or generate a procedural building from a JSON spec (spec in/out);
* ``jobs``         — run a JSON job spec through the artifact store
  (cache-hit aware), sweep a job-set grid over worker processes
  (resumable against the store), or list the stored artifacts;
* ``report``       — aggregate store sidecars into a tidy CSV plus a
  markdown report (no re-simulation);
* ``serve``        — start the JSON/HTTP REM-serving front end over an
  artifact store.

Machine-readable output is uniform: every verb that honors ``--json``
prints one ``{"ok": <bool>, "result": <payload>}`` object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Small UAVs-supported Autonomous Generation of "
            "Fine-grained 3D Indoor Radio Environmental Maps' (ICDCS 2022)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=63, help="master scenario seed (default 63)"
    )
    parser.add_argument(
        "--scenario",
        default="condo",
        help=(
            "registered RF scenario to run in (e.g. condo, office, "
            "warehouse; default condo)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser("campaign", help="fly the demo campaign")
    campaign.add_argument("--output", help="CSV path to archive the samples")
    campaign.add_argument(
        "--active",
        action="store_true",
        help=(
            "uncertainty-driven acquisition instead of the fixed lattice: "
            "fly a seed batch, refit online, fly where the map is least "
            "certain, repeat until a stopping rule fires"
        ),
    )
    campaign.add_argument(
        "--budget",
        type=int,
        default=72,
        help="active sampling: max waypoints to fly (default 72)",
    )
    campaign.add_argument(
        "--target-rmse",
        type=float,
        default=None,
        help=(
            "active sampling: stop once the holdout RMSE (dB) drops to "
            "this level (default: fly the whole budget)"
        ),
    )
    campaign.add_argument(
        "--batch",
        type=int,
        default=6,
        help="active sampling: waypoints acquired per round (default 6)",
    )
    campaign.add_argument(
        "--fleet",
        type=int,
        default=0,
        metavar="K",
        help=(
            "fly K drones concurrently (fleet acquisition: the active "
            "planner's batches are partitioned spatially across the "
            "fleet, flown at once, and merged deterministically; "
            "0 = off)"
        ),
    )
    campaign.add_argument(
        "--separation",
        type=float,
        default=0.5,
        help=(
            "fleet acquisition: pairwise anti-collision distance in "
            "meters enforced at batch-planning time (default 0.5)"
        ),
    )

    figures = commands.add_parser("figures", help="regenerate paper figures")
    figures.add_argument(
        "--figure",
        choices=("5", "6", "7", "8", "all"),
        default="all",
        help="which figure to regenerate",
    )

    commands.add_parser("endurance", help="run the §III-A endurance protocol")
    commands.add_parser("localization", help="anchor/mode accuracy table")

    density = commands.add_parser("density", help="REM density study")
    density.add_argument(
        "--counts",
        default="3,6,12,24,40,54",
        help="comma-separated training-location counts",
    )

    rem = commands.add_parser("rem", help="generate and export a REM")
    rem.add_argument("--resolution", type=float, default=0.25, help="lattice step (m)")
    rem.add_argument(
        "--output",
        "--out",
        default="rem.json",
        help=(
            "output path; a .npz suffix selects the compact binary "
            "format, anything else gets JSON"
        ),
    )
    rem.add_argument(
        "--tune", action="store_true", help="grid-search hyper-parameters (slower)"
    )

    scenarios = commands.add_parser(
        "scenarios", help="list/describe/generate RF scenarios"
    )
    sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    listing = sub.add_parser(
        "list", help="registered worlds plus the generator's templates"
    )
    listing.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    describe = sub.add_parser(
        "describe",
        help=(
            "describe a world: a registry name, a generated:... name, "
            "or a JSON spec file ('-' reads stdin)"
        ),
    )
    describe.add_argument("target", help="scenario name or spec path")
    describe.add_argument(
        "--json", action="store_true", help="emit the metadata record as JSON"
    )

    generate = sub.add_parser(
        "generate",
        help=(
            "build a procedural building and emit its canonical JSON "
            "spec (stdout or --out); build summary goes to stderr"
        ),
    )
    generate.add_argument(
        "--template",
        default=None,
        help=(
            "floor-plan template (room-grid, corridor-spine, open-plan; "
            "default room-grid; conflicts with --spec)"
        ),
    )
    generate.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a BuildingSpec field (repeatable), e.g. --set floors=5",
    )
    generate.add_argument(
        "--spec",
        help="read the full spec from this JSON file instead ('-' = stdin)",
    )
    generate.add_argument("--out", help="write the canonical spec JSON here")
    generate.add_argument(
        "--json",
        action="store_true",
        help="emit {ok, result} (spec + build summary) instead of raw spec JSON",
    )

    jobs = commands.add_parser(
        "jobs", help="run job specs through the artifact store"
    )
    jsub = jobs.add_subparsers(dest="jobs_command", required=True)

    jrun = jsub.add_parser(
        "run",
        help=(
            "run a REM job (build once, cache forever): spec JSON from "
            "a file/stdin plus --set overrides, artifact into --store"
        ),
    )
    jrun.add_argument(
        "spec",
        nargs="?",
        help="job-spec JSON path ('-' reads stdin; omit to use defaults)",
    )
    jrun.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help=(
            "override a spec field (repeatable), e.g. --set seed=7 "
            "--set acquisition=active; values parse as JSON when possible"
        ),
    )
    jrun.add_argument(
        "--store",
        default="artifacts",
        help=(
            "artifact store directory (one mmap-able .npy file per tensor "
            "plus a JSON sidecar per artifact)"
        ),
    )
    jrun.add_argument(
        "--json", action="store_true", help="emit the artifact record as JSON"
    )

    jlist = jsub.add_parser("list", help="list stored artifacts")
    jlist.add_argument(
        "--store", default="artifacts", help="artifact store directory"
    )
    jlist.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    sweep = jsub.add_parser(
        "sweep",
        help=(
            "fan a job-set grid (scenarios x seeds x predictors x "
            "acquisitions x resolutions) out over worker processes; "
            "resumable: finished digests are cache hits on re-run"
        ),
    )
    sweep.add_argument(
        "spec",
        nargs="?",
        help="job-set JSON path ('-' reads stdin; omit to use defaults)",
    )
    sweep.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help=(
            "override a job-set field (repeatable), e.g. "
            "--set seeds=[1,2,3] --set predictors='[\"knn\",\"idw\"]'; "
            "values parse as JSON when possible"
        ),
    )
    sweep.add_argument(
        "--store", default="artifacts", help="artifact store directory"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes (default: os.cpu_count(), one per core "
            "of this host; 0 = run inline in this process, serial)"
        ),
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (worker killed past it)",
    )
    sweep.add_argument(
        "--max-failures",
        type=int,
        default=None,
        help=(
            "circuit breaker: stop dispatching once more than this "
            "many jobs failed (default: never)"
        ),
    )
    sweep.add_argument(
        "--start-method",
        choices=("spawn", "fork", "forkserver"),
        default="spawn",
        help="multiprocessing start method (default spawn)",
    )
    sweep.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    report = commands.add_parser(
        "report",
        help=(
            "aggregate artifact-store sidecars (spec + provenance) into "
            "a tidy CSV and a markdown report — no re-simulation"
        ),
    )
    report.add_argument(
        "--store", default="artifacts", help="artifact store directory"
    )
    report.add_argument("--csv", help="write the tidy per-artifact rows here")
    report.add_argument("--out", help="write the markdown report here")
    report.add_argument(
        "--by",
        default="predictor",
        help="column to group the report by (default predictor)",
    )
    report.add_argument(
        "--value",
        default="test_rmse_dbm",
        help="metric column to aggregate (default test_rmse_dbm)",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    serve = commands.add_parser(
        "serve", help="serve stored REMs over JSON/HTTP"
    )
    serve.add_argument(
        "--store", default="artifacts", help="artifact store directory"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=4,
        help="loaded-artifact LRU capacity (default 4)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "pre-forked worker processes (default 1 = single-process; "
            "N > 1 serves one SO_REUSEPORT address from N processes "
            "with mmap-shared artifacts)"
        ),
    )
    serve.add_argument(
        "--no-reuse-port",
        action="store_true",
        help=(
            "multi-worker only: share one inherited listener socket "
            "instead of per-worker SO_REUSEPORT sockets"
        ),
    )
    return parser


# ----------------------------------------------------------------------
def _print_json(result, ok: bool = True) -> None:
    """Emit the uniform ``--json`` envelope: ``{"ok": ..., "result": ...}``."""
    print(json.dumps({"ok": ok, "result": result}, indent=2, sort_keys=True))


def _cmd_campaign(args) -> int:
    from .analysis import campaign_stats
    from .radio import build_scenario
    from .station import run_campaign

    if args.fleet or args.active:
        return _cmd_campaign_acquire(args)
    scenario = build_scenario(args.scenario, seed=args.seed)
    print(f"flying the {args.scenario!r} campaign (seed {args.seed})...")
    result = run_campaign(scenario=scenario)
    stats = campaign_stats(result)
    print(f"total samples : {stats.total_samples} (paper: 2696)")
    for uav, count in sorted(stats.samples_by_uav.items()):
        print(f"  {uav}: {count}")
    print(f"distinct MACs : {stats.distinct_macs} (paper: 73)")
    print(f"distinct SSIDs: {stats.distinct_ssids} (paper: 49)")
    print(f"mean RSS      : {stats.mean_rss_dbm:.1f} dBm (paper: ≈ -73)")
    if args.output:
        result.log.save_csv(args.output)
        print(f"samples archived to {args.output}")
    return 0


def _cmd_campaign_acquire(args) -> int:
    from .analysis import render_active_trajectory
    from .radio import build_scenario
    from .station import ActiveSamplingConfig, FleetConfig, run_fleet_campaign

    # ``--active`` is the one-drone fleet.
    n_drones = args.fleet or 1
    if n_drones < 1:
        print("--fleet must be >= 1", file=sys.stderr)
        return 2
    if args.budget < 1:
        print("--budget must be >= 1", file=sys.stderr)
        return 2
    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    scenario = build_scenario(args.scenario, seed=args.seed)
    active = ActiveSamplingConfig(
        seed_waypoints=min(12, args.budget),
        batch_size=args.batch,
        budget_waypoints=args.budget,
        target_rmse_dbm=args.target_rmse,
    )
    fleet = FleetConfig(n_drones=n_drones, min_separation_m=args.separation)
    details = [f"seed {args.seed}", f"budget {args.budget} waypoints"]
    if args.target_rmse is not None:
        details.append(f"target RMSE {args.target_rmse:.2f} dB")
    if args.fleet:
        details.append(f"separation {args.separation:g} m")
    mode = f"a {n_drones}-drone fleet" if args.fleet else "active sampling"
    print(
        f"flying the {args.scenario!r} campaign with {mode} "
        f"({', '.join(details)})..."
    )
    result = run_fleet_campaign(scenario=scenario, fleet=fleet, active=active)
    print(render_active_trajectory(result.rounds))
    for round_ in result.rounds:
        tours = " + ".join(str(len(t)) for t in round_.tours)
        dropped = (
            f", {round_.dropped_waypoints} bumped (separation)"
            if round_.dropped_waypoints
            else ""
        )
        print(f"round {round_.round_index}: tours {tours}{dropped}")
    summary = result.summary()
    print(
        f"stopped: {result.stop_reason} after "
        f"{result.waypoints_flown}/{args.budget} waypoints across "
        f"{n_drones} drone(s), {summary['total_samples']:.0f} samples, "
        f"{summary['distinct_macs']:.0f} MACs"
    )
    print(f"fleet makespan: {result.duration_s:.1f} s simulated")
    if result.final_rmse_dbm is not None:
        print(f"final holdout RMSE: {result.final_rmse_dbm:.3f} dB")
    if args.output:
        result.log.save_csv(args.output)
        print(f"samples archived to {args.output}")
    return 0


def _cmd_figures(args) -> int:
    from .analysis import (
        figure5,
        figure6,
        figure7,
        figure8,
        render_figure5,
        render_figure7,
        render_figure8,
    )
    from .radio import build_scenario
    from .station import run_campaign

    wanted = args.figure
    scenario = build_scenario(args.scenario, seed=args.seed)
    if wanted in ("5", "all"):
        print("=== Figure 5 ===")
        print(render_figure5(figure5(scenario=scenario)))
        print()
    if wanted in ("6", "7", "8", "all"):
        campaign = run_campaign(scenario=scenario)
        if wanted in ("6", "all"):
            print("=== Figure 6 ===")
            fig6 = figure6(campaign)
            for uav, rows in fig6.per_location.items():
                counts = [c for _, c, _ in sorted(rows)]
                print(f"{uav} (total {sum(counts)}):")
                print("  " + " ".join(f"{c:3d}" for c in counts))
            print()
        if wanted in ("7", "all"):
            print("=== Figure 7 ===")
            print(render_figure7(figure7(campaign)))
            print()
        if wanted in ("8", "all"):
            print("=== Figure 8 ===")
            print(render_figure8(figure8(campaign.log)))
    return 0


def _cmd_endurance(args) -> int:
    from .station import run_endurance_test

    print(f"running the endurance protocol (seed {args.seed})...")
    result = run_endurance_test(seed=args.seed)
    print(
        f"{result.scans_completed} scans in {result.minutes_seconds} "
        f"(paper: 36 scans in 6 min 12 s)"
    )
    print(f"battery at {result.battery_remaining_fraction:.1%} when erratic")
    return 0


def _cmd_localization(args) -> int:
    import numpy as np

    from .analysis import table
    from .radio import build_scenario
    from .uwb import LocalizationMode, corner_layout, evaluate_hovering_accuracy

    scenario = build_scenario(args.scenario, seed=args.seed)
    layout = corner_layout(scenario.flight_volume)
    rng = np.random.default_rng(args.seed)
    rows = []
    for mode in (LocalizationMode.TWR, LocalizationMode.TDOA):
        for count in (4, 6, 8):
            result = evaluate_hovering_accuracy(
                layout.subset(count), mode, (1.87, 1.6, 1.0), rng
            )
            rows.append([mode, count, f"{result.mean_error_m * 100:.1f}"])
    print(table(["mode", "anchors", "mean error (cm)"], rows))
    print("(paper §II-B: ~9 cm with 6 anchors)")
    return 0


def _cmd_density(args) -> int:
    from .core import density_sweep
    from .radio import build_scenario
    from .station import run_campaign

    counts = [int(c) for c in args.counts.split(",")]
    scenario = build_scenario(args.scenario, seed=args.seed)
    print("flying the campaign for the density study...")
    campaign = run_campaign(scenario=scenario)
    result = density_sweep(campaign.log, location_counts=counts)
    for point in sorted(result.points, key=lambda p: p.n_locations):
        print(
            f"{point.n_locations:3d} locations "
            f"({point.n_train_samples:4d} samples) -> {point.rmse_dbm:.3f} dBm"
        )
    print(f"density knee (0.2 dB): {result.knee_locations():d} locations")
    return 0


def _cmd_rem(args) -> int:
    from .serve import RemJobSpec, run_job

    spec = RemJobSpec(
        scenario=args.scenario,
        seed=args.seed,
        tune=args.tune,
        resolution_m=args.resolution,
        with_uncertainty=False,
    )
    print(
        f"generating the {args.scenario!r} REM "
        f"(seed {args.seed}, {args.resolution} m lattice)..."
    )
    artifact = run_job(spec)
    provenance = artifact.provenance
    print(
        f"{provenance['samples']:.0f} samples, test RMSE "
        f"{provenance['test_rmse_dbm']:.2f} dBm, "
        f"{provenance['n_macs']:.0f} APs mapped"
    )
    if args.output.endswith(".npz"):
        artifact.rem.save_npz(args.output)
    else:
        with open(args.output, "w") as handle:
            json.dump(artifact.rem.to_dict(), handle)
    print(f"REM exported to {args.output}")
    return 0


def _load_job_spec(args):
    """Resolve the ``jobs run`` spec: JSON file/stdin plus --set overrides."""
    from .serve import RemJobSpec

    params = {}
    if args.spec:
        text = (
            sys.stdin.read()
            if args.spec == "-"
            else open(args.spec, encoding="utf-8").read()
        )
        params = json.loads(text)
        if not isinstance(params, dict):
            raise SystemExit("a job spec must be a JSON object")
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects FIELD=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return RemJobSpec.from_dict(params)


def _load_jobset_spec(args):
    """Resolve the ``jobs sweep`` grid: JSON file/stdin plus --set overrides."""
    from .serve import JobSetSpec

    params = {}
    if args.spec:
        text = (
            sys.stdin.read()
            if args.spec == "-"
            else open(args.spec, encoding="utf-8").read()
        )
        params = json.loads(text)
        if not isinstance(params, dict):
            raise SystemExit("a job-set spec must be a JSON object")
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects FIELD=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return JobSetSpec.from_dict(params)


def _cmd_jobs_sweep(args, store) -> int:
    from .serve import JobSetRunner

    try:
        jobset = _load_jobset_spec(args)
    except (ValueError, OSError) as exc:
        print(f"bad job-set spec: {exc}", file=sys.stderr)
        return 2

    def show_progress(tick) -> None:
        eta = f", eta {tick.eta_s:.0f}s" if tick.eta_s is not None else ""
        counts = f"{tick.built} built/{tick.cached} cached"
        if tick.failed:
            counts += f"/{tick.failed} failed"
        print(
            f"[{tick.done}/{tick.total}] {tick.status:<6} "
            f"{tick.digest[:12]} ({counts}, {tick.elapsed_s:.1f}s{eta})"
        )

    # Resolve the worker default here so what runs is what is reported:
    # one process per core of this host (never a fixed count that could
    # oversubscribe a smaller machine).
    workers = args.workers
    if workers is None:
        workers = os.cpu_count() or 1
    runner = JobSetRunner(
        store,
        workers=workers,
        timeout_s=args.timeout,
        max_failures=args.max_failures,
        progress=None if args.json else show_progress,
        start_method=args.start_method,
    )
    try:
        result = runner.run(jobset)
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — finished jobs are stored in {args.store}/; "
            "re-run the same sweep to resume",
            file=sys.stderr,
        )
        return 130
    summary = result.summary()
    ok = result.failed == 0 and not result.aborted
    if args.json:
        payload = dict(summary)
        payload["records"] = [
            {
                "digest": r.digest,
                "status": r.status,
                "wall_s": r.wall_s,
                "error": r.error,
            }
            for r in result.records
        ]
        _print_json(payload, ok=ok)
    elif (
        summary["cached"] == summary["total"]
        and summary["total"] > 0
        and summary["built"] == summary["failed"] == summary["skipped"] == 0
    ):
        # Every cell was a resume cache hit: no rates or ETAs to
        # report, just say so and exit cleanly.
        print(
            f"sweep {summary['jobset_digest'][:12]}: cached "
            f"{summary['cached']}/{summary['total']} in "
            f"{summary['elapsed_s']:.1f}s (all jobs already in the store)"
        )
    else:
        print(
            f"sweep {summary['jobset_digest'][:12]}: "
            f"{summary['built']} built, {summary['cached']} cached, "
            f"{summary['failed']} failed, {summary['skipped']} skipped "
            f"in {summary['elapsed_s']:.1f}s"
        )
        if result.failed:
            print(
                f"failures recorded in {args.store}/failed.json",
                file=sys.stderr,
            )
        if result.aborted:
            print("sweep aborted (circuit breaker)", file=sys.stderr)
    return 0 if ok else 1


def _cmd_jobs(args) -> int:
    from .serve import ArtifactStore, run_job

    store = ArtifactStore(args.store)
    if args.jobs_command == "sweep":
        return _cmd_jobs_sweep(args, store)
    if args.jobs_command == "run":
        try:
            spec = _load_job_spec(args)
        except (ValueError, OSError) as exc:
            print(f"bad job spec: {exc}", file=sys.stderr)
            return 2
        artifact = run_job(spec, store)
        if args.json:
            record = artifact.record()
            record["cache_hit"] = artifact.cache_hit
            _print_json(record)
            return 0
        state = "cache hit" if artifact.cache_hit else "built"
        provenance = artifact.provenance
        print(f"job {artifact.digest[:12]} ({state})")
        print(
            f"  scenario {spec.scenario!r} seed {spec.seed} "
            f"({spec.acquisition}, {spec.predictor})"
        )
        print(
            f"  {provenance.get('samples', 0)} samples, test RMSE "
            f"{provenance.get('test_rmse_dbm', float('nan')):.2f} dBm, "
            f"{provenance.get('n_macs', 0)} APs mapped"
        )
        print(f"  artifact stored under {args.store}/")
        return 0
    # list
    records = store.list()
    if args.json:
        _print_json(records)
        return 0
    if not records:
        print(f"no artifacts in {args.store}/")
        return 0
    for record in records:
        spec = record.get("spec", {})
        provenance = record.get("provenance", {})
        print(
            f"{record['digest'][:12]}  {spec.get('scenario', '?'):<12} "
            f"seed {spec.get('seed', '?'):<4} {spec.get('acquisition', '?'):<8} "
            f"rmse {provenance.get('test_rmse_dbm', float('nan')):.2f} dB  "
            f"{provenance.get('n_macs', '?')} APs"
        )
    return 0


def _cmd_report(args) -> int:
    from .analysis import (
        SWEEP_COLUMNS,
        artifact_rows,
        group_stats,
        render_sweep_report,
        save_csv_rows,
        stage_stats,
    )
    from .serve import ArtifactStore

    store = ArtifactStore(args.store)
    records = store.list()
    rows = artifact_rows(records)
    stages = stage_stats(records)
    if args.csv:
        save_csv_rows(
            list(SWEEP_COLUMNS),
            [[row[column] for column in SWEEP_COLUMNS] for row in rows],
            args.csv,
        )
    rendered = render_sweep_report(rows, by=args.by, value=args.value)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.json:
        _print_json(
            {
                "rows": rows,
                "stats": group_stats(rows, by=args.by, value=args.value),
                "stage_wall_s": stages,
                "csv": args.csv,
                "report": args.out,
            }
        )
        return 0
    print(rendered)
    if stages:
        print("\nbuild stage breakdown (total wall seconds across builds):\n")
        for stage, s in stages.items():
            print(
                f"  {stage:<12} {s['total_s']:8.3f}s total  "
                f"{s['mean_s']:.3f}s mean  over {int(s['n'])} build(s)"
            )
    if args.csv:
        print(f"\ntidy rows written to {args.csv}", file=sys.stderr)
    if args.out:
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from .serve import ArtifactStore, RemCluster, RemService, create_server

    store = ArtifactStore(args.store)
    if args.workers > 1:
        cluster = RemCluster(
            args.store,
            workers=args.workers,
            host=args.host,
            port=args.port,
            capacity=args.capacity,
            reuse_port=False if args.no_reuse_port else None,
        )
        cluster.start()
        host, port = cluster.address
        mode = "inherited listener" if args.no_reuse_port else "SO_REUSEPORT"
        print(
            f"serving {store.count()} artifact(s) from {args.store}/ "
            f"on http://{host}:{port} with {args.workers} workers "
            f"({mode}; Ctrl-C to stop)"
        )
        cluster.run_forever()
        print("\nshutting down")
        return 0
    service = RemService(store, capacity=args.capacity)
    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"serving {store.count()} artifact(s) from {args.store}/ "
        f"on http://{host}:{port} (Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
    return 0


def _load_spec(args):
    """Resolve the BuildingSpec a ``scenarios generate`` call describes.

    ``--set`` overrides compose onto a ``--spec`` file; ``--template``
    conflicts with one (the template is part of the loaded spec).
    """
    from .radio import BuildingSpec

    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set expects FIELD=VALUE, got {item!r}")
        overrides[key] = value
    if args.spec:
        if args.template is not None:
            raise SystemExit("--template conflicts with --spec")
        text = (
            sys.stdin.read()
            if args.spec == "-"
            else open(args.spec, encoding="utf-8").read()
        )
        params = json.loads(text)
        params.update(overrides)
        return BuildingSpec.from_dict(params)
    params = {"template": args.template or "room-grid", **overrides}
    params.setdefault("seed", args.seed)
    return BuildingSpec.from_dict(params)


def _scenario_record(scenario, name: str) -> dict:
    """JSON-safe description shared by ``list --json`` and ``describe``."""
    environment = scenario.environment
    record = {
        "name": name,
        "environment": environment.name,
        "n_walls": len(environment.walls),
        "n_aps": len(environment.access_points),
        "n_ssids": len({ap.ssid for ap in environment.access_points}),
        "flight_volume": [
            list(scenario.flight_volume.min_corner),
            list(scenario.flight_volume.max_corner),
        ],
        "building": [
            list(scenario.building.min_corner),
            list(scenario.building.max_corner),
        ],
    }
    metadata = getattr(scenario, "metadata", None)
    if metadata:
        record["generated"] = metadata
    return record


def _cmd_scenarios(args) -> int:
    from .radio import (
        AP_POLICIES,
        GENERATED_PRESETS,
        PALETTES,
        TEMPLATES,
        available_scenarios,
        build_scenario,
        generate_building,
    )

    if args.scenarios_command == "list":
        if args.json:
            _print_json(
                {
                    "registered": list(available_scenarios()),
                    "generated_presets": dict(GENERATED_PRESETS),
                    "templates": list(TEMPLATES),
                    "palettes": sorted(PALETTES),
                    "ap_policies": list(AP_POLICIES),
                }
            )
            return 0
        print("registered scenarios:")
        for name in available_scenarios():
            suffix = (
                f"  -> {GENERATED_PRESETS[name]}"
                if name in GENERATED_PRESETS
                else ""
            )
            print(f"  {name}{suffix}")
        print("generated templates (use generated:<template>?field=value&...):")
        for template in TEMPLATES:
            print(f"  {template}")
        print(f"palettes   : {', '.join(sorted(PALETTES))}")
        print(f"AP policies: {', '.join(AP_POLICIES)}")
        return 0

    if args.scenarios_command == "describe":
        target = args.target
        if target == "-" or target.endswith(".json"):
            spec_args = argparse.Namespace(
                spec=target, template=None, overrides=[], seed=args.seed
            )
            spec = _load_spec(spec_args)
            scenario = generate_building(spec)
            target = spec.to_name()
        else:
            scenario = build_scenario(target, seed=args.seed)
        record = _scenario_record(scenario, target)
        if args.json:
            _print_json(record)
            return 0
        print(f"scenario      : {record['name']}")
        print(f"environment   : {record['environment']}")
        print(f"walls         : {record['n_walls']}")
        print(f"APs / SSIDs   : {record['n_aps']} / {record['n_ssids']}")
        fv_lo, fv_hi = record["flight_volume"]
        size = [hi - lo for lo, hi in zip(fv_lo, fv_hi)]
        print(
            "flight volume : "
            f"{size[0]:.2f} x {size[1]:.2f} x {size[2]:.2f} m"
        )
        generated = record.get("generated")
        if generated:
            print(
                f"generated     : {generated['template']} / "
                f"{generated['palette']} / {generated['ap_policy']}, "
                f"{generated['floors']} floor(s), "
                f"rooms/floor {generated['rooms_per_floor']}"
            )
        return 0

    # generate: spec in (flags or JSON) -> canonical spec JSON out.
    spec = _load_spec(args)
    scenario = generate_building(spec)
    metadata = scenario.metadata
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json() + "\n")
    if args.json:
        _print_json(
            {
                "spec": json.loads(spec.to_json()),
                "metadata": metadata,
                "out": args.out,
            }
        )
        return 0
    print(
        f"built {metadata['name']}: {metadata['n_walls']} walls, "
        f"{metadata['n_aps']} APs, {metadata['floors']} floor(s)",
        file=sys.stderr,
    )
    if args.out:
        print(f"spec written to {args.out}", file=sys.stderr)
    else:
        print(spec.to_json())
    return 0


_COMMANDS = {
    "campaign": _cmd_campaign,
    "figures": _cmd_figures,
    "endurance": _cmd_endurance,
    "localization": _cmd_localization,
    "density": _cmd_density,
    "rem": _cmd_rem,
    "scenarios": _cmd_scenarios,
    "jobs": _cmd_jobs,
    "report": _cmd_report,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
