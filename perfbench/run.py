"""The repository benchmark: the three user paths, cold, through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build_tuned|sweep_acquire|serve_mixed \
        --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload again with spans around each layer and prints the per-layer
metrics.  Human-readable lines (host stamp, ladder, layer table) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
beside this file for what each workload and metric means.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()  # serve_mixed's setup_s counts from here

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    E2E_METRICS,
    LAYER_METRICS,
    ROOT,
    TRACE_DIR,
    WORK_DIR,
    WORKLOADS,
    child_env,
    host_stamp,
    median,
    percentile,
)
from spans import Tracer, load_spans, summarize  # noqa: E402

SETUP_PROBES = 4  # extra cold set-ups per run, for a steady setup_s median
SERVE_SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


def _child(workload: str, seed: int, mode: str, trace: int, workdir: Path) -> dict:
    """Run ``cold.py`` as a fresh interpreter and return its JSON line.

    The child gets its own process group, so a timeout also kills any
    cluster worker it forked.
    """
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(ROOT / "perfbench" / "cold.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--trace", str(trace), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        command,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cold.py {mode} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# build_tuned / sweep_acquire
# ----------------------------------------------------------------------
def run_cold(workload: str, seed: int, seconds: float, trace: int, workdir: Path):
    """Cold child processes: set-up probes, then timed repetitions."""
    counter = itertools.count()

    def child(mode: str, traced: int = 0) -> dict:
        return _child(workload, seed, mode, traced, workdir / f"{mode}-{next(counter)}")

    report = []
    if trace:
        plain, traced = child("run"), child("run", traced=1)
        runs = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        report.append(f"untraced wall {plain['wall_s']:.3f} s, traced wall "
                      f"{traced['wall_s']:.3f} s, spans in {traced['trace_file']}")
        report += layer_table(traced["trace_file"], traced["wall_s"])
    else:
        setups = [child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
        runs = []
        # Start another repetition only while it should end within
        # ``seconds`` (a build takes ~20 s, so most runs make one).
        started = time.monotonic()
        while not runs or (time.monotonic() - started) * (1 + 1 / len(runs)) <= seconds:
            runs.append(child("run"))
        ops = [op for run in runs for op in run["ops_ms"]]
        metrics = {
            "setup_s": median(setups + [r["setup_s"] for r in runs]),
            "wall_s": median([r["wall_s"] for r in runs]),
            "op_p50_ms": percentile(ops, 50),
            "op_p95_ms": percentile(ops, 95),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
            "holdout_rmse_db": median([r["holdout_rmse_db"] for r in runs]),
            "map_rmse_db": median([r["map_rmse_db"] for r in runs]),
        }
        report.append(f"{len(runs)} cold repetition(s), {len(ops)} operations, "
                      f"{len(setups) + len(runs)} set-ups")
    notes = [f for run in runs for f in run["failures"]]
    attempted = sum(run["attempted"] for run in runs)
    return metrics, attempted, len(notes), notes, report


def layer_table(trace_file: str, wall_s: float) -> list:
    """Rows of calls / inclusive / self seconds per span name, by self time."""
    summary = summarize(load_spans(trace_file))
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':44} {'calls':>8} {'busy_s':>9} {'self_s':>9} {'self%':>6}"]
    for name, entry in rows:
        lines.append(
            f"{name:44} {entry['calls']:>8} {entry['busy_s']:>9.3f} "
            f"{entry['self_s']:>9.3f} {100 * entry['self_s'] / wall_s:>6.1f}"
        )
    return lines


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: int, workdir: Path):
    """Set up the cluster, then bursts, the rate ladder and output checks."""
    import cold
    import serving

    handle = serving.set_up(workdir / "serve", seed)
    setup_s = time.monotonic() - PROCESS_START
    report, notes = [], []
    attempted = failed = 0
    steps = []
    burst_walls = []
    try:
        if not trace:
            for index in range(serving.BURSTS):
                requests = handle.stream(f"burst-{index}", serving.BURST_REQUESTS)
                result = serving.drive(
                    handle.address, requests, n_connections=serving.connections()
                )
                burst_walls.append(result.elapsed_s)
                attempted += len(requests)
                failed += result.failed
                notes += [f"burst {index}: {result.failed} non-200"] * bool(result.failed)
        # The end-to-end metrics need only the reference rate; the traced
        # run climbs the whole ladder for the per-layer loadgen metrics.
        for rate in serving.LADDER if trace else (serving.REFERENCE_RATE,):
            windows = serving.REFERENCE_WINDOWS if rate == serving.REFERENCE_RATE else 1
            for window in range(windows):
                step = serving.ladder_step(handle, rate, seconds, window)
                steps.append(step)
                attempted += step["requests"]
                failed += step["failed"]
                notes += [f"{rate} rps: {step['failed']} non-200"] * bool(step["failed"])
                report.append(
                    f"rate {rate:>5} rps w{window}: n={step['requests']:>5}"
                    f" p50 {step['p50_ms']:6.2f} p95 {step['p95_ms']:6.2f}"
                    f" p99 {step['p99_ms']:7.2f} ms"
                    f"  lag_p99 {step['lag_p99_ms']:6.2f} ms"
                    f"  backlog {step['backlog']:>4}  "
                    + ("meets" if step["meets_limit"] else "misses")
                    + ("" if step["valid"] else " (INVALID: generator fell behind)")
                )
            if rate == serving.REFERENCE_RATE:
                # The worker's resident memory in steady state, before the
                # overload steps of the traced run.
                (worker_rss,) = handle.cluster.worker_rss().values()
            elif rate > serving.REFERENCE_RATE and not step["meets_limit"]:
                break
        if trace:
            health = serving.get_json(handle.address, "/healthz")["cache"]
            replayed = handle.stream("replay", serving.BURST_REQUESTS)
            live = serving.drive(handle.address, replayed)
            attempted += len(replayed)
            failed += live.failed
            notes += [f"replay: {live.failed} non-200"] * bool(live.failed)
    finally:
        handle.close()

    reference = [s for s in steps if s["rate_rps"] == serving.REFERENCE_RATE]
    # A window whose generator fell behind measured the client, not the
    # server: it does not count as server latency.
    valid = [s for s in reference if s["valid"]]
    if not valid:
        failed += 1
        notes.append("every reference window was invalid: the generator fell behind")
    rems = {d: handle.store.load(d).rem for d in handle.digests}
    checked = [
        (step, index) for step in reference for index in sorted(step["_result"].bodies)
    ][: serving.CHECKED_REQUESTS]
    for step, index in checked:
        attempted += 1
        request, result = step["_requests"][index], step["_result"]
        if not serving.check_response(
            request, result.status[index], result.bodies[index], rems
        ):
            failed += 1
            notes.append(f"served answer {index} ({request.kind}) differs from direct")
    if trace:
        # A rate meets the limit when every window run at it does.
        max_rate = max(
            (
                rate for rate in {s["rate_rps"] for s in steps}
                if all(s["meets_limit"] for s in steps if s["rate_rps"] == rate)
            ),
            default=0,
        )
        report.append(f"max rate meeting p99 <= {serving.P99_LIMIT_MS:g} ms: "
                      f"{max_rate} rps")
        # The untraced time is the faster of two passes, one on each side
        # of the traced pass, so warming the page cache favours neither.
        before_s, lost = serving.replay(handle.store, replayed)
        tracer = Tracer()
        traced_s, traced_failed = serving.replay(handle.store, replayed, tracer)
        after_s, after_failed = serving.replay(handle.store, replayed)
        plain_s = min(before_s, after_s)
        lost += traced_failed + after_failed
        attempted += 3 * len(replayed)
        failed += lost
        notes += [f"in-process replay: {lost} non-200"] * bool(lost)
        from layers import layer_metrics

        metrics = layer_metrics(tracer, "replay", {})
        hits, misses = health["hits"], health["misses"]
        metrics.update({
            "serve.service.lru_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.service.evictions": float(health["evictions"]),
            "serve.http.self_s": float(sum(live.done - live.sent)) - plain_s,
            "loadgen.lag_ms": median([s["lag_p99_ms"] for s in reference]),
            "loadgen.backlog": float(max(s["backlog"] for s in reference)),
            "loadgen.max_rate_rps": float(max_rate),
            "trace.overhead_ratio": traced_s / plain_s,
        })
        trace_file = TRACE_DIR / f"serve_mixed-seed{seed}.json"
        tracer.write(trace_file)
        report.append(f"replay untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
                      f"spans in {trace_file}")
        report += layer_table(str(trace_file), traced_s)
    else:
        setups = [setup_s] + [
            _child("serve_mixed", seed, "probe", 0, workdir / f"probe-{i}")["setup_s"]
            for i in range(SERVE_SETUP_PROBES)
        ]
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(burst_walls),
            "op_p50_ms": median([s["p50_ms"] for s in valid or reference]),
            "op_p95_ms": median([s["p95_ms"] for s in valid or reference]),
            "peak_rss_mb": worker_rss / 2**20,
            "holdout_rmse_db": median(
                [a.provenance["test_rmse_dbm"] for a in handle.artifacts]
            ),
            "map_rmse_db": cold.map_rmse_db(
                handle.artifacts[0].rem, handle.artifacts[0].result.scenario.environment
            ),
        }
    return metrics, attempted, failed, notes, report


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.workload == "serve_mixed":
            metrics, attempted, failed, notes, report = run_serve(
                args.seed, args.seconds, args.trace, workdir
            )
        else:
            metrics, attempted, failed, notes, report = run_cold(
                args.workload, args.seed, args.seconds, args.trace, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = LAYER_METRICS if args.trace else E2E_METRICS
    host = host_stamp()
    print("host " + json.dumps(host))
    for line in report:
        print(line)
    for note in notes:
        print("FAILED " + note)
    print(f"failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} operations and checks)")
    for name, unit in units.items():
        print(f"{name:44} {metrics[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
