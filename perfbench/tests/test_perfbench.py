"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They need no build and no server: they pin the pure parts (seeded
streams, span arithmetic, the response parser) and the contract between
``run.py`` and ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import serving
from spans import Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = ["a" * 64, "b" * 64, "c" * 64]
JOBS = [{"seed": 1, "tune": False}, {"seed": 1, "predictor": "idw", "tune": False}]


def _stream(seed, tag="ladder-300", n=300):
    return serving.make_stream(
        seed, tag, n, DIGESTS, JOBS, (0, 0, 0), (4, 3, 2), (-41.0, -31.0)
    )


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_stream_is_deterministic_per_seed():
    first, again = _stream(7), _stream(7)
    assert [r.wire for r in first] == [r.wire for r in again]


def test_stream_differs_between_seeds_and_tags():
    base = [r.wire for r in _stream(7)]
    assert base != [r.wire for r in _stream(8)]
    assert base != [r.wire for r in _stream(7, tag="burst-0")]


def test_stream_holds_the_mix_in_every_block():
    block = sum(serving.MIX_BLOCK.values())
    kinds = [r.kind for r in _stream(3, n=4 * block)]
    for start in range(0, len(kinds), block):
        window = kinds[start : start + block]
        assert {k: window.count(k) for k in serving.MIX_BLOCK} == serving.MIX_BLOCK
    batch = next(r for r in _stream(3) if r.kind == "batch")
    types = [item["type"] for item in batch.payload]
    assert len(types) == serving.BATCH_ITEMS
    assert all(types.count(k) == 4 for k in common.REDUCE_KINDS)
    assert {item["digest"] for item in batch.payload} <= set(DIGESTS)
    thresholds = [item["threshold_dbm"] for item in batch.payload if "threshold_dbm" in item]
    assert thresholds and all(-41.0 <= t <= -31.0 for t in thresholds)


def test_traffic_figures_follow_their_derivation():
    block = sum(serving.MIX_BLOCK.values())
    # batches are twice the 5% tail, so the p95 falls at the median batch
    assert serving.MIX_BLOCK["batch"] / block == pytest.approx(2 * 0.05)
    assert serving.MIX_BLOCK["query"] / block > 0.5
    capacity = serving.mix_capacity_rps()
    assert abs(serving.REFERENCE_RATE - capacity * serving.UTILISATION) <= 25
    assert serving.LADDER[0] < serving.REFERENCE_RATE < capacity < serving.LADDER[-1]


def test_points_stay_in_the_volume():
    for request in _stream(5):
        if request.kind == "query":
            (x, y, z), = request.payload["points"]
            assert 0 <= x <= 4 and 0 <= y <= 3 and 0 <= z <= 2


def test_poisson_schedule_is_seeded():
    a = serving.poisson_schedule(1, "ladder-300", 300, 5.0)
    assert a.tolist() == serving.poisson_schedule(1, "ladder-300", 300, 5.0).tolist()
    assert a.tolist() != serving.poisson_schedule(2, "ladder-300", 300, 5.0).tolist()
    assert (a >= 0).all() and (a < 5.0).all() and (abs(len(a) - 1500) < 150)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],  # back to back with b
        ["b", 3.0, 6.0, 0],
        ["a1", 1.5, 2.5, 1],  # nested in a
        ["c", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 1.0])
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [["root", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 5.0, 0]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_summarize_counts_recursion_once():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["fit", 1.0, 5.0, 0],
        ["fit", 2.0, 3.0, 1],  # a method calling its base class
        ["fit", 6.0, 7.0, 0],
    ]
    fit = summarize(spans)["fit"]
    assert fit["calls"] == 2
    assert fit["busy_s"] == pytest.approx(5.0)
    assert fit["self_s"] == pytest.approx(5.0)


def test_tracer_wrap_records_and_restores():
    class Layer:
        def work(self, n):
            return self.work(n - 1) + 1 if n else 0

    tracer = Tracer()
    original = Layer.work
    tracer.wrap(Layer, "work", "layer.work", lambda t, r: t.count("units", r))
    with tracer.span("op"):
        assert Layer().work(3) == 3
    tracer.restore()
    assert Layer.work is original
    summary = summarize(tracer.spans)
    assert summary["layer.work"]["calls"] == 1
    assert tracer.counters["units"] == 3


def test_tracer_wraps_dict_entries_and_classmethods_and_pauses():
    class Spec:
        @classmethod
        def make(cls, n):
            return cls, n

    table = {"double": lambda n: 2 * n}
    tracer = Tracer()
    original = vars(Spec)["make"]
    tracer.wrap(Spec, "make", "parse")
    tracer.wrap(table, "double", "reduce")
    with tracer.span("op"):
        assert Spec.make(1) == (Spec, 1)
        assert table["double"](2) == 4
        with tracer.paused():
            assert table["double"](3) == 6
    tracer.restore()
    assert vars(Spec)["make"] is original and table["double"](1) == 2
    summary = summarize(tracer.spans)
    assert summary["parse"]["calls"] == 1 and summary["reduce"]["calls"] == 1


# ----------------------------------------------------------------------
# load generator parser
# ----------------------------------------------------------------------
def test_response_parser_handles_split_and_pipelined_responses():
    def response(code, body):
        return (
            f"HTTP/1.1 {code} OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body

    wire = response(200, b'{"a": 1}') + response(404, b"{}") + response(200, b"[1,2]")
    buffer = bytearray()
    got = []
    for start in range(0, len(wire), 7):
        buffer += wire[start : start + 7]
        got += list(serving.split_responses(buffer))
    assert got == [(200, b'{"a": 1}'), (404, b"{}"), (200, b"[1,2]")]
    assert not buffer


# ----------------------------------------------------------------------
# contract with BENCHMARK.json
# ----------------------------------------------------------------------
def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.LAYER_METRICS
    assert tuple(w["name"] for w in spec["workloads"]) == common.WORKLOADS


def test_benchmark_json_states_the_p99_limit():
    serve = next(w for w in _benchmark()["workloads"] if w["name"] == "serve_mixed")
    assert f"p99 limit {common.P99_LIMIT_MS:g} ms" in serve["why"]


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build_tuned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
