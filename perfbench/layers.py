"""Which layer functions the traced runs wrap, and how the recorded
spans and counters become the per-layer metrics.

Each entry wraps a public function or method at the place its caller
looks it up: ``repro.core.pipeline.grid_search`` (not the definition in
``core.predictors.gridsearch``) because the pipeline calls it through
its own module global; class methods are wrapped on the class, so every
instance sees the wrapper.  Span names equal the metric prefixes in
:data:`common.LAYER_METRICS`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from common import LAYER_METRICS, PREDICTOR_METHODS, median
from spans import Tracer, summarize

#: Span of the benchmark's own output checks inside a timed sweep; the
#: per-layer arithmetic leaves it out of the timed operation.
CHECK_SPAN = "bench.check"


def _payload_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def _campaign_done(tracer: Tracer, result) -> None:
    tracer.count("station.campaign.samples", len(result.log))
    if hasattr(result, "waypoints_flown"):
        tracer.count("station.campaign.waypoints", result.waypoints_flown)
    else:
        tracer.count("station.campaign.waypoints", result.mission.total_waypoints)
    builder = getattr(result, "builder", None)
    if builder is not None:
        tracer.count("refits_incremental", builder.refits_incremental)
        tracer.count("refits_total", builder.refits_incremental + builder.refits_full)


def _preprocess_done(tracer: Tracer, result) -> None:
    tracer.count("preprocess_retained", result.retained_samples)
    tracer.count("preprocess_input", result.retained_samples + result.dropped_samples)


def _lattice_done(tracer: Tracer, rem) -> None:
    tracer.count("core.rem.lattice_cells", len(rem.macs) * rem.grid.n_points)


def _scan_done(tracer: Tracer, report) -> None:
    tracer.count("scan_records", len(report.records))


def _save_done(tracer: Tracer, path) -> None:
    tracer.count("serve.artifact.save.bytes", _payload_bytes(path))


def install_build_layers(tracer: Tracer) -> None:
    """Wrap every layer the build and sweep paths go through."""
    import repro.core.pipeline as pipeline
    import repro.radio.scenario_cache as scenario_cache
    import repro.serve.jobs as jobs
    import repro.serve.jobset as jobset
    import repro.station.fleet as fleet
    from repro.core.predictors import Predictor
    from repro.serve.artifact import ArtifactStore
    from repro.serve.spec import PREDICTOR_FACTORIES
    from repro.station.online import OnlineRemBuilder
    from repro.uwb.kalman import PositionVelocityEkf
    from repro.uwb.ranging import TdoaRanging
    from repro.wifi.scanner import ChannelSweepScanner

    wrap = tracer.wrap
    wrap(scenario_cache, "build_scenario", "radio.scenario")
    wrap(pipeline, "run_campaign", "station.campaign", _campaign_done)
    wrap(pipeline, "preprocess", "core.preprocess", _preprocess_done)
    wrap(pipeline, "grid_search", "core.predictors.grid_search")
    wrap(pipeline, "build_rem", "core.rem.build_rem", _lattice_done)
    wrap(jobs, "build_uncertainty_rem", "core.rem.build_uncertainty_rem", _lattice_done)
    wrap(jobset, "run_job", "serve.jobset.cell")
    wrap(fleet, "plan_fleet_round", "station.fleet.plan")
    wrap(OnlineRemBuilder, "add_scan", "station.online.add_scan")
    wrap(OnlineRemBuilder, "uncertainty", "station.online.uncertainty")
    wrap(PositionVelocityEkf, "update_tdoa_stacked", "uwb.ekf.update_tdoa_stacked")
    wrap(PositionVelocityEkf, "predict", "uwb.ekf.predict")
    wrap(TdoaRanging, "measure_stacked", "uwb.ranging.measure_stacked")
    wrap(ChannelSweepScanner, "scan", "wifi.scan", _scan_done)
    wrap(ArtifactStore, "save", "serve.artifact.save", _save_done)
    wrap(ArtifactStore, "load", "serve.artifact.load")
    for cls in {Predictor, *PREDICTOR_FACTORIES.values()}:
        for method in PREDICTOR_METHODS:
            if method in vars(cls):
                wrap(cls, method, f"core.predictors.{method}")


def install_serve_layers(tracer: Tracer) -> None:
    """Wrap the serving layers where ``repro.serve.http``'s handler finds them.

    ``parse`` is the handler's body decode plus the typed-request and
    job-spec builders; ``encode`` is the responses' ``to_json`` and the
    handler's ``_send_json``.  Each reduction is wrapped in the
    service's dispatch table, which ``handle`` reads.
    """
    import repro.serve.http as http
    from repro.serve import service
    from repro.serve.artifact import ArtifactStore
    from repro.serve.spec import RemJobSpec

    wrap = tracer.wrap
    wrap(http._Handler, "_read_json", "serve.service.parse")
    wrap(http, "request_from_dict", "serve.service.parse")
    wrap(http, "requests_from_list", "serve.service.parse")
    wrap(RemJobSpec, "from_dict", "serve.service.parse")
    wrap(service.RemService, "artifact", "serve.service.lookup")
    wrap(service.RemService, "submit", "serve.service.submit")
    wrap(ArtifactStore, "load", "serve.artifact.load")
    handlers = service.RemService._HANDLERS
    for request_type, reduction in list(handlers.items()):
        wrap(handlers, request_type, f"serve.service.reduce.{reduction.__name__}")
    for response in (
        service.QueryResponse,
        service.StrongestApResponse,
        service.CoverageResponse,
        service.DarkRegionsResponse,
    ):
        wrap(response, "to_json", "serve.service.encode")
    wrap(http._Handler, "_send_json", "serve.service.encode")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, root: str, cache_stats: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose timed op is span ``root``.

    Every name of :data:`LAYER_METRICS` is present; layers the run did
    not reach read 0.
    """
    spans = tracer.spans
    summary = summarize(spans)
    counters = tracer.counters
    metrics: Dict[str, float] = {}
    for name in LAYER_METRICS:
        prefix, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s") and prefix in summary:
            metrics[name] = float(summary[prefix][stat])
        else:
            metrics[name] = float(counters.get(name, 0.0))

    hits = cache_stats.get("campaign_hits", 0)
    metrics["radio.cache.campaign_hit_ratio"] = _ratio(
        hits, hits + cache_stats.get("campaign_builds", 0)
    )
    metrics["station.online.incremental_ratio"] = _ratio(
        counters.get("refits_incremental", 0), counters.get("refits_total", 0)
    )
    metrics["core.preprocess.retained_ratio"] = _ratio(
        counters.get("preprocess_retained", 0), counters.get("preprocess_input", 0)
    )
    metrics["wifi.scan.samples_per_scan"] = _ratio(
        counters.get("scan_records", 0), metrics["wifi.scan.calls"]
    )
    cells = [s[2] - s[1] for s in spans if s[0] == "serve.jobset.cell"]
    root_s = summary[root]["busy_s"] - summary.get(CHECK_SPAN, {}).get("busy_s", 0.0)
    if cells:
        metrics["serve.jobset.cell_s"] = median(cells)
        metrics["serve.jobset.self_s"] = root_s - sum(cells)
    metrics["trace.unattributed_share"] = _ratio(summary[root]["self_s"], root_s)
    return metrics
