"""Lightweight stage timers: named wall-clock spans for build observability.

The build pipeline (:func:`repro.serve.jobs.run_job`) threads a
:class:`StageTimer` through its stages — scenario construction, the
campaign sim, preprocessing, the model fit, the held-out score, the
REM tensor, the artifact save — and records the per-stage wall seconds into the
artifact's provenance sidecar (``provenance["stage_wall_s"]``).
``repro report`` aggregates them across a sweep, so a perf regression
is attributable to a stage instead of drowning in one end-to-end
number.

Timers are plain dictionaries behind a context-manager API; there is
no global registry or thread-local magic, so they are free when unused
and trivially safe under the multi-process sweep runner (each worker
times its own jobs).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["StageTimer"]


class StageTimer:
    """Accumulates named wall-clock spans.

    Usage::

        timer = StageTimer()
        with timer.span("campaign"):
            ...fly...
        timer.wall_s()   # {"campaign": 0.18}

    Re-entering a stage name accumulates (useful for chunked stages);
    nested spans each record their own wall time independently.
    """

    def __init__(self) -> None:
        self._wall_s: Dict[str, float] = {}

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Time a ``with`` block under ``stage`` (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._wall_s[stage] = self._wall_s.get(stage, 0.0) + elapsed

    def add(self, stage: str, wall_s: float) -> None:
        """Fold an externally-measured duration into ``stage``."""
        self._wall_s[stage] = self._wall_s.get(stage, 0.0) + float(wall_s)

    def wall_s(self) -> Dict[str, float]:
        """Per-stage wall seconds recorded so far (a copy)."""
        return dict(self._wall_s)

    def total_s(self) -> float:
        """Sum of all recorded spans."""
        return float(sum(self._wall_s.values()))

    def __bool__(self) -> bool:
        """True once at least one span has been recorded."""
        return bool(self._wall_s)
