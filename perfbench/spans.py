"""In-memory span recording and self-time arithmetic.

A :class:`Tracer` records one span per call of a wrapped function:
``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span (``-1`` at the root).  Spans stay in memory and are
written out once, when the run ends.  The benchmark wraps the public
functions and methods of each layer *where their callers look them up*
(module attributes, class attributes), so the program itself is not
edited.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

Span = List  # [name, start, end, parent]


class Tracer:
    """Records nested spans and named counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._paused = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` block as one span under the current one."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the block without recording wrapped calls.

        The benchmark's own output checks call the program (for example
        ``predict_points``); those calls must not count as its work.
        """
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counters[name] += value

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``owner`` is a module, a class (a classmethod stays one) or a
        dict, whose entry ``owner[attribute]`` is replaced.
        ``on_result(tracer, result)`` runs after each outermost call, to
        count the work the call did.  Calls nested in a span of the same
        name (a method calling its base class) are passed through, so
        each unit of work is counted once.
        """
        func = owner[attribute] if isinstance(owner, dict) else vars(owner)[attribute]
        method = func.__func__ if isinstance(func, classmethod) else func
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if tracer._paused or (stack and tracer.spans[stack[-1]][0] == name):
                return method(*args, **kwargs)
            with tracer.span(name):
                result = method(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        _assign(owner, attribute, classmethod(wrapper) if method is not func else wrapper)
        self._patches.append((owner, attribute, func))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            _assign(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write spans and counters as one JSON document."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": names,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [
                        [code[n], round(s, 7), round(e, 7), p]
                        for n, s, e, p in self.spans
                    ],
                    "counters": dict(self.counters),
                },
                handle,
            )


def _assign(owner, attribute: str, value) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


def load_spans(path) -> List[Span]:
    """The spans of a file written by :meth:`Tracer.write`, names restored."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [[names[n], s, e, p] for n, s, e, p in data["spans"]]


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged first, so
    overlapping or back-to-back children are never subtracted twice.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][1]):
            c_start = max(spans[child][1], cursor)
            c_end = min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (inclusive) and ``self_s``.

    ``calls`` and ``busy_s`` count only spans not nested inside a span of
    the same name, so recursion is not double counted; ``self_s`` sums
    every span's self time.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return dict(out)
