"""In-memory span recording for the benchmark's traced runs.

A span is ``(id, name, start, end, parent)``.  Spans are kept in a list
while the run executes and written out as JSONL once it ends, so the
recording itself never touches the disk inside a timed region.  The
layer of a span is the part of its name before the first dot
(``routing.assign`` belongs to ``routing``).

:class:`NullTracer` is what untraced runs use: its ``span`` returns a
shared no-op context manager, so untraced timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import time
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """Records nested spans in memory."""

    enabled = True

    def __init__(self, process: str = "bench") -> None:
        self.process = process
        self.spans: List[Dict[str, object]] = []
        # The open span, per thread and per asyncio task: concurrent
        # tasks each see their own parent chain.
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar(f"span-{id(self)}", default=None)
        )
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "process": self.process,
                }
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as a span called *name*."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name):
                    return await fn(*args, **kwargs)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NullTracer:
    """The untraced stand-in: every span is the same no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn


def write_jsonl(path, spans: Iterable[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def totals(spans: Iterable[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total time and self time (seconds).

    Self time is a span's duration minus the part of it its direct
    children cover (clipped to the parent, so it never goes negative).
    An async span is wall time: it includes the awaits inside it, so
    work other tasks did meanwhile counts in its self time too.
    """
    spans = list(spans)
    children: Dict[tuple, List[Dict[str, object]]] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["process"], span["parent"])
            children.setdefault(key, []).append(span)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = float(span["end"]) - float(span["start"])
        covered = 0.0
        for child in children.get((span["process"], span["id"]), ()):
            covered += max(
                0.0,
                min(float(child["end"]), float(span["end"]))
                - max(float(child["start"]), float(span["start"])),
            )
        row = out.setdefault(
            str(span["name"]), {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += max(0.0, duration - covered)
    return out


def self_time_table(
    spans: Iterable[Dict[str, object]], rounds: Optional[int] = None
) -> str:
    """A per-layer self-time table, spans grouped under their layer."""
    rows = totals(spans)
    per = max(1, int(rounds or 1))
    layers: Dict[str, float] = {}
    for name, row in rows.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    lines = [
        f"{'layer / span':<34} {'calls':>8} {'total s':>10} {'self s':>10}"
        f"   (per traced round, {per} round(s))"
    ]
    for layer in sorted(layers, key=lambda name: -layers[name]):
        lines.append(f"{layer:<34} {'':>8} {'':>10} {layers[layer] / per:>10.4f}")
        for name in sorted(rows):
            if name.split(".", 1)[0] != layer:
                continue
            row = rows[name]
            lines.append(
                f"  {name:<32} {row['calls'] / per:>8.1f} "
                f"{row['total_s'] / per:>10.4f} {row['self_s'] / per:>10.4f}"
            )
    return "\n".join(lines)
