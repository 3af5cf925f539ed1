"""In-memory spans around the benchmark's calls into the ``repro`` layers.

A span is ``(name, start, end, parent, op)``: ``name`` is ``layer.call``
(``plan.sweep``, ``analysis.refresh``, ...), ``parent`` the index of the
enclosing span and ``op`` the id of the timed operation it belongs to.
Spans are recorded only while :attr:`Tracer.enabled` is set, kept in a
list and written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Tracer", "layer_breakdown", "layer_of", "self_times", "span_cost_s"]


class Tracer:
    """Span recorder; a disabled tracer runs the body and records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": op}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one recorded span adds: an enabled tracer timing empty spans,
    minus the same loop with tracing off."""
    tracer = Tracer()
    costs = []
    for enabled in (True, False):
        tracer.enabled = enabled
        start = time.perf_counter()
        for _ in range(samples):
            with tracer.span("calibrate", op=0):
                pass
        costs.append((time.perf_counter() - start) / samples)
    return max(costs[0] - costs[1], 0.0)


def layer_of(name: str) -> str:
    """``plan.sweep`` -> ``plan``; operation roots (``op.*``) -> ``bench``."""
    layer = name.split(".", 1)[0]
    return "bench" if layer == "op" else layer


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_breakdown(spans: List[dict]) -> Dict[str, object]:
    """Self time per layer and per span name over the traced operations.

    Only spans inside an operation count; set-up spans (``op`` is
    ``None``) lie outside the timed interval.  ``interval_s`` is the summed
    duration of the operation roots, so the layer self times add up to it.
    """
    own = self_times(spans)
    by_layer: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, float] = defaultdict(float)
    interval = 0.0
    for span, seconds in zip(spans, own):
        if span["op"] is None:
            continue
        if span["parent"] is None:
            interval += span["end"] - span["start"]
        by_layer[layer_of(span["name"])] += seconds
        by_name[span["name"]] += seconds
    return {"interval_s": interval, "layers": dict(by_layer),
            "names": dict(by_name)}
