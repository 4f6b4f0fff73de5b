"""In-memory spans and counts recorded around the benchmark's calls into each layer.

A span has a name (``<module>.<what>``), start and end (perf_counter
seconds), the index of its parent span and the id of the round it belongs
to.  Spans stay in memory and are written out with the run's result.
Counts (work done, such as points or nodes) are recorded at the same
boundaries.  The untraced runs use :data:`NULL`, whose spans cost one
attribute lookup and record nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.round: str = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "round": self.round}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "value": value, "round": self.round})


class _NullTracer:
    round = "setup"
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()


def _layer_spans(tracer_data: dict) -> list[dict]:
    """Spans of layer calls: those at top level or directly inside a round root.

    Deeper spans are already inside their parent's time.
    """
    spans = tracer_data["spans"]
    return [s for s in spans if s["name"] != "round"
            and (s["parent"] is None or spans[s["parent"]]["name"] == "round")]


def totals(tracer_data: dict) -> dict[str, dict[str, float]]:
    """Per round id: the summed seconds of each layer span (as ``<name>_s``) and summed counts."""
    out: dict[str, dict[str, float]] = {}
    for rec in _layer_spans(tracer_data):
        per = out.setdefault(rec["round"], {})
        key = rec["name"] + "_s"
        per[key] = per.get(key, 0.0) + rec["end"] - rec["start"]
    for rec in tracer_data["counts"]:
        per = out.setdefault(rec["round"], {})
        per[rec["name"]] = per.get(rec["name"], 0.0) + rec["value"]
    return out


def covered(tracer_data: dict, start: float, end: float) -> float:
    """Seconds of [start, end] inside layer spans."""
    return sum(max(0.0, min(s["end"], end) - max(s["start"], start))
               for s in _layer_spans(tracer_data))
