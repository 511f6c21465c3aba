"""In-memory spans around the benchmark's calls into the dualbraid layers.

A span is opened by the benchmark around one public call into a module;
its name is ``<layer>.<call>``, where the layer is the module name (or
``bench`` for the benchmark's own grouping spans).  Spans record name,
start, end, parent span and run id, stay in memory while the run lasts,
and are written out once when it ends.  A layer's self time is the sum
over its spans of the span's duration minus the part covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _ctx = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._ctx


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span with id ``root_id`` and all its descendants."""
    keep = {root_id}
    out = []
    for s in spans:  # parents are always recorded before their children
        if s["id"] == root_id or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out


def summarize(spans: list[dict]) -> tuple[dict, dict]:
    """Total time by span name (and by name.type) and self time by layer."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        totals[s["name"]] += dur
        if "type" in s:
            totals[f"{s['name']}.{s['type']}"] += dur
        self_s[s["name"].split(".", 1)[0]] += dur - child_time[s["id"]]
    return dict(totals), dict(self_s)
