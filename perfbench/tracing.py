"""In-memory spans recorded around calls into simtlab, plus timing summaries.

A span is one call into a public function of the package: its name
(``<module>.<function>``), start and end on the ``perf_counter`` clock, the
index of the enclosing span, and the ids of the batch, episode or sentence it
served, and whether it belongs to the fixed work every run makes. Spans stay
in memory until the run ends and are then written out as JSON lines. A
layer's self time is the time its fixed-work spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# The package modules that have fixed-work spans on every workload. The
# features module is missing: only the visual workload's set-up calls it.
LAYERS = ("autodiff", "environment", "policies", "agent", "metrics", "optim",
          "data", "checkpoint", "vocab")


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` only yields.

    A span is marked fixed work when ``fixed_work`` is set as it opens,
    unless its ids say otherwise.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.fixed_work = True
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **ids):
        if not self.enabled:
            yield
            return
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "fixed": self.fixed_work}
        record.update(ids)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def durations(self, name: str, **match):
        """Durations in seconds of the spans called ``name`` whose ids match."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def self_times(self):
        """Seconds of fixed-work self time per layer (the first part of a span name)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, covered in zip(self.spans, child):
            if not s["fixed"]:
                continue
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def p90(values):
    """90th percentile; with fewer than ten values it is the maximum."""
    ordered = sorted(values)
    if len(ordered) < 10:
        return ordered[-1]
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1]
