"""In-memory span recorder for the traced run.

A span is [name, start, end, parent, op]: `name` is "layer.call" (the layer
is the orw module the call belongs to), times come from perf_counter,
`parent` is the index of the enclosing span (-1 for a root) and `op` is the
id of the operation the span belongs to.  Each command is replayed under a
root span named "op.<key>"; verdict checks run under roots named
"check.<key>", so their cost never counts as the command's.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("ordinals", "coloring", "ramsey", "lowerbound", "replay", "solver",
          "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the record so a caller may rename
        it once the outcome is known."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- derived figures -----------------------------------------------------

    def _roots(self) -> list[str]:
        """Name of the root span above each span."""
        out: list[str] = []
        for name, _, _, parent, _ in self.spans:
            out.append(name if parent < 0 else out[parent])
        return out

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of the given names."""
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name in names)

    def op_time(self) -> float:
        """Summed duration of the command root spans."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0 and name.startswith("op."))

    def layer_time(self) -> float:
        """Summed duration of the layer spans directly under command roots."""
        roots = self._roots()
        return sum(end - start
                   for (name, start, end, parent, _), root
                   in zip(self.spans, roots)
                   if parent >= 0 and root.startswith("op.")
                   and self.spans[parent][3] < 0)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time inside command roots: each span's duration
        minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        roots = self._roots()
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, parent, _), root, inner in zip(
                self.spans, roots, child):
            layer = name.split(".", 1)[0]
            if parent >= 0 and root.startswith("op.") and layer in out:
                out[layer] += (end - start) - inner
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": self.counts}, fh)
