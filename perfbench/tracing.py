"""In-memory span recorder for the traced run, and the self-time split.

A span is one timed call that the benchmark makes into a layer of the
program.  Spans nest: a span opened while another is open records it as
its parent.  Every span carries the identifier of the operation it belongs
to, so the spans of one operation can be grouped.  Nothing is written until
the run ends.
"""

from __future__ import annotations

import json
from statistics import median
from time import perf_counter

BENCH_LAYER = "bench"


def layer_of(name: str) -> str:
    """Layer (module) of a span name such as ``spectra.report``."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        # each span: [op id, name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[1] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_us(self, name: str) -> float:
        return median(self.durations(name)) * 1e6

    def self_times(self, wall: float) -> dict[str, float]:
        """Seconds spent in each layer itself, not in the spans it caused.

        Time inside no span at all is the benchmark's own and goes to the
        ``bench`` layer, so the values sum to ``wall``.
        """
        child = [0.0] * len(self.spans)
        top = 0.0
        for op, name, parent, start, end in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        out: dict[str, float] = {BENCH_LAYER: wall - top}
        for (op, name, parent, start, end), inner in zip(self.spans, child):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + (end - start - inner)
        return out

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [op, name, parent, round(start - t0, 9), round(end - start, 9)]
            for op, name, parent, start, end in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**header, "columns": ["op", "name", "parent", "start_s", "duration_s"],
                       "spans": rows}, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append([tr.op, self.name, parent, perf_counter(), 0.0])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr.spans[self.index][4] = perf_counter()
        tr._stack.pop()
        return False
