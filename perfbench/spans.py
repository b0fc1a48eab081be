"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent), with parent the index of the enclosing
span or -1.  Spans are recorded by the benchmark around its own calls into
the package's modules, kept in memory while passes run and written out once
at the end.  Counters record work done at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path


class Tracer:
    """Records nested spans and counters.

    ``with tracer.span(name):`` opens a span; spans nest strictly, so a stack
    of open span indices gives each new span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pending = ""

    def span(self, name: str) -> "Tracer":
        self._pending = name
        return self

    def __enter__(self) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([self._pending, time.perf_counter(), 0.0, parent])

    def __exit__(self, *exc) -> bool:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        return False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def write(self, path: Path, header: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(header)
        payload["names"] = names
        payload["spans"] = [[index[n], s, e, p] for n, s, e, p in self.spans]
        payload["counts"] = dict(self.counts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


class NullTracer:
    """Tracer stand-in for untraced passes: spans and counts cost next to nothing."""

    _null = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._null

    def count(self, name: str, amount: float = 1) -> None:
        pass
