"""Spans around the calls into each layer, recorded from outside the program.

A `Tracer` replaces a public function or method with a wrapper at the
name its callers look up (a module global, or an attribute of a class),
and puts the original back on `remove`. Each call records a span -- name,
start, end and the span that was open when it began -- so nested calls
give self times. An optional callback sees each call's arguments and
result, which is where the per-layer counts are taken. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace every call made through `owner.attr` as span `name`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, raw))

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def remove(self) -> None:
        """Put every wrapped name back as it was."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_seconds(self, name: str) -> float:
        """Total time inside spans `name`, less the time of their children."""
        total = 0.0
        for span in self.spans:
            if span[0] == name:
                total += span[2] - span[1]
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][0] == name:
                total -= span[2] - span[1]
        return total

    def total_seconds(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
