"""In-memory span recording around the public functions of sweepctl.

Spans are recorded from outside the package: :meth:`Tracer.install` replaces
a function at the name its caller looks up (a module attribute or a class
attribute) with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the original back.  A span is the tuple
(name, start, end, parent, op id, attrs); ``parent`` is the index of the
enclosing span or -1, and every span of one benchmark op shares its op id.
Nothing is written while the benchmark runs; :func:`write` dumps the spans
at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr``; ``observe(args, kwargs, result)`` may return
        a dict of attributes stored on the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    span[ATTRS] = observe(args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def open(self, name: str, op: int | None = None) -> list:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, start: float | None = None,
              end: float | None = None) -> None:
        """End ``span``; ``start``/``end`` override its clock readings."""
        if start is not None:
            span[START] = start
        span[END] = time.perf_counter() if end is None else end
        self._stack.pop()


def _self_times(spans: list[list], first: int) -> list[float]:
    """Span duration minus the time its direct children cover.

    ``spans`` is the slice of a tracer's spans starting at index ``first``;
    children always follow their parent, so parents outside the slice are
    ignored.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT] - first
        if p >= 0:
            out[p] -= s[END] - s[START]
    return out


class SpanIndex:
    """Per-name sums over one slice of spans, with ancestry lookups."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        self.first = first
        self.spans = tracer.spans[first:last]
        selfs = _self_times(self.spans, first)
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, selfs):
            self.count[s[NAME]] += 1
            self.total[s[NAME]] += s[END] - s[START]
            self.self_total[s[NAME]] += own
        self.self_sum = sum(selfs)
        self.negative_self = sum(own < -1e-9 for own in selfs)

    def outermost(self, names: set[str]) -> list[list]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for s in self.spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT] - self.first
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT] - self.first
            if p < 0:
                out.append(s)
        return out

    def attrs(self, name: str) -> list[dict]:
        return [s[ATTRS] for s in self.spans
                if s[NAME] == name and s[ATTRS] is not None]


def write(path: str, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s[NAME], "start": s[START],
                                 "end": s[END], "parent": s[PARENT],
                                 "op": s[OP], "attrs": s[ATTRS]}) + "\n")
