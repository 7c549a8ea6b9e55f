"""Spans and operation records for the benchmark.

Every call the harness makes into a layer of ``spectral_edge`` (or into the
``spectral-edge`` CLI) is wrapped in ``Tracer.span``.  With tracing off the
span only measures its duration, which is what the end-to-end metrics need.
With tracing on it also keeps the name, parent, start, end and counters in
memory; nothing is written until ``Tracer.dump`` runs at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``enabled=False`` keeps only the timings."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0   # time spent inside the tracer itself

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            sp = Span(name, _clock(), attrs=attrs)
            try:
                yield sp
            finally:
                sp.end = _clock()
            return
        t0 = _clock()
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        t1 = _clock()
        sp.start = t1
        try:
            yield sp
        finally:
            t2 = _clock()
            sp.end = t2
            self._stack.pop()
            self.bookkeeping_s += (t1 - t0) + (_clock() - t2)

    def self_times(self) -> list[float]:
        """Span duration minus the part of it its direct children cover."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent >= 0:
                own[sp.parent] -= sp.duration
        return own

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def dump(self, path) -> None:
        if not self.spans:
            return
        t0 = self.spans[0].start
        rows = [
            {"id": i, "name": sp.name, "parent": sp.parent,
             "start": sp.start - t0, "end": sp.end - t0, "self": st, "attrs": sp.attrs}
            for i, (sp, st) in enumerate(zip(self.spans, self.self_times()))
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1, default=str)


@dataclass
class Op:
    """One operation the harness attempted, with every check it missed."""

    name: str
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    @property
    def ok(self) -> bool:
        return not self.reasons


@dataclass
class Outcome:
    """What one workload run produced, before it is turned into metrics."""

    ops: list = field(default_factory=list)
    job_s: list = field(default_factory=list)      # one entry per completed job
    query_s: list = field(default_factory=list)
    curve_s: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def op(self, name: str) -> Op:
        op = Op(name)
        self.ops.append(op)
        return op

    @property
    def failed(self) -> list:
        return [op for op in self.ops if not op.ok]


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def tail(values, beyond: int = 10) -> tuple[float, str, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, what the value is, sample count).  With fewer than
    ``2 * beyond + 1`` samples that percentile would not reach the median,
    so the mean of the slower half (the ceil(k/2) largest of k samples) is
    reported instead: a tail that, unlike the maximum, is not set by one
    sample's brush with a busy moment of the host.
    """
    vals = sorted(values)
    k = len(vals)
    if k == 0:
        return 0.0, "no samples", 0
    if k <= 2 * beyond:
        slow = vals[k // 2:]
        return sum(slow) / len(slow), f"mean of the slowest {len(slow)}", k
    idx = k - beyond - 1
    return vals[idx], f"p{100.0 * (idx + 1) / k:.1f}", k


def repeat_jobs(tracer, outcome, deadline: float, clock, job, rounds=None,
                min_rounds: int = 1) -> None:
    """Run ``job(k)`` for k = 0, 1, ... until ``deadline``, at least
    ``min_rounds`` and at most ``rounds`` times.  ``job`` may return a check,
    which runs after the job's span closes so that checking is not timed."""
    k = 0
    while k < min_rounds or (clock() < deadline and k != rounds):
        with tracer.span("job", round=k) as js:
            check = job(k)
        outcome.job_s.append(js.duration)
        if check is not None:
            check()
        k += 1
