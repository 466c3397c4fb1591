"""Benchmark-side spans around calls into the program's public functions.

The traced run installs wrappers (:meth:`Recorder.wrap`) around the
layer entry points it measures; each call records a span with its
name, start, end, parent span and request id.  Spans stay in memory
and are written out once, at exit.  Nothing inside the program is
traced: the program's own tracer stays off.

The recorder also times its own work (opening and closing spans,
setting the current span, describing results) as it goes, so the
traced run reports the seconds tracing spent, measured under the run's
own load (:meth:`Recorder.overhead`).

:func:`self_times` splits a wall-clock window among the layers.  A
*wait* span (a request that is open while its client only waits for
the response) gets time only while no other span runs anywhere; at
every other instant the time goes, in equal shares, to the innermost
*work* spans running then (spans with no running child).  Time with no
running span is *unattributed*.  In a single thread a work span's self
time is its duration minus its children's coverage; across threads the
shares, with the unattributed part, still sum to the window exactly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call."""

    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    rid: object = None
    attrs: dict = field(default_factory=dict)
    index: int = -1


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(when, seconds)`` of each piece of the recorder's own work.
        self.costs: list[tuple[float, float]] = []
        self.active = True
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._installed: list[tuple] = []

    # ---- recording ------------------------------------------------------

    def _start(self, name: str, start: float, parent=None, rid=None,
               attrs=None) -> Span:
        if parent is None:
            parent = self._current.get()
        sp = Span(name, start, parent=None if parent is None else parent.index,
                  rid=rid if rid is not None or parent is None else parent.rid,
                  attrs=attrs or {})
        with self._lock:
            sp.index = len(self.spans)
            self.spans.append(sp)
        return sp

    def _charge(self, since: float) -> None:
        self.costs.append((since, time.perf_counter() - since))

    def open(self, name: str, *, start: float | None = None, parent=None,
             rid=None, **attrs) -> Span:
        """Start a span; ``parent`` defaults to the caller's current span."""
        t = time.perf_counter()
        sp = self._start(name, t if start is None else start, parent, rid, attrs)
        self._charge(t)
        return sp

    def close(self, sp: Span, end: float | None = None) -> Span:
        """End a span (now, unless ``end`` is given)."""
        t = time.perf_counter()
        sp.end = t if end is None else end
        self._charge(t)
        return sp

    def add(self, name: str, start: float, end: float, **kwargs) -> Span:
        """Record an already finished interval."""
        return self.close(self.open(name, start=start, **kwargs), end)

    @contextlib.contextmanager
    def current(self, sp: Span):
        """Make ``sp`` the parent of spans opened inside the block."""
        t = time.perf_counter()
        token = self._current.set(sp)
        self._charge(t)
        try:
            yield sp
        finally:
            t = time.perf_counter()
            self._current.reset(token)
            self._charge(t)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record the block as a child of the current span."""
        t_in = time.perf_counter()
        sp = self._start(name, t_in, attrs=attrs)
        token = self._current.set(sp)
        sp.start = t_enter = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = t_exit = time.perf_counter()
            self._current.reset(token)
            self.costs.append((t_in, t_enter - t_in + time.perf_counter() - t_exit))

    @contextlib.contextmanager
    def paused(self):
        """Run the block without recording (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # ---- wrappers -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records ``name`` spans.

        ``describe(args, kwargs, result)`` may return attributes to
        attach to the span (sweep counts, batch sizes).  The span covers
        the wrapped call only; the wrapper's own time is charged to
        :attr:`costs`.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            t_in = time.perf_counter()
            sp = recorder._start(name, t_in)
            token = recorder._current.set(sp)
            sp.start = t_call = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                sp.end = t_return = time.perf_counter()
                recorder._current.reset(token)
            if describe is not None:
                sp.attrs.update(describe(args, kwargs, result))
            recorder.costs.append(
                (t_in, t_call - t_in + time.perf_counter() - t_return))
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ---- queries --------------------------------------------------------

    def named(self, name: str, t0: float = float("-inf"),
              t1: float = float("inf")) -> list[Span]:
        """Finished spans called ``name`` that start inside [t0, t1]."""
        return [s for s in self.spans
                if s.name == name and s.end is not None and t0 <= s.start <= t1]

    def overhead(self, t0: float, t1: float) -> float:
        """Seconds of the recorder's own work that began inside [t0, t1]."""
        return sum(dt for t, dt in self.costs if t0 <= t <= t1)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "rid": s.rid,
                    "attrs": {k: v for k, v in s.attrs.items()
                              if isinstance(v, (int, float, str, bool))},
                }) + "\n")


def self_times(spans, t0: float, t1: float, waits=()) -> tuple[dict, float]:
    """Split the window [t0, t1] among span names; see the module doc.

    ``waits`` names the wait spans.  Returns ``({name: seconds},
    unattributed_seconds)``; the values sum to ``t1 - t0``.
    """
    events = []
    for s in spans:
        if s.end is None:
            continue
        a, b = max(s.start, t0), min(s.end, t1)
        if b > a:
            events.append((a, 1, s.index))
            events.append((b, 0, s.index))
    events.sort()  # at equal times, ends (0) before starts (1)
    by_index = {s.index: s for s in spans}
    running: set[int] = set()
    children = {}
    innermost: set[int] = set()
    totals: dict[str, float] = {}
    unattributed = 0.0
    last = t0
    for t, kind, idx in events:
        dt = t - last
        if dt > 0:
            work = [i for i in innermost if by_index[i].name not in waits]
            owners = work or innermost
            if owners:
                share = dt / len(owners)
                for i in owners:
                    name = by_index[i].name
                    totals[name] = totals.get(name, 0.0) + share
            else:
                unattributed += dt
        last = t
        parent = by_index[idx].parent
        if kind == 1:
            running.add(idx)
            if children.get(idx, 0) == 0:
                innermost.add(idx)
            if parent in running:
                children[parent] = children.get(parent, 0) + 1
                innermost.discard(parent)
        else:
            running.discard(idx)
            innermost.discard(idx)
            if parent in running:
                children[parent] -= 1
                if children[parent] == 0:
                    innermost.add(parent)
    if t1 > last:
        unattributed += t1 - last
    return totals, unattributed
