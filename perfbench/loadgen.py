"""Open-loop load: Poisson arrivals timed from when each was due.

One generator thread sends each request at its due time; the server's
threads report completion through the handle's done-callback.  A
request's latency runs from its *due* time to that callback, so a
generator that falls behind (lag) or a stall that delays later sends
is charged to the requests it delays.  ``SVDResponse.total_s`` starts
at submit and ends before delivery, so it is not used.

:func:`judge` applies the stock serving objectives
(``repro.obs.slo.default_objectives``) to one run, and
:func:`search_capacity` bisects for the highest rate that meets them.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass

from perfbench import stats


#: Poll interval while waiting for the last responses (completion
#: times come from the callbacks, not from this loop).
DRAIN_POLL_S = 0.002

#: Requests still open this long after the last send are timed out.
DRAIN_S = 30.0

#: Most probes one capacity search runs.
MAX_PROBES = 16

#: A backlog is growing when latency rises with due time by more than
#: this many seconds per second.  The stock objectives have no backlog
#: objective, so this threshold is the benchmark's own: a queue that
#: grows rises at (offered / served - 1) s/s, so 0.05 fails a rate 5%
#: above what the server sustains, which still adds only 0.1 s over a
#: 2 s probe and can pass the 0.25 s latency objective.
BACKLOG_SLOPE = 0.05


class Rejected(Exception):
    """Raised by a submit function when the server refused admission."""


@dataclass
class Outcome:
    """One request of an open-loop run."""

    index: int
    due: float
    sent: float | None = None
    done: float | None = None
    status: str = "unsent"
    response: object = None

    @property
    def latency(self) -> float:
        """Due time to done-callback."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


@dataclass(frozen=True)
class Limits:
    """Latency and admission objectives a rate must meet."""

    latency_s: float
    latency_share: float
    admitted_share: float

    @classmethod
    def from_slo(cls) -> "Limits":
        """The serving stack's stock objectives."""
        from repro.obs.slo import default_objectives

        objectives = {o.name: o for o in default_objectives()}
        latency = objectives["serve.request.latency"]
        admission = objectives["serve.admission"]
        return cls(latency_s=float(latency.threshold),
                   latency_share=float(latency.target),
                   admitted_share=float(admission.target))


class OpenLoop:
    """Send requests at due times; collect outcomes through callbacks.

    ``submit(x)`` returns a handle with ``add_done_callback(fn)`` whose
    ``fn(response)`` gets an object with a ``status`` attribute, or
    raises :class:`Rejected`.  ``clock`` and ``sleep`` are injectable
    so tests can drive the loop with a fake clock.
    """

    def __init__(self, submit, *, clock=time.perf_counter, sleep=time.sleep,
                 recorder=None, request_span: str = "serve.request") -> None:
        self.submit = submit
        self.request_span = request_span
        self.clock = clock
        self.sleep = sleep
        self.recorder = recorder

    def run(self, offsets, inputs, *, limits: Limits | None = None) -> list[Outcome]:
        """Send ``inputs[i]`` at ``start + offsets[i]``; wait for all.

        With ``limits`` the run stops sending once more requests have
        missed the latency limit than the objective allows (a capacity
        probe that has already failed).  Requests still open
        :data:`DRAIN_S` after the last send are marked ``"timeout"``.
        """
        rec = self.recorder if self.recorder is not None and self.recorder.active else None
        start = self.clock() + 0.01
        outcomes = [Outcome(i, start + float(off)) for i, off in enumerate(offsets)]
        allowance = (math.floor(len(outcomes) * (1.0 - limits.latency_share) + 1e-9)
                     if limits is not None else None)
        oldest = 0
        for o, x in zip(outcomes, inputs):
            wait = o.due - self.clock()
            if wait > 0:
                self.sleep(wait)
            o.sent = self.clock()
            req = None
            if rec is not None:
                req = rec.open(self.request_span, start=o.due, rid=o.index)
                rec.add("loadgen.lag", o.due, o.sent, parent=req)
            try:
                with rec.current(req) if req is not None else contextlib.nullcontext():
                    handle = self.submit(x)
            except Rejected:
                o.status = "rejected"
                o.done = self.clock()
                if req is not None:
                    rec.close(req, o.done)
            else:
                handle.add_done_callback(self._callback(o, req))
            if allowance is not None:
                now = self.clock()
                while oldest < o.index and outcomes[oldest].done is not None:
                    oldest += 1
                overdue = sum(1 for p in outcomes[oldest:o.index + 1]
                              if p.done is None and now - p.due > limits.latency_s)
                missed = sum(1 for p in outcomes[:o.index + 1]
                             if p.done is not None and not _met(p, limits))
                if missed + overdue > allowance:
                    break
        deadline = self.clock() + DRAIN_S
        while any(o.sent is not None and o.done is None for o in outcomes):
            if self.clock() > deadline:
                break
            self.sleep(DRAIN_POLL_S)
        for o in outcomes:
            if o.sent is not None and o.done is None:
                o.status = "timeout"
        return outcomes

    def _callback(self, o: Outcome, req):
        def done(response) -> None:
            o.response = response
            o.status = getattr(response, "status", "ok")
            o.done = self.clock()  # last: the generator reads done first
            if req is not None:
                self.recorder.close(req, o.done)
        return done


def _met(o: Outcome, limits: Limits) -> bool:
    return o.status == "ok" and o.latency <= limits.latency_s


@dataclass
class Verdict:
    """How one run measured against :class:`Limits`."""

    rate: float
    ok: bool
    good_share: float
    admitted_share: float
    slope: float
    lag_tail: float
    sent: int
    planned: int


def judge(outcomes, limits: Limits, rate: float = 0.0) -> Verdict:
    """Apply the objectives to one run's outcomes.

    Unsent, rejected, timed-out and failed requests all count as
    missing the latency limit.  A backlog is growing when latency rises
    with due time by more than :data:`BACKLOG_SLOPE` seconds per second.
    """
    planned = len(outcomes)
    sent = [o for o in outcomes if o.sent is not None]
    good = sum(1 for o in sent if _met(o, limits))
    rejected = sum(1 for o in sent if o.status == "rejected")
    admitted = (len(sent) - rejected) / planned
    done = [o for o in sent if o.status == "ok"]
    dues = [o.due for o in done]
    trend = (statistics.linear_regression(dues, [o.latency for o in done]).slope
             if len(set(dues)) >= 3 else 0.0)
    lags = [o.lag for o in sent]
    lag_tail = stats.tail(lags)[1] if stats.supports(len(lags), 50.0) else max(lags)
    ok = (good / planned >= limits.latency_share and admitted >= limits.admitted_share
          and trend <= BACKLOG_SLOPE)
    return Verdict(rate, ok, good / planned, admitted, trend, lag_tail, len(sent), planned)


def search_capacity(probe, lo: float, hi: float, *,
                    resolution: float) -> tuple[float, list]:
    """Highest rate that passes ``probe(rate) -> Verdict``.

    Bisects (geometrically) between ``lo`` and ``hi`` until the bracket
    is narrower than ``resolution`` (a share of the rate).  An end that
    no probe has judged is probed then: a passing ``hi`` doubles the
    bracket upwards, a failing ``lo`` halves it downwards.  Returns the
    highest passing rate (0 if none passed within :data:`MAX_PROBES`) and
    every verdict, in probe order.
    """
    verdicts = []
    lo_passed = hi_failed = False

    def run(rate: float) -> bool:
        verdicts.append(probe(rate))
        return verdicts[-1].ok

    while len(verdicts) < MAX_PROBES:
        if hi / lo - 1.0 > resolution:
            mid = math.sqrt(lo * hi)
            if run(mid):
                lo, lo_passed = mid, True
            else:
                hi, hi_failed = mid, True
        elif not hi_failed:
            if run(hi):
                lo, hi, lo_passed = hi, 2.0 * hi, True
            else:
                hi_failed = True
        elif not lo_passed:
            if run(lo):
                lo_passed = True
            else:
                lo, hi = lo / 2.0, lo
        else:
            break
    return (lo if lo_passed else 0.0), verdicts
