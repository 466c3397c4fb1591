"""Tests for the benchmark's own logic (no program code is timed here).

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, loadgen, stats  # noqa: E402
from perfbench.checks import Gate  # noqa: E402
from perfbench.loadgen import (Limits, OpenLoop, Rejected, Verdict,  # noqa: E402
                               judge, search_capacity)
from perfbench.spans import Recorder, self_times  # noqa: E402

LIMITS = Limits(latency_s=0.25, latency_share=0.99, admitted_share=0.999)


# ---- the percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n,q,ok", [
    (20, 50.0, True), (19, 50.0, False), (40, 75.0, True), (39, 75.0, False),
    (100, 90.0, True), (99, 90.0, False), (200, 95.0, True), (199, 95.0, False),
    (1000, 99.0, True), (999, 99.0, False), (10000, 99.9, True), (9999, 99.9, False),
])
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    assert stats.supports(n, q) is ok
    values = list(range(n))
    if ok:
        assert stats.percentile(values, q) == values[stats.rank(n, q) - 1]
        assert sum(1 for v in values if v > stats.percentile(values, q)) >= 10
    else:
        with pytest.raises(stats.Unsupported):
            stats.percentile(values, q)


def test_tail_is_the_highest_supported_rung():
    assert stats.tail(list(range(160)))[0] == 90.0
    assert stats.tail(list(range(72)))[0] == 75.0
    assert stats.tail(list(range(4800)))[0] == 99.0
    with pytest.raises(stats.Unsupported):
        stats.tail(list(range(19)))


def test_clearance_measures_distance_to_class_edge():
    # 7 fast, 4 mid, 1 slow per block: edges at 7/12 and 11/12.
    samples = [0.1] * 7 + [0.4] * 4 + [0.8]
    groups = ["fast"] * 7 + ["mid"] * 4 + ["slow"]
    assert stats.clearance(samples, groups, 50.0) == pytest.approx(7 / 12 - 0.5)
    assert stats.clearance(samples, groups, 75.0) == pytest.approx(0.75 - 7 / 12)
    assert stats.clearance([1.0, 2.0], ["a", "a"], 50.0) == 1.0


# ---- due-time latency and lag under a fake clock ----------------------------

class FakeClock:
    """Time advances only through ``sleep``; timers fire as it passes them."""

    def __init__(self) -> None:
        self.now = 0.0
        self._timers: list = []
        self._order = 0

    def __call__(self) -> float:
        return self.now

    def at(self, when: float, fn) -> None:
        self._order += 1
        heapq.heappush(self._timers, (when, self._order, fn))

    def sleep(self, dt: float) -> None:
        end = self.now + dt
        while self._timers and self._timers[0][0] <= end:
            when, _, fn = heapq.heappop(self._timers)
            self.now = max(self.now, when)
            fn()
        self.now = end


class FakeHandle:
    def __init__(self) -> None:
        self.response = None
        self.callbacks = []

    def add_done_callback(self, fn) -> None:
        if self.response is not None:
            fn(self.response)
        else:
            self.callbacks.append(fn)

    def fulfil(self, response) -> None:
        self.response = response
        for fn in self.callbacks:
            fn(response)


class FakeServer:
    """One FIFO server with a fixed service time: its knee is 1/service."""

    def __init__(self, clock: FakeClock, service_s: float, submit_cost_s=0.0,
                 max_queue=None) -> None:
        self.clock, self.service_s = clock, service_s
        self.submit_cost_s = submit_cost_s
        self.max_queue = max_queue
        self.busy_until = 0.0
        self.finishes: list = []

    def submit(self, x):
        self.clock.sleep(self.submit_cost_s)  # callbacks keep firing meanwhile
        now = self.clock.now
        self.finishes = [f for f in self.finishes if f > now]
        if self.max_queue is not None and len(self.finishes) >= self.max_queue:
            raise Rejected("full")
        finish = max(now, self.busy_until) + self.service_s
        self.busy_until = finish
        self.finishes.append(finish)
        handle = FakeHandle()
        self.clock.at(finish, lambda: handle.fulfil(SimpleNamespace(status="ok")))
        return handle


def test_latency_runs_from_due_time_to_callback():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.1)
    loop = OpenLoop(server.submit, clock=clock, sleep=clock.sleep)
    outs = loop.run([0.0, 0.05, 1.0], [None] * 3)
    assert [o.status for o in outs] == ["ok"] * 3
    assert outs[0].latency == pytest.approx(0.1)
    assert outs[1].latency == pytest.approx(0.15)  # queued behind the first
    assert outs[2].latency == pytest.approx(0.1)
    assert all(o.lag == pytest.approx(0.0) for o in outs)


def test_a_slow_submit_is_charged_as_lag_to_later_requests():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.01, submit_cost_s=0.03)
    loop = OpenLoop(server.submit, clock=clock, sleep=clock.sleep)
    outs = loop.run([0.0, 0.01, 0.02], [None] * 3)
    assert outs[0].lag == pytest.approx(0.0)
    assert outs[1].lag == pytest.approx(0.02)
    assert outs[2].lag == pytest.approx(0.04)
    # Latency includes the lag: due at 0.01, sent at 0.03, submit ends
    # at 0.06, then 0.01 of service.
    assert outs[1].latency == pytest.approx(0.06)


def test_unfinished_requests_time_out_and_rejections_count_unadmitted(monkeypatch):
    monkeypatch.setattr(loadgen, "DRAIN_S", 1.0)
    clock = FakeClock()
    server = FakeServer(clock, service_s=10.0, max_queue=2)
    loop = OpenLoop(server.submit, clock=clock, sleep=clock.sleep)
    outs = loop.run([0.0, 0.0, 0.0, 0.0], [None] * 4)
    assert [o.status for o in outs] == ["timeout", "timeout", "rejected", "rejected"]
    v = judge(outs, LIMITS)
    assert not v.ok and v.admitted_share == 0.5 and v.good_share == 0.0


# ---- the capacity search ------------------------------------------------------

def _verdict(rate, ok):
    return Verdict(rate, ok, 1.0 if ok else 0.0, 1.0, 0.0, 0.0, 100, 100)


@pytest.mark.parametrize("knee", [23.0, 41.7, 55.0, 99.0, 159.0, 250.0])
def test_search_finds_a_known_knee_within_its_resolution(knee):
    probed = []

    def probe(rate):
        probed.append(rate)
        return _verdict(rate, rate <= knee)

    found, verdicts = search_capacity(probe, 20.0, 160.0, resolution=0.03)
    assert found <= knee
    assert found >= knee / 1.03
    assert len(verdicts) == len(probed) <= 16


def test_search_against_a_fake_server_with_a_known_knee():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.02, max_queue=40)  # knee 50 req/s
    loop = OpenLoop(server.submit, clock=clock, sleep=clock.sleep)
    rng = np.random.default_rng(7)

    def probe(rate):
        offsets = np.sort(rng.uniform(0.0, 400 / rate, size=400))
        v = judge(loop.run(offsets, [None] * 400, limits=LIMITS), LIMITS, rate)
        clock.sleep(5.0)  # let the fake server drain between probes
        return v

    found, verdicts = search_capacity(probe, 10.0, 160.0, resolution=0.03)
    assert 40.0 <= found <= 55.0, [(round(v.rate, 2), v.ok) for v in verdicts]
    assert any(not v.ok for v in verdicts)


def test_backlog_slope_fails_a_run_that_meets_the_latency_share():
    clock = FakeClock()
    server = FakeServer(clock, service_s=0.011)  # 10% over a 100 req/s schedule
    loop = OpenLoop(server.submit, clock=clock, sleep=clock.sleep)
    outs = loop.run(np.arange(100) * 0.01, [None] * 100)
    v = judge(outs, LIMITS, 100.0)
    assert v.good_share == 1.0 and v.slope == pytest.approx(0.1, rel=0.05)
    assert not v.ok


# ---- failed_share accounting ---------------------------------------------------

def test_failed_share_counts_rejects_timeouts_errors_and_wrong_results():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 16))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    gate = Gate({("blocked", "fp64", "tall"): 1e-10})

    def result(sv):
        return SimpleNamespace(method="blocked", precision="fp64", s=sv, u=u,
                               vt=vt, sweeps=10, converged=False)

    def response(status, res=None):
        return SimpleNamespace(status=status, result=res, error="x")

    cases = [response("ok", result(s)), response("rejected"), None,
             response("error"), response("ok", result(s * (1 + 1e-6))),
             response("timeout")]
    for c in cases:
        gate.attempted += 1
        gate.response(c, a, "tall", s, "input")
    assert gate.attempted == 6 and gate.failed == 5
    assert gate.failed_share == pytest.approx(5 / 6)
    kinds = [f.split(":")[0] for f in gate.failures]
    assert kinds == ["rejected", "timeout", "error", "wrong", "timeout"]


def test_unconverged_results_pass_on_their_error():
    a = np.random.default_rng(1).standard_normal((32, 32))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    gate = Gate({("vectorized", "fp64", "graded_1e12"): 1e-10})
    res = SimpleNamespace(method="vectorized", precision="fp64", s=s, u=u, vt=vt,
                          sweeps=30, converged=False)
    assert gate.svd(res, a, "graded_1e12", s, "input")
    assert gate.failed == 0


def test_merge_check_accepts_the_best_rank_k_and_catches_a_dropped_block():
    rng = np.random.default_rng(2)
    before = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 30))
    m = np.hstack([before, rng.standard_normal((40, 5))])
    gate = Gate({("blocked", "fp64", "wide"): 1e-10})
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    assert gate.truncation("blocked", u[:, :4], s[:4], vt[:4], m, "wide", "merge")
    # A merge that ignores the new columns keeps the old factorization.
    u, s, vt = np.linalg.svd(before, full_matrices=False)
    dropped = np.hstack([vt[:4], np.zeros((4, 5))])
    assert not gate.truncation("blocked", u[:, :4], s[:4], dropped, m, "wide", "merge")
    assert gate.failed == 1 and gate.failures[0].startswith("wrong: merge")


def test_hit_lists_must_match_the_direct_call():
    gate = Gate({})
    assert gate.hits([(3, 0.9), (1, 0.5)], [(3, 0.9), (1, 0.5)], "q")
    assert not gate.hits([(1, 0.5), (3, 0.9)], [(3, 0.9), (1, 0.5)], "q")
    assert gate.failed == 1


# ---- self time from nested spans ------------------------------------------------

def test_self_time_is_span_minus_child_coverage():
    rec = Recorder()
    a = rec.add("a", 0.0, 10.0)
    b = rec.add("b", 2.0, 5.0, parent=a)
    rec.add("c", 3.0, 4.0, parent=b)
    rec.add("d", 6.0, 7.0, parent=a)
    own, unattributed = self_times(rec.spans, 0.0, 12.0)
    assert own == pytest.approx({"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})
    assert unattributed == pytest.approx(2.0)
    assert sum(own.values()) + unattributed == pytest.approx(12.0)


def test_concurrent_spans_share_the_wall_and_sum_to_it():
    rec = Recorder()
    rec.add("x", 0.0, 4.0)
    rec.add("y", 2.0, 6.0)
    own, unattributed = self_times(rec.spans, -1.0, 6.0)
    assert own == pytest.approx({"x": 3.0, "y": 3.0})
    assert unattributed == pytest.approx(1.0)


def test_a_parentless_work_span_takes_all_of_the_request_it_serves():
    # A client thread's request, a submit inside it, and two batches on
    # server threads, which start with no current span.
    rec = Recorder()
    req = rec.add("serve.request", 0.0, 10.0, rid=1)
    rec.add("serve.submit", 0.0, 1.0, parent=req)
    rec.add("core.batch", 2.0, 6.0)
    rec.add("core.batch", 5.0, 8.0)
    own, unattributed = self_times(rec.spans, 0.0, 12.0, layers.WAIT_SPANS)
    # Batches: 2-5 alone, 5-6 two at once (one share each), 6-8 alone.
    assert own == pytest.approx({"serve.submit": 1.0, "core.batch": 6.0,
                                 "serve.request": 3.0})
    assert unattributed == pytest.approx(2.0)
    # Without waits the open request would take a share of every batch.
    own, _ = self_times(rec.spans, 0.0, 12.0)
    assert own["core.batch"] == pytest.approx(1.5 + 2.0 / 3.0 + 1.0)


def test_recorder_charges_its_own_work_not_the_wrapped_call():
    rec = Recorder()

    class Layer:
        @staticmethod
        def work():
            return sum(range(20000))

    rec.wrap(Layer, "work", "work")
    Layer.work()
    (sp,) = rec.spans
    ((when, cost),) = rec.costs
    assert when <= sp.start and 0.0 < cost < sp.end - sp.start
    assert rec.overhead(when, sp.end) == cost
    assert rec.overhead(sp.end + 1.0, sp.end + 2.0) == 0.0


def test_wrappers_nest_through_the_current_span_and_restore():
    rec = Recorder()

    class Layer:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Layer.inner() + 1

    rec.wrap(Layer, "inner", "inner")
    rec.wrap(Layer, "outer", "outer")
    assert Layer.outer() == 2
    with rec.paused():
        Layer.inner()
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", None), ("inner", 0)]
    rec.restore()
    Layer.outer()
    assert len(rec.spans) == 2


# ---- BENCHMARK.json agrees with the code ---------------------------------------

def test_benchmark_json_lists_what_the_runs_print():
    from perfbench.run import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(layers.PER_LAYER)
    assert all(w["why"] and len(w["why"]) <= 200 for w in doc["workloads"])
    unpaired = [name for name, _, _ in layers.PER_LAYER
                if not name.startswith("self.") and name not in layers.MOVES]
    assert not unpaired


# ---- no process outlives a run ------------------------------------------------

def test_stop_all_reaps_orphans_and_the_resource_tracker():
    import subprocess
    import textwrap

    script = textwrap.dedent("""
        import subprocess, sys
        from multiprocessing import shared_memory
        from perfbench import procs

        procs.adopt_orphans()
        seg = shared_memory.SharedMemory(create=True, size=16)
        seg.close()
        seg.unlink()
        subprocess.run(["sh", "-c", "sleep 30 & exit 0"], check=True)
        assert procs.children(), "tracker and orphaned sleep are children"
        assert procs.stop_all(grace_s=1.0)
        print(procs.children())
    """)
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
