"""``serve-small`` and ``shard-small``: open-loop small requests, both tiers.

Poisson arrivals at :data:`RATE` (well below the knee) of unique
32x16, 64x16 and 32x32 matrices, so the result cache never hits, then a
``capacity_rps`` search.  ``serve-small`` sends them to the
single-process ``SVDServer``; ``shard-small`` to
``ShardedSVDServer(shards=1)``: the same engine work behind a process
boundary, so the difference between the two isolates router,
shared-memory transport and worker costs.

Every request asks for ``max_sweeps=30`` and ``compute_uv=True``; the
same inputs are then solved by direct ``hestenes_svd`` calls (the
``x_direct`` base) and by LAPACK (``x_lapack`` and the correctness
gate).
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import inputs, layers, stats
from perfbench.checks import describe, lapack
from perfbench.common import (Context, Timer, nproc, proc_cpu_s,
                              proc_peak_rss_mb, self_peak_rss_mb)
from perfbench.loadgen import Limits, OpenLoop, Rejected, judge, search_capacity

MAX_SWEEPS = 30

#: Fixed arrival rate (req/s), a third of either tier's knee (55-80
#: req/s at seed): ~30% of arrivals find the server busy.
RATE = 24.0

#: Fixed-rate requests per second of ``--seconds`` (400 in a 20 s run:
#: ~17 s at the fixed rate); the capacity search follows.  The p95 tail
#: falls inside the 32x32 tenth of the mix, so it is set by that class
#: alone: 400 requests give it 40 samples, and on a 2-core host that
#: took the tail's run-to-run spread from ~0.2-0.33 (200 requests at
#: 12 req/s) to ~0.14 of its median.
FIXED_PER_S = 20

#: Segments of the fixed-rate phase (see :func:`run`).
SEGMENTS = 4

#: Requests per capacity probe, and the search's resolution (a share of
#: the rate, well below the bound on ``capacity_rps``).
PROBE_REQUESTS = 120
RESOLUTION = 0.03

#: The search starts between these multiples of one caller's direct
#: rate (the reciprocal of the mean direct solve time).
BRACKET = (0.6, 1.2)

#: A run whose generator lag tail exceeds this share of the latency
#: limit measured the generator, not the server: it is invalid.
LAG_LIMIT_SHARE = 0.1


def _tier(ctx: Context) -> str:
    return "shard" if ctx.workload == "shard-small" else "serve"


def setup(ctx: Context, seed: int):
    """Build the server and complete one request."""
    if _tier(ctx) == "shard":
        from repro.serve.shard import ShardedSVDServer

        server = ShardedSVDServer(shards=1, workers=nproc(),
                                  max_sweeps=MAX_SWEEPS, compute_uv=True)
    else:
        from repro.serve import SVDServer

        server = SVDServer(workers=nproc(), backpressure="reject",
                           max_sweeps=MAX_SWEEPS, compute_uv=True)
    a = inputs.stream(seed, "setup").standard_normal((32, 16))
    if server.submit(a).result(timeout=60.0).status != "ok":
        raise RuntimeError("set-up request failed")
    return server


def _submitter(server):
    from repro.serve.request import ServeError

    def submit(x):
        try:
            return server.submit(x)
        except ServeError as exc:
            raise Rejected(str(exc)) from exc

    return submit


def _schedule(seed: int, phase: str, index: int, rate: float, n: int):
    """Arrival offsets and inputs of one open-loop run.

    The offsets are a Poisson trace conditioned on ``n`` arrivals in
    ``n / rate`` seconds (sorted uniforms), drawn with the class order
    from the fixed trace seed; probes share one trace, scaled to their
    rate.  ``seed`` draws fresh matrix entries for every run and probe.
    """
    trace = inputs.stream(inputs.TRACE_SEED, phase)
    offsets = np.sort(trace.uniform(0.0, n, size=n)) / rate
    mix = inputs.blocks(inputs.stream(seed, phase, index), inputs.SERVE_BLOCK,
                        n // inputs.block_size(inputs.SERVE_BLOCK), order=trace)
    return offsets, mix


def _worker_pid(server):
    if hasattr(server, "router"):
        return server.stats()["shards"][0]["pid"]
    return None


def _requeues() -> float:
    from repro.obs.metrics import get_registry

    counters = get_registry().snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.startswith("shard_requeues_total"))


def run(ctx: Context, server) -> None:
    import repro.core.svd as svd

    limits = Limits.from_slo()
    tier = _tier(ctx)
    span_name = f"{tier}.request"
    loop = OpenLoop(_submitter(server), recorder=ctx.recorder,
                    request_span=span_name)
    block = inputs.block_size(inputs.SERVE_BLOCK)
    n = max(100, round(ctx.seconds * FIXED_PER_S / block) * block)

    # Warm-up on fresh inputs, then the fixed-rate phase.
    offsets, mix = _schedule(ctx.seed, "warmup", 0, RATE, 2 * block)
    loop.run(offsets, [m for _, _, m in mix])
    offsets, mix = _schedule(ctx.seed, "measure", 0, RATE, n)
    pid = _worker_pid(server)
    requeues0 = _requeues()
    # The fixed-rate phase runs in segments, each followed by direct calls
    # and LAPACK on its own inputs, so that a served request and its
    # direct base are timed seconds apart, on the same machine state.
    outcomes, direct, refs = [], [], []
    wall = cpu = worker_cpu = busy_span = send_span = 0.0
    t0 = time.perf_counter()
    for seg in np.array_split(np.arange(n), SEGMENTS):
        worker_cpu0 = proc_cpu_s(pid) if pid else 0.0
        with Timer() as phase:
            outs = loop.run(offsets[seg] - offsets[seg[0]], [mix[i][2] for i in seg])
        wall += phase.wall
        cpu += phase.cpu
        worker_cpu += (proc_cpu_s(pid) - worker_cpu0) if pid else 0.0
        busy_span += max(o.done for o in outs) - outs[0].due
        send_span += outs[-1].sent - outs[0].due
        outcomes += outs
        for i, o in zip(seg, outs):
            cls, shape, a = mix[i]
            ctx.gate.attempted += 1
            with ctx.span("ref.direct"), Timer() as t:
                svd.hestenes_svd(a, max_sweeps=MAX_SWEEPS, compute_uv=True)
            direct.append(t.wall)
            with ctx.span("ref.lapack"):
                s_ref, t_ref = lapack(a)
            refs.append(t_ref)
            with ctx.span("check"), ctx.paused():
                ctx.gate.response(o.response, a, cls, s_ref,
                                  describe(shape, cls, ctx.seed, "measure", int(i)))
    t1 = time.perf_counter()
    verdict = judge(outcomes, limits, RATE)

    ok = [o for o in outcomes if o.status == "ok"]
    lat = [o.latency for o in ok]
    groups = ["large" if m.shape == (32, 32) else "small" for _, _, m in mix]
    ok_groups = [g for g, o in zip(groups, outcomes) if o.status == "ok"]
    rejected = sum(1 for o in outcomes if o.status == "rejected")
    hits = sum(1 for o in ok if o.response.cache_hit)
    ctx.say(f"{tier} fixed phase: {n} Poisson arrivals at {RATE:g} req/s, "
            f"{len(ok)} ok, {rejected} rejected, {hits} cache hits; "
            f"lag tail {verdict.lag_tail * 1e3:.3f} ms; meets objectives: {verdict.ok}")
    if verdict.lag_tail > LAG_LIMIT_SHARE * limits.latency_s:
        ctx.gate.fail("invalid", f"generator lag tail {verdict.lag_tail:.4f} s "
                      f"exceeds {LAG_LIMIT_SHARE:g} of the {limits.latency_s:g} s limit")

    if ctx.trace:
        ctx.window = (t0, t1)
        responses = [o.response for o in ok]
        batch_spans = ctx.recorder.named("core.batch", t0, t1)
        m = layers.busy_and_overhead(responses, batch_spans, wall)
        m["serve.deliver_s"] = layers.mean(o.done - o.sent - o.response.total_s for o in ok)
        m["serve.cache_hit_share"] = hits / len(ok)
        m["loadgen.lag_tail_s"] = verdict.lag_tail
        m["loadgen.offered_rps"] = n / send_span
        if tier == "shard":
            m["shard.transport_s"] = layers.mean(
                r.total_s - r.queued_s - r.service_s for r in responses)
            m["shard.worker_service_s"] = layers.mean(r.service_s for r in responses)
            m["shard.rejected_share"] = rejected / n
            m["shard.requeues"] = _requeues() - requeues0
        ctx.layer_metrics = m
        return

    q, tail = stats.tail(lat)
    ctx.put("latency_p50_s", stats.percentile(lat, 50.0), "s",
            f"p50 of {len(lat)}, due time to done-callback; clearance "
            f"{stats.clearance(lat, ok_groups, 50.0):.2f}")
    ctx.put("latency_tail_s", tail, "s", f"p{q:g} of {len(lat)}; clearance "
            f"{stats.clearance(lat, ok_groups, q):.2f}")
    ctx.put("ops_per_s", len(ok) / busy_span, "1/s",
            f"{len(ok)} completions at the fixed rate")
    ctx.put("x_direct", stats.percentile(lat, 50.0) / stats.percentile(direct, 50.0),
            "ratio", f"served p50 / direct hestenes_svd p50 over the same {n} inputs")
    ctx.put("x_lapack", sum(direct) / sum(refs), "ratio",
            f"sum of {n} direct solves / sum of numpy.linalg.svd")
    ctx.put("cpu_per_op_ms", 1e3 * (cpu + worker_cpu) / n, "ms",
            f"{n} requests; process CPU {cpu:.3f} s + worker CPU {worker_cpu:.3f} s")

    # capacity_rps: bisect over fresh inputs for every probe.
    probes = []

    def probe(rate: float):
        offsets, mix = _schedule(ctx.seed, "probe", len(probes), rate, PROBE_REQUESTS)
        outs = loop.run(offsets, [m for _, _, m in mix], limits=limits)
        v = judge(outs, limits, rate)
        for i, ((cls, shape, a), o) in enumerate(zip(mix, outs)):
            if o.status in ("ok", "timeout", "error"):
                ctx.gate.attempted += 1
                s_ref, _ = lapack(a, repeats=1)
                ctx.gate.response(o.response, a, cls, s_ref,
                                  describe(shape, cls, ctx.seed, f"probe{len(probes)}", i))
        probes.append(v)
        ctx.say(f"  probe {rate:8.3f} req/s: {'pass' if v.ok else 'fail'} "
                f"(sent {v.sent}/{v.planned}, within limit {v.good_share:.3f}, "
                f"admitted {v.admitted_share:.3f}, latency slope {v.slope:+.4f})")
        time.sleep(0.05)
        return v

    direct_rate = len(direct) / sum(direct)
    capacity, _ = search_capacity(probe, BRACKET[0] * direct_rate,
                                  BRACKET[1] * direct_rate, resolution=RESOLUTION)
    ctx.put("capacity_rps", capacity, "1/s",
            f"highest passing rate of {len(probes)} probes x {PROBE_REQUESTS} requests; "
            f"limit: {limits.latency_share:g} within {limits.latency_s:g} s, "
            f"{limits.admitted_share:g} admitted (repro.obs.slo.default_objectives)")
    rss = self_peak_rss_mb()
    note = "this process"
    if pid:
        worker = proc_peak_rss_mb(pid)
        rss += worker
        note += f" + worker {worker:.1f} MB"
    ctx.put("peak_rss_mb", rss, "MB", note)
