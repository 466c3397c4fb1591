"""Per-layer metrics of the traced run, and the wrappers that feed them.

Each wrapper records a span around one public entry point of a layer:

=====================  ==================================================
span                   entry point
=====================  ==================================================
core.solve             ``repro.core.svd.hestenes_svd``
core.batch             ``repro.core.batch.batch_svd`` (also as imported
                       by ``repro.serve.retry``, the server's caller)
serve.submit           ``repro.serve.SVDServer.submit``
shard.submit           ``repro.serve.shard.ShardedSVDServer.submit``
stream.absorb          ``repro.stream.merge.StreamingMerger.absorb_block``
stream.consume         ``repro.stream.merge.StreamingMerger.consume``
apps.lsi.fit           ``repro.apps.lsi.LsiIndex.fit``
apps.lsi.add_documents ``repro.apps.lsi.LsiIndex.add_documents``
apps.lsi.query         ``repro.apps.lsi.LsiIndex.search_vector``
=====================  ==================================================

The benchmark's own code adds ``serve.request`` / ``shard.request``
(due time to done-callback), ``loadgen.lag``, ``ref.lapack``,
``ref.direct`` and ``check`` spans.  Shard workers are separate
processes, so ``core.*`` spans exist only for in-process solves; the
shard tier's split comes from the worker-reported response fields.

The request spans are *waits* (:func:`perfbench.spans.self_times`):
their client only waits while the server's threads run ``core.batch``
or ``apps.lsi.query`` spans, which have no parent on those threads, so
the request's self time is what no wrapped layer covers (queueing,
dispatch and delivery), and the work spans keep all of theirs.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench import spans

#: Span names whose self time is reported as ``self.<name>_s``.
SPAN_NAMES = (
    "core.solve", "core.batch", "serve.request", "serve.submit",
    "shard.request", "shard.submit", "apps.lsi.fit", "apps.lsi.add_documents",
    "apps.lsi.query", "stream.absorb", "stream.consume", "ref.lapack",
    "ref.direct", "loadgen.lag", "check",
)

#: Spans whose client only waits for a response.
WAIT_SPANS = ("serve.request", "shard.request")

#: Every per-layer metric: (name, unit, better).  A traced run prints
#: all of them on every workload; a metric whose layer the workload
#: does not reach reads 0.
PER_LAYER = (
    ("core.solve_s", "s", "lower"),
    ("core.round_s", "s", "lower"),
    ("core.sweeps", "count", "lower"),
    ("core.rotations", "count", "lower"),
    ("core.batch_s", "s", "lower"),
    ("core.batch_size", "count", "higher"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.service_s", "s", "lower"),
    ("serve.dispatch_overhead_s", "s", "lower"),
    ("serve.deliver_s", "s", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.busy_share", "ratio", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.invalidated_misses", "count", "lower"),
    ("shard.submit_s", "s", "lower"),
    ("shard.transport_s", "s", "lower"),
    ("shard.worker_service_s", "s", "lower"),
    ("shard.rejected_share", "ratio", "lower"),
    ("shard.requeues", "count", "lower"),
    ("apps.lsi.fit_s", "s", "lower"),
    ("apps.lsi.add_documents_s", "s", "lower"),
    ("apps.lsi.query_s", "s", "lower"),
    ("stream.absorb_s", "s", "lower"),
    ("stream.consume_s", "s", "lower"),
    ("ref.lapack_s", "s", "lower"),
    ("ref.direct_s", "s", "lower"),
    ("loadgen.lag_tail_s", "s", "lower"),
    ("loadgen.offered_rps", "1/s", "higher"),
    ("obs.trace_overhead_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
) + tuple((f"self.{name}_s", "s", "lower") for name in SPAN_NAMES)


#: What each per-layer metric should move: (end-to-end metric and the
#: workload where it should move it, workload where it should not).
#: BENCHMARK.json's metric entries have a fixed set of keys, so the
#: pairing is recorded here.
MOVES = {
    "core.solve_s": ("x_lapack, ops_per_s on solve", "lsi-update reads"),
    "core.round_s": ("x_lapack, ops_per_s on solve", "lsi-update reads"),
    "core.sweeps": ("ops_per_s on solve (exact count)", "any serve-side change"),
    "core.rotations": ("ops_per_s on solve (exact count)", "any serve-side change"),
    "core.batch_s": ("x_direct, capacity_rps on serve-small", "solve"),
    "core.batch_size": ("x_direct, capacity_rps on serve-small", "solve"),
    "serve.submit_s": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.queue_wait_s": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.service_s": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.dispatch_overhead_s": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.deliver_s": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.batch_size_mean": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.busy_share": ("latency_p50_s, capacity_rps on serve-small", "solve"),
    "serve.cache_hit_share": ("ops_per_s, cpu_per_op_ms on lsi-update",
                              "serve-small, shard-small (always 0)"),
    "serve.invalidated_misses": ("ops_per_s, cpu_per_op_ms on lsi-update",
                                 "serve-small, shard-small (always 0)"),
    "shard.submit_s": ("x_direct, latency_tail_s on shard-small", "serve-small"),
    "shard.transport_s": ("x_direct, latency_tail_s on shard-small", "serve-small"),
    "shard.worker_service_s": ("x_direct, latency_tail_s on shard-small", "serve-small"),
    "shard.rejected_share": ("x_direct, latency_tail_s on shard-small", "serve-small"),
    "shard.requeues": ("x_direct, latency_tail_s on shard-small", "serve-small"),
    "apps.lsi.fit_s": ("setup_s on lsi-update", "solve"),
    "apps.lsi.add_documents_s": ("ops_per_s on lsi-update", "solve"),
    "stream.absorb_s": ("ops_per_s on lsi-update", "solve"),
    "stream.consume_s": ("ops_per_s of streaming callers (0 here: add_documents "
                         "absorbs one block directly)", "every workload"),
    "apps.lsi.query_s": ("latency_p50_s on lsi-update", "solve"),
    "ref.lapack_s": ("base of x_lapack", "nothing in the program moves it"),
    "ref.direct_s": ("base of x_direct", "serve-side changes"),
    "loadgen.lag_tail_s": ("validity of open-loop latencies", "program changes"),
    "loadgen.offered_rps": ("validity of open-loop latencies", "program changes"),
    "obs.trace_overhead_share": ("seconds the recorder spent per traced second",
                                 "program changes"),
    "trace.wall_s": ("window the self times split", "—"),
    "trace.unattributed_s": ("idle or benchmark time outside every span", "—"),
}


def _rounds_per_sweep(shape) -> int:
    k = min(shape)
    return k - 1 if k % 2 == 0 else k


def _describe_solve(args, kwargs, result) -> dict:
    rotations = sum(result.trace.rotations) if result.trace is not None else 0
    return {"sweeps": result.sweeps, "rotations": rotations,
            "rounds": result.sweeps * _rounds_per_sweep(np.shape(args[0]))}


def _describe_batch(args, kwargs, result) -> dict:
    return {"size": len(result)}


def install(rec: spans.Recorder) -> None:
    """Wrap every layer entry point listed in the module doc."""
    import repro.core.batch
    import repro.core.svd
    import repro.serve.retry
    from repro.apps.lsi import LsiIndex
    from repro.serve import SVDServer
    from repro.serve.shard import ShardedSVDServer
    from repro.stream.merge import StreamingMerger

    rec.wrap(repro.core.svd, "hestenes_svd", "core.solve", _describe_solve)
    rec.wrap(repro.core.batch, "batch_svd", "core.batch", _describe_batch)
    rec.wrap(repro.serve.retry, "batch_svd", "core.batch", _describe_batch)
    rec.wrap(SVDServer, "submit", "serve.submit")
    rec.wrap(ShardedSVDServer, "submit", "shard.submit")
    rec.wrap(StreamingMerger, "absorb_block", "stream.absorb")
    rec.wrap(StreamingMerger, "consume", "stream.consume")
    rec.wrap(LsiIndex, "fit", "apps.lsi.fit")
    rec.wrap(LsiIndex, "add_documents", "apps.lsi.add_documents")
    rec.wrap(LsiIndex, "search_vector", "apps.lsi.query")


def _duration(s) -> float:
    return s.end - s.start


def mean(values) -> float:
    """Mean, or 0 for a layer the workload does not reach."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def from_spans(rec: spans.Recorder, t0: float, t1: float) -> dict:
    """Core, reference, self-time and overhead metrics of one window."""
    out = {}
    solves = rec.named("core.solve", t0, t1)
    out["core.solve_s"] = mean(_duration(s) for s in solves)
    rounds = sum(s.attrs.get("rounds", 0) for s in solves)
    out["core.round_s"] = (sum(_duration(s) for s in solves) / rounds
                           if rounds else 0.0)
    out["core.sweeps"] = mean(s.attrs.get("sweeps", 0) for s in solves)
    out["core.rotations"] = mean(s.attrs.get("rotations", 0) for s in solves)
    batches = rec.named("core.batch", t0, t1)
    out["core.batch_s"] = mean(_duration(s) for s in batches)
    out["core.batch_size"] = mean(s.attrs.get("size", 0) for s in batches)
    for key, name in (("apps.lsi.add_documents_s", "apps.lsi.add_documents"),
                      ("apps.lsi.query_s", "apps.lsi.query"),
                      ("stream.absorb_s", "stream.absorb"),
                      ("stream.consume_s", "stream.consume"),
                      ("ref.lapack_s", "ref.lapack"),
                      ("ref.direct_s", "ref.direct"),
                      ("serve.submit_s", "serve.submit"),
                      ("shard.submit_s", "shard.submit")):
        out[key] = mean(_duration(s) for s in rec.named(name, t0, t1))
    own, unattributed = spans.self_times(rec.spans, t0, t1, WAIT_SPANS)
    for name in SPAN_NAMES:
        out[f"self.{name}_s"] = own.get(name, 0.0)
    out["trace.wall_s"] = t1 - t0
    out["trace.unattributed_s"] = unattributed
    out["obs.trace_overhead_share"] = rec.overhead(t0, t1) / (t1 - t0)
    unknown = sorted(set(own) - set(SPAN_NAMES))
    if unknown:
        raise RuntimeError(f"spans without a self-time metric: {unknown}")
    return out


def busy_and_overhead(responses, batch_spans, wall: float) -> dict:
    """Serve-side split from response fields and ``core.batch`` spans.

    Every request of a batch reports the batch's ``service_s``, so
    ``service_s / batch_size`` summed over requests is the dispatch
    time summed over batches.
    """
    served = [r for r in responses if r.status == "ok" and not r.cache_hit]
    dispatch = sum(r.service_s / max(r.batch_size, 1) for r in served)
    out = {
        "serve.queue_wait_s": mean(r.queued_s for r in served),
        "serve.service_s": mean(r.service_s for r in served),
        "serve.batch_size_mean": mean(r.batch_size for r in served),
        "serve.busy_share": dispatch / wall if wall > 0 else 0.0,
    }
    if batch_spans:
        out["serve.dispatch_overhead_s"] = (
            dispatch - sum(_duration(s) for s in batch_spans)) / len(batch_spans)
    return out
