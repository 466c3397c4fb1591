"""``lsi-update``: LSI reads beside writes on one ``SVDServer``.

A closed loop with one client.  Each round reads :data:`DISTINCT`
queries from a fixed pool, :data:`REPEATED` of them twice, in a seeded
order (the first read of a query misses, the repeat hits the cache),
then sends one ``add_documents`` write that runs the streaming merge
and bumps the index version, so the next round's reads miss again.
Each write is checked against LAPACK on what the merge absorbed: the
index's rank-k factorization before the write beside the new tf-idf
columns.
This is the workload where ``stream`` and ``apps.lsi`` do the work, and
where writes cost reads their cache hits.

A third of the reads hit, so p50 and the tail both fall among misses,
which run the query (``apps.lsi.query``); a hit costs ~50 us of Python
whose run-to-run spread would otherwise set the p50.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

from perfbench import inputs, stats
from perfbench.checks import lapack
from perfbench.common import Context, Timer, nproc, self_peak_rss_mb

MAX_SWEEPS = 30
INDEX = "perfbench"
DOCS = 200
RANK = 16
TOP_K = 5
POOL = 32
DISTINCT = 8
REPEATED = 4
WRITE_DOCS = 5

#: Rounds per second of ``--seconds``: a fixed count, so every run
#: reports its read percentiles over the same number of reads.
ROUNDS_PER_S = 10


class System:
    """The fitted index, its corpus and the server hosting it."""

    def __init__(self, seed: int) -> None:
        from repro.apps.lsi import LsiIndex
        from repro.serve import SVDServer
        from repro.stream.serving import register_index

        self.corpus = inputs.Corpus(seed)
        docs = self.corpus.documents(inputs.stream(seed, "setup"), DOCS)
        self.index = LsiIndex(rank=RANK, engine_opts={"max_sweeps": MAX_SWEEPS})
        t = time.perf_counter()
        self.index.fit(docs)
        self.fit_s = time.perf_counter() - t
        self.tdm_at_fit = self.index.tdm.matrix.copy()
        self.s_at_fit = self.index.singular_values.copy()
        register_index(INDEX, self.index)
        self.server = SVDServer(workers=nproc())
        # One query beyond the pool, so set-up leaves no cached read.
        *self.pool, first = self.corpus.query_pool(self.index, POOL + 1)
        if self.read(first).status != "ok":
            raise RuntimeError("set-up query failed")

    def read(self, vec):
        return self.server.submit(vec, task="lsi_query", index=INDEX,
                                  top_k=TOP_K).result(timeout=60.0)

    def close(self) -> None:
        from repro.stream.serving import unregister_index

        self.server.close()
        unregister_index(INDEX)


def setup(ctx: Context, seed: int) -> System:
    """Corpus, dense fit through the default engine, server, first query."""
    return System(seed)


def _check_write(ctx: Context, index, before: np.ndarray, what: str) -> None:
    """The merged factorization against LAPACK on ``before`` beside the
    write's new columns."""
    new_cols = index.tdm.matrix[:, before.shape[1]:]
    s = index.singular_values
    vt = (index.doc_embeddings / s).T
    ctx.gate.truncation(index.engine, index.term_space, s, vt,
                        np.hstack([before, new_cols]), "wide", what)


def probe_report(system: System) -> dict:
    """The fit against LAPACK on the same matrix, timed back to back."""
    _, t_ref = lapack(system.tdm_at_fit, repeats=21)
    return {"x_lapack": system.fit_s / t_ref}


def run(ctx: Context, system: System) -> None:
    from repro.stream.serving import decode_lsi_hits, index_version

    index = system.index
    # The fit is a dense solve: its leading singular values against LAPACK.
    ctx.gate.attempted += 1
    s_ref, _ = lapack(system.tdm_at_fit, repeats=1)
    fit = SimpleNamespace(method=index.engine, precision="fp64", s=system.s_at_fit,
                          u=None, vt=None, sweeps="?", converged="?")
    ctx.gate.svd(fit, system.tdm_at_fit, "wide", s_ref[:RANK],
                 f"index fit, {DOCS} docs (seed {ctx.seed})")
    rounds = max(20, round(ctx.seconds * ROUNDS_PER_S))
    rng = inputs.stream(ctx.seed, "reads")
    writes = inputs.stream(ctx.seed, "writes")
    reads, read_groups, op_times, cpu, direct = [], [], [], 0.0, []
    hits = misses = invalidated = 0
    answered: dict[int, int] = {}
    t0 = time.perf_counter()
    for r in range(rounds):
        chosen = rng.choice(POOL, size=DISTINCT, replace=False)
        order = rng.permutation(np.concatenate([chosen, chosen[:REPEATED]]))
        version = index_version(INDEX)
        for qid in order:
            qid = int(qid)
            ctx.gate.attempted += 1
            with ctx.span("serve.request"), Timer() as t:
                resp = system.read(system.pool[qid])
            reads.append(t.wall)
            op_times.append(t.wall)
            cpu += t.cpu
            hit = bool(resp.ok and resp.cache_hit)
            read_groups.append("hit" if hit else "miss")
            if hit:
                hits += 1
            else:
                misses += 1
                if qid in answered and answered[qid] != version:
                    invalidated += 1
            answered[qid] = version
            with ctx.span("ref.direct"), ctx.paused(), Timer() as t:
                expected = index.search_vector(system.pool[qid], top_k=TOP_K)
            direct.append(t.wall)
            what = f"round {r} query {qid} (seed {ctx.seed}, index version {version})"
            with ctx.span("check"):
                if resp.ok:
                    ctx.gate.hits(decode_lsi_hits(resp.result), expected, what)
                else:
                    ctx.gate.fail(resp.status, f"{what}: {resp.error}")
        docs = system.corpus.documents(writes, WRITE_DOCS)
        ctx.gate.attempted += 1
        with ctx.span("check"):
            before = index.term_space @ index.doc_embeddings.T
        with Timer() as t:
            index.add_documents(docs)
        op_times.append(t.wall)
        cpu += t.cpu
        with ctx.span("check"):
            _check_write(ctx, index, before,
                         f"round {r} write of {WRITE_DOCS} docs (seed {ctx.seed}, "
                         f"index version {version} -> {index_version(INDEX)})")
    t1 = time.perf_counter()
    n_reads = len(reads)
    ctx.say(f"lsi-update: {rounds} rounds x ({DISTINCT} queries, {REPEATED} read "
            f"twice, + 1 write of {WRITE_DOCS} docs); {hits} hits, {misses} misses, "
            f"{invalidated} invalidated by writes; index {DOCS} -> "
            f"{len(index.tdm.documents)} docs, {index.tdm.matrix.shape[0]} terms, "
            f"rank {RANK}; fit {system.fit_s:.3f} s")
    # Drift from a from-scratch decomposition: each merge is checked
    # exactly, but a rank-k merge discards its tail every round, so the
    # trailing values of a gapless spectrum drift (reported, not gated).
    drift = np.abs(index.singular_values - np.linalg.svd(
        index.tdm.matrix, compute_uv=False)[:RANK])
    ctx.say(f"after {rounds} merges, index singular values against LAPACK on the "
            f"whole matrix: sigma_1 off by {drift[0] / index.singular_values[0]:.2e}, "
            f"worst relative {np.max(drift / index.singular_values):.3f}")
    if ctx.trace:
        ctx.window = (t0, t1)
        ctx.layer_metrics = {
            "apps.lsi.fit_s": system.fit_s,
            "serve.cache_hit_share": hits / n_reads,
            "serve.invalidated_misses": invalidated,
        }
        return
    ops = len(op_times)
    ctx.put("ops_per_s", ops / sum(op_times), "1/s",
            f"{n_reads} reads + {rounds} writes, one closed-loop client")
    ctx.put("capacity_rps", ops / sum(op_times), "1/s",
            "closed loop, one client: the rate it sustains")
    q, tail = stats.tail(reads)
    ctx.put("latency_p50_s", stats.percentile(reads, 50.0), "s",
            f"reads: p50 of {n_reads}; clearance "
            f"{stats.clearance(reads, read_groups, 50.0):.2f}")
    ctx.put("latency_tail_s", tail, "s", f"reads: p{q:g} of {n_reads}; clearance "
            f"{stats.clearance(reads, read_groups, q):.2f}")
    ctx.put("x_direct", stats.percentile(reads, 50.0) / stats.percentile(direct, 50.0),
            "ratio", f"served read p50 / direct LsiIndex.search_vector p50, {n_reads} each")
    ratios = [p["x_lapack"] for p in ctx.probes]
    ctx.put("x_lapack", statistics.median(ratios), "ratio",
            "median over the set-up probes of index fit / numpy.linalg.svd of the "
            f"same {system.tdm_at_fit.shape[0]}x{system.tdm_at_fit.shape[1]} "
            "tf-idf matrix: " + ", ".join(f"{r:.1f}" for r in ratios))
    ctx.put("cpu_per_op_ms", 1e3 * cpu / ops, "ms", f"{ops} operations")
    ctx.put("peak_rss_mb", self_peak_rss_mb(), "MB", "this process")
