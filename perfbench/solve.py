"""``solve``: one caller, no server, direct ``hestenes_svd`` calls.

A closed loop over whole blocks of :data:`perfbench.inputs.SOLVE_BLOCK`
on the default engine, fp64, ``compute_uv=True`` and the ladder's
``max_sweeps=30`` budget.  All of the time is in ``core`` sweeps and
rounds; the serving tier is bypassed.
"""

from __future__ import annotations

import time

from perfbench import inputs, stats
from perfbench.checks import describe, lapack
from perfbench.common import Context, Timer, self_peak_rss_mb

MAX_SWEEPS = 30

#: Seconds one block takes at seed on a 2-core machine; ``--seconds``
#: buys ``seconds / BLOCK_S`` blocks (at least 2).
BLOCK_S = 3.3


def setup(ctx: Context, seed: int):
    """Cold start of a direct caller: the first solve."""
    import repro.core.svd as svd

    a = inputs.stream(seed, "setup").standard_normal((32, 32))
    svd.hestenes_svd(a, max_sweeps=MAX_SWEEPS)
    return None


def _engine_direct(a, method: str):
    """The registered engine function without the ``hestenes_svd`` layer
    (option validation and the numerical-health check)."""
    from repro.core.convergence import ConvergenceCriterion
    from repro.core.registry import resolve_engine

    spec = resolve_engine(method)
    opts = {k: v for k, v in (("rotation_impl", "textbook"),
                              ("track_columns", "first_sweep"),
                              ("precision", "fp64"))
            if k in spec.options_schema}
    return spec.fn(a, compute_uv=True,
                   criterion=ConvergenceCriterion(max_sweeps=MAX_SWEEPS),
                   ordering="cyclic", seed=None, **spec.validate_options(opts))


def run(ctx: Context, _system) -> None:
    import repro.core.svd as svd

    count = max(2, round(ctx.seconds / BLOCK_S))
    mix = inputs.blocks(inputs.stream(ctx.seed, "measure"),
                        inputs.SOLVE_BLOCK, count)
    for cls, shape, a in inputs.blocks(inputs.stream(ctx.seed, "warmup"),
                                       inputs.SOLVE_BLOCK, 1)[:3]:
        svd.hestenes_svd(a[:24, :24], max_sweeps=MAX_SWEEPS)
    k = inputs.block_size(inputs.SOLVE_BLOCK)
    times, cpus, refs, groups, methods, direct = [], [], [], [], [], []
    t0 = time.perf_counter()
    for i, (cls, shape, a) in enumerate(mix):
        ctx.gate.attempted += 1
        with Timer() as t:
            res = svd.hestenes_svd(a, max_sweeps=MAX_SWEEPS, compute_uv=True)
        times.append(t.wall)
        cpus.append(t.cpu)
        if i < k and not ctx.trace:
            # x_direct: the same matrix through the bare registered engine.
            with Timer() as t:
                _engine_direct(a, res.method)
            direct.append(t.wall)
        groups.append(inputs.SOLVE_GROUPS.get(shape, "graded")
                      if cls != "graded_1e12" else "graded")
        methods.append(res.method)
        with ctx.span("ref.lapack"):
            s_ref, t_ref = lapack(a)
        refs.append(t_ref)
        with ctx.span("check"), ctx.paused():
            ctx.gate.svd(res, a, cls, s_ref,
                         describe(shape, cls, ctx.seed, "measure", i))
    t1 = time.perf_counter()
    n = len(times)
    ctx.say(f"solve: {count} blocks x {inputs.block_size(inputs.SOLVE_BLOCK)} "
            f"= {n} solves, engine {sorted(set(methods))}, max_sweeps={MAX_SWEEPS}")
    if ctx.trace:
        ctx.window = (t0, t1)
        return
    ctx.put("ops_per_s", n / sum(times), "1/s", f"{n} solves")
    ctx.put("capacity_rps", n / sum(times), "1/s",
            "closed loop, one caller: the rate it sustains")
    p50 = stats.percentile(times, 50.0)
    q, tail = stats.tail(times)
    ctx.put("latency_p50_s", p50, "s", f"p50 of {n}; clearance "
            f"{stats.clearance(times, groups, 50.0):.2f}")
    ctx.put("latency_tail_s", tail, "s", f"p{q:g} of {n}; clearance "
            f"{stats.clearance(times, groups, q):.2f}")
    ctx.put("x_lapack", sum(times) / sum(refs), "ratio",
            f"sum of {n} solves / sum of numpy.linalg.svd on the same matrices; "
            f"LAPACK sum {sum(refs):.4f} s")
    ctx.put("cpu_per_op_ms", 1e3 * sum(cpus) / n, "ms", f"{n} solves")
    ctx.put("x_direct", sum(times[:k]) / sum(direct), "ratio",
            f"hestenes_svd / registered engine function, sum over {k} solves")
    ctx.put("peak_rss_mb", self_peak_rss_mb(), "MB", "this process")
