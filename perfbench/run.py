"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with benchmark-side spans around each layer's public
calls and prints every per-layer metric instead.  Both check every
result.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report.  The exit code is 0 only when
every operation succeeded and was correct.
"""

from __future__ import annotations

import os
import sys
import time

# Single-threaded BLAS, so LAPACK is the single-threaded baseline and
# the engines get the same machine.  Must precede the numpy import, and
# is inherited by shard workers and set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_BOOT = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: End-to-end metrics, printed by every untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("capacity_rps", "1/s"),
    ("x_lapack", "ratio"),
    ("x_direct", "ratio"),
    ("cpu_per_op_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)

WORKLOADS = ("solve", "serve-small", "shard-small", "lsi-update")


def _module(workload: str):
    from perfbench import lsi, serving, solve

    return {"solve": solve, "serve-small": serving, "shard-small": serving,
            "lsi-update": lsi}[workload]


def _close(system) -> None:
    if system is not None:
        system.close()


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one cold set-up in this process and exit")
    return p.parse_args(argv)


def _program_present() -> bool:
    """Whether ``repro`` imports from this checkout's ``src``."""
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {_ROOT}/src: {exc}",
              file=sys.stderr)
        return False
    src = os.path.join(_ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    """Run one workload; on every way out, stop what it started."""
    import signal

    from perfbench import procs

    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = _main(argv)
    finally:
        stopped = procs.stop_all()
        if not stopped:
            print(f"error: children still running: {procs.children()}",
                  file=sys.stderr)
    return code if stopped else 1


def _main(argv) -> int:
    import json
    from pathlib import Path

    args = _parse(argv)
    if not _program_present():
        return 2
    from perfbench.checks import Gate, ladder
    from perfbench.common import Context, environment, setup_probes
    from statistics import median

    ctx = Context(root=Path(_ROOT), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), gate=Gate({}))
    module = _module(args.workload)
    if args.setup_probe:
        system = module.setup(ctx, args.seed)
        report = {"setup_s": time.perf_counter() - _BOOT}
        if hasattr(module, "probe_report"):
            report.update(module.probe_report(system))
        _close(system)
        print(json.dumps(report))
        return 0
    try:
        ctx.gate.table = ladder()
    except ImportError as exc:
        print(f"error: cannot read the tolerance ladder: {exc}", file=sys.stderr)
        return 2

    ctx.say(environment())
    if ctx.trace:
        return _traced(ctx, module)
    ctx.probes = setup_probes(ctx)
    system = module.setup(ctx, args.seed)
    try:
        module.run(ctx, system)
    finally:
        _close(system)
    ctx.put("setup_s", median(p["setup_s"] for p in ctx.probes), "s",
            "median of cold set-ups in fresh processes")
    ctx.put("ok_share", 1.0 - ctx.gate.failed_share, "ratio",
            f"failed_share = {ctx.gate.failed_share:.6f}: {ctx.gate.failed} of "
            f"{ctx.gate.attempted} attempted were rejected, timed out, errored or wrong")
    missing = [name for name, _ in END_TO_END if name not in ctx.metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    return _finish(ctx, {name: ctx.metrics[name] for name, _ in END_TO_END})


def _traced(ctx, module) -> int:
    from perfbench import layers, spans

    rec = spans.Recorder()
    ctx.recorder = rec
    layers.install(rec)
    try:
        system = module.setup(ctx, ctx.seed)
        try:
            module.run(ctx, system)
        finally:
            _close(system)
    finally:
        rec.restore()
    t0, t1 = ctx.window
    values = dict.fromkeys((name for name, _, _ in layers.PER_LAYER), 0.0)
    values.update(layers.from_spans(rec, t0, t1))
    values.update(ctx.layer_metrics)
    out_dir = ctx.root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rec.dump(out_dir / f"spans-{ctx.workload}-{ctx.seed}.jsonl")
    own = sum(values[f"self.{name}_s"] for name in layers.SPAN_NAMES)
    ctx.say(f"trace: wall {t1 - t0:.4f} s = self times {own:.4f} s + "
            f"unattributed {values['trace.unattributed_s']:.4f} s; "
            f"{len(rec.spans)} spans; recorder's own work "
            f"{rec.overhead(t0, t1):.4f} s")
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        metrics[name] = (float(values[name]), unit)
        ctx.say(f"{name} = {values[name]:.6g} {unit}")
    return _finish(ctx, metrics)


def _finish(ctx, metrics: dict) -> int:
    import json
    import math

    gate = ctx.gate
    for failure in gate.failures:
        ctx.say(f"FAILED {failure}")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    correct = gate.failed == 0
    for line in ctx.lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
