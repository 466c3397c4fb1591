"""Percentiles the sample can support, and where they sit in the class mix.

A percentile is printed only when at least :data:`MIN_BEYOND` samples
lie beyond it: with fewer, one slow sample moves it.  Percentiles are
nearest-rank (always an observed sample, no interpolation), and the
tail metric is the highest rung of :data:`RUNGS` the sample supports.
"""

from __future__ import annotations

import math
import statistics

#: Percentile ladder for the tail metric, lowest first.
RUNGS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a printed percentile.
MIN_BEYOND = 10


class Unsupported(ValueError):
    """The sample is too small for the requested percentile."""


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n`` samples."""
    # Round first so 99.9 * 1000 / 100 does not become 999.0000000000001.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def beyond(n: int, q: float) -> int:
    """Samples strictly above the rank of percentile ``q``."""
    return n - rank(n, q)


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support percentile ``q``."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; raises :class:`Unsupported` when too few."""
    values = sorted(samples)
    if not supports(len(values), q):
        raise Unsupported(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                          f"{len(values)} samples leave "
                          f"{beyond(len(values), q) if values else 0}")
    return values[rank(len(values), q) - 1]


def tail(samples) -> tuple[float, float]:
    """``(q, value)`` for the highest rung of :data:`RUNGS` the sample supports."""
    supported = [q for q in RUNGS if supports(len(samples), q)]
    if not supported:
        raise Unsupported(f"{len(samples)} samples support no percentile")
    return supported[-1], percentile(samples, supported[-1])


def clearance(samples, groups, q: float) -> float:
    """Distance, as a share of the sample, from percentile ``q`` to the
    nearest boundary between request classes.

    ``groups[i]`` labels ``samples[i]`` with its request class (shape
    group, hit or miss).  Classes are laid end to end in the order of
    their medians, each taking its share of the sample; a boundary is
    where one ends.  A percentile near a boundary moves a whole class
    when a few samples change class, so the workloads' mixes are built
    to keep this distance large.
    """
    by_group: dict = {}
    for value, group in zip(samples, groups):
        by_group.setdefault(group, []).append(value)
    order = sorted(by_group, key=lambda g: statistics.median(by_group[g]))
    edges, seen = [], 0
    for group in order[:-1]:
        seen += len(by_group[group])
        edges.append(seen / len(samples))
    return min((abs(q / 100.0 - e) for e in edges), default=1.0)

