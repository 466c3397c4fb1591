"""Seeded inputs for every workload.

Every generator takes a ``numpy.random.Generator`` made by
:func:`stream` from the run's seed and a phase tag, so warm-up, the
measured phase and each capacity probe draw fresh, unique inputs: a
reused input would turn a cache miss into a hit.

The mixes are built from fixed *blocks*: every block holds the same
count of each request class, only the order and the matrix entries
depend on the seed.  Whole blocks keep every reported percentile at
the same place in the class mix from run to run.
"""

from __future__ import annotations

import numpy as np

#: One block of the ``solve`` mix: (ladder class, shape, count).  Sorted
#: by solve time at seed the block is 7 fast solves (96^2 and 256x96,
#: ~0.12 s), 4 mid solves (128^2 and 160^2, ~0.4 s) and 1 graded solve
#: (~0.8 s), so p50 sits 8% inside the fast group and p75 in the middle
#: of the mid group.  Graded 256x96 takes ~5.7 s on the blocked engine,
#: a quarter of a run, so the graded share is a 96^2 square.
SOLVE_BLOCK = (
    ("well_conditioned", (96, 96), 4),
    ("tall", (256, 96), 3),
    ("well_conditioned", (128, 128), 2),
    ("well_conditioned", (160, 160), 2),
    ("graded_1e12", (96, 96), 1),
)

#: Latency groups of the solve mix, used by the class-boundary check.
SOLVE_GROUPS = {(96, 96): "fast", (256, 96): "fast", (128, 128): "mid",
                (160, 160): "mid"}

#: One block of the small served mix: 32x16 and 64x16 cost ~9 ms each
#: as direct calls, 32x32 ~24 ms.  Requests that queue or start on a
#: cold core take up to a third of the small ones, so p50 needs the 90%
#: small share to sit clear of them; the p95 tail falls in the 32x32
#: share.
SERVE_BLOCK = (
    ("tall", (32, 16), 5),
    ("tall", (64, 16), 4),
    ("well_conditioned", (32, 32), 1),
)

_PHASES = {"warmup": 1, "measure": 2, "probe": 3, "setup": 4, "corpus": 5,
           "queries": 6, "writes": 7, "reads": 8}

#: Seed of the open-loop arrival traces.  The traces and the class order
#: of the served mix are fixed; ``--seed`` draws the matrix entries.  A
#: Poisson trace drawn per run would put a different number of requests
#: behind a slow one in every run, and its spread, not the program's,
#: would dominate the run-to-run spread of the served percentiles.
TRACE_SEED = 20140519


def stream(seed: int, phase: str, index: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, phase, index) triple."""
    return np.random.default_rng([int(seed), _PHASES[phase], int(index)])


def graded(rng: np.random.Generator, shape, cond: float = 1e12) -> np.ndarray:
    """Random orthogonal factors around singular values graded 1..1/cond."""
    m, n = shape
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.logspace(0.0, -np.log10(cond), n)) @ v.T


def matrix(rng: np.random.Generator, cls: str, shape) -> np.ndarray:
    """One matrix of a ladder class."""
    if cls == "graded_1e12":
        return graded(rng, shape)
    return rng.standard_normal(shape)


def blocks(rng: np.random.Generator, block, count: int, order=None) -> list:
    """``count`` shuffled blocks: a list of (class, shape, matrix).

    ``order`` shuffles the blocks when given (``rng`` draws the entries).
    """
    order = rng if order is None else order
    out = []
    for _ in range(count):
        kinds = [(cls, shape) for cls, shape, k in block for _ in range(k)]
        for i in order.permutation(len(kinds)):
            cls, shape = kinds[i]
            out.append((cls, shape, matrix(rng, cls, shape)))
    return out


def block_size(block) -> int:
    """Requests in one block of a mix."""
    return sum(k for _, _, k in block)


# ---- LSI corpus -----------------------------------------------------------

VOCABULARY = 150
TOPICS = 6
DOC_WORDS = 40


class Corpus:
    """Synthetic topic-model corpus: each document draws its words from one
    of a few sparse topic distributions over a fixed vocabulary."""

    def __init__(self, seed: int) -> None:
        rng = stream(seed, "corpus")
        self.words = [f"w{i:03d}" for i in range(VOCABULARY)]
        # A tenth of every topic is spread over the whole vocabulary, so
        # every word occurs and every seed's index has the same shape.
        sparse = rng.dirichlet(np.full(VOCABULARY, 0.05), size=TOPICS)
        self.topics = 0.9 * sparse + 0.1 / VOCABULARY
        self._seed = seed

    def documents(self, rng: np.random.Generator, n: int) -> list[str]:
        """``n`` documents of :data:`DOC_WORDS` words each."""
        docs = []
        for _ in range(n):
            topic = self.topics[rng.integers(TOPICS)]
            ids = rng.choice(VOCABULARY, size=DOC_WORDS, p=topic)
            docs.append(" ".join(self.words[i] for i in ids))
        return docs

    def query_pool(self, index, n: int) -> list[np.ndarray]:
        """``n`` distinct term-space query vectors of four indexed topic
        words (distinct, so two pool entries never share a cache key)."""
        rng = stream(self._seed, "queries")
        known = np.array([w in index.tdm.vocabulary for w in self.words])
        pool, seen = [], set()
        while len(pool) < n:
            p = self.topics[rng.integers(TOPICS)] * known
            ids = rng.choice(VOCABULARY, size=4, p=p / p.sum())
            vec = index.tdm.query_vector(" ".join(self.words[i] for i in ids))
            if vec.tobytes() not in seen:
                seen.add(vec.tobytes())
                pool.append(vec.reshape(-1, 1))
        return pool
