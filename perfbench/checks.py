"""Correctness gate: every result checked against LAPACK or a direct call.

Solve and served results are judged by their error against
``numpy.linalg.svd``, within the bound that the repository's
differential ladder (``TOLERANCE_CLASSES`` in
``tests/core/test_differential.py``) gives the engine that ran, at its
precision, on the input's matrix class.  ``converged`` is not
consulted: an engine may stop at its sweep budget with a result well
inside its class.  A streaming merge's rank-k result is judged against
LAPACK on the matrix the merge absorbed.  LSI hit lists are compared
with a direct ``LsiIndex.search_vector`` call on the same index version.

Every failure is kept with a description of its input, so a failing
run names what failed instead of dropping it from the mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


def ladder() -> dict:
    """The repository's tolerance table, read from its differential tests."""
    from tests.core.test_differential import TOLERANCE_CLASSES

    return dict(TOLERANCE_CLASSES)


def lapack(a: np.ndarray, repeats: int = 3) -> tuple[np.ndarray, float]:
    """LAPACK singular values of ``a`` and the median time of an economy
    ``numpy.linalg.svd`` with vectors (the engines' own output form)."""
    times = []
    s = None
    for _ in range(repeats):
        t = time.perf_counter()
        _, s, _ = np.linalg.svd(a, full_matrices=False)
        times.append(time.perf_counter() - t)
    return s, sorted(times)[len(times) // 2]


@dataclass
class Gate:
    """Counts attempts and keeps every failure with its input."""

    table: dict
    attempted: int = 0
    failures: list = field(default_factory=list)
    max_error: float = 0.0

    def fail(self, kind: str, detail: str) -> None:
        """Record a failed operation (rejected, timeout, error, wrong)."""
        self.failures.append(f"{kind}: {detail}")

    def svd(self, result, a: np.ndarray, cls: str, s_ref: np.ndarray,
            what: str) -> bool:
        """Check one decomposition; ``what`` names the input on failure."""
        key = (result.method, result.precision, cls)
        bound = self.table.get(key)
        if bound is None:
            self.fail("wrong", f"{what}: no ladder cell for {key}")
            return False
        scale = max(float(s_ref[0]), np.finfo(float).tiny)
        err = float(np.max(np.abs(result.s - s_ref)) / scale)
        if result.u is not None and result.vt is not None:
            recon = (result.u * result.s) @ result.vt
            err = max(err, float(np.linalg.norm(a - recon) / np.linalg.norm(a)))
        self.max_error = max(self.max_error, err / bound)
        if not err < bound:
            self.fail("wrong", f"{what}: error {err:.3e} >= bound {bound:g} "
                      f"for {key} (sweeps={result.sweeps}, "
                      f"converged={result.converged})")
            return False
        return True

    def truncation(self, method: str, u, s, vt, m: np.ndarray, cls: str,
                   what: str) -> bool:
        """Check a rank-k factorization ``u * s @ vt`` of ``m``.

        It must be a best rank-k approximation: its singular values are
        LAPACK's leading ``k`` of ``m``, and its residual has the
        Frobenius norm of LAPACK's discarded tail.  Both errors are
        relative (to the largest singular value, to ``||m||``) and must
        stay within the ladder cell of ``method`` at fp64 on ``cls``.
        """
        key = (method, "fp64", cls)
        bound = self.table.get(key)
        if bound is None:
            self.fail("wrong", f"{what}: no ladder cell for {key}")
            return False
        if np.shape(u)[0] != m.shape[0] or np.shape(vt)[1] != m.shape[1]:
            self.fail("wrong", f"{what}: factors {np.shape(u)} and {np.shape(vt)} "
                      f"do not span the {m.shape} matrix")
            return False
        s_ref = np.linalg.svd(m, compute_uv=False)
        k = len(s)
        err_s = float(np.max(np.abs(s - s_ref[:k])) / s_ref[0])
        residual = float(np.linalg.norm(m - (u * s) @ vt))
        err_r = abs(residual - float(np.linalg.norm(s_ref[k:]))) / float(np.linalg.norm(m))
        err = max(err_s, err_r)
        self.max_error = max(self.max_error, err / bound)
        if not err < bound:
            self.fail("wrong", f"{what}: rank-{k} singular values off by {err_s:.3e}, "
                      f"residual off by {err_r:.3e}; bound {bound:g} for {key}")
            return False
        return True

    def response(self, response, a: np.ndarray, cls: str, s_ref, what: str) -> bool:
        """Check one served response: status first, then the result."""
        if response is None or response.status != "ok":
            status = "timeout" if response is None else response.status
            error = "" if response is None else f" ({response.error})"
            self.fail(status, f"{what}{error}")
            return False
        return self.svd(response.result, a, cls, s_ref, what)

    def hits(self, got, expected, what: str) -> bool:
        """Compare an LSI hit list with the direct call's."""
        same = (len(got) == len(expected)
                and all(g[0] == e[0] and abs(g[1] - e[1]) <= 1e-12 * max(1.0, abs(e[1]))
                        for g, e in zip(got, expected)))
        if not same:
            self.fail("wrong", f"{what}: served {got} != direct {expected}")
        return same

    @property
    def failed(self) -> int:
        """Failed operations so far."""
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        """Failed ÷ attempted (0 before any attempt)."""
        return self.failed / self.attempted if self.attempted else 0.0


def describe(shape, cls: str, seed: int, phase: str, index: int) -> str:
    """How to regenerate one input."""
    return (f"{cls} {shape[0]}x{shape[1]} (seed {seed}, phase {phase}, "
            f"input {index})")
