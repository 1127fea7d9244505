"""Preconditioned conjugate gradients for SPD systems (Jacobi by default),
and the CSR matrix-vector product they share with the multigrid cycle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

__all__ = ["SolveReport", "solve_spd", "csr_matvec"]


def csr_matvec(A, x, out):
    """``A @ x`` for a float64 CSR matrix ``A``, written into the caller's
    float64 buffer ``out`` and returned.

    It calls the kernel behind scipy's ``A @ x`` (``csr_matvec`` of
    ``scipy.sparse._sparsetools``, which adds ``A x`` to its output), so the
    bits are the same, without the per-call dispatch and the fresh output
    array.  The kernel checks no sizes, so they are checked here.

    Raises
    ------
    ValueError
        If ``A`` is not CSR or the lengths of ``x`` and ``out`` do not fit
        it.
    """
    if A.format != "csr" or (len(out), len(x)) != A.shape:
        raise ValueError(f"csr_matvec needs a CSR matrix and fitting "
                         f"vectors, got {A.format} {A.shape}, "
                         f"{len(x)} and {len(out)} entries")
    out.fill(0.0)
    _sparsetools.csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices,
                            A.data, x, out)
    return out


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def solve_spd(A, b, tol=1e-12, max_iter=None, x0=None, context="",
              precond=None):
    """Solve ``A x = b`` for a symmetric positive definite CSR matrix ``A``.

    The residual test is relative: iteration stops once
    ``||b - A x|| <= tol * ||b||``.  Deterministic for fixed inputs.
    ``precond`` maps a residual ``r`` to ``B r`` for a symmetric positive
    definite ``B`` that approximates the inverse of ``A``; the default is
    Jacobi, ``r / diag(A)``.

    Raises
    ------
    ValueError
        If negative curvature ``p . A p <= 0`` is encountered (the matrix is
        not positive definite); the message names ``context``.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if max_iter is None:
        max_iter = max(100, 10 * n)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    diag = np.asarray(A.diagonal(), dtype=np.float64)
    if (diag <= 0).any():
        raise ValueError(f"non-positive diagonal entry ({context or 'solve_spd'})")

    if precond is None:
        precond = lambda r: r / diag        # noqa: E731  (Jacobi)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    res = np.sqrt(r @ r) / norm_b
    if res <= tol:
        return x, SolveReport(0, res, True)

    z = precond(r)
    p = z.copy()
    Ap = np.empty(n)
    tmp = np.empty(n)
    rz = r @ z
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        csr_matvec(A, p, Ap)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise ValueError(
                f"negative curvature at iteration {it} ({context or 'solve_spd'})")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        res = np.sqrt(r @ r) / norm_b
        if res <= tol:
            converged = True
            break
        z = precond(r)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, SolveReport(it, res, converged)
