"""Jacobi-preconditioned conjugate gradients for SPD systems."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveReport", "solve_spd"]


@dataclass
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)


def solve_spd(A, b, tol=1e-12, max_iter=None, x0=None, context=""):
    """Solve ``A x = b`` for symmetric positive definite ``A``.

    The residual test is relative: iteration stops once
    ``||b - A x|| <= tol * ||b||``.  Deterministic for fixed inputs.

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
        return np.zeros(n), SolveReport(0, 0.0, True, [0.0])

    diag = np.asarray(A.diagonal(), dtype=np.float64)
    if (diag <= 0).any():
        raise ValueError(f"non-positive diagonal entry ({context or 'solve_spd'})")

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - A @ x
    history = [np.sqrt(r @ r) / norm_b]
    if history[0] <= tol:
        return x, SolveReport(0, history[0], True, history)

    z = r / diag
    p = z.copy()
    tmp = np.empty(n)
    rz = r @ z
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise ValueError(
                f"negative curvature at iteration {it} ({context or 'solve_spd'})")
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        res = np.sqrt(r @ r) / norm_b
        history.append(res)
        if res <= tol:
            converged = True
            break
        np.divide(r, diag, out=z)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, SolveReport(it, history[-1], converged, history)
