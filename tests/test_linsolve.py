"""Preconditioned CG solver contract."""

import numpy as np
import pytest
import scipy.sparse as sp

from fracture_afem.linsolve import solve_spd


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return sp.csr_matrix(B.T @ B + n * np.eye(n)), rng.standard_normal(n)


def test_identity_one_iteration():
    A = sp.eye(10, format="csr")
    b = np.arange(1.0, 11.0)
    x, rep = solve_spd(A, b)
    assert np.allclose(x, b)
    assert rep.iterations <= 1
    assert rep.converged


def test_zero_rhs():
    A = sp.eye(5, format="csr")
    x, rep = solve_spd(A, np.zeros(5))
    assert np.allclose(x, 0.0)
    assert rep.iterations == 0
    assert rep.converged


def test_matches_dense_oracle():
    A, b = random_spd(50, 11)
    x, rep = solve_spd(A, b, tol=1e-12)
    x_ref = np.linalg.solve(A.toarray(), b)   # dense Gaussian elimination
    assert rep.converged
    assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)


def test_converged_flag_implies_tolerance():
    A, b = random_spd(30, 12)
    x, rep = solve_spd(A, b, tol=1e-10)
    assert rep.converged
    assert rep.relative_residual <= 1e-10
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_error_anorm_monotone():
    # the k-th CG iterate is the result of a run stopped after k iterations
    A, b = random_spd(40, 13)
    _, rep = solve_spd(A, b, tol=1e-13)
    iterates = [np.zeros(len(b))] + [
        solve_spd(A, b, tol=1e-13, max_iter=k)[0]
        for k in range(1, rep.iterations + 1)]
    x_ref = np.linalg.solve(A.toarray(), b)
    Ad = A.toarray()
    errs = [np.sqrt((xi - x_ref) @ Ad @ (xi - x_ref)) for xi in iterates]
    assert len(errs) > 2
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 <= e0 * (1 + 1e-12)


def test_negative_curvature_rejected():
    A = sp.csr_matrix(np.diag([1.0, 1.0, -1.0]) + 0.01)
    with pytest.raises(ValueError, match="curvature|diagonal"):
        solve_spd(A, np.ones(3), context="indefinite fixture")


def test_nonconvergence_reported_not_raised():
    A, b = random_spd(60, 14)
    x, rep = solve_spd(A, b, tol=1e-14, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.residual_history[0] >= rep.relative_residual


def test_warm_start_deterministic():
    A, b = random_spd(25, 15)
    x1, _ = solve_spd(A, b)
    x2, _ = solve_spd(A, b)
    assert np.array_equal(x1, x2)
    x3, rep3 = solve_spd(A, b, x0=x1)
    assert rep3.iterations == 0


def test_tol_validation():
    A = sp.eye(3, format="csr")
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(3), tol=0.0)
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(3), tol=1.5)
