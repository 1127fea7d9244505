"""Implicit time stepping of the damped anti-plane wave equation.

Given the damage field ``v`` frozen at its latest iterate, one step solves

    (varrho/k^2) M u + (mu + eta/k) A(a) u
        = (varrho/k^2) M u_old + (varrho/k) M du_old + (eta/k) A(a) u_old + M f

with the degradation coefficient ``a = (1 - kappa) v^2 + kappa`` entering
the stiffness, and Dirichlet data applied on the loaded boundary parts.
The system matrix is symmetric positive definite for any admissible data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import FeFunction, apply_dirichlet, assemble_stiffness, unit_mass
from .fem import assemble_mass  # noqa: F401  (a perfbench/tracer.py site)
from .linsolve import solve_spd

__all__ = [
    "MaterialParams",
    "LoadingParams",
    "DynamicState",
    "init_state",
    "degradation",
    "step_displacement",
    "boundary_ramp",
]


@dataclass
class MaterialParams:
    """Physical and numerical constants of the coupled model.

    The phase-field coefficients are derived, never stored: the gradient
    weight is ``2 * lambda_c * epsilon / c_w`` and the source weight is
    ``lambda_c / (c_w * epsilon)``, so they always track ``epsilon``.
    """

    mu: float = 1.0            # shear modulus
    varrho: float = 1.0        # mass density
    eta: float = 1.0           # viscosity
    kappa: float = 1e-10       # bulk regularization
    lambda_c: float = 1.0      # critical energy release rate
    c_w: float = 8.0 / 3.0     # surface-energy normalization constant
    epsilon: float = 0.1       # regularization length scale

    def __post_init__(self):
        for name in ("mu", "varrho", "kappa", "lambda_c", "c_w", "epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.kappa >= 1:
            raise ValueError("kappa must be small (< 1)")

    @property
    def rho_pf(self):
        return 2.0 * self.lambda_c * self.epsilon / self.c_w

    @property
    def nu_pf(self):
        return self.lambda_c / (self.c_w * self.epsilon)


@dataclass
class LoadingParams:
    """Anti-plane boundary ramp: quadratic start, then linear growth."""

    eps_v: float = 0.9
    t_s: float = 0.5
    t_g: float = 5.0

    def __post_init__(self):
        if self.t_s <= 0 or self.t_g < self.t_s:
            raise ValueError("need 0 < t_s <= t_g")


def boundary_ramp(t, loading):
    """Scalar loading magnitude g0(t)."""
    if t < 0 or t > loading.t_g:
        raise ValueError(f"time {t} outside the loading window [0, {loading.t_g}]")
    if t <= loading.t_s:
        return loading.eps_v * t * t / (2.0 * loading.t_s)
    return loading.eps_v * t - loading.eps_v * loading.t_s / 2.0


@dataclass
class DynamicState:
    """One snapshot of the staggered evolution.

    ``u_curr`` and ``du`` are the displacement and its backward difference at
    time index ``n``; ``u_prev`` is the displacement one step back.  All
    fields are bound to ``mesh``.
    """

    n: int
    u_prev: FeFunction
    u_curr: FeFunction
    du: FeFunction
    v: FeFunction
    crack: "CrackSet"
    mesh: "Mesh"

    def check(self):
        for f in (self.u_prev, self.u_curr, self.du, self.v):
            f.check_bound(self.mesh)
        if (self.v.values < 0).any() or (self.v.values > 1).any():
            raise ValueError("damage field out of [0, 1]")


def init_state(mesh, u0, u1, k1):
    """Starting snapshot: u at index 1 is the Taylor extrapolation
    ``u0 + k1 * u1``, the damage field is 1 everywhere, no crack dofs."""
    from .phasefield import CrackSet
    u0.check_bound(mesh)
    u1.check_bound(mesh)
    if k1 <= 0:
        raise ValueError("k1 must be positive")
    u_prev = FeFunction(u0.values.copy(), mesh.generation)
    du = FeFunction(u1.values.copy(), mesh.generation)
    u_curr = FeFunction(u0.values + k1 * u1.values, mesh.generation)
    v = FeFunction.constant(mesh, 1.0)
    return DynamicState(n=1, u_prev=u_prev, u_curr=u_curr, du=du, v=v,
                        crack=CrackSet.empty(mesh), mesh=mesh)


def degradation(v, params):
    """Nodal stiffness multiplier (1 - kappa) v^2 + kappa."""
    vals = (1.0 - params.kappa) * v.values ** 2 + params.kappa
    return FeFunction(vals, v.generation)


def step_displacement(state, k, g_values, f=None, params=None, v=None,
                      tol=1e-12, max_iter=None, debug_checks=False):
    """Advance the displacement one implicit step of size ``k``.

    ``v`` overrides the damage field used for the degradation coefficient
    (the staggered loop passes its latest iterate); by default the state's
    own field is used.  Returns ``(u_new, reactions)``: the reactions are
    the residual ``S u_new - rhs`` of the system before the Dirichlet rows
    are imposed.  After the step the caller owns the update
    ``du = (u_new - u_old) / k``.
    """
    if k <= 0:
        raise ValueError("time step must be positive")
    mesh = state.mesh
    v_eff = state.v if v is None else v
    v_eff.check_bound(mesh)
    mp = params

    M = unit_mass(mesh)
    A = assemble_stiffness(mesh, degradation(v_eff, mp))
    # M and A share the mesh's pattern, so S is a sum of their data arrays
    S = sp.csr_matrix(((mp.varrho / k ** 2) * M.data
                       + (mp.mu + mp.eta / k) * A.data, A.indices, A.indptr),
                      shape=A.shape)

    u_old = state.u_curr.values
    du_old = state.du.values
    rhs = (mp.varrho / k ** 2) * (M @ u_old) + (mp.varrho / k) * (M @ du_old) \
        + (mp.eta / k) * (A @ u_old)
    if f is not None:
        f.check_bound(mesh)
        rhs = rhs + M @ f.values

    if debug_checks:
        asym = abs(S - S.T)
        if asym.data.size and asym.data.max() > 1e-10 * abs(S).data.max():
            raise AssertionError("wave system matrix is not symmetric")
        w = np.random.default_rng(0).standard_normal(S.shape[0])
        if w @ (S @ w) <= 0:
            raise AssertionError("wave system matrix is not positive definite")

    Sc, rhsc = apply_dirichlet(S, rhs, g_values)
    x, report = solve_spd(Sc, rhsc, tol=tol, max_iter=max_iter, x0=u_old,
                          context=f"wave step n={state.n + 1}")
    if not report.converged:
        raise RuntimeError(
            f"wave solve failed to converge at step n={state.n + 1} "
            f"(residual {report.relative_residual:.3e})")
    return FeFunction(x, mesh.generation), S @ x - rhs
