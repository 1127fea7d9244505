"""Implicit time stepping of the damped anti-plane wave equation.

Given the damage field ``v`` frozen at its latest iterate, one step solves

    (varrho/k^2) M u + (mu + eta/k) A(a) u
        = (varrho/k^2) M u_old + (varrho/k) M du_old + (eta/k) A(a) u_old + M f

with the degradation coefficient ``a = (1 - kappa) v^2 + kappa`` entering
the stiffness, and Dirichlet data applied on the loaded boundary parts.
The system matrix is symmetric positive definite for any admissible data.

The matrix depends on the mesh, ``k``, the material and ``v`` only, and in
a run these repeat for many solves: ``v`` stays exactly 1 until damage
starts.  So a state keeps the assembled system of its last solve, with its
Dirichlet elimination and its preconditioner, as a :class:`WaveOperator`,
and the next solve on the state with the same inputs reuses it bit for
bit.  Where stiffness dominates the system (see :data:`VCYCLE_RATIO`) the
preconditioner is the multigrid V-cycle of :mod:`.multigrid`, with the
loaded-boundary dofs as pins; elsewhere it is Jacobi.  A rebuilt system
hands the cycle it is given to :func:`~.multigrid.vcycle`, which refits it
on the same mesh and pins, as for the damage solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import (FeFunction, apply_dirichlet, assemble_load,
                  assemble_stiffness, dirichlet_rhs, unit_mass)
from .fem import assemble_mass  # noqa: F401  (a perfbench/tracer.py site)
from .linsolve import solve_spd
from .multigrid import vcycle

__all__ = [
    "MaterialParams",
    "LoadingParams",
    "DynamicState",
    "WaveOperator",
    "init_state",
    "degradation",
    "step_displacement",
    "boundary_ramp",
    "VCYCLE_RATIO",
]

# The wave system is preconditioned by the V-cycle when the median over
# dofs of (mu + eta/k) A_ii / ((varrho/k^2) M_ii), the stiffness-to-mass
# ratio of its diagonal (the squared CFL number of the step), is at least
# this, and by Jacobi below it.  Jacobi CG iterations grow like
# sqrt(ratio), the V-cycle's stay at 7-14, and the cycle has a set-up.
# Measured with timeit (min of 5, one BLAS thread, 2-vCPU x86-64 VM) on
# the seed-0 meshes of paper64 steps 20 and 38 (4,257 and 18,802 dofs)
# and desk16 step 60 (3,797 dofs), k scaled to sweep the ratio: the solves
# alone break even near 11.  With the set-up (1.8-5.9 ms) paid once per two
# solves, as when a mesh serves its re-solve and the next step's first
# solve, the V-cycle wins from a ratio between 21 and 42 on the paper64
# step-20 mesh, between 23 and 52 on the desk16 one, and at 41 on the
# finer mesh; with a set-up per solve, from between 88 and 186 on the two
# small meshes.
VCYCLE_RATIO = 32.0


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
        if not 0 < self.t_s < self.t_g:
            raise ValueError(f"loading window needs 0 < t_s < t_g, got "
                             f"t_s = {self.t_s}, t_g = {self.t_g}")


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
    time index ``n``, ``v`` the damage field and ``crack`` the pinned dofs.
    All fields are bound to ``mesh``.  ``wave`` is the system of the last
    wave solve on this state or on the state it came from on the same mesh
    (``None`` on a new mesh), kept for reuse by :func:`step_displacement`.

    What the next staggered solve starts from goes with the state too.
    ``v_raw`` is the unclamped damage iterate of the last damage solve, 0
    on the crack dofs; the next damage CG starts there.  ``cycle`` is that
    solve's damage V-cycle without its finest operator; the next solve
    hands it to :func:`~fracture_afem.multigrid.vcycle`, which refits it if
    the mesh and the pins are those it was built for.  ``start``, on a
    state moved to a new mesh for a re-solve, is the ``(u, v)`` the
    first solve of the step found, transferred: the re-solve starts its
    wave CG and its staggered iteration there.  Each is ``None`` when
    there is nothing to carry.
    """

    n: int
    u_curr: FeFunction
    du: FeFunction
    v: FeFunction
    crack: "CrackSet"
    mesh: "Mesh"
    wave: "WaveOperator" = field(default=None, repr=False)
    v_raw: FeFunction = field(default=None, repr=False)
    cycle: "VCycle" = field(default=None, repr=False)
    start: tuple = field(default=None, repr=False)


@dataclass(eq=False)
class WaveOperator:
    """The assembled system of one wave solve and what it was built from.

    ``A`` is the degraded stiffness of the damage values ``v`` on
    ``mesh``, ``Sc`` the system matrix for the step ``k`` and the material
    ``coefficients`` ``(mu, varrho, eta, kappa)`` with the Dirichlet
    ``dofs`` eliminated, and ``cycle`` its
    :class:`~fracture_afem.multigrid.VCycle`, whose coarse levels may come
    from an earlier system on ``mesh``, or ``None`` for Jacobi.  A later
    system on the same mesh refits that cycle in place, so ``cycle`` fits
    ``Sc`` only on the operator a state currently holds.  The
    system matrix itself is a sum of the data arrays of ``A`` and the
    mesh's cached mass matrix, so it is not kept.  The same inputs give the
    same system, bit for bit.
    """

    mesh: "Mesh"
    k: float
    coefficients: tuple
    dofs: np.ndarray
    v: np.ndarray
    A: sp.csr_matrix
    Sc: sp.csr_matrix
    cycle: object = None

    def built_from(self, mesh, k, coefficients, dofs, v):
        """Whether this system was built on ``mesh`` with the step ``k``,
        the material ``coefficients``, the constrained ``dofs`` and the
        damage values ``v``."""
        return (self.mesh is mesh and self.k == k
                and self.coefficients == coefficients
                and np.array_equal(self.dofs, dofs)
                and np.array_equal(self.v, v))


def init_state(mesh, u0, u1, k1):
    """Starting snapshot: u at index 1 is the Taylor extrapolation
    ``u0 + k1 * u1``, the damage field is 1 everywhere, no crack dofs."""
    from .phasefield import CrackSet
    u0.check_bound(mesh)
    u1.check_bound(mesh)
    if k1 <= 0:
        raise ValueError("k1 must be positive")
    du = FeFunction(u1.values.copy(), mesh.generation)
    u_curr = FeFunction(u0.values + k1 * u1.values, mesh.generation)
    v = FeFunction.constant(mesh, 1.0)
    return DynamicState(n=1, u_curr=u_curr, du=du, v=v,
                        crack=CrackSet.empty(mesh), mesh=mesh)


def degradation(v, params):
    """Nodal stiffness multiplier (1 - kappa) v^2 + kappa."""
    vals = (1.0 - params.kappa) * v.values ** 2 + params.kappa
    return FeFunction(vals, v.generation)


def step_displacement(state, k, g_values, f=None, *, params, v=None,
                      x0=None, tol=1e-12, max_iter=None, cycle=None):
    """Advance the displacement one implicit step of size ``k``.

    ``params`` are the :class:`MaterialParams`, a keyword without default.
    ``v`` overrides the damage field used for the degradation coefficient
    (the staggered loop passes its latest iterate); by default the state's
    own field is used.  The conjugate-gradient solve starts from the nodal
    array ``x0``, by default the predictor ``u_old + k du_old``.  Returns
    ``(u_new, reactions, report)``: the reactions are the residual
    ``S u_new - rhs`` of the system before the Dirichlet rows are imposed,
    and ``report`` is the solver's :class:`SolveReport`.  After the step
    the caller owns the update ``du = (u_new - u_old) / k``.

    The system is kept in ``state.wave``.  A solve on ``state`` whose mesh,
    ``k``, material coefficients, constrained dofs and damage values equal
    those of the kept system assembles nothing and eliminates only the
    right-hand side; any other assembles the system anew and hands
    ``cycle``, the V-cycle of an earlier wave system or ``None``, to
    :func:`~fracture_afem.multigrid.vcycle`, which refits it on the same
    mesh and constrained dofs and builds one otherwise.
    """
    if k <= 0:
        raise ValueError("time step must be positive")
    mesh = state.mesh
    v_eff = state.v if v is None else v
    v_eff.check_bound(mesh)
    mp = params

    M = unit_mass(mesh)
    coefficients = (mp.mu, mp.varrho, mp.eta, mp.kappa)
    op = state.wave
    reuse = op is not None and op.built_from(mesh, k, coefficients,
                                             g_values.dofs, v_eff.values)
    A = op.A if reuse else assemble_stiffness(mesh, degradation(v_eff, mp))
    # M and A share the mesh's pattern, so S is a sum of their data arrays
    S = sp.csr_matrix(((mp.varrho / k ** 2) * M.data
                       + (mp.mu + mp.eta / k) * A.data, A.indices, A.indptr),
                      shape=A.shape)

    u_old = state.u_curr.values
    du_old = state.du.values
    rhs = (mp.varrho / k ** 2) * (M @ u_old) + (mp.varrho / k) * (M @ du_old) \
        + (mp.eta / k) * (A @ u_old)
    if f is not None:
        rhs = rhs + assemble_load(mesh, f)

    if reuse:
        rhsc = dirichlet_rhs(S, rhs, g_values)
    else:
        Sc, rhsc = apply_dirichlet(S, rhs, g_values)
        cycle = vcycle(Sc, mesh, g_values.dofs, reuse=cycle) \
            if _stiffness_ratio(A, M, k, mp) >= VCYCLE_RATIO else None
        op = state.wave = WaveOperator(
            mesh, k, coefficients, g_values.dofs.copy(), v_eff.values.copy(),
            A, Sc, cycle)
    if x0 is None:
        x0 = u_old + k * du_old
    x, report = solve_spd(op.Sc, rhsc, tol=tol, max_iter=max_iter, x0=x0,
                          context=f"wave step n={state.n + 1}",
                          precond=op.cycle)
    if not report.converged:
        raise RuntimeError(
            f"wave solve failed to converge at step n={state.n + 1} "
            f"(residual {report.relative_residual:.3e})")
    return FeFunction(x, mesh.generation), S @ x - rhs, report


def _stiffness_ratio(A, M, k, params):
    """Median over dofs of ``(mu + eta/k) A_ii / ((varrho/k^2) M_ii)``."""
    return np.median((params.mu + params.eta / k) * A.diagonal()
                     / ((params.varrho / k ** 2) * M.diagonal()))
