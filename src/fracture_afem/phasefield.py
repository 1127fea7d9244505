"""Damage-field minimization with bound clamping and crack-set pinning.

The critical-point condition of the regularized energy is linear in the
damage field: find v with

    rho_pf (grad v, grad phi) + (mu (1 - kappa) |grad u|^2 v, phi)
        = nu_pf (1, phi)

for all test functions phi vanishing on the crack set.  One SPD solve,
followed by the threshold rules (values below Xi_v drop to 0, values above
1 clip to 1), realizes the algorithm's inner minimization step.

With an empty crack set and a vanishing reaction term the system is a pure
Neumann problem with an incompatible source, i.e. singular; in that regime
the unconstrained solution lies above 1 everywhere, so the clamped outcome
is identically 1 and is returned directly, before anything is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (FeFunction, DirichletSet, StepMemo, assemble_stiffness,
                  weighted_mass, apply_dirichlet, element_gradients,
                  transfer_pinned, unit_mass)
from .fem import assemble_mass  # noqa: F401  (a perfbench/tracer.py site)
from .linsolve import solve_spd
from .mesh import derived
from .multigrid import vcycle

__all__ = [
    "CrackSet",
    "solve_phasefield",
    "clamp_and_threshold",
    "update_crack_set",
    "phasefield_system",
    "reaction_weight",
]

# If the largest element reaction coefficient is below this fraction of the
# source weight nu_pf, the unconstrained minimizer exceeds 1/SHORTCUT_FACTOR
# everywhere and clamping returns exactly 1; solving the (near-singular)
# system is pointless then.
SHORTCUT_FACTOR = 0.5


@dataclass
class CrackSet:
    """Vertex dofs permanently pinned to v = 0."""

    ids: np.ndarray
    generation: int

    def __post_init__(self):
        self.ids = np.unique(np.asarray(self.ids, dtype=np.int64))

    @classmethod
    def empty(cls, mesh):
        return cls(np.empty(0, dtype=np.int64), mesh.generation)

    def mask(self, n):
        m = np.zeros(n, dtype=bool)
        m[self.ids] = True
        return m

    def transfer(self, src_mesh, dst_mesh):
        pinned = transfer_pinned(self.mask(src_mesh.n_vertices),
                                 src_mesh, dst_mesh)
        return CrackSet(np.where(pinned)[0], dst_mesh.generation)


def reaction_weight(u, params, mesh, memo=None):
    """Element reaction weight mu (1 - kappa) |grad u|^2 of the damage
    equation.  ``memo``, the :class:`~.fem.StepMemo` of a time step, keeps
    it and the gradients of ``u`` for the step's other evaluations of
    ``u``."""
    memo = StepMemo() if memo is None else memo
    c = params.mu * (1.0 - params.kappa)

    def build(u, mesh):
        gx, gy = memo.get(u, mesh, "gradients", element_gradients)
        return c * (gx ** 2 + gy ** 2)
    return memo.get(u, mesh, ("reaction", c), build)


def _constants(mesh):
    return (assemble_stiffness(mesh, 1.0).data,
            unit_mass(mesh) @ np.ones(mesh.n_vertices))


def _system(reaction, params, mesh):
    """(A, b) of the damage equation.  The unit stiffness data and the
    source ``M 1`` depend on the mesh only and are kept in its cache."""
    k_data, m_one = derived(mesh, "phasefield", _constants)
    A = weighted_mass(mesh, reaction)
    A.data += params.rho_pf * k_data        # same pattern as the unit stiffness
    return A, params.nu_pf * m_one


def phasefield_system(u, params, mesh):
    """Assemble (A, b) of the damage equation for the current displacement."""
    reaction = reaction_weight(u, params, mesh)
    A, b = _system(reaction, params, mesh)
    return A, b, reaction


def solve_phasefield(u, params, crack, mesh, x0=None, tol=1e-12,
                     max_iter=None, cycle=None, memo=None):
    """Solve the damage critical-point system with crack dofs pinned to 0.

    The conjugate gradients are preconditioned by one multigrid V-cycle
    (:mod:`.multigrid`) and start from the nodal array ``x0`` (zero by
    default) with the crack dofs set to 0.  ``cycle`` is the V-cycle an
    earlier solve returned, or ``None``; :func:`~.multigrid.vcycle` refits
    it if it fits this mesh and crack set, and builds a new one otherwise.
    Returns ``(v, info)``: the raw (unclamped) solution, to pair with
    :func:`clamp_and_threshold`, and a dict with the solver report, the
    stationarity residual relative to the right-hand side norm, whether the
    intact shortcut fired (report and residual are ``None`` then), and the
    V-cycle to pass to the next solve (``cycle`` itself after a shortcut).
    The reaction weight of ``u`` is kept in ``memo``, the step's
    :class:`~.fem.StepMemo`, if one is given.
    """
    u.check_bound(mesh)
    if crack.generation != mesh.generation:
        raise ValueError("crack set bound to a different generation")

    reaction = reaction_weight(u, params, mesh, memo)
    if crack.ids.size == 0 and reaction.max(initial=0.0) \
            <= SHORTCUT_FACTOR * params.nu_pf:
        v = FeFunction.constant(mesh, 1.0)
        return v, {"report": None, "stationarity": None, "shortcut": True,
                   "cycle": cycle}

    A, b = _system(reaction, params, mesh)
    ds = DirichletSet(crack.ids, np.zeros(len(crack.ids)))
    Ac, bc = apply_dirichlet(A, b, ds)
    if x0 is not None:
        x0 = x0.copy()
        x0[crack.ids] = 0.0
    cycle = vcycle(Ac, mesh, crack.ids, reuse=cycle)
    sol, report = solve_spd(Ac, bc, tol=tol, max_iter=max_iter, x0=x0,
                            context="phase-field solve", precond=cycle)
    if not report.converged:
        raise RuntimeError(
            f"phase-field solve failed to converge "
            f"(residual {report.relative_residual:.3e})")
    # the pinned rows of the residual are exactly 0: x0 and every V-cycle
    # correction are 0 there, and those rows read 1 * 0 = 0.  A zero
    # right-hand side (every dof pinned) is solved by 0 exactly, so its
    # stationarity is 0, not 0/0
    norm_b = np.linalg.norm(bc)
    stat = np.abs(bc - Ac @ sol).max(initial=0.0) / norm_b if norm_b else 0.0
    v = FeFunction(sol, mesh.generation)
    return v, {"report": report, "stationarity": stat, "shortcut": False,
               "cycle": cycle}


def clamp_and_threshold(v, xi_v):
    """Algorithm threshold rules: below xi_v snap to 0, above 1 clip to 1."""
    vals = v.values.copy()
    vals[vals < xi_v] = 0.0
    vals[vals > 1.0] = 1.0
    return FeFunction(vals, v.generation)


def update_crack_set(v, mesh, xi_cr, old):
    """Pin both endpoints of every edge whose endpoint values are both at or
    below ``xi_cr`` (P1: the edge-wise condition reduces to the endpoints).
    The union with the old set makes growth monotone; with no vertex at or
    below ``xi_cr`` nothing is added, and ``old`` itself is returned."""
    v.check_bound(mesh)
    if old.generation != mesh.generation:
        raise ValueError("crack set bound to a different generation")
    low = v.values <= xi_cr
    if not low.any():
        return old
    e = mesh.edges
    hit = low[e[:, 0]] & low[e[:, 1]]
    ids = np.union1d(old.ids, np.unique(e[hit]))
    return CrackSet(ids, mesh.generation)
