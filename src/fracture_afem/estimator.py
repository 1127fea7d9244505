"""Residual indicator for the damage equation, with marking strategies.

Per triangle the squared indicator is

    R_tau^2 = integral_tau h_tau^2 | mu (1-kappa) |grad u|^2 v - nu_pf |^2 dx
              + sum over edges of tau of rho_pf^2 h_e^2 * jump^2

where the edge jump is the difference of gradient magnitudes of v across an
interior edge and the normal derivative on boundary (and slit) edges.  Each
interior edge contribution is split evenly between its two triangles, so the
global sum counts every edge once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import _MASS_PATTERN, element_data, element_gradients
from .mesh import geometry
from .phasefield import reaction_weight

__all__ = [
    "EstimatorField",
    "estimate",
    "dorfler_mark",
    "fraction_mark",
    "j_prime",
    "reliability_ratio",
]


@dataclass
class EstimatorField:
    """Per-triangle squared indicators and their global root sum."""

    r2: np.ndarray
    r_h: float
    generation: int

    def __post_init__(self):
        if (self.r2 < 0).any() or not np.isfinite(self.r2).all():
            raise ValueError("indicator values must be finite and nonnegative")


def _geometry(mesh):
    """Triangle diameters and the outward unit normals of the boundary
    edges (in edge order), computed once per mesh and kept in its cache."""
    cached = mesh._cache.get("estimator")
    if cached is None:
        geo = geometry(mesh)
        bnd = np.flatnonzero(mesh.edge_tris[:, 1] < 0)
        tb = mesh.edge_tris[bnd, 0]
        # outward normal of the single incident triangle on that edge
        loc = np.argmax(mesh.tri_edges[tb] == bnd[:, None], axis=1)
        cached = (geo.h, geo.normals[tb, loc])
        mesh._cache["estimator"] = cached
    return cached


def estimate(u, v, mesh, params):
    """Evaluate the residual indicator for the pair (u, v)."""
    u.check_bound(mesh)
    v.check_bound(mesh)
    h, bnd_normals = _geometry(mesh)
    gv = element_gradients(v, mesh)
    a_tau = reaction_weight(u, params, mesh)
    nu = params.nu_pf

    # element residual: integrand quadratic in v, exact by edge midpoints
    vv = v.values[mesh.triangles]                     # (nt, 3)
    vmid = 0.5 * (vv[:, [1, 2, 0]] + vv[:, [2, 0, 1]])
    sq = (a_tau[:, None] * vmid - nu) ** 2
    elem = h ** 2 * (mesh.signed_areas() / 3.0) * sq.sum(axis=1)

    # edge jumps
    et = mesh.edge_tris
    interior = et[:, 1] >= 0
    he = np.linalg.norm(mesh.vertices[mesh.edges[:, 1]]
                        - mesh.vertices[mesh.edges[:, 0]], axis=1)
    jump2 = np.zeros(mesh.n_edges)
    ti = et[interior, 0]
    tj = et[interior, 1]
    gmag = np.linalg.norm(gv, axis=1)
    jump2[interior] = (gmag[ti] - gmag[tj]) ** 2

    bnd = np.where(~interior)[0]
    if bnd.size:
        tb = et[bnd, 0]
        jump2[bnd] = ((gv[tb] * bnd_normals).sum(axis=1)) ** 2

    w = params.rho_pf ** 2 * he ** 2 * jump2
    # one bincount adds the element term, then the interior halves, then
    # the boundary edges, in that order for every triangle
    half = 0.5 * w[interior]
    r2 = np.bincount(
        np.concatenate([np.arange(mesh.n_triangles), ti, tj, et[bnd, 0]]),
        weights=np.concatenate([elem, half, half, w[bnd]]),
        minlength=mesh.n_triangles)
    return EstimatorField(r2=r2, r_h=float(np.sqrt(r2.sum())),
                          generation=mesh.generation)


def dorfler_mark(est, theta):
    """Smallest set whose squared indicators carry a ``theta`` bulk fraction.

    Greedy by descending indicator; ties break toward lower triangle ids.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    total = est.r2.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(est.r2)), -est.r2))
    csum = np.cumsum(est.r2[order])
    target = theta * total * (1.0 - 1e-12)
    count = int(np.searchsorted(csum, target) + 1)
    count = min(count, len(order))
    return np.sort(order[:count])


def fraction_mark(est, refine_frac, coarsen_frac):
    """Top ``ceil(refine_frac N)`` marked for refinement, bottom
    ``floor(coarsen_frac N)`` for coarsening, from one deterministic order."""
    for fr in (refine_frac, coarsen_frac):
        if not 0.0 <= fr <= 1.0:
            raise ValueError("fractions must lie in [0, 1]")
    if refine_frac + coarsen_frac > 1.0:
        raise ValueError("fractions must sum to at most 1")
    n = len(est.r2)
    order = np.lexsort((np.arange(n), -est.r2))
    n_ref = int(np.ceil(refine_frac * n)) if refine_frac > 0 else 0
    n_coa = int(np.floor(coarsen_frac * n))
    refine = np.sort(order[:n_ref])
    coarsen = np.sort(order[n - n_coa:]) if n_coa else np.empty(0, np.int64)
    return refine, coarsen


def j_prime(u, v, mesh, params, phi):
    """Directional derivative of the damage energy at (u, v) toward phi.

    Exact for P1 fields: the gradient pairing is element-constant, the
    source is a linear moment, and the reaction integrates products of
    linears with the consistent element mass.
    """
    for f in (u, v, phi):
        f.check_bound(mesh)
    ed = element_data(mesh)
    area = ed["area"]
    gv = element_gradients(v, mesh)
    gp = element_gradients(phi, mesh)
    grad_term = params.rho_pf * (area * (gv * gp).sum(axis=1)).sum()
    pv = phi.values[mesh.triangles]
    src_term = params.nu_pf * (area * pv.mean(axis=1)).sum()
    vv = v.values[mesh.triangles]
    mass = np.einsum('ni,ij,nj->n', vv, _MASS_PATTERN, pv) * area
    reaction_term = (reaction_weight(u, params, mesh) * mass).sum()
    return grad_term - src_term + reaction_term


def reliability_ratio(u, v, mesh, params, trial, r_h=None):
    """Diagnostic ratio |J'(u, v)(phi)| / (R_h ||grad phi||).

    ``r_h`` overrides the indicator value, e.g. when the trial function
    lives on a refinement of the mesh that carries (u, v).
    """
    ed = element_data(mesh)
    gp = element_gradients(trial, mesh)
    norm_gp = np.sqrt((ed["area"] * (gp ** 2).sum(axis=1)).sum())
    if norm_gp == 0.0:
        raise ValueError("trial function has zero gradient")
    if r_h is None:
        r_h = estimate(u, v, mesh, params).r_h
    return abs(j_prime(u, v, mesh, params, trial)) / (r_h * norm_gp)
