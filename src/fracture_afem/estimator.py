"""Residual indicator for the damage equation, with marking strategies.

Per triangle the squared indicator is

    R_tau^2 = integral_tau h_tau^2 | mu (1-kappa) |grad u|^2 v - nu_pf |^2 dx
              + sum over edges of tau of rho_pf^2 h_e^2 * jump^2

where the edge jump is the difference of gradient magnitudes of v across an
interior edge and the normal derivative on boundary (and slit) edges.  Each
interior edge contribution is split evenly between its two triangles, so the
global sum counts every edge once.  The diameters ``h_tau``, edge lengths
``h_e`` and boundary normals are the mesh's :func:`.mesh.geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import element_data, element_gradients
from .mesh import geometry
from .phasefield import phasefield_system, reaction_weight

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

    def __post_init__(self):
        if (self.r2 < 0).any() or not np.isfinite(self.r2).all():
            raise ValueError("indicator values must be finite and nonnegative")


def estimate(u, v, mesh, params):
    """Evaluate the residual indicator for the pair (u, v)."""
    u.check_bound(mesh)
    v.check_bound(mesh)
    geo = geometry(mesh)
    gx, gy = element_gradients(v, mesh)
    a_tau = reaction_weight(u, params, mesh)
    nu = params.nu_pf

    # element residual: integrand quadratic in v, exact by edge midpoints;
    # from v at the three corners, its terms summed left to right as
    # sum(axis=1) sums a row of three, so no (nt, 3) temporary is made
    v0, v1, v2 = (v.values[mesh.triangles[:, k]] for k in range(3))
    s0, s1, s2 = ((a_tau * (0.5 * (p + q)) - nu) ** 2
                  for p, q in ((v1, v2), (v2, v0), (v0, v1)))
    elem = geo.h ** 2 * (geo.area / 3.0) * (s0 + s1 + s2)

    # edge terms rho_pf^2 h_e^2 jump^2, formed on the interior and the
    # boundary edges apart; the jumps read the gradient columns, with the
    # bits of norm(axis=1) and of the squared row sum of g * n (see
    # element_gradients)
    rho2, he = params.rho_pf ** 2, geo.edge_lengths
    (ti, tj), tb = geo.interior_tris, geo.boundary_tris
    gmag = np.sqrt(gx ** 2 + gy ** 2)
    half = 0.5 * (rho2 * he[geo.interior] ** 2 * (gmag[ti] - gmag[tj]) ** 2)
    nx, ny = geo.boundary_normals.T
    wb = rho2 * he[mesh.boundary_edge_mask] ** 2 \
        * (gx[tb] * nx + gy[tb] * ny) ** 2
    # one bincount adds the element term, then the interior halves, then
    # the boundary edges, in that order for every triangle
    r2 = np.bincount(
        np.concatenate([np.arange(mesh.n_triangles), ti, tj, tb]),
        weights=np.concatenate([elem, half, half, wb]),
        minlength=mesh.n_triangles)
    return EstimatorField(r2=r2, r_h=float(np.sqrt(r2.sum())))


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
    ``floor(coarsen_frac N)`` for coarsening, from one deterministic order.

    The coarsening count is capped at the cells left unrefined: rounding
    can make the two counts sum past ``N`` (``ceil(0.14 * 50)`` is 8, with
    43 for ``0.86``), and the sets must be disjoint."""
    for fr in (refine_frac, coarsen_frac):
        if not 0.0 <= fr <= 1.0:
            raise ValueError("fractions must lie in [0, 1]")
    if refine_frac + coarsen_frac > 1.0:
        raise ValueError("fractions must sum to at most 1")
    n = len(est.r2)
    order = np.lexsort((np.arange(n), -est.r2))
    n_ref = int(np.ceil(refine_frac * n)) if refine_frac > 0 else 0
    n_coa = min(int(np.floor(coarsen_frac * n)), n - n_ref)
    refine = np.sort(order[:n_ref])
    coarsen = np.sort(order[n - n_coa:]) if n_coa else np.empty(0, np.int64)
    return refine, coarsen


def j_prime(u, v, mesh, params, phi):
    """Directional derivative of the damage energy at (u, v) toward phi.

    The damage equation's weak form ``phi . (A v - b)``, with ``(A, b)``
    from :func:`.phasefield.phasefield_system`; exact for P1 fields.
    """
    for f in (u, v, phi):
        f.check_bound(mesh)
    A, b, _ = phasefield_system(u, params, mesh)
    return phi.values @ (A @ v.values - b)


def reliability_ratio(u, v, mesh, params, trial, r_h=None):
    """Diagnostic ratio |J'(u, v)(phi)| / (R_h ||grad phi||).

    ``r_h`` overrides the indicator value, e.g. when the trial function
    lives on a refinement of the mesh that carries (u, v).
    """
    ed = element_data(mesh)
    gx, gy = element_gradients(trial, mesh)
    norm_gp = np.sqrt((ed["area"] * (gx ** 2 + gy ** 2)).sum())
    if norm_gp == 0.0:
        raise ValueError("trial function has zero gradient")
    if r_h is None:
        r_h = estimate(u, v, mesh, params).r_h
    return abs(j_prime(u, v, mesh, params, trial)) / (r_h * norm_gp)
