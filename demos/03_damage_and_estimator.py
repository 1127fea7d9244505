"""One damage minimization, its residual indicator, and marking.

A displacement field with a sharp gradient band drives the damage solve;
the indicator lights up along the band, and the two marking strategies
pick their refinement sets from it.
"""

import numpy as np

from fracture_afem.dynamics import MaterialParams
from fracture_afem.estimator import dorfler_mark, estimate, fraction_mark
from fracture_afem.fem import FeFunction
from fracture_afem.mesh import build_initial_mesh
from fracture_afem.phasefield import (CrackSet, clamp_and_threshold,
                                      solve_phasefield, update_crack_set)

mesh = build_initial_mesh((3.0, 3.0), None, 16)
mp = MaterialParams(mu=1.0, varrho=1.0, eta=0.5, kappa=1e-10, epsilon=0.3)

u = FeFunction.from_callable(mesh, lambda x, y: 2.2 * np.tanh(12 * (y - 1.5)))
v_raw, rep = solve_phasefield(u, mp, CrackSet.empty(mesh), mesh)
print(f"damage solve: {rep['report'].iterations} CG iterations, "
      f"stationarity residual {rep['stationarity']:.2e} of rhs")
v = clamp_and_threshold(v_raw, 1e-2)
print(f"damage range after clamping: [{v.values.min():.3f}, "
      f"{v.values.max():.3f}]")

crack = update_crack_set(v, mesh, 1e-2, CrackSet.empty(mesh))
print(f"crack set: {len(crack.ids)} pinned vertices "
      f"(band strong enough to drive v to zero: {len(crack.ids) > 0})")

est = estimate(u, v, mesh, mp)
print(f"\nindicator: R_h = {est.r_h:.4f}, per-cell range "
      f"[{np.sqrt(est.r2.min()):.2e}, {np.sqrt(est.r2.max()):.2e}]")

marked = dorfler_mark(est, 0.5)
print(f"Dorfler theta=0.5 marks {len(marked)} of {mesh.n_triangles} cells "
      f"(smallest set carrying half the squared indicator)")

refine, coarsen = fraction_mark(est, 0.20, 0.05)
cent = mesh.vertices[mesh.triangles].mean(axis=1)
band = np.abs(cent[refine, 1] - 1.5)
print(f"fraction marking refines {len(refine)} cells "
      f"(median distance to the band {np.median(band):.3f}) "
      f"and coarsens {len(coarsen)}")
