"""Tour of the mesh layer: slit construction, bisection, coarsening.

Builds the edge-crack domain, refines a band of triangles near the slit
tip, shows that conformity closure keeps the triangulation hanging-node
free, then coarsens everything back.
"""

import numpy as np

from fracture_afem.mesh import adapt, build_initial_mesh, geometry

mesh = build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), n0=16, max_levels=4)
print(f"initial mesh: {mesh.n_triangles} triangles, {mesh.n_vertices} vertices")
print(f"  (the grid alone would have {17 * 17} vertices; the extra ones are "
      "duplicated slit nodes, so fields can jump across the crack faces)")

geo = geometry(mesh)
print(f"  h = {geo.h.max():.4f}, "
      f"shape ratio = {geo.shape_ratio(mesh).max():.4f}")

# refine triangles whose centroid is near the slit tip
tip = np.array([1.5, 1.5])
cent = mesh.vertices[mesh.triangles].mean(axis=1)
near = np.where(np.linalg.norm(cent - tip, axis=1) < 0.4)[0]
print(f"\nrefining {len(near)} triangles near the tip ...")
fine = adapt(mesh, near)
print(f"  -> {fine.n_triangles} triangles "
      f"({fine.adapt_summary.refined} split, closure included)")

# refine the same region twice more; the level cap will start to bite
for i in range(4):
    cent = fine.vertices[fine.triangles].mean(axis=1)
    near = np.where(np.linalg.norm(cent - tip, axis=1) < 0.4)[0]
    fine = adapt(fine, near)
    s = fine.adapt_summary
    print(f"  pass {i + 1}: {fine.n_triangles} triangles, "
          f"levels up to {fine.levels.max()}, {s.skipped_capped} skipped at cap")

geo = geometry(fine)
print(f"  finest diameter {geo.h.min():.5f} vs initial {geo.h.max():.5f}; "
      f"shape ratio still {geo.shape_ratio(fine).max():.4f}")

coarse = fine
while True:
    candidates = np.where(coarse.levels > 0)[0]
    nxt = adapt(coarse, [], candidates)
    if nxt.adapt_summary.coarsened_pairs == 0:
        break
    coarse = nxt
    print(f"coarsening ... {coarse.n_triangles} triangles")
print(f"fully coarsened back to {coarse.n_triangles} triangles "
      f"(started from {mesh.n_triangles})")
