"""Implicit damped wave stepping with the damage field frozen intact.

An initial velocity bump rings through the clamped domain; the implicit
scheme dissipates the discrete energy monotonically, faster with viscosity.
"""

import numpy as np

from fracture_afem.dynamics import MaterialParams, init_state, step_displacement
from fracture_afem.fem import (DirichletSet, FeFunction, assemble_mass,
                               assemble_stiffness)
from fracture_afem.mesh import build_initial_mesh

mesh = build_initial_mesh((1.0, 1.0), None, 16)
bnd = np.array(sorted({i for e in mesh.boundary_labels for i in e}))
ds = DirichletSet(bnd, np.zeros(len(bnd)))
M = assemble_mass(mesh, 1.0)
A = assemble_stiffness(mesh, 1.0)

u1 = FeFunction.from_callable(
    mesh, lambda x, y: np.exp(-60 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)))

for eta in (0.0, 0.05):
    mp = MaterialParams(mu=1.0, varrho=1.0, eta=eta, epsilon=0.1)
    k = 0.02
    state = init_state(mesh, FeFunction.zeros(mesh), u1, k)
    print(f"\nviscosity eta = {eta}")
    print(f"{'step':>5} {'kinetic':>12} {'strain':>12} {'total':>12}")
    e0 = None
    for n in range(2, 61):
        u, _ = step_displacement(state, k, ds, params=mp)
        du = FeFunction((u.values - state.u_curr.values) / k, mesh.generation)
        state.u_prev, state.u_curr, state.du, state.n = \
            state.u_curr, u, du, state.n + 1
        kin = 0.5 * (du.values @ (M @ du.values))
        strn = 0.5 * (u.values @ (A @ u.values))
        if e0 is None:
            e0 = kin + strn
        if n % 10 == 0:
            print(f"{n:>5} {kin:>12.3e} {strn:>12.3e} {kin + strn:>12.3e}")
    print(f"energy retained after 60 steps: {(kin + strn) / e0:.3f} of start")
