"""Residual indicator against a brute-force oracle, plus marking rules."""

import numpy as np
import pytest

from fracture_afem.dynamics import MaterialParams
from fracture_afem.fem import FeFunction, element_data, transfer
from fracture_afem.mesh import adapt, build_initial_mesh, geometry
from fracture_afem.estimator import (EstimatorField, dorfler_mark, estimate,
                                     fraction_mark, j_prime,
                                     reliability_ratio)

MP = MaterialParams(mu=1.3, varrho=1.0, eta=0.5, kappa=1e-10, epsilon=0.25)


# ----------------------------------------------------------------------
# Brute-force oracle: high-order triangle quadrature for the element term
# and explicit per-edge jump evaluation with independently computed
# gradients.
# ----------------------------------------------------------------------

# degree-5 Dunavant rule on the reference triangle (7 points)
_QP = np.array([
    [1 / 3, 1 / 3, 9 / 40],
    [0.05971587178977, 0.47014206410511, 0.13239415278851 / 2 * 2],
    [0.47014206410511, 0.05971587178977, 0.13239415278851],
    [0.47014206410511, 0.47014206410511, 0.13239415278851],
    [0.79742698535309, 0.10128650732346, 0.12593918054483],
    [0.10128650732346, 0.79742698535309, 0.12593918054483],
    [0.10128650732346, 0.10128650732346, 0.12593918054483],
])
_QP[1, 2] = 0.13239415278851


def tri_grad(verts, tri, vals):
    J = np.array([verts[tri[1]] - verts[tri[0]], verts[tri[2]] - verts[tri[0]]])
    rhs = np.array([vals[tri[1]] - vals[tri[0]], vals[tri[2]] - vals[tri[0]]])
    return np.linalg.solve(J, rhs)


def estimator_oracle(mesh, u_vals, v_vals, params):
    from collections import defaultdict
    verts = mesh.vertices
    total = 0.0
    grads_u = {}
    grads_v = {}
    for tdx, tri in enumerate(mesh.triangles):
        grads_u[tdx] = tri_grad(verts, tri, u_vals)
        grads_v[tdx] = tri_grad(verts, tri, v_vals)
        p0, p1, p2 = verts[tri]
        d1, d2 = p1 - p0, p2 - p0
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        h = max(np.linalg.norm(p1 - p0), np.linalg.norm(p2 - p1),
                np.linalg.norm(p0 - p2))
        g = grads_u[tdx]
        a_tau = params.mu * (1.0 - params.kappa) * (g @ g)
        acc = 0.0
        for l1, l2, w in _QP:
            l0 = 1.0 - l1 - l2
            vq = l0 * v_vals[tri[0]] + l1 * v_vals[tri[1]] + l2 * v_vals[tri[2]]
            acc += w * (a_tau * vq - params.nu_pf) ** 2
        total += h ** 2 * acc * area

    edge_map = defaultdict(list)
    for tdx, tri in enumerate(mesh.triangles):
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            edge_map[(min(a, b), max(a, b))].append(tdx)
    for (a, b), tris in edge_map.items():
        he = np.linalg.norm(verts[b] - verts[a])
        if len(tris) == 2:
            i, j = max(tris), min(tris)
            jump = np.linalg.norm(grads_v[i]) - np.linalg.norm(grads_v[j])
        else:
            (tdx,) = tris
            tri = mesh.triangles[tdx]
            tang = verts[b] - verts[a]
            n = np.array([tang[1], -tang[0]]) / he
            other = [p for p in tri if p not in (a, b)][0]
            mid = 0.5 * (verts[a] + verts[b])
            if n @ (verts[other] - mid) > 0:
                n = -n
            jump = grads_v[tdx] @ n
        total += params.rho_pf ** 2 * he ** 2 * jump ** 2
    return np.sqrt(total)


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------

def test_intact_zero_displacement_formula():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    est = estimate(FeFunction.zeros(mesh), FeFunction.constant(mesh, 1.0),
                   mesh, MP)
    geo = geometry(mesh)
    assert np.allclose(est.r2, geo.h ** 2 * MP.nu_pf ** 2 * geo.area)
    assert np.isclose(est.r_h, np.sqrt(est.r2.sum()))


def test_linear_u_constant_v_element_term_only():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    u = FeFunction.from_callable(mesh, lambda x, y: 2.0 * x - y)
    v = FeFunction.constant(mesh, 0.8)
    est = estimate(u, v, mesh, MP)
    geo = geometry(mesh)
    a_tau = MP.mu * (1.0 - MP.kappa) * 5.0
    expected = geo.h ** 2 * (a_tau * 0.8 - MP.nu_pf) ** 2 * geo.area
    assert np.allclose(est.r2, expected)


def test_balanced_configuration_vanishes():
    mesh = build_initial_mesh((1.0, 1.0), None, 3)
    c = 0.7
    slope = np.sqrt(MP.nu_pf / (c * MP.mu * (1.0 - MP.kappa)))
    u = FeFunction.from_callable(mesh, lambda x, y: slope * x)
    v = FeFunction.constant(mesh, c)
    est = estimate(u, v, mesh, MP)
    assert est.r_h < 1e-14


def test_nonzero_when_residual_cannot_balance():
    mesh = build_initial_mesh((1.0, 1.0), None, 2)
    est = estimate(FeFunction.zeros(mesh), FeFunction.constant(mesh, 0.3),
                   mesh, MP)
    assert est.r_h > 0.0


def test_matches_bruteforce_oracle_on_random_fields():
    mesh = adapt(build_initial_mesh((1.0, 1.0), None, 2), [0, 3, 5])
    assert mesh.n_triangles <= 32
    rng = np.random.default_rng(20)
    for _ in range(5):
        u = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
        v = FeFunction(rng.uniform(0, 1, mesh.n_vertices), mesh.generation)
        est = estimate(u, v, mesh, MP)
        ref = estimator_oracle(mesh, u.values, v.values, MP)
        assert abs(est.r_h - ref) <= 1e-10 * ref


def test_dilation_scaling_of_element_term():
    # u = 0 and constant v isolate the element residual: the h^2 weight and
    # the integral each contribute s^2 under a geometric dilation
    mesh1 = build_initial_mesh((1.0, 1.0), None, 2)
    mesh2 = build_initial_mesh((3.0, 3.0), None, 2)
    v1 = FeFunction.constant(mesh1, 0.5)
    v2 = FeFunction.constant(mesh2, 0.5)
    e1 = estimate(FeFunction.zeros(mesh1), v1, mesh1, MP)
    e2 = estimate(FeFunction.zeros(mesh2), v2, mesh2, MP)
    assert np.allclose(e2.r2, 3.0 ** 4 * e1.r2)


# ----------------------------------------------------------------------
# marking
# ----------------------------------------------------------------------

def field(r2):
    return EstimatorField(np.asarray(r2, dtype=float),
                          float(np.sqrt(np.sum(r2))), 0)


def test_dorfler_greedy_forced():
    marked = dorfler_mark(field([81.0, 16, 1, 1, 1]), 0.5)
    assert np.array_equal(marked, [0])


def test_dorfler_theta_one_marks_all_positive():
    marked = dorfler_mark(field([4.0, 0.0, 2.0, 1.0]), 1.0)
    assert np.array_equal(marked, [0, 2, 3])


def test_dorfler_tie_breaks_to_low_ids():
    marked = dorfler_mark(field([1.0, 1.0, 1.0, 1.0]), 0.5)
    assert np.array_equal(marked, [0, 1])


def test_dorfler_minimality_random_fields():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = rng.integers(1, 100)
        r2 = rng.uniform(0, 1, n) ** 2
        theta = rng.uniform(0.05, 1.0)
        marked = dorfler_mark(field(r2), theta)
        total = r2.sum()
        assert r2[marked].sum() >= theta * total * (1 - 1e-9)
        if marked.size:
            smallest = marked[np.argmin(r2[marked])]
            rest = np.setdiff1d(marked, [smallest])
            assert r2[rest].sum() < theta * total * (1 - 1e-9)


def test_fraction_counts_and_rounding():
    r, c = fraction_mark(field(np.arange(10.0) + 1.0), 0.2, 0.05)
    assert len(r) == 2 and len(c) == 0
    r, c = fraction_mark(field(np.arange(10.0) + 1.0), 0.0, 0.3)
    assert len(r) == 0 and len(c) == 3


def test_fraction_tie_break_and_disjoint():
    r, c = fraction_mark(field(np.ones(5)), 0.2, 0.2)
    assert np.array_equal(r, [0])
    assert np.array_equal(c, [4])
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = rng.integers(2, 60)
        r2 = rng.uniform(0, 1, n)
        fr, fc = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        rr, cc = fraction_mark(field(r2), fr, fc)
        assert len(rr) == int(np.ceil(fr * n)) if fr > 0 else len(rr) == 0
        assert len(cc) == int(np.floor(fc * n))
        assert np.intersect1d(rr, cc).size == 0


def test_fraction_validation():
    with pytest.raises(ValueError):
        fraction_mark(field([1.0]), 0.7, 0.5)
    with pytest.raises(ValueError):
        fraction_mark(field([1.0]), -0.1, 0.0)


# ----------------------------------------------------------------------
# reliability ratio
# ----------------------------------------------------------------------

def make_critical_pair(n0):
    from fracture_afem.phasefield import CrackSet, solve_phasefield
    mesh = build_initial_mesh((1.0, 1.0), None, n0)
    u = FeFunction.from_callable(
        mesh, lambda x, y: 4.0 * np.sin(np.pi * x) * y)
    v, _ = solve_phasefield(u, MP, CrackSet.empty(mesh), mesh)
    return mesh, u, v


def test_ratio_vanishes_at_critical_point_for_discrete_trials():
    mesh, u, v = make_critical_pair(4)
    rng = np.random.default_rng(24)
    phi = FeFunction(rng.standard_normal(mesh.n_vertices), mesh.generation)
    ratio = reliability_ratio(u, v, mesh, MP, phi)
    assert ratio < 1e-9


def test_ratio_scale_invariant_in_trial():
    mesh, u, v = make_critical_pair(4)
    v = FeFunction(np.clip(v.values * 0.9, 0, 1), mesh.generation)
    phi = FeFunction.from_callable(mesh, lambda x, y: x * (1 - x) + 0.3 * y)
    r1 = reliability_ratio(u, v, mesh, MP, phi)
    phi10 = FeFunction(10.0 * phi.values, mesh.generation)
    r2 = reliability_ratio(u, v, mesh, MP, phi10)
    assert np.isclose(r1, r2)
    assert r1 > 0


def test_ratio_rejects_constant_trial():
    mesh, u, v = make_critical_pair(2)
    with pytest.raises(ValueError):
        reliability_ratio(u, v, mesh, MP, FeFunction.constant(mesh, 1.0))


def test_ratio_bounded_for_fine_trials_across_levels():
    # critical point on each level; trial functions interpolated two
    # bisection generations finer, where they are not representable
    rng = np.random.default_rng(25)
    maxima = []
    for n0 in (2, 4, 8):
        mesh, u, v = make_critical_pair(n0)
        fine1 = adapt(mesh, range(mesh.n_triangles))
        fine2 = adapt(fine1, range(fine1.n_triangles))
        uf = transfer(transfer(u, mesh, fine1), fine1, fine2)
        vf = transfer(transfer(v, mesh, fine1), fine1, fine2)
        r_h = estimate(u, v, mesh, MP).r_h
        worst = 0.0
        for _ in range(20):
            a = rng.standard_normal(4)
            phi = FeFunction.from_callable(
                fine2, lambda x, y: a[0] * np.sin(np.pi * x) * np.sin(np.pi * y)
                + a[1] * x * y + a[2] * np.cos(np.pi * y) + a[3] * x ** 2)
            worst = max(worst,
                        reliability_ratio(uf, vf, fine2, MP, phi, r_h=r_h))
        maxima.append(worst)
    assert maxima[1] <= 1.2 * maxima[0] + 1e-12
    assert maxima[2] <= 1.2 * maxima[1] + 1e-12


def test_estimate_computes_geometry_once_per_mesh(monkeypatch):
    import fracture_afem.estimator as est_mod

    calls = []

    def counted(mesh):
        calls.append(mesh.generation)
        return geometry(mesh)

    monkeypatch.setattr(est_mod, "geometry", counted)
    mesh = adapt(build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 4),
                 [0, 5, 9])
    twin = adapt(build_initial_mesh((3.0, 3.0), (0.0, 1.5, 1.5), 4),
                 [0, 5, 9])
    x, y = mesh.vertices.T
    u1 = FeFunction(np.sin(x) * y, mesh.generation)
    u2 = FeFunction(x * x - y, mesh.generation)
    v = FeFunction(np.clip(0.3 + 0.2 * x, 0.0, 1.0), mesh.generation)
    estimate(u1, v, mesh, MP)
    second = estimate(u2, v, mesh, MP)
    assert calls == [mesh.generation]
    # the cached geometry gives the indicators of a fresh computation
    fresh = estimate(u2, v, twin, MP)
    assert len(calls) == 2
    assert np.array_equal(second.r2, fresh.r2)
