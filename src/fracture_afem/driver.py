"""Time loop orchestration: staggered solves, marking, adaptation, energies.

Each time step runs the inner staggered iteration (displacement solve with
the latest damage iterate, damage solve with the fresh displacement, clamp)
until successive damage iterates agree in the sup norm, then updates the
crack set.  If the global indicator exceeds the refinement threshold the
mesh is adapted once, the previous state is transferred, and the step is
re-solved on the new mesh before advancing.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import (DynamicState, LoadingParams, MaterialParams,
                       boundary_ramp, degradation, init_state,
                       step_displacement)
from .estimator import dorfler_mark, estimate, fraction_mark
from .fem import (DirichletSet, FeFunction, element_gradients, element_means,
                  transfer, unit_mass)
from .fem import assemble_mass  # noqa: F401  (a perfbench/tracer.py site)
from .fem import assemble_stiffness  # noqa: F401  (a perfbench/tracer.py site)
from .mesh import (AdaptSummary, BoundaryLabel, InitialGrid, adapt,
                   build_initial_mesh, derived, stable_sort)
from .mesh import geometry  # noqa: F401  (a perfbench/tracer.py site)
from .phasefield import clamp_and_threshold, solve_phasefield, update_crack_set

__all__ = [
    "MeshConfig",
    "TimeConfig",
    "Tolerances",
    "MarkingConfig",
    "OutputConfig",
    "RunConfig",
    "EnergyReport",
    "StepRecord",
    "RunResult",
    "energies",
    "build_dirichlet",
    "staggered_step",
    "adapt_step",
    "run",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MeshConfig:
    n0: int = 64
    max_levels: int = 4
    lx: float = 3.0
    ly: float = 3.0
    slit: bool = True
    slit_x_end: float = 1.5
    slit_y: float = 1.5

    def __post_init__(self):
        # the layout is checked before the derived material constants divide
        # by n0, and a config that loads builds its mesh
        if self.max_levels < 0:
            raise ValueError("max_levels must be at least 0")
        InitialGrid((self.lx, self.ly), self._slit(), self.n0)

    def _slit(self):
        # the edge crack starts on the loaded left edge, at x = 0
        return (0.0, self.slit_x_end, self.slit_y) if self.slit else None

    @property
    def h_initial(self):
        # split-quad cells: the diameter is the cell diagonal
        return np.hypot(self.lx / self.n0, self.ly / self.n0)

    @property
    def h_min(self):
        # bisection halves the diameter every two levels
        return self.h_initial / 2.0 ** (self.max_levels / 2.0)


@dataclass(frozen=True)
class TimeConfig:
    n_steps: int = 1600
    t_final: float = 5.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @property
    def k(self):
        return self.t_final / self.n_steps


@dataclass
class Tolerances:
    xi_v: float = 1e-2          # clamp threshold
    xi_cr: float = 1e-2         # crack-set threshold
    xi_vn: float = 1e-10        # staggered sup-norm tolerance
    xi_rf: float = 1e-3         # global indicator threshold for adaptation
    solver_tol: float = 1e-12
    solver_max_iter: int = 20000
    max_inner: int = 100

    def __post_init__(self):
        for name in ("xi_v", "xi_cr", "xi_vn", "xi_rf"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # the range of linsolve.solve_spd's relative tolerance
        if not 0.0 < self.solver_tol < 1.0:
            raise ValueError("solver_tol must lie in (0, 1)")
        if self.max_inner < 1 or self.solver_max_iter < 1:
            raise ValueError("iteration limits must be at least 1")


@dataclass
class MarkingConfig:
    """Refinement selection.

    ``fraction`` refines the top 20% / coarsens the bottom 5% by indicator;
    ``dorfler`` marks the smallest bulk set; ``threshold`` flags every cell
    whose squared indicator exceeds ``cell_threshold``.  The threshold mode
    is self-limiting: the intact-region residual floor drops below the
    threshold after a level or two of refinement, so cells keep splitting
    only where strain or damage structure sustains the indicator.
    """

    strategy: str = "fraction"      # "fraction" | "dorfler" | "threshold"
    theta: float = 0.5
    refine_fraction: float = 0.20
    coarsen_fraction: float = 0.05
    cell_threshold: float = 1e-3

    def __post_init__(self):
        if self.strategy not in ("fraction", "dorfler", "threshold"):
            raise ValueError(f"unknown marking strategy {self.strategy!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if min(self.refine_fraction, self.coarsen_fraction) < 0.0 \
                or self.refine_fraction + self.coarsen_fraction > 1.0:
            raise ValueError("refine_fraction and coarsen_fraction must be "
                             "nonnegative and sum to at most 1")
        if self.cell_threshold <= 0:
            raise ValueError("cell_threshold must be positive")


@dataclass
class OutputConfig:
    directory: str = "out"
    snapshot_every: int = 0         # 0 disables snapshots

    def __post_init__(self):
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be at least 0")


# Origin of the edge-crack experiment defaults, echoed by ``check-config``;
# ``load_config`` marks the keys a file sets as "config-file".
_PROVENANCE = {
    "mesh.n0": "published-experiment default",
    "mesh.max_levels": "published-experiment default",
    "material.mu": "assumption",
    "material.varrho": "published-experiment default (10 sqrt(h_f))",
    "material.eta": "published-experiment default (1/(10 sqrt(h_f)))",
    "material.kappa": "published-experiment default",
    "material.lambda_c": "published-experiment default",
    "material.c_w": "published-experiment default",
    "material.epsilon": "published-experiment default (5 h_f)",
    "loading.eps_v": "published-experiment default",
    "loading.t_s": "assumption",
    "loading.t_g": "assumption",
    "time.n_steps": "published-experiment default",
    "time.t_final": "assumption",
    "tolerances.xi_v": "published-experiment default",
    "tolerances.xi_cr": "published-experiment default",
    "tolerances.xi_vn": "published-experiment default",
    "tolerances.xi_rf": "published-experiment default",
    "marking.refine_fraction": "published-experiment default",
    "marking.coarsen_fraction": "published-experiment default",
}


@dataclass
class RunConfig:
    mesh: MeshConfig = field(default_factory=MeshConfig)
    material: MaterialParams = field(default_factory=MaterialParams)
    loading: LoadingParams = field(default_factory=LoadingParams)
    time: TimeConfig = field(default_factory=TimeConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    marking: MarkingConfig = field(default_factory=MarkingConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    provenance: dict = field(default_factory=dict)

    @classmethod
    def sections(cls):
        """Section name -> dataclass of every config section, in order.
        No key appears in two sections."""
        return {f.name: f.default_factory for f in fields(cls)
                if f.name != "provenance"}

    @classmethod
    def with_defaults(cls, **keys):
        """Edge-crack experiment defaults, with any config key set by name.

        The regularization length couples to the finest mesh size
        ``h_f = h_min`` of the mesh section built here from ``lx``, ``ly``,
        ``n0`` and ``max_levels``: ``epsilon = 5 h_f``, mass density
        ``10 sqrt(h_f)`` and viscosity ``1 / (10 sqrt(h_f))``; the ramp ends
        at ``t_g = t_final``.  A key given by name replaces its default or
        derived value and is labelled "set by name" in ``provenance``; an
        unknown key raises ``TypeError`` and a value that fails
        :meth:`validate` raises ``ValueError``.  The mesh and time sections,
        which the derived values follow, are frozen.  The shear modulus, ramp
        switch time and final time are assumptions (the experiment leaves
        them open).
        """
        unknown = set(keys).difference(*(
            {f.name for f in fields(typ)} for typ in cls.sections().values()))
        if unknown:
            raise TypeError(f"unknown config keys: {sorted(unknown)}")
        provenance = dict(_PROVENANCE)
        for section, typ in cls.sections().items():
            provenance.update({f"{section}.{f.name}": "set by name"
                               for f in fields(typ) if f.name in keys})

        def build(typ, **derived):
            own = {f.name: keys[f.name] for f in fields(typ) if f.name in keys}
            return typ(**{**derived, **own})

        mesh = build(MeshConfig)
        time = build(TimeConfig)
        h_f = mesh.h_min
        return cls(
            mesh=mesh,
            material=build(MaterialParams, varrho=10.0 * np.sqrt(h_f),
                           eta=1.0 / (10.0 * np.sqrt(h_f)),
                           epsilon=5.0 * h_f),
            loading=build(LoadingParams, t_g=time.t_final),
            time=time,
            tolerances=build(Tolerances),
            marking=build(MarkingConfig),
            output=build(OutputConfig),
            provenance=provenance).validate()

    def validate(self):
        """Every check of the run settings: no float key is NaN, and those
        of the material, loading and time sections are finite; each
        section's own, run again so that a value assigned after
        construction is checked too; then the rule across sections, ``t_g
        <= t_final``.  Returns ``self``.

        The thresholds ``xi_vn``, ``xi_rf`` and ``cell_threshold`` may be
        infinite: ``xi_vn = inf`` ends the staggered iteration after one
        pass, ``xi_rf = inf`` switches adaptation off, and so does
        ``cell_threshold = inf`` under the threshold strategy."""
        for section in self.sections():
            obj = getattr(self, section)
            finite = section in ("material", "loading", "time")
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, float) and (
                        np.isnan(value) or finite and np.isinf(value)):
                    raise ValueError(f"{section}.{f.name} must be "
                                     f"{'finite' if finite else 'a number'}"
                                     f", got {value}")
            obj.__post_init__()
        if self.loading.t_g > self.time.t_final:
            raise ValueError(
                f"loading window needs t_g <= t_final, got "
                f"t_g = {self.loading.t_g}, t_final = {self.time.t_final}")
        return self

    def build_mesh(self):
        mc = self.mesh
        return build_initial_mesh((mc.lx, mc.ly), mc._slit(), mc.n0,
                                  max_levels=mc.max_levels)


# ----------------------------------------------------------------------
# Energies
# ----------------------------------------------------------------------

@dataclass
class EnergyReport:
    step: int
    time: float
    kinetic: float
    strain: float
    surface: float
    total: float
    r_h: float
    r_min: float
    r_max: float
    n_dofs: int
    n_cells: int


def energies(state, params, est=None, time=0.0, step=0):
    """Kinetic, strain and surface energy of a snapshot (exact P1 quadrature).

    The strain energy ``0.5 mu u^T A u`` of the degraded stiffness ``A`` is
    summed element by element, ``0.5 mu sum_tau c_tau |tau| |grad u_tau|^2``
    with ``c_tau`` the element mean of the degradation, so no matrix is
    assembled.
    """
    mesh = state.mesh
    area = mesh.signed_areas()
    M = unit_mass(mesh)
    du = state.du.values
    kinetic = 0.5 * params.varrho * (du @ (M @ du))
    c = element_means(degradation(state.v, params).values, mesh.triangles)
    gx, gy = element_gradients(state.u_curr, mesh)
    strain = 0.5 * params.mu * (c * area * (gx ** 2 + gy ** 2)).sum()

    gx, gy = element_gradients(state.v, mesh)
    vbar = element_means(state.v.values, mesh.triangles)
    h_of_v = (area.sum() - (area * vbar).sum()) / params.epsilon \
        + params.epsilon * (area * (gx ** 2 + gy ** 2)).sum()
    surface = params.lambda_c / params.c_w * h_of_v

    if kinetic < 0 or strain < -1e-12 or surface < -1e-12:
        raise AssertionError("energy component unexpectedly negative")
    r_h = est.r_h if est is not None else 0.0
    r_min = float(np.sqrt(est.r2.min())) if est is not None and est.r2.size else 0.0
    r_max = float(np.sqrt(est.r2.max())) if est is not None and est.r2.size else 0.0
    return EnergyReport(step=step, time=time, kinetic=float(kinetic),
                        strain=float(strain), surface=float(surface),
                        total=float(kinetic + strain + surface),
                        r_h=float(r_h), r_min=r_min, r_max=r_max,
                        n_dofs=mesh.n_vertices, n_cells=mesh.n_triangles)


# ----------------------------------------------------------------------
# Staggered step
# ----------------------------------------------------------------------

def build_dirichlet(mesh, t, loading):
    """Loaded-boundary values: +g0(t) above the slit, -g0(t) below.

    Once the ramp window ends (t > t_g) the load holds at its final value,
    so runs longer than the window are well defined.
    """
    g0 = boundary_ramp(min(t, loading.t_g), loading)
    dofs, sign = derived(mesh, "dirichlet", _loaded_boundary)
    return DirichletSet(dofs, sign * g0)


def _loaded_boundary(mesh):
    """Sorted dofs of the loaded boundary and the sign of their load, +1
    above the slit and -1 below; read-only."""
    up = mesh.boundary_vertices(BoundaryLabel.LEFT_UPPER)
    lo = mesh.boundary_vertices(BoundaryLabel.LEFT_LOWER)
    dofs, order = stable_sort(np.concatenate([up, lo]))
    sign = np.concatenate([np.ones(len(up)), -np.ones(len(lo))])[order]
    dofs.flags.writeable = sign.flags.writeable = False
    return dofs, sign


@dataclass
class StepRecord:
    """What one time step did, kept for the whole run: scalars, the
    adaptation summary and the record of a solve an adaptation replaced,
    never a mesh, a state or a per-dof array."""

    # filled by staggered_step
    inner_iterations: int = 0
    converged: bool = True
    stationarity: float = np.nan    # worst over inner damage solves; nan if
                                    # every solve took the intact shortcut
    clamp_changes: int = 0          # nodes moved by the final clamp
    new_pins: int = 0
    shortcut: bool = False          # final damage solve hit the intact guard
    pf_iterations: int = 0          # damage-solve CG iterations, all solves
    wave_iterations: int = 0        # wave-solve CG iterations, all solves
    cycle_builds: int = 0           # V-cycles built, damage and wave
    boundary_work: float = 0.0      # reactions times the boundary increment
    warnings: list = field(default_factory=list)
    # filled by run
    report: EnergyReport = None
    v_min: float = np.nan
    v_max: float = np.nan
    pinned: int = 0
    pinned_violation: bool = False  # a pinned dof is away from 0
    ledger_slack: float = np.nan    # E_n - E_{n-1} - boundary work
    adapt: AdaptSummary = None      # None if the step kept its mesh
    first_solve: StepRecord = None  # on a step that adapted: the record
                                    # of its solve on the old mesh


def staggered_step(state, t_n, cfg):
    """One full staggered solve at time ``t_n`` from the state at the
    previous index.  Returns the new state and its :class:`StepRecord`.

    The new state carries the last damage solve's unclamped iterate and its
    V-cycle (see :class:`~fracture_afem.dynamics.DynamicState`).  A wave
    system the step rebuilds is handed the V-cycle of the wave system its
    previous inner iteration solved with, and in the first iteration none."""
    mesh = state.mesh
    tol = cfg.tolerances
    k = cfg.time.k
    ds = build_dirichlet(mesh, t_n, cfg.loading)
    rec = StepRecord()

    # The first inner iteration starts from what the state carries: the
    # displacement and damage field of a first solve moved to this mesh
    # (else the predictor and the state's damage field), the last unclamped
    # damage iterate and the damage V-cycle, which the solve refits if its
    # mesh and pins are this step's.  A later one starts from the last
    # iteration's displacement and unclamped damage, with the same damage
    # cycle and the wave cycle of the iteration before.  The first wave
    # solve is handed none: the wave pins never change, so a cycle handed
    # on from step to step would keep for good the coarse levels of a
    # system whose damage band, where the stiffness falls to kappa, was
    # another.
    if state.start is None:
        u_start, v_iter = None, state.v
    else:
        u_start, v_iter = state.start[0].values, state.start[1]
    v_start = (v_iter if state.v_raw is None else state.v_raw).values
    cycle, wave_cycle = state.cycle, None
    stat_worst = None
    for j in range(1, tol.max_inner + 1):
        wave = state.wave
        u_new, reactions, urep = step_displacement(
            state, k, ds, params=cfg.material, v=v_iter, x0=u_start,
            tol=tol.solver_tol, max_iter=tol.solver_max_iter,
            cycle=wave_cycle)
        rec.wave_iterations += urep.iterations
        wave_cycle = state.wave.cycle
        rec.cycle_builds += _new_cycle(wave and wave.cycle, wave_cycle)
        v_raw, vrep = solve_phasefield(
            u_new, cfg.material, state.crack, mesh, x0=v_start,
            tol=tol.solver_tol, max_iter=tol.solver_max_iter, cycle=cycle)
        rec.cycle_builds += _new_cycle(cycle, vrep["cycle"])
        u_start, v_start, cycle = u_new.values, v_raw.values, vrep["cycle"]
        v_new = clamp_and_threshold(v_raw, tol.xi_v)
        if vrep["stationarity"] is not None:
            stat_worst = max(stat_worst or 0.0, vrep["stationarity"])
            rec.pf_iterations += vrep["report"].iterations
        diff = np.abs(v_new.values - v_iter.values).max()
        rec.clamp_changes = int((v_new.values != v_raw.values).sum())
        v_iter = v_new
        if diff < tol.xi_vn:
            break
    else:
        rec.converged = False
        rec.warnings.append(
            f"staggered iteration hit max_inner={tol.max_inner} "
            f"at t={t_n:.6g} (last diff {diff:.3e})")
    rec.inner_iterations = j
    rec.stationarity = np.nan if stat_worst is None else stat_worst
    rec.shortcut = vrep["shortcut"]

    # work of the reaction forces over this step's boundary increment
    dg = ds.values - build_dirichlet(mesh, t_n - k, cfg.loading).values
    rec.boundary_work = float(reactions[ds.dofs] @ dg)

    crack_new = update_crack_set(v_iter, mesh, tol.xi_cr, state.crack)
    rec.new_pins = len(crack_new.ids) - len(state.crack.ids)
    # a dof pinned now holds at most xi_cr, which may exceed xi_v
    v_iter.values[crack_new.ids] = 0.0
    v_raw.values[crack_new.ids] = 0.0
    du = FeFunction((u_new.values - state.u_curr.values) / k, mesh.generation)
    # the wave system of the last inner iteration goes on with the mesh, to
    # be reused if the next step's inputs repeat, and so do the damage
    # V-cycle's coarse levels, for the next solve to refit if its pins are
    # the same
    cycle = cycle and cycle.release()
    new_state = DynamicState(n=state.n + 1, u_curr=u_new, du=du, v=v_iter,
                             crack=crack_new, mesh=mesh, wave=state.wave,
                             v_raw=v_raw, cycle=cycle)
    return new_state, rec


def _new_cycle(before, after):
    """1 if a solve that was handed the V-cycle ``before`` left ``after``,
    a cycle it built, and 0 if it kept, refit or had none."""
    return int(after is not None and after is not before)


def transfer_state(state, src_mesh, dst_mesh, crack_from):
    """Carry a snapshot to a new generation with the crack set
    ``crack_from``, which may be a later snapshot's (irreversibility
    propagates forward)."""
    return DynamicState(
        n=state.n,
        u_curr=transfer(state.u_curr, src_mesh, dst_mesh),
        du=transfer(state.du, src_mesh, dst_mesh),
        v=transfer(state.v, src_mesh, dst_mesh),
        crack=crack_from.transfer(src_mesh, dst_mesh),
        mesh=dst_mesh)


def mark_for_adaptation(est, cfg):
    if cfg.marking.strategy == "dorfler":
        return dorfler_mark(est, cfg.marking.theta), np.empty(0, dtype=np.int64)
    if cfg.marking.strategy == "threshold":
        refine = np.where(est.r2 > cfg.marking.cell_threshold)[0]
        return refine, np.empty(0, dtype=np.int64)
    return fraction_mark(est, cfg.marking.refine_fraction,
                         cfg.marking.coarsen_fraction)


def adapt_step(prev_state, post_state, est, cfg):
    """One adaptation pass: mark, adapt and transfer.

    Returns the previous state on the new mesh, ready for the re-solve, or
    ``None`` if the indicator is at or below the threshold, nothing is
    marked, or the adaptation refined nothing and merged no pair (every
    mark hit the level cap or an unmergeable pair), which leaves the mesh
    as it was.  The returned state carries the first solve's answer
    ``post_state`` moved to the new mesh, where the re-solve starts: its
    ``u`` and ``v`` as ``start``, its unclamped damage as ``v_raw``.  Once
    something is marked, the damage V-cycles of both states are dropped,
    before the new mesh is built.
    """
    if est.r_h <= cfg.tolerances.xi_rf:
        return None
    refine, coarsen = mark_for_adaptation(est, cfg)
    if refine.size == 0 and coarsen.size == 0:
        return None
    mesh = prev_state.mesh
    # no solve on the new mesh can refit the damage V-cycles the states
    # carry; they go before the new mesh is built, to keep peak memory down,
    # so after an adaptation that changes nothing the next step builds one
    prev_state.cycle = post_state.cycle = None
    new_mesh = adapt(mesh, refine, coarsen)
    done = new_mesh.adapt_summary
    if done.refined == 0 and done.coarsened_pairs == 0:
        return None
    moved = transfer_state(prev_state, mesh, new_mesh,
                           crack_from=post_state.crack)
    moved.start = (transfer(post_state.u_curr, mesh, new_mesh),
                   transfer(post_state.v, mesh, new_mesh))
    if post_state.v_raw is not None:
        moved.v_raw = transfer(post_state.v_raw, mesh, new_mesh)
    return moved


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------

@dataclass
class RunResult:
    records: list                    # one StepRecord per step, step 1 first
    state: DynamicState
    summary: dict
    first_pin: tuple = None          # (step index, coordinates array)

    # Read-only views over ``records``, kept because the benchmark harness
    # reads these five names; new code reads ``records``.
    reports = property(lambda self: [rec.report for rec in self.records])
    v_min = property(lambda self: [rec.v_min for rec in self.records])
    v_max = property(lambda self: [rec.v_max for rec in self.records])
    stationarity = property(
        lambda self: [rec.stationarity for rec in self.records[1:]])
    pinned_violations = property(
        lambda self: sum(rec.pinned_violation for rec in self.records))


def _initial_state(cfg):
    """The rest state on the initial mesh; the state is the only holder of
    its mesh, so the mesh goes with the last state that uses it."""
    mesh = cfg.build_mesh()
    return init_state(mesh, FeFunction.zeros(mesh), FeFunction.zeros(mesh),
                      cfg.time.k)


def _finish_record(rec, state, report):
    """Fill the fields of ``rec`` that ``run`` owns."""
    rec.report = report
    rec.v_min = float(state.v.values.min())
    rec.v_max = float(state.v.values.max())
    rec.pinned = len(state.crack.ids)
    rec.pinned_violation = bool(
        state.crack.ids.size and (state.v.values[state.crack.ids] != 0).any())
    return rec


def run(cfg, on_step=None):
    """Execute the adaptive staggered evolution defined by ``cfg``.

    ``cfg`` passes :meth:`RunConfig.validate` before anything is built or
    written, so a bad value assigned after construction raises
    ``ValueError`` here.  Appends each step's energy row to
    ``energies.csv`` in the output directory as soon as the step finishes
    (an old file is replaced), and writes snapshots per cadence (the
    ``snapshot_*.vtk`` files of an earlier run are removed first); returns
    one :class:`StepRecord` per step.
    ``on_step(state, est, report, record)`` is invoked after every completed
    step but the first.
    """
    from . import io as fio

    t_start = _time.perf_counter()
    cfg.validate()
    k = cfg.time.k
    state = _initial_state(cfg)
    est = estimate(state.u_curr, state.v, state.mesh, cfg.material)
    report = energies(state, cfg.material, est, time=k, step=1)
    records = [_finish_record(StepRecord(), state, report)]

    out_dir = fio.prepare_output(cfg.output.directory)
    trace = out_dir / "energies.csv"
    trace.unlink(missing_ok=True)
    for stale in out_dir.glob("snapshot_[0-9]*.vtk"):
        stale.unlink()
    fio.write_energy_trace([report], trace)
    if cfg.output.snapshot_every > 0:
        fio.write_snapshot(fio.make_snapshot(state, est, cfg, 1, k), out_dir)

    first_pin = None
    prev_energy = report.total
    for n in range(2, cfg.time.n_steps + 1):
        t_n = n * k
        prev = state
        phase = "staggered solve"
        try:
            # While the intact shortcut is active the bound v <= 1 is
            # active everywhere, no discrete critical point exists, and the
            # unconstrained residual the indicator measures carries no
            # information; adaptation waits for the reaction to activate.
            state, rec = staggered_step(prev, t_n, cfg)
            phase = "estimation"
            est = estimate(state.u_curr, state.v, state.mesh, cfg.material)
            phase = "adaptation"
            adapted = None if rec.shortcut \
                else adapt_step(prev, state, est, cfg)
            if adapted is not None:
                # the first solve's state holds the old mesh, its caches
                # and its wave system; free them before the re-solve
                prev, state, est = adapted, None, None
                prev_energy = energies(prev, cfg.material, time=t_n - k,
                                       step=n - 1).total
                phase = "re-solve after adaptation"
                first = rec
                state, rec = staggered_step(prev, t_n, cfg)
                # the moved state, with the start it carried, is spent
                prev = adapted = None
                rec.adapt = state.mesh.adapt_summary
                rec.first_solve = first
                rec.warnings[:0] = [f"before adaptation: {w}"
                                    for w in first.warnings]
                est = estimate(state.u_curr, state.v, state.mesh,
                               cfg.material)
            phase = "energies"
            report = energies(state, cfg.material, est, time=t_n, step=n)
            _finish_record(rec, state, report)
            # discrete dissipation ledger: E_n <= E_{n-1} + boundary work
            rec.ledger_slack = report.total - prev_energy - rec.boundary_work
            dsurf = report.surface - records[-1].report.surface
            if dsurf < -1e-10 * max(1.0, abs(report.surface)) \
                    and rec.clamp_changes == 0:
                rec.warnings.append(
                    f"surface energy decreased by {dsurf:.3e} at step {n} "
                    "without clamping")
            records.append(rec)
            if first_pin is None and state.crack.ids.size:
                first_pin = (n, state.mesh.vertices[state.crack.ids].copy())

            phase = "output"
            fio.write_energy_trace([report], trace)
            if cfg.output.snapshot_every > 0 \
                    and n % cfg.output.snapshot_every == 0:
                fio.write_snapshot(fio.make_snapshot(state, est, cfg, n, t_n),
                                   out_dir)
        except Exception as exc:
            raise RuntimeError(
                f"run aborted at step {n} during {phase} ({exc})") from exc
        if on_step is not None:
            on_step(state, est, report, rec)
        prev_energy = report.total

    summary = {
        "n_steps": cfg.time.n_steps,
        "final_cells": state.mesh.n_triangles,
        "final_dofs": state.mesh.n_vertices,
        "pinned_dofs": len(state.crack.ids),
        "wall_time_s": _time.perf_counter() - t_start,
        "warnings": sum(len(rec.warnings) for rec in records),
    }
    return RunResult(records=records, state=state, summary=summary,
                     first_pin=first_pin)
