"""Time stepping for the controlled sweeping inclusion.

The simulator realizes the catching-up selection of the discrete inclusion

    x_{j+1} = argmin || y - (x_j + h f(t_j, x_j)) ||   over  psi(y, u_{j+1}) in Theta,

so each step is an exact projection onto the moving set at the incoming
control, and the projection multiplier certifies the discrete inclusion.
A linear state map G is part of psi (:meth:`geometry.FieldMap.with_state_map`).
A step of :func:`simulate` is the drift and that projection alone: for an
affine-in-x field with a polyhedral Theta, one least-distance kernel call on
rows that :func:`geometry._step_rows` built for every step before the loop,
else a local SQP from x_j whose multiplier comes from its last
linearization, with no closing re-solve (a point at the centre of a gap of
a nonconvex set goes to the side of x_j).  The step records (psi, active
set, feasibility and KKT residual) come after the loop from one node table
over nodes 1..k; :func:`step_catching_up` is one such step with its record.
Residual checks against both the implicit (cone at the new point, next
control) and explicit (cone at the old point, old control) readings live in
:func:`inclusion_residual`, one stacked pass: the drifts, one node table
and one stacked cone distance over all steps.  The module also carries the polyhedral
feasible-companion construction, the W^{1,2} x C path metric used everywhere
in convergence reporting, and a small mesh-refinement study driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Array,
    ConfigurationError,
    FieldMap,
    GeometryError,
    ThetaSet,
    TOL_FEAS,
    _point,
    _project_onto_halfspaces,
    _projection_diagnostics,
    _rows,
    _sqp_local_projection,
    _step_rows,
    cone_distance_nodes,
    field_at_nodes,
    project_onto_moving_set,  # noqa: F401  (perfbench/layers.py wraps this name)
    psi_eval,
)


class SimulationError(Exception):
    """A catching-up step failed; carries the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


# ---------------------------------------------------------------------------
# Meshes and piecewise-linear paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on [0, T] with k subintervals, t_j = j T / k."""

    k: int
    T: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("mesh needs at least one subinterval")
        if not self.T > 0:
            raise ConfigurationError("horizon must be positive")

    @property
    def h(self) -> float:
        return self.T / self.k

    @cached_property
    def nodes(self) -> Array:
        """t_0 .. t_k, built once per mesh and read-only (it is shared)."""
        t = np.linspace(0.0, self.T, self.k + 1)
        t.flags.writeable = False
        return t


@dataclass(frozen=True)
class Path:
    """Piecewise-linear path: one vector value per mesh node."""

    mesh: Mesh
    values: Array

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, np.newaxis]
        if v.shape[0] != self.mesh.k + 1:
            raise ConfigurationError(
                f"expected {self.mesh.k + 1} node values, got {v.shape[0]}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def at(self, t: float | Array) -> Array:
        """Linear interpolation; arguments are clipped to [0, T]."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.mesh.T)
        nodes = self.mesh.nodes
        cols = [np.interp(t, nodes, self.values[:, i]) for i in range(self.dim)]
        return np.stack(cols, axis=-1)

    def diff_quotients(self) -> Array:
        """Constant derivative on each (t_j, t_{j+1}), shape (k, dim)."""
        return np.diff(self.values, axis=0) / self.mesh.h

    @staticmethod
    def sample(mesh: Mesh, fn: Callable[[float], Array | float]) -> "Path":
        vals = np.array([np.atleast_1d(np.asarray(fn(t), dtype=float))
                         for t in mesh.nodes])
        return Path(mesh=mesh, values=vals)


# ---------------------------------------------------------------------------
# The controlled system
# ---------------------------------------------------------------------------


def _read_only_float(value, ndim: int) -> Array:
    arr = np.array(value, dtype=float, ndmin=ndim)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AffineDrift:
    """The drift f(t, x) = A x + b, stated as data so that solvers read its
    Jacobian A instead of differencing the callback; zero is A = 0, b = 0."""

    A: Array
    b: Array

    def __post_init__(self) -> None:
        A, b = _read_only_float(self.A, 2), _read_only_float(self.b, 1)
        if A.shape != (len(b), len(b)):
            raise ConfigurationError("affine drift needs a square A matching b")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @staticmethod
    def zero(n: int) -> "AffineDrift":
        return AffineDrift(np.zeros((n, n)), np.zeros(n))

    def __call__(self, t: float, x: Array) -> Array:
        return self.A @ x + self.b


@dataclass(frozen=True)
class SweepingSystem:
    """Drift + moving-set data for x' in f(t,x) - N(x; C(u)),
    C(u) = {x : psi(x, u) in Theta}.

    ``f`` is a callable (t, x) -> R^n; an :class:`AffineDrift` gives the
    solvers its exact Jacobian.  ``field`` is the only description of the
    moving set: a linear state map G enters as the field psi(G x, u) of
    :meth:`FieldMap.with_state_map`.
    """

    f: Callable[[float, Array], Array]
    field: FieldMap
    theta: ThetaSet
    x0: Array
    T: float

    def __post_init__(self) -> None:
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        if x0.shape != (self.field.n,):
            raise ConfigurationError("x0 dimension mismatch")


def _drift(system: SweepingSystem, t: Array, x: Array) -> Array:
    """f(t_j, x_j) for every row x_j of x, stacked: one matmul for an
    AffineDrift, one callback per row otherwise."""
    f = system.f
    if isinstance(f, AffineDrift):
        return x @ f.A.T + f.b
    return np.array([np.atleast_1d(np.asarray(f(float(tj), xj), dtype=float))
                     for tj, xj in zip(t, x)])


def feasibility_violation(theta: ThetaSet, z: Array) -> float:
    """Max constraint violation of z against Theta (0 when inside)."""
    return float(_feasibility(theta, np.reshape(z, (1, -1)))[0])


def _feasibility(theta: ThetaSet, Z: Array) -> Array:
    """:func:`feasibility_violation` at every row of Z: max(0, max(g - d))."""
    g, _, d = theta.constraint(Z)
    return np.max(g - d, axis=-1, initial=0.0)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics for one accepted catching-up step."""

    eta: Array
    projection_residual: float
    feasibility: float
    active_indices: tuple[int, ...] = ()


def _step_records(system: SweepingSystem, field: FieldMap, drifted: Array,
                  u: Array, y: Array, eta: Array) -> list[StepRecord]:
    """The records of steps that took the rows of ``drifted`` to the rows of
    ``y`` at the controls ``u`` with multipliers ``eta``, from one node
    table over (y, u)."""
    psi, residual, active = _projection_diagnostics(field, system.theta,
                                                    drifted, u, y, eta)
    feasibility = _feasibility(system.theta, psi)
    return [StepRecord(eta=e, projection_residual=r, feasibility=f,
                       active_indices=a)
            for e, r, f, a in zip(eta, residual.tolist(), feasibility.tolist(),
                                  active)]


def _catching_up(system: SweepingSystem, x0: Array, U: Array, t: Array,
                 h: float) -> tuple[Array, Array, Array]:
    """Catching-up steps from x0: step j drifts x_j by h f(t[j], x_j) and
    projects onto C(U[j]).  Returns the states x_0..x_K, the drifted points
    and the multipliers, one row per step.

    The loop body is the drift and the projection alone: the least-distance
    kernel on the rows :func:`_step_rows` built for all steps before the
    loop, else the local SQP from x_j.  A failing step j raises
    SimulationError(j) caused by the GeometryError.
    """
    field, theta, f = system.field, system.theta, system.f
    rows = _step_rows(field, theta, U)
    xs = np.empty((len(U) + 1, field.n))
    xs[0] = x0
    drifted = np.empty((len(U), field.n))
    mus = np.empty((len(U), field.s if rows is None else rows[0].shape[1]))
    for j, t_j in enumerate(t.tolist()):
        x_j = xs[j]
        drifted[j] = x_j + h * np.atleast_1d(np.asarray(f(t_j, x_j), dtype=float))
        try:
            if rows is None:
                xs[j + 1], mus[j] = _sqp_local_projection(field, theta, U[j],
                                                          drifted[j], x_j)
            else:
                xs[j + 1], mus[j] = _project_onto_halfspaces(rows[0][j], rows[1][j],
                                                             drifted[j])
        except GeometryError as e:
            raise SimulationError(j, str(e)) from e
    return xs, drifted, mus if rows is None else _rows(rows[2].T, mus)


def step_catching_up(system: SweepingSystem, x_j: Array, u_next: Array,
                     t_j: float, h: float) -> tuple[Array, StepRecord]:
    """One catching-up step: drift by h f, then project onto C(u_next).

    The returned multiplier satisfies
    x_j + h f(t_j, x_j) - x_{j+1} = grad_x psi(x_{j+1}, u_next)^T eta
    with eta in N_Theta, so eta / h is the discrete inclusion multiplier.
    This is one step of :func:`simulate`, with its record; a failing
    projection raises its GeometryError, and x_j or u_next of the wrong
    shape a ConfigurationError.
    """
    x_j, u_next = _point(system.field, x_j, u_next)
    try:
        xs, drifted, eta = _catching_up(system, x_j, u_next[np.newaxis],
                                        np.array([t_j], dtype=float), h)
    except SimulationError as e:
        raise e.__cause__ from None
    [record] = _step_records(system, system.field, drifted, u_next[np.newaxis],
                             xs[1:], eta)
    return xs[1], record


def simulate(system: SweepingSystem, control: Path,
             ) -> tuple[Path, list[StepRecord]]:
    """Run catching-up along the control path's mesh.

    The initial state must lie in the moving set at the initial control;
    a failing step aborts with that step's index.  Each step is the drift
    and the projection alone (:func:`_catching_up`); the step records come
    afterwards from one node table over nodes 1..k.
    """
    mesh = control.mesh
    if abs(mesh.T - system.T) > 1e-12:
        raise ConfigurationError("control horizon differs from the system horizon")
    z0 = psi_eval(system.field, system.x0, control.values[0])
    if not system.theta.contains(z0, tol=TOL_FEAS):
        raise SimulationError(0, f"initial state infeasible: psi(x0,u0)={z0}")
    U = control.values
    xs, drifted, etas = _catching_up(system, system.x0, U[1:], mesh.nodes[:-1], mesh.h)
    return Path(mesh=mesh, values=xs), _step_records(system, system.field, drifted,
                                                    U[1:], xs[1:], etas)


def inclusion_residual(system: SweepingSystem, state: Path, control: Path,
                       convention: str = "implicit") -> Array:
    """Per-step distance of -(x_{j+1}-x_j)/h + f(t_j,x_j) to the cone.

    ``implicit`` evaluates the cone at (x_{j+1}, u_{j+1}), which the
    simulator satisfies by construction; ``explicit`` evaluates it at
    (x_j, u_j), the form the discrete transcription uses.  Infeasible points
    make the cone empty, so those steps report +inf.  One stacked pass
    through :func:`geometry.cone_distance_nodes`.
    """
    if state.mesh != control.mesh:
        raise ConfigurationError("paths must share a mesh")
    if convention not in ("implicit", "explicit"):
        raise ConfigurationError(f"unknown convention {convention!r}")
    mesh, x, k = state.mesh, state.values, state.mesh.k
    at = slice(1, k + 1) if convention == "implicit" else slice(0, k)
    tab = field_at_nodes(system.field, x[at], control.values[at])
    v = _drift(system, mesh.nodes[:k], x[:k]) - np.diff(x, axis=0) / mesh.h
    return cone_distance_nodes(system.theta, tab.psi, tab.Jx, v, TOL_FEAS)


def feasible_companion_polyhedral(state: Path, reference_state: Path,
                                  rows: Array, reference_b: Path) -> Path:
    """Offset shift keeping psi values along ``state`` equal to the reference.

    For the moving-rows field psi_i = <x, u_i> - b_i with the rows held at
    their reference values, b_j := b_ref(t_j) + rows (x_j - x_ref(t_j)) gives
    psi(x_j, (rows, b_j)) = psi(x_ref(t_j), (rows, b_ref(t_j))), so active
    sets are preserved and the discrete states become feasible.
    """
    if state.mesh != reference_state.mesh or state.mesh != reference_b.mesh:
        raise ConfigurationError("paths must share a mesh")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    shift = (state.values - reference_state.values) @ rows.T
    return Path(mesh=reference_b.mesh, values=reference_b.values + shift)


# ---------------------------------------------------------------------------
# Path metrics and refinement studies
# ---------------------------------------------------------------------------


def _union_times(a: Path, b: Path) -> Array:
    if abs(a.mesh.T - b.mesh.T) > 1e-12:
        raise ConfigurationError("paths live on different horizons")
    t = np.union1d(a.mesh.nodes, b.mesh.nodes)
    return t


def w12_distance(a: Path, b: Path) -> tuple[float, float]:
    """(W^{1,2} distance, sup node distance) between piecewise-linear paths.

    w12^2 = ||a(0)-b(0)||^2 + sum_j dt_j ||(da_j - db_j)/dt_j||^2.  Paths on
    different meshes are resampled onto the union of their node sets, which
    is exact for piecewise-linear data.
    """
    if a.dim != b.dim:
        raise ConfigurationError("paths have different value dimensions")
    if a.mesh == b.mesh:
        t = a.mesh.nodes
        va, vb = a.values, b.values
    else:
        t = _union_times(a, b)
        va, vb = a.at(t), b.at(t)
    diff = va - vb
    dt = np.diff(t)
    quot = np.diff(diff, axis=0) / dt[:, np.newaxis]
    w12_sq = float(diff[0] @ diff[0]) + float(np.sum(dt * np.sum(quot ** 2, axis=1)))
    sup = float(np.max(np.linalg.norm(diff, axis=1)))
    return float(np.sqrt(w12_sq)), sup


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    state_error_w12: float
    control_error_sup: float
    #: The simulated state and the control it came from.
    state: Path
    control: Path


#: State errors at or below this count as zero in a convergence study, so
#: ties between them do not break monotonicity.
_TIE_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    monotone: bool


def convergence_study(system: SweepingSystem,
                      control_family: Callable[[int], Path],
                      reference: tuple[Path, Path],
                      ks: Sequence[int]) -> ConvergenceTable:
    """Simulate per mesh size and tabulate errors against a reference pair.

    ``monotone`` asks for strictly decreasing state errors from one k to the
    next; once both errors sit at or below 1e-12 (they can be exactly
    zero when the reference is piecewise linear on the refined mesh), ties
    are allowed.
    """
    ks = list(ks)
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ConfigurationError("mesh list must be increasing")
    ref_state, ref_control = reference
    rows: list[ConvergenceRow] = []
    for k in ks:
        control = control_family(k)
        if control.mesh.k != k:
            raise ConfigurationError("control_family returned a wrong mesh")
        state, _ = simulate(system, control)
        w12, _ = w12_distance(state, ref_state)
        _, sup_u = w12_distance(control, ref_control)
        rows.append(ConvergenceRow(k=k, state_error_w12=w12, control_error_sup=sup_u,
                                   state=state, control=control))
    monotone = True
    for r1, r2 in zip(rows, rows[1:]):
        if r2.state_error_w12 < r1.state_error_w12:
            continue
        if r1.state_error_w12 <= _TIE_FLOOR and r2.state_error_w12 <= _TIE_FLOOR:
            continue
        monotone = False
    return ConvergenceTable(rows=tuple(rows), monotone=monotone)
