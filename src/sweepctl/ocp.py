"""Discrete optimal control over sweeping dynamics.

Two problem templates are implemented behind one interface.  In W12xW12 mode
the discrete cost is

    J = phi(x_k) + h sum_j ell(t_j, x_j, u_j, dx_j/h, du_j/h)
        + rho * h sum_j int (||dx_j/h - xref'||^2 + ||du_j/h - uref'||^2) dt

and in W12xC mode the running cost drops the control derivative while the
anchor terms become sum_j ||u_j - uref(t_j)||^2 + sum_j int ||dx_j/h - xref'||^2 dt
(the control sum runs over all k+1 nodes and carries no h factor).  The
anchor pair is optional; rho defaults to 0 which gives the plain Bolza
discretization.

``transcribe`` turns the problem into a complementarity program in the
decision variables (x, u, eta): explicit dynamics equalities

    x_{j+1} = x_j + h f(t_j, x_j) - h grad_x psi(x_j, u_j)^T eta_j,

per-step cone conditions eta_j in N_Theta(psi(x_j, u_j)) written as
complementarity pairs, and the endpoint constraint psi(x_k, u_k) in Theta.
One signed selector P (+e_i per finite upper bound of Theta, -e_i per finite
lower bound) with bounds c = [hi; -lo] gives every pair at once: slacks
c - P psi and multipliers mu >= 0 with eta = P^T mu.
``solve_smoothed`` replaces every pair (a, b) by the Fischer-Burmeister
residual a + b - sqrt(a^2 + b^2 + sigma^2) and drives the full KKT system to
stationarity with a Levenberg-Marquardt iteration while sigma is pushed down
the continuation schedule.  The KKT residual and Jacobian are assembled from
stage stacks (arrays indexed by step) through integer index tables into the
unknown vector, so the block-banded Jacobian is built by einsums and one
sparse scatter, not by per-step loops, and each damped step is one sparse
LU factorization of an augmented least-squares system.
``solve_shooting`` instead optimizes the control nodes directly over the
catching-up simulator with L-BFGS directions and an Armijo line search.  When
every step is the exact projection (an affine-in-x field and a polyhedral
Theta) the gradient is exact: forward-mode tangents carried along the
simulated trajectory, each step projecting its tangent onto the critical
cone of that step's projection, and ``cost_grad`` for the cost.  Nonlinear
fields and smooth Theta keep forward differences, one simulation per free
control entry.

Costs and drifts come in two kinds.  The data forms
:class:`QuadraticStageCost`, :class:`QuadraticTerminalCost` and
``dynamics.AffineDrift`` state a quadratic cost or an affine drift once, as
weights, a reference and matrices; every problem that the command line and
``problems`` build uses them.  ``OcpProblem`` derives ``ell``, ``dell``,
``phi`` and ``dphi`` from them, and the KKT stages, ``cost_eval``,
``cost_grad`` and the shooting tangents read values and exact derivatives
for all stages in array expressions.  Bare callbacks are called once per
node; the Hessians of their costs and the Jacobian of their drift come from
central differences.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import (
    AffineDrift,
    Mesh,
    Path,
    SimulationError,
    StepRecord,
    SweepingSystem,
    _read_only_float,
    simulate,
)
from .geometry import (
    TOL_FEAS,
    Array,
    ConfigurationError,
    NumericalFailureError,
    _project_onto_halfspaces,
    field_at_nodes,
    psi_eval,
)

#: Weight of the terminal-control tie-break regularizer in W12xC mode, where
#: u_k otherwise enters nothing but the endpoint constraint.  Small enough to
#: leave every reported cost untouched at the pass tolerances, large enough
#: that the tied direction does not degrade the Newton conditioning.
UK_TIE_WEIGHT = 1e-4


class InfeasibleWarmStartError(Exception):
    """The warm start violates a transcription precondition."""


@dataclass(frozen=True, eq=False)
class QuadraticStageCost:
    """Running cost  tracking ||u - ref(t)||^2 + energy ||udot||^2 / 2.

    ``ref`` is piecewise linear, given as a Path or as breakpoints
    (times, values) with strictly increasing times and one row of m values
    per time, kept as that pair of read-only arrays; it is held constant
    outside its times, and only a tracking term needs one.  The ``energy``
    term needs the W12xW12 template.  As an ``OcpProblem.ell`` the form is
    the running-cost callback itself, and ``cost_eval``, ``cost_grad`` and
    the smoothed solver read its weights instead of calling it per node.
    """

    tracking: float = 0.0
    energy: float = 0.0
    ref: Path | tuple[Sequence[float], Sequence[Sequence[float]]] | None = None

    def __post_init__(self) -> None:
        ref = self.ref
        if ref is not None:
            times, values = (ref.mesh.nodes, ref.values) if isinstance(ref, Path) else ref
            times, values = _read_only_float(times, 1), _read_only_float(values, 2)
            if len(times) < 2 or np.any(np.diff(times) <= 0):
                raise ConfigurationError(
                    "reference needs at least two strictly increasing times")
            if values.shape[0] != len(times):
                raise ConfigurationError("reference needs one row of values per time")
            object.__setattr__(self, "ref", (times, values))
        elif self.tracking:
            raise ConfigurationError("a tracking term needs a reference")
        object.__setattr__(self, "tracking", float(self.tracking))
        object.__setattr__(self, "energy", float(self.energy))

    def ref_at(self, t: float | Array) -> Array:
        """ref at one time (shape (m,)) or at an array of times (one row each)."""
        times, values = self.ref
        return np.array([np.interp(t, times, col) for col in values.T]).T

    def __call__(self, t: float, x: Array, u: Array, vx: Array,
                 vu: Array | None = None) -> float:
        total = 0.0
        if self.tracking:
            d = u - self.ref_at(t)
            total += self.tracking * float(d @ d)
        if self.energy:
            total += 0.5 * self.energy * float(vu @ vu)
        return total

    def grad(self, t: float, x: Array, u: Array, vx: Array,
             vu: Array | None = None) -> tuple:
        """Partial gradients in (x, u, vx[, vu]), the ``dell`` of the form."""
        gu = 2.0 * self.tracking * (u - self.ref_at(t)) if self.tracking else np.zeros(len(u))
        out = (np.zeros(len(x)), gu, np.zeros(len(vx)))
        return out if vu is None else out + (self.energy * vu,)


@dataclass(frozen=True, eq=False)
class QuadraticTerminalCost:
    """Terminal cost  weight ||x - center||^2 / 2, stated as data.

    As an ``OcpProblem.phi`` the form is the callback itself; its ``grad``
    is the derived ``dphi`` and its Hessian is weight * I.
    """

    center: Array
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _read_only_float(self.center, 1))
        object.__setattr__(self, "weight", float(self.weight))

    def __call__(self, x: Array) -> float:
        d = x - self.center
        return 0.5 * self.weight * float(d @ d)

    def grad(self, x: Array) -> Array:
        return self.weight * (x - self.center)


def _derived_grad(value, grad, name: str):
    """The gradient callback of a cost: derived from a data form, else the
    given one (which must not be left over from a data form)."""
    if isinstance(value, (QuadraticStageCost, QuadraticTerminalCost)):
        return value.grad
    owner = getattr(grad, "__self__", None)
    if grad is None or isinstance(owner, (QuadraticStageCost, QuadraticTerminalCost)):
        raise ConfigurationError(f"a callback {name} needs its own d{name}")
    return grad


@dataclass(frozen=True)
class OcpProblem:
    """Bolza problem over a sweeping system.

    ``ell``/``dell`` take (t, x, u, xdot) in W12xC mode and
    (t, x, u, xdot, udot) in W12xW12 mode; ``dell`` returns the partial
    gradients in the same order.  ``phi`` and ``ell`` are either bare
    callbacks, which then need ``dphi`` and ``dell``, or the data forms
    :class:`QuadraticTerminalCost` and :class:`QuadraticStageCost`, from
    which ``dphi`` and ``dell`` are derived.  ``anchor`` is an optional
    (state, control) Path pair; ``rho`` scales the proximity terms and
    ``epsilon`` is the localization radius (infinity disables the tube
    check).
    """

    system: SweepingSystem
    phi: Callable[[Array], float]
    ell: Callable[..., float]
    mode: str
    u0: Array
    dphi: Callable[[Array], Array] | None = None
    dell: Callable[..., tuple] | None = None
    anchor: tuple[Path, Path] | None = None
    rho: float = 0.0
    epsilon: float = float("inf")

    def __post_init__(self) -> None:
        if self.mode not in ("W12xW12", "W12xC"):
            raise ConfigurationError(f"unknown minimizer mode {self.mode!r}")
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.shape != (self.system.field.m,):
            raise ConfigurationError("u0 dimension mismatch")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "dphi", _derived_grad(self.phi, self.dphi, "phi"))
        object.__setattr__(self, "dell", _derived_grad(self.ell, self.dell, "ell"))
        if isinstance(self.ell, QuadraticStageCost):
            if self.ell.energy and not self.uses_udot:
                raise ConfigurationError("an energy term needs the W12xW12 mode")
            if self.ell.ref is not None and self.ell.ref[1].shape[1] != len(u0):
                raise ConfigurationError("reference dimension differs from the control")
        if self.rho < 0:
            raise ConfigurationError("rho must be nonnegative")
        if self.rho > 0 and self.anchor is None:
            raise ConfigurationError("rho > 0 requires an anchor pair")

    @property
    def uses_udot(self) -> bool:
        return self.mode == "W12xW12"


@dataclass(frozen=True)
class DiscreteDecision:
    """Node values of one discrete trajectory: states, controls, multipliers."""

    mesh: Mesh
    x: Array
    u: Array
    eta: Array

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        eta = np.atleast_2d(np.asarray(self.eta, dtype=float))
        k = self.mesh.k
        if x.shape[0] != k + 1 or u.shape[0] != k + 1 or eta.shape[0] != k:
            raise ConfigurationError("decision node counts do not match the mesh")
        for name, arr in (("x", x), ("u", u), ("eta", eta)):
            object.__setattr__(self, name, arr)

    def state_path(self) -> Path:
        return Path(mesh=self.mesh, values=self.x)

    def control_path(self) -> Path:
        return Path(mesh=self.mesh, values=self.u)


@dataclass(frozen=True)
class SolveReport:
    cost: float
    comp_residual: float
    stat_residual: float
    iterations: int
    sigma_trace: tuple[float, ...]
    cost_trace: tuple[float, ...]
    #: Work counters.  ``simulations``: catching-up simulations run by
    #: ``solve_shooting`` (0 from ``solve_smoothed``).  ``line_search_trials``:
    #: the shooting line-search trials among those simulations, or the
    #: damped Levenberg-Marquardt trials of ``solve_smoothed``, each one
    #: sparse factorization and one evaluation of the KKT residual.
    simulations: int = 0
    line_search_trials: int = 0
    #: Why ``solve_shooting`` stopped: "tolerance", "iteration_budget" or
    #: "line_search" (empty from ``solve_smoothed``, which converges or raises).
    stop_reason: str = ""


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------


def _segment_sq_integral(t0: float, t1: float, v: Array, ref: Path) -> float:
    """Exact integral of ||v - ref'(t)||^2 over [t0, t1] for PL ``ref``."""
    nodes = ref.mesh.nodes
    cuts = nodes[(nodes > t0 + 1e-15) & (nodes < t1 - 1e-15)]
    ts = np.concatenate([[t0], cuts, [t1]])
    slopes = ref.diff_quotients()
    total = 0.0
    for a, b in zip(ts[:-1], ts[1:]):
        midpoint = 0.5 * (a + b)
        cell = min(int(midpoint / ref.mesh.h), ref.mesh.k - 1)
        d = v - slopes[cell]
        total += (b - a) * float(d @ d)
    return total


def _anchor_cost(problem: OcpProblem, z: DiscreteDecision) -> float:
    if problem.rho == 0.0 or problem.anchor is None:
        return 0.0
    xref, uref = problem.anchor
    mesh = z.mesh
    h = mesh.h
    vx = np.diff(z.x, axis=0) / h
    total = 0.0
    if problem.mode == "W12xW12":
        vu = np.diff(z.u, axis=0) / h
        for j in range(mesh.k):
            t0, t1 = mesh.nodes[j], mesh.nodes[j + 1]
            total += _segment_sq_integral(t0, t1, vx[j], xref)
            total += _segment_sq_integral(t0, t1, vu[j], uref)
        return problem.rho * h * total
    # W12xC: unscaled control-node proximity plus the state derivative tube.
    for j in range(mesh.k + 1):
        d = z.u[j] - uref.at(mesh.nodes[j])
        total += float(d @ d)
    for j in range(mesh.k):
        total += _segment_sq_integral(mesh.nodes[j], mesh.nodes[j + 1], vx[j], xref)
    return problem.rho * total


def cost_eval(problem: OcpProblem, z: DiscreteDecision) -> float:
    """Discrete cost of a decision under the problem's template.

    A data-form running cost is evaluated at every stage by one array
    expression, a bare callback once per stage; the stage terms are summed
    in stage order either way.
    """
    mesh = z.mesh
    h = mesh.h
    total = float(problem.phi(z.x[-1]))
    quad = _quadratic_stage(problem, mesh.nodes[:-1])
    if quad is not None:
        R, w = quad
        d = _raw_args(problem, np.hstack([z.x, z.u]), h) - R
        stage = (0.5 * (d * d @ w)).tolist()
    else:
        vel = [np.diff(z.x, axis=0) / h]
        if problem.uses_udot:
            vel.append(np.diff(z.u, axis=0) / h)
        stage = [problem.ell(float(t), *a) for t, *a in zip(mesh.nodes, z.x, z.u, *vel)]
    for value in stage:
        total += h * float(value)
    return total + _anchor_cost(problem, z)


def _raw_map(problem: OcpProblem, h: float) -> Array:
    """M with (x_j, u_j, vx_j[, vu_j]) = M (z_j, z_{j+1}): the running cost's
    raw argument from the node pair of a stage."""
    n, m = problem.system.field.n, problem.system.field.m
    E = np.eye(2 * (n + m))
    V = (E[n + m:] - E[:n + m]) / h
    return np.vstack([E[:n + m], V if problem.uses_udot else V[:n]])


def _raw_args(problem: OcpProblem, z: Array, h: float) -> Array:
    """The raw arguments (x_j, u_j, vx_j[, vu_j]) of every stage, stacked,
    from the node values z_j = (x_j, u_j)."""
    vel = np.diff(z, axis=0) / h
    n = problem.system.field.n
    return np.hstack([z[:-1], vel if problem.uses_udot else vel[:, :n]])


def _ell_grad(problem: OcpProblem, t: float, raw: Array) -> Array:
    """``dell`` at one raw argument, concatenated into one vector."""
    n, m = problem.system.field.n, problem.system.field.m
    args = (raw[:n], raw[n:n + m], raw[n + m:2 * n + m])
    if problem.uses_udot:
        args += (raw[2 * n + m:],)
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float))
                           for p in problem.dell(t, *args)])


def _quadratic_stage(problem: OcpProblem, t: Array) -> tuple[Array, Array] | None:
    """(R, w) such that a data-form running cost has the gradient
    (raw_j - R_j) * w and the Hessian diag(w) in the raw argument of the
    stage at time t_j; None when ``ell`` is a bare callback."""
    ell = problem.ell
    if not isinstance(ell, QuadraticStageCost):
        return None
    n, m = problem.system.field.n, problem.system.field.m
    w = np.zeros(2 * (n + m) if problem.uses_udot else 2 * n + m)
    R = np.zeros((len(t), len(w)))
    w[n:n + m] = 2.0 * ell.tracking
    if ell.ref is not None:
        R[:, n:n + m] = ell.ref_at(t)
    if problem.uses_udot:
        w[2 * n + m:] = ell.energy
    return R, w


def _running_grad(problem: OcpProblem, t: Array, raw: Array,
                  quad: tuple[Array, Array] | None, want_hess: bool,
                  ) -> tuple[Array, Array | None]:
    """Running-cost gradient in the raw argument of every stage and, with
    ``want_hess``, its Hessian: array expressions over all stages for a data
    form (``quad`` from ``_quadratic_stage``), else ``dell`` per stage and
    central differences of it."""
    if quad is not None:
        R, w = quad
        H = np.broadcast_to(np.diag(w), (len(raw),) + 2 * w.shape) if want_hess else None
        return (raw - R) * w, H
    g = np.array([_ell_grad(problem, float(tj), r) for tj, r in zip(t, raw)])
    H = np.array([_central_jacobian(lambda v, tj=float(tj): _ell_grad(problem, tj, v), r)
                  for tj, r in zip(t, raw)]) if want_hess else None
    return g, H


def _terminal_grad(problem: OcpProblem, x: Array, want_hess: bool,
                   ) -> tuple[Array, Array | None]:
    """Terminal-cost gradient at x and, with ``want_hess``, its Hessian:
    exact for a data form, central differences of ``dphi`` otherwise."""
    phi = problem.phi
    if isinstance(phi, QuadraticTerminalCost):
        return (phi.weight * (x - phi.center),
                phi.weight * np.eye(len(x)) if want_hess else None)

    def dphi(v: Array) -> Array:
        return np.atleast_1d(np.asarray(problem.dphi(v), dtype=float))

    return dphi(x), _central_jacobian(dphi, x) if want_hess else None


def _drift(system: SweepingSystem, t: Array, x: Array) -> Array:
    """f(t_j, x_j) for every row x_j of x, stacked: one matmul for an
    AffineDrift, one callback per row otherwise."""
    f = system.f
    if isinstance(f, AffineDrift):
        return x @ f.A.T + f.b
    return np.array([np.atleast_1d(np.asarray(f(float(tj), xj), dtype=float))
                     for tj, xj in zip(t, x)])


def _drift_jacobian(system: SweepingSystem, t: Array, x: Array) -> Array:
    """Df(t_j, x_j) for every row x_j of x, stacked (len(x), n, n): A itself
    for an AffineDrift, central differences of the callback otherwise."""
    f = system.f
    if isinstance(f, AffineDrift):
        return np.broadcast_to(f.A, (len(x),) + f.A.shape)
    return np.array([
        _central_jacobian(lambda v, tj=float(tj):
                          np.atleast_1d(np.asarray(f(tj, v), dtype=float)), xj)
        for tj, xj in zip(t, x)])


def _cost_terms(problem: OcpProblem, mesh: Mesh, M: Array, z: Array, g: Array,
                gphi: Array, Hraw: Array | None = None,
                Hphi: Array | None = None, tie_break: bool = False,
                ) -> tuple[Array, Array | None]:
    """Node gradient (k+1, n+m) of the discrete cost from the running-cost
    gradient g in its raw argument (``M`` is ``_raw_map``) and the terminal
    gradient gphi, and, given their Hessians, the per-stage Hessian blocks
    (k, 2(n+m), 2(n+m)) over (z_j, z_{j+1}).  Anchor and (with
    ``tie_break``) tie-break terms are exact quadratics
    w * ||z_{j+1} - z_j - dref_j||^2 / 2 per stage."""
    k, h = mesh.k, mesh.h
    n, d = problem.system.field.n, z.shape[1]
    gs = h * (g @ M)
    gz = np.zeros((k + 1, d))
    gz[1:] += gs[:, d:]
    gz[:-1] += gs[:, :d]
    gz[k, :n] += gphi
    w = np.zeros((k, d))
    dref = np.zeros((k, d))
    wnode = np.zeros(d)  # W12xC control-node proximity
    if problem.rho > 0 and problem.anchor is not None:
        ref = np.hstack([path.at(mesh.nodes) for path in problem.anchor])
        if problem.uses_udot:
            w[:] = 2 * problem.rho
            dref = np.diff(ref, axis=0)
        else:
            w[:, :n] = 2 * problem.rho / h
            dref[:, :n] = np.diff(ref[:, :n], axis=0)
            wnode[n:] = 2 * problem.rho
            gz[:, n:] += 2 * problem.rho * (z[:, n:] - ref[:, n:])
    if tie_break and not problem.uses_udot:
        # Terminal-control tie-break: without it u_k only enters the
        # endpoint constraint and the KKT matrix goes singular along u_k.
        w[-1, n:] = 2 * UK_TIE_WEIGHT
    rd = w * (np.diff(z, axis=0) - dref)
    gz[1:] += rd
    gz[:-1] -= rd
    if Hraw is None:
        return gz, None
    Hc = h * (M.T @ (0.5 * (Hraw + Hraw.swapaxes(1, 2))) @ M)
    Hc[-1, d:d + n, d:d + n] += 0.5 * (Hphi + Hphi.T)
    Hc[:, :d, :d] += np.diag(wnode)
    Hc[-1, d:, d:] += np.diag(wnode)
    W = w[:, :, None] * np.eye(d)
    return gz, Hc + np.block([[W, -W], [-W, W]])


def cost_grad(problem: OcpProblem, z: DiscreteDecision) -> tuple[Array, Array]:
    """Gradient (dX, dU) of :func:`cost_eval` in the state and control nodes.

    Exact: built from the data forms (or ``dphi`` and ``dell``) and the
    anchor quadratics, with no differencing.  dX and dU have the shapes of
    ``z.x`` and ``z.u``.
    """
    mesh, n = z.mesh, z.x.shape[1]
    Z = np.hstack([z.x, z.u])
    t = mesh.nodes[:-1]
    g, _ = _running_grad(problem, t, _raw_args(problem, Z, mesh.h),
                         _quadratic_stage(problem, t), want_hess=False)
    gphi, _ = _terminal_grad(problem, z.x[-1], want_hess=False)
    gz, _ = _cost_terms(problem, mesh, _raw_map(problem, mesh.h), Z, g, gphi)
    return gz[:, :n], gz[:, n:]


def localization_violation(problem: OcpProblem, z: DiscreteDecision) -> float:
    """How far the decision leaves the epsilon/2 tube around the anchor."""
    if problem.anchor is None or not np.isfinite(problem.epsilon):
        return 0.0
    xref, uref = problem.anchor
    worst = 0.0
    for j, t in enumerate(z.mesh.nodes):
        d = np.concatenate([z.x[j] - xref.at(t), z.u[j] - uref.at(t)])
        worst = max(worst, float(np.linalg.norm(d)) - problem.epsilon / 2.0)
    return max(0.0, worst)


# ---------------------------------------------------------------------------
# Transcription
# ---------------------------------------------------------------------------


def _signed_selector(lo: Array, hi: Array) -> tuple[Array, Array]:
    """Signed pair selector P and bound vector c for lo <= z <= hi.

    P stacks +e_i for every finite upper bound, then -e_i for every finite
    lower bound, and c = [hi_up; -lo_lo], so c - P z stacks the slacks
    hi - z and z - lo, and pair multipliers mu >= 0 act as eta = P^T mu.
    """
    eye = np.eye(len(lo))
    ups, los = np.isfinite(hi), np.isfinite(lo)
    return np.vstack([eye[ups], -eye[los]]), np.concatenate([hi[ups], -lo[los]])


def _fb(a: Array, b: Array, sigma: float) -> Array:
    return a + b - np.sqrt(a * a + b * b + sigma * sigma)


def _fb_partials(a: Array, b: Array, sigma: float) -> tuple[Array, Array]:
    r = np.sqrt(a * a + b * b + sigma * sigma)
    return 1.0 - a / r, 1.0 - b / r


def _fb_second(a: Array, b: Array, sigma: float) -> tuple[Array, Array, Array]:
    """(d2/daa, d2/dab, d2/dbb) of the smoothed residual."""
    r = np.sqrt(a * a + b * b + sigma * sigma)
    r3 = r ** 3
    return -(b * b + sigma * sigma) / r3, a * b / r3, -(a * a + sigma * sigma) / r3


class Transcription:
    """Complementarity program for one problem on one mesh.

    Decision variables are the state and control nodes plus one nonnegative
    multiplier per finite Theta bound per step; the endpoint constraint adds
    a terminal multiplier pair.  ``P`` and ``c`` are the signed pair
    selector and bounds of Theta (see ``_signed_selector``).
    ``solve_smoothed`` owns the KKT unknowns (adjoints included); this object
    carries the structure.
    """

    def __init__(self, problem: OcpProblem, k: int):
        self.problem = problem
        self.mesh = Mesh(k=k, T=problem.system.T)
        self.field = problem.system.effective_field()
        bounds = problem.system.theta.bounds()
        if bounds is None:
            raise ConfigurationError(
                "complementarity transcription supports orthant/box-like Theta only")
        self.P, self.c = _signed_selector(*bounds)
        n, m = self.field.n, self.field.m
        k = self.mesh.k
        r = len(self.c)
        self.counts = {
            "variables": (k + 1) * n + (k + 1) * m + k * r,
            "dynamic_equalities": k * n,
            "complementarity_rows": k * r,
            "endpoint_rows": r,
        }

    # -- complementarity inspection ----------------------------------------

    def pair_values(self, z: DiscreteDecision) -> list[tuple[float, float]]:
        """All (multiplier, slack) pairs at a decision (terminal pair omitted:
        the terminal multiplier is not part of the decision data)."""
        psi = field_at_nodes(self.field, z.x[:-1], z.u[:-1]).psi
        mu = np.maximum(z.eta @ self.P.T, 0.0)
        slack = self.c - psi @ self.P.T
        return list(zip(mu.ravel().tolist(), slack.ravel().tolist()))

    def dynamics_residual(self, z: DiscreteDecision) -> float:
        h = self.mesh.h
        f = _drift(self.problem.system, self.mesh.nodes[:-1], z.x[:-1])
        Jx = field_at_nodes(self.field, z.x[:-1], z.u[:-1]).Jx
        r = z.x[1:] - z.x[:-1] - h * f + h * np.einsum("jsn,js->jn", Jx, z.eta)
        return float(np.max(np.abs(r)))

    def initial_decision(self) -> DiscreteDecision:
        """Warm start: hold the anchor control (or u0) and simulate."""
        if self.problem.anchor is not None:
            nodes = self.problem.anchor[1].at(self.mesh.nodes)
            nodes[0] = self.problem.u0
        else:
            nodes = np.tile(self.problem.u0, (self.mesh.k + 1, 1))
        control = Path(mesh=self.mesh, values=nodes)
        state, records = simulate(self.problem.system, control)
        eta = np.array([r.eta for r in records]) / self.mesh.h
        return DiscreteDecision(mesh=self.mesh, x=state.values, u=control.values,
                                eta=eta)


def transcribe(problem: OcpProblem, k: int) -> Transcription:
    """Build the complementarity transcription on a k-interval mesh."""
    return Transcription(problem, k)


# ---------------------------------------------------------------------------
# Smoothed KKT Newton solver
# ---------------------------------------------------------------------------


class _KktPoint(NamedTuple):
    """The stage data of one KKT evaluation that its Jacobian is built from:
    pair rows P [Jx | Ju] and row curvatures Hz at the nodes, the drift
    Jacobian A, the cost's stage Hessians Hc, the multipliers, adjoints and
    slacks, and the smoothed-pair partials."""

    sigma: float
    PJz: Array
    Hz: Array
    A: Array
    Hc: Array
    mu: Array
    gam: Array
    p: Array
    tk: Array
    b: Array
    fa: Array
    fb: Array
    Heta: Array
    lift: Array


class _KktSystem:
    """Layout and evaluation of the smoothed KKT residual and its Jacobian.

    Unknowns, in order: x_1..x_k, u_1..u_k, etap_0..etap_{k-1},
    etam_0..etam_{k-1}, p_1..p_k, gammap, gammam, thetap, thetam; residual
    rows use the same layout (stationarity in the primal slots, constraints
    in the dual slots).  Integer index tables, built once, locate each name
    per node or step: ``iz[j]`` the node unknowns z_j = (x_j, u_j) (row 0 is
    -1: z_0 is pinned), ``imu[j]`` the pair multipliers mu_j = [etap_j;
    etam_j], ``igam[j]`` their smoothed-row duals, ``ip[j]`` the adjoint
    p_{j+1} of step j and ``it`` the terminal pair.  The transcription's
    signed selector P turns them into slacks b_j = c - P psi_j and the
    multiplier eta_j = P^T mu_j, so upper and lower bounds share every
    formula.

    ``evaluate`` stacks the stage data and returns F with the data J is
    built from (a :class:`_KktPoint`), so a trial point the Newton iteration
    accepts is not evaluated again; ``jacobian`` builds J from it.  A
    data-form cost and drift (:class:`QuadraticStageCost`,
    :class:`QuadraticTerminalCost`, :class:`AffineDrift`) give their
    gradients, constant Hessians and drift Jacobian as array expressions
    over all stages, exactly; bare callbacks are called once per node and
    differenced centrally.  The field comes from one node table
    (``geometry.field_at_nodes``): array expressions over all nodes for an
    affine field, else one call of each callback per node, and s Hessian
    contractions for the curvature.  F is a handful of gathers and einsums.
    J is sparse (CSC), the sum of stacks of dense blocks
    (``jacobian_blocks``, placed at ``block_positions``): one symmetric
    block per step over (z_j, mu_j, gamma_j, p_{j+1}), one cost block per
    stage over (z_j, z_{j+1}) (running cost, anchor, tie-break and terminal
    cost), the identity couplings of p_{j+1} with x_{j+1} and one terminal
    block.  Their positions are sorted into CSC order once per system
    (:func:`_assembler`), and entries sharing a position add up in block
    order.
    Second derivatives of f and third derivatives of psi are left out of J.
    """

    def __init__(self, tr: Transcription):
        self.tr, self.problem, self.mesh = tr, tr.problem, tr.mesh
        self.field, self.P, self.c = tr.field, tr.P, tr.c
        k, n, m, h = self.mesh.k, self.field.n, self.field.m, self.mesh.h
        su, r = int(np.sum(self.P > 0)), len(self.c)  # upper-bound rows come first
        widths = {"x": n, "u": m, "ep": su, "em": r - su, "p": n, "gp": su,
                  "gm": r - su}
        tab, start = {}, 0
        for name, width in widths.items():
            tab[name] = start + np.arange(k * width).reshape(k, width)
            start += k * width
        self.iz = np.vstack([np.full((1, n + m), -1),
                             np.hstack([tab["x"], tab["u"]])])
        self.imu = np.hstack([tab["ep"], tab["em"]])
        self.igam = np.hstack([tab["gp"], tab["gm"]])
        self.ip = tab["p"]
        self.it = start + np.arange(r)
        self.N = start + r
        self.n_stat = k * (n + m + r)
        self.M = _raw_map(self.problem, h)
        self.quad = _quadratic_stage(self.problem, self.mesh.nodes[:k])
        # Where the Jacobian blocks go: one symmetric block per step, one
        # cost block per stage, the identity couplings of p_{j+1} with
        # x_{j+1} both ways, and the terminal block.
        step = np.hstack([self.iz[:k], self.imu, self.igam, self.ip])
        stage = np.hstack([self.iz[:-1], self.iz[1:]])
        term = np.concatenate([self.iz[k], self.it])[None]
        self.block_positions = [(step, step), (stage, stage),
                                (self.ip, self.iz[1:, :n]), (self.iz[1:, :n], self.ip),
                                (term, term)]
        self._assemble = _assembler(self.N, self.block_positions)

    # -- packing ------------------------------------------------------------

    def nodes(self, X: Array) -> Array:
        """Node values z_j = (x_j, u_j), j = 0..k, stacked (k+1, n+m)."""
        z = np.empty((self.mesh.k + 1, self.iz.shape[1]))
        z[0] = np.concatenate([self.problem.system.x0, self.problem.u0])
        z[1:] = X[self.iz[1:]]
        return z

    def pack_primal(self, z: DiscreteDecision) -> Array:
        X = np.zeros(self.N)
        X[self.iz[1:]] = np.hstack([z.x, z.u])[1:]
        X[self.imu] = np.maximum(z.eta @ self.P.T, 0.0)
        return X

    def unpack(self, X: Array) -> DiscreteDecision:
        z = self.nodes(X)
        n = self.field.n
        return DiscreteDecision(mesh=self.mesh, x=z[:, :n], u=z[:, n:],
                                eta=X[self.imu] @ self.P)

    # -- stage data -----------------------------------------------------------

    def _stages(self, z: Array, want_hess: bool) -> tuple:
        """Stage data at the node values z, stacked.

        Returns psi and its Jacobian [dpsi_dx | dpsi_du] at nodes 0..k, the
        per-row curvature Hz[j, i] = [[Hxx(e_i), Hux(e_i)^T], [Hux(e_i), 0]],
        the drift f and its Jacobian at steps 0..k-1, and the cost's node
        gradient and (with ``want_hess``) per-stage Hessian blocks from
        ``_cost_terms``.
        """
        pb, field, mesh = self.problem, self.field, self.mesh
        k, n = mesh.k, field.n
        x = z[:, :n]
        tab = field_at_nodes(field, x, z[:, n:])
        Hz = np.zeros((k + 1, field.s) + 2 * (z.shape[1],))
        for i, e in enumerate(np.eye(field.s)):
            Hz[:, i, :n, :n], Hz[:, i, n:, :n] = tab.hess(
                np.broadcast_to(e, (k + 1, field.s)))
        Hz[:, :, :n, n:] = Hz[:, :, n:, :n].swapaxes(2, 3)
        t = mesh.nodes[:k]
        f, A = _drift(pb.system, t, x[:k]), _drift_jacobian(pb.system, t, x[:k])
        g, Hraw = _running_grad(pb, t, _raw_args(pb, z, mesh.h), self.quad, want_hess)
        gphi, Hphi = _terminal_grad(pb, x[k], want_hess)
        return (tab.psi, tab.J, Hz, f, A) + _cost_terms(
            pb, mesh, self.M, z, g, gphi, Hraw, Hphi, tie_break=True)

    # -- residual and Jacobian --------------------------------------------

    def evaluate(self, X: Array, sigma: float) -> tuple[Array, _KktPoint]:
        """F(X, sigma) and the stage data that :meth:`jacobian` builds J from,
        so that a point is evaluated once whether or not J is needed."""
        P, k, n, h = self.P, self.mesh.k, self.field.n, self.mesh.h
        z = self.nodes(X)
        psi, Jz, Hz, f, A, gz, Hc = self._stages(z, want_hess=True)
        mu, gam, p, tk = X[self.imu], X[self.igam], X[self.ip], X[self.it]
        eta = mu @ P
        PJz = P @ Jz
        b = self.c - psi @ P.T  # slacks: one row per step, then the terminal one
        fa, fb = _fb_partials(mu, b[:k], sigma)
        Heta = np.einsum("js,jsab->jab", eta, Hz[:k])
        lift = -(gam * fb) @ P

        F = np.zeros(self.N)
        Fz = gz
        Fz[1:, :n] += p
        Fz[:k, :n] += -p - h * np.einsum("jab,ja->jb", A, p)
        Fz[:k] += (h * np.einsum("jab,jb->ja", Heta[:, :, :n], p)
                   + np.einsum("jsa,js->ja", Jz[:k], lift))
        Fz[k] += Jz[k].T @ (tk @ P)
        F[self.iz[1:]] = Fz[1:]
        F[self.imu] = h * np.einsum("jrn,jn->jr", PJz[:k, :, :n], p) + fa * gam
        F[self.ip] = (z[1:, :n] - z[:-1, :n] - h * f
                      + h * np.einsum("jsn,js->jn", Jz[:k, :, :n], eta))
        F[self.igam] = _fb(mu, b[:k], sigma)
        F[self.it] = _fb(tk, b[k], sigma)
        return F, _KktPoint(sigma=sigma, PJz=PJz, Hz=Hz, A=A, Hc=Hc, mu=mu,
                            gam=gam, p=p, tk=tk, b=b, fa=fa, fb=fb, Heta=Heta,
                            lift=lift)

    def jacobian(self, pt: _KktPoint):
        """The sparse (CSC) N x N Jacobian of F at an evaluated point."""
        return self._assemble(self.jacobian_blocks(pt))

    def jacobian_blocks(self, pt: _KktPoint) -> list[Array]:
        """The stacks of dense Jacobian blocks at an evaluated point, one per
        entry of ``block_positions``."""
        P, k, n, h = self.P, self.mesh.k, self.field.n, self.mesh.h
        PJz, Hz, sigma, gam, fa, fb = pt.PJz, pt.Hz, pt.sigma, pt.gam, pt.fa, pt.fb
        d, r = self.iz.shape[1], len(self.c)
        Z, M, G, D = (slice(0, d), slice(d, d + r), slice(d + r, d + 2 * r),
                      slice(d + 2 * r, None))
        faa, fab, fbb = _fb_second(pt.mu, pt.b[:k], sigma)
        # Q[j, i] = d/dz_j of h^-1 (P Jx_j p_{j+1})_i: row curvature times p.
        Q = P @ np.einsum("jsab,jb->jsa", Hz[:k, :, :, :n], pt.p)
        Ex = np.eye(d)[:n]
        # Step block over (z_j, mu_j, gamma_j, p_{j+1}).  It is a Lagrangian
        # Hessian, so symmetric: the lower half is mirrored, then the
        # diagonal blocks are set.
        L = np.zeros((k,) + 2 * (d + 2 * r + n,))
        L[:, M, Z] = h * Q - (gam * fab)[:, :, None] * PJz[:k]
        L[:, G, Z] = -fb[:, :, None] * PJz[:k]
        L[:, G, M] = fa[:, :, None] * np.eye(r)
        L[:, D, Z] = -Ex - h * pt.A @ Ex + h * pt.Heta[:, :n]
        L[:, D, M] = h * PJz[:k, :, :n].swapaxes(1, 2)
        L += L.swapaxes(1, 2)
        L[:, Z, Z] = (np.einsum("jra,jr,jrb->jab", PJz[:k], gam * fbb, PJz[:k])
                      + np.einsum("js,jsab->jab", pt.lift, Hz[:k]))
        L[:, M, M] = (gam * faa)[:, :, None] * np.eye(r)
        # Terminal block over (z_k, thetap, thetam).
        fat, fbt = _fb_partials(pt.tk, pt.b[k], sigma)
        T = np.block([[np.einsum("s,sab->ab", pt.tk @ P, Hz[k]), PJz[k].T],
                      [-fbt[:, None] * PJz[k], np.diag(fat)]])
        eye = np.broadcast_to(np.eye(n), (k, n, n))
        return [L, pt.Hc, eye, eye, T[None]]

    def residual(self, X: Array, sigma: float, with_jacobian: bool = False):
        """F(X, sigma) and, with ``with_jacobian``, its sparse Jacobian."""
        F, pt = self.evaluate(X, sigma)
        return F, self.jacobian(pt) if with_jacobian else None

    def locate(self, i: int) -> tuple[str, int]:
        """The kind of residual row i and the step it belongs to: a
        "stationarity" row of node j, a "mu", "gamma" or "adjoint"
        (dynamics) row of step j, or the "terminal" pair (step k)."""
        for kind, table, first in (("stationarity", self.iz[1:], 1),
                                   ("mu", self.imu, 0), ("gamma", self.igam, 0),
                                   ("adjoint", self.ip, 0)):
            hit = np.flatnonzero((table == i).any(axis=1))
            if hit.size:
                return kind, int(hit[0]) + first
        return "terminal", self.mesh.k

    def stationarity_norm(self, F: Array) -> float:
        return float(np.max(np.abs(F[:self.n_stat])))


def _central_jacobian(fn: Callable[[Array], Array], v: Array) -> Array:
    """Central differences of fn at v, steps 1e-6 (1 + |v_a|), by column."""
    cols = []
    for a in range(v.size):
        step = 1e-6 * (1.0 + abs(v[a]))
        vp, vm = v.copy(), v.copy()
        vp[a] += step
        vm[a] -= step
        cols.append((fn(vp) - fn(vm)) / (2 * step))
    return np.column_stack(cols)


def _assembler(N: int, positions: Sequence[tuple[Array, Array]]):
    """Assembly of stacks of dense blocks into one sparse (CSC) N x N matrix.

    ``positions`` lists (rows, cols) index stacks, sorted into CSC order once
    here; the returned function takes the matching stacks of blocks and puts
    B[j] at rows[j] x cols[j].  Entries sharing a position add up in the
    order the blocks list them (as ``np.bincount`` sums), and entries with a
    negative index (the pinned node) are dropped.
    """
    from scipy.sparse import csc_array

    shapes = [(len(i), i.shape[1], j.shape[1]) for i, j in positions]
    r = np.concatenate([np.broadcast_to(i[:, :, None], shape).ravel()
                        for (i, _), shape in zip(positions, shapes)])
    c = np.concatenate([np.broadcast_to(j[:, None, :], shape).ravel()
                        for (_, j), shape in zip(positions, shapes)])
    keep = (r >= 0) & (c >= 0)
    # Column-major keys: the sorted unique positions are already CSC order.
    key, slot = np.unique(c[keep] * N + r[keep], return_inverse=True)
    cols, rows = np.divmod(key, N)
    indptr = np.searchsorted(cols, np.arange(N + 1))
    for arr in (rows, indptr):  # shared by every matrix assembled below
        arr.flags.writeable = False

    def assemble(blocks: Sequence[Array]):
        v = np.concatenate([B.ravel() for B in blocks])[keep]
        return csc_array((np.bincount(slot, v, minlength=len(key)), rows, indptr),
                         shape=(N, N))

    return assemble


def _entry_columns(J) -> Array:
    """The column of every stored entry of a CSC matrix, in storage order."""
    return np.repeat(np.arange(J.shape[1]), np.diff(J.indptr))


def _damped_step(J, F: Array, lam: float, D: Array) -> Array:
    """The Levenberg-Marquardt step d minimizing ||J d + F||^2 + lam d^T D d
    for a CSC array J and D > 0.

    One ``splu`` of Bjorck's augmented system [[I, J], [J^T, -lam D]] with
    right-hand side [-F; 0], whose solution is (-F - J d, d): no normal
    equations, so J's condition number is not squared.  The matrix is built
    in one sparse call from J's entries.
    """
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    (m, n), row, col = J.shape, J.indices, _entry_columns(J)
    rows = np.concatenate([np.arange(m), row, m + col, m + np.arange(n)])
    cols = np.concatenate([np.arange(m), m + col, row, m + np.arange(n)])
    data = np.concatenate([np.ones(m), J.data, J.data, -lam * D])
    lu = splu(csc_array((data, (rows, cols)), shape=(m + n, m + n)))
    return lu.solve(np.concatenate([-F, np.zeros(n)]))[m:]


def _comp_residual(pairs: Iterable[tuple[float, float]]) -> float:
    return float(max((abs(min(a, b)) for a, b in pairs), default=0.0))


def _default_schedule(start: float = 0.3) -> tuple[float, ...]:
    """Geometric continuation down to 1e-8, factor 0.2."""
    out = []
    s = start
    while s > 1.3e-8:
        out.append(s)
        s *= 0.2
    out.append(1e-8)
    return tuple(out)


def _lm_stage(kkt: _KktSystem, X: Array, sigma: float, tol: float,
              max_iter: int) -> tuple[Array, int, float, int]:
    """Drive ||F(., sigma)||_inf below tol by Levenberg-Marquardt.

    Each damped trial is one sparse factorization (:func:`_damped_step`,
    scaled by the squared column norms of J) and one evaluation of F at the
    trial point; an accepted trial's evaluation also gives the next J.  The
    damping falls by 5 after an accepted trial and rises by 10 after a
    rejected one; the stage stops when 40 trials in a row fail to lower
    ||F||^2.  Returns (X, iterations, ||F||_inf, trials).
    """
    lam = 1e-8
    F, pt = kkt.evaluate(X, sigma)
    J = kkt.jacobian(pt)
    trials = 0
    for it in range(max_iter):
        norm = float(np.max(np.abs(F)))
        if norm <= tol:
            return X, it, norm, trials
        merit = 0.5 * float(F @ F)
        D = np.maximum(np.bincount(_entry_columns(J), J.data * J.data,
                                   minlength=len(X)), 1e-8)
        for _ in range(40):
            d = _damped_step(J, F, lam, D)
            trials += 1
            Fn, pt = kkt.evaluate(X + d, sigma)
            if 0.5 * float(Fn @ Fn) < merit:
                X, F, J = X + d, Fn, kkt.jacobian(pt)
                lam = max(lam / 5, 1e-12)
                break
            lam *= 10
        else:  # no trial lowered ||F||^2
            return X, it + 1, norm, trials
    return X, max_iter, float(np.max(np.abs(F))), trials


def _centered_start(kkt: _KktSystem, warm: DiscreteDecision,
                    sigma0: float) -> Array:
    """KKT vector near the sigma0 central path.

    The multiplier of every pair is placed on the smoothed-complementarity
    hyperbola a*b = sigma0^2/2 given its slack, the adjoints come from a
    backward cost sweep, and the constraint multipliers solve their own
    stationarity rows exactly.
    """
    P, k, n, h = kkt.P, kkt.mesh.k, kkt.field.n, kkt.mesh.h
    X = kkt.pack_primal(warm)
    z = kkt.nodes(X)
    psi, Jz, _, _, _, gz, _ = kkt._stages(z, want_hess=False)
    p = -np.cumsum(gz[:0:-1, :n], axis=0)[::-1]  # p_j = -(gx_j + .. + gx_k)
    X[kkt.ip] = p
    b = np.maximum(kkt.c - psi @ P.T, sigma0)
    mu = sigma0 ** 2 / (2 * b)
    fa, _ = _fb_partials(mu[:k], b[:k], sigma0)
    X[kkt.imu] = mu[:k]
    X[kkt.igam] = (-h * np.einsum("jrn,jn->jr", P @ Jz[:k, :, :n], p)
                   / np.maximum(fa, 1e-2))
    X[kkt.it] = mu[k]
    return X


#: Mesh size below which the KKT Newton is run directly; finer targets are
#: reached by solving coarse first and prolonging (mesh continuation).
_COARSE_LIMIT = 25


def _restrict_warm(problem: OcpProblem, warm: DiscreteDecision,
                   k_coarse: int) -> DiscreteDecision:
    """Coarse-mesh warm start: restrict the control, re-simulate the state."""
    mesh = Mesh(k=k_coarse, T=problem.system.T)
    u = warm.control_path().at(mesh.nodes)
    u[0] = problem.u0
    try:
        state, records = simulate(problem.system, Path(mesh=mesh, values=u))
        eta = np.array([r.eta for r in records]) / mesh.h
        x = state.values
    except SimulationError:
        x = warm.state_path().at(mesh.nodes)
        eta = np.zeros((k_coarse, problem.system.field.s))
    return DiscreteDecision(mesh=mesh, x=x, u=u, eta=eta)


def _prolong(problem: OcpProblem, z: DiscreteDecision,
             k_fine: int) -> DiscreteDecision:
    """Interpolate a coarse solution onto a finer mesh."""
    mesh = Mesh(k=k_fine, T=problem.system.T)
    x = z.state_path().at(mesh.nodes)
    u = z.control_path().at(mesh.nodes)
    u[0] = problem.u0
    eta = np.zeros((k_fine, z.eta.shape[1]))
    for j in range(k_fine):
        tm = 0.5 * (mesh.nodes[j] + mesh.nodes[j + 1])
        cj = min(int(tm / z.mesh.h), z.mesh.k - 1)
        eta[j] = z.eta[cj]
    return DiscreteDecision(mesh=mesh, x=x, u=u, eta=eta)


def _run_schedule(kkt: _KktSystem, X: Array, sched: Sequence[float],
                  tol_stat: float, max_iter_per_stage: int,
                  ) -> tuple[Array, int, int, float, list[float]]:
    """One continuation pass.  Intermediate stages are solved inexactly
    (tolerance scales with sigma); only the last stage must reach tol_stat.
    Returns (X, iterations, damped trials, final ||F||_inf, stage costs)."""
    total = trials = 0
    costs = []
    norm = np.inf
    for i, sigma in enumerate(sched):
        last = i == len(sched) - 1
        tol = tol_stat if last else max(tol_stat, 0.02 * sigma)
        cap = max(300, max_iter_per_stage) if last else max_iter_per_stage
        X, its, norm, tried = _lm_stage(kkt, X, sigma, tol, cap)
        total, trials = total + its, trials + tried
        costs.append(cost_eval(kkt.problem, kkt.unpack(X)))
        if last and norm > tol_stat and len(sched) > 1:
            # Refine the last continuation gap geometrically and retry.
            ladder = np.geomspace(sched[-2], sigma, 6)[1:-1]
            for s_mid in ladder:
                X, its, _, tried = _lm_stage(kkt, X, float(s_mid), 0.02 * s_mid, cap)
                total, trials = total + its, trials + tried
            X, its, norm, tried = _lm_stage(kkt, X, sigma, tol_stat, cap)
            total, trials = total + its, trials + tried
            costs[-1] = cost_eval(kkt.problem, kkt.unpack(X))
    return X, total, trials, norm, costs


def solve_smoothed(transcription: Transcription,
                   sigma_schedule: Sequence[float] | None = None,
                   warm: DiscreteDecision | None = None,
                   tol_stat: float = 1e-9,
                   max_iter_per_stage: int = 80,
                   ) -> tuple[DiscreteDecision, SolveReport]:
    """Continuation in sigma over the smoothed KKT system.

    Each stage runs a Levenberg-damped Newton iteration on the full KKT
    system, warm-started from the previous stage.  Fine meshes are reached
    by mesh continuation: the problem is first solved on a coarsened mesh
    (the schedule applies there in full), then prolonged stepwise, each
    finer mesh re-running the schedule's tail.  A warm start that already
    satisfies the final-stage system is returned unchanged after the
    tolerance check.  The final sigma must be at most 1e-8 so the reported
    complementarity is meaningful.  ``line_search_trials`` of the report
    counts the damped trials (:func:`_lm_stage`).  A stall raises
    NumericalFailureError naming the mesh level, the sigma stage and the
    kind and step of the worst residual row, with the last iterate as
    ``partial``.
    """
    if sigma_schedule is None:
        sigma_schedule = _default_schedule()
    sig = [float(s) for s in sigma_schedule]
    if not sig or any(s <= 0 for s in sig):
        raise ConfigurationError("sigma schedule must be positive")
    if any(b >= a for a, b in zip(sig, sig[1:])):
        raise ConfigurationError("sigma schedule must be decreasing")
    if sig[-1] > 1e-8:
        raise ConfigurationError("final sigma must be at most 1e-8")

    problem = transcription.problem
    if warm is None:
        warm = transcription.initial_decision()
    else:
        z0 = psi_eval(transcription.field, warm.x[0], warm.u[0])
        if not problem.system.theta.contains(z0, tol=1e-7):
            raise InfeasibleWarmStartError("warm start violates psi(x0,u0) in Theta")
        if np.max(np.abs(warm.x[0] - problem.system.x0)) > 1e-9 or \
           np.max(np.abs(warm.u[0] - problem.u0)) > 1e-9:
            raise InfeasibleWarmStartError("warm start must pin (x_0, u_0)")

    kkt = _KktSystem(transcription)
    total_iters = total_trials = 0
    cost_trace = [cost_eval(problem, warm)]

    # Tolerance check first: an already-stationary warm start is returned
    # without any Newton step.
    X = kkt.pack_primal(warm)
    F0, _ = kkt.evaluate(X, sig[-1])
    if float(np.max(np.abs(F0))) > tol_stat:
        k_target = transcription.mesh.k
        levels = [k_target]
        while levels[-1] > _COARSE_LIMIT:
            levels.append(-(-levels[-1] // 2))
        levels.reverse()

        # The coarsest mesh gets the full schedule; refined meshes rerun its
        # tail from sigma <= 1e-2 (the prolongation error scale).
        tail = [s for s in sig if s <= 1e-2] or [sig[-1]]
        if len(levels) == 1:
            kkt_l, z = kkt, warm
        else:
            kkt_l = _KktSystem(transcribe(problem, levels[0]))
            z = _restrict_warm(problem, warm, levels[0])
        X = kkt_l.pack_primal(z)
        X_centered = _centered_start(kkt_l, z, sig[0])
        Fc, _ = kkt_l.evaluate(X_centered, sig[0])
        Fp, _ = kkt_l.evaluate(X, sig[0])
        if float(np.max(np.abs(Fc))) < float(np.max(np.abs(Fp))):
            X = X_centered
        X, total_iters, total_trials, norm, costs = _run_schedule(
            kkt_l, X, sig, tol_stat, max_iter_per_stage)
        for k_l in levels[1:]:
            z = _prolong(problem, kkt_l.unpack(X), k_l)
            kkt_l = kkt if k_l == k_target else _KktSystem(transcribe(problem, k_l))
            X, its, tried, norm, costs = _run_schedule(
                kkt_l, kkt_l.pack_primal(z), tail, tol_stat, max_iter_per_stage)
            total_iters, total_trials = total_iters + its, total_trials + tried
        cost_trace.extend(costs)
        if norm > tol_stat:
            F, _ = kkt.evaluate(X, sig[-1])
            kind, step = kkt.locate(int(np.argmax(np.abs(F))))
            err = NumericalFailureError(
                f"continuation stalled on the k={k_target} mesh in the sigma "
                f"{sig[-1]:g} stage at residual {norm:.3e} (tolerance "
                f"{tol_stat:g}) after {total_iters} iterations; worst row: "
                f"{kind} at step {step}")
            # The last iterate is still useful for postmortems.
            err.partial = kkt.unpack(X)
            raise err

    decision = kkt.unpack(X)
    F, _ = kkt.evaluate(X, sig[-1])
    # The step pairs and the terminal pair, from one table over the nodes.
    psi = field_at_nodes(transcription.field, decision.x, decision.u).psi
    mu = np.vstack([np.maximum(decision.eta @ kkt.P.T, 0.0), X[kkt.it]])
    pairs = zip(mu.ravel().tolist(), (kkt.c - psi @ kkt.P.T).ravel().tolist())
    report = SolveReport(
        cost=cost_eval(problem, decision),
        comp_residual=_comp_residual(pairs),
        stat_residual=kkt.stationarity_norm(F),
        iterations=total_iters,
        sigma_trace=tuple(sig),
        cost_trace=tuple(cost_trace),
        line_search_trials=total_trials,
    )
    return decision, report


# ---------------------------------------------------------------------------
# Shooting solver
# ---------------------------------------------------------------------------


#: Relative size below which a row multiplier counts as zero when deciding
#: whether a step is strictly active (the critical cone is then a subspace).
_STRICT_TOL = 1e-9


def _has_exact_tangents(system: SweepingSystem) -> bool:
    """Whether every catching-up step of the system is the exact NNLS
    projection (an affine-in-x field and a polyhedral Theta), so that shooting
    gradients come from tangents rather than forward differences."""
    return (system.effective_field().x_affine is not None
            and system.theta.halfspaces() is not None)


def _shooting_gradient(problem: OcpProblem, z: DiscreteDecision,
                       records: Sequence[StepRecord],
                       free_idx: Sequence[tuple[int, int]]) -> Array:
    """Exact gradient of cost_eval o simulate over the free control entries.

    Forward mode along the simulated trajectory ``z`` and its step records.
    The tangent T_j = dx_j / dU_free (n x #free) starts at 0.  Step j,
    y = x_{j+1} = proj_C(u)(x_j + h f(t_j, x_j)) with u = u_{j+1} and step
    multiplier eta, maps it through

        q = T_j + h Df T_j - hess_ux(y, u, eta)^T E,

    with E = du_{j+1} / dU_free and Df the drift Jacobian (A for an
    AffineDrift, central differences of a bare callback), and T_{j+1} is
    the projection of q
    onto the critical cone

        {v : H_A (J v + J_u E) <= 0,  eta^T (J v + J_u E) >= 0},

    H_A the active halfspace rows of Theta, J = dpsi_dx and J_u = dpsi_du at
    (y, u): the one-sided directional derivative of the projection (Haraux
    1977).  The cone needs eta alone, so dependent active rows are no
    obstacle.  When eta is a strictly positive combination of the active
    rows the cone is the subspace H_A (J v + J_u E) = 0 and every column
    takes one least-squares correction; at a weakly active step each column
    outside the cone gets its own least-distance solve.  The gradient is
    dU + sum_j dX_j T_j with (dX, dU) = cost_grad(problem, z).
    """
    system, mesh = problem.system, z.mesh
    field = system.effective_field()
    H, d = system.theta.halfspaces()
    nodes, comps = np.array(free_idx, dtype=int).reshape(-1, 2).T
    dX, dU = cost_grad(problem, z)
    grad = dU[nodes, comps]
    T = np.zeros((field.n, len(nodes)))
    Df = _drift_jacobian(system, mesh.nodes[:-1], z.x[:-1])
    for j, rec in enumerate(records):
        y, u, eta = z.x[j + 1], z.u[j + 1], rec.eta
        cols = np.flatnonzero(nodes == j + 1)  # the columns where du = E != 0
        q = T + mesh.h * (Df[j] @ T)
        if field.hess_ux is not None:
            q[:, cols] -= np.atleast_2d(field.hess_ux(y, u, eta)).T[:, comps[cols]]
        J, c = field.x_affine(u)
        rows = H[H @ (J @ y + c) >= d - TOL_FEAS]
        if len(rows):
            G = rows @ J
            Ju = np.zeros((H.shape[1], len(nodes)))
            Ju[:, cols] = np.atleast_2d(field.dpsi_du(y, u))[:, comps[cols]]
            mu = np.linalg.lstsq(rows.T, eta, rcond=None)[0]
            scale = _STRICT_TOL * float(np.max(np.abs(eta)))
            if np.min(mu) > scale and np.max(np.abs(rows.T @ mu - eta)) <= scale:
                q -= np.linalg.pinv(G) @ (G @ q + rows @ Ju)
            else:
                cone = np.vstack([G, -(eta @ J)])
                rhs = np.vstack([-(rows @ Ju), eta @ Ju])
                outside = np.any(cone @ q - rhs > TOL_FEAS, axis=0)
                for col in np.flatnonzero(outside):
                    q[:, col] = _project_onto_halfspaces(cone, rhs[:, col],
                                                         q[:, col])[0]
        T = q
        grad += dX[j + 1] @ T
    return grad


#: Curvature pairs the L-BFGS direction keeps (Liu & Nocedal 1989).
_LBFGS_MEMORY = 8

#: An accepted step shorter than this means the quasi-Newton model has
#: stopped fitting the cost (at a nonsmooth optimum, say), so the pairs are
#: dropped and the next direction is -g again.
_LBFGS_RESET_ALPHA = 2.0 ** -10


def _lbfgs_direction(g: Array, pairs: Sequence[tuple[Array, Array]]) -> Array:
    """Two-loop recursion: -H g for the L-BFGS inverse-Hessian estimate built
    from the curvature pairs (s, y), oldest first, each with y.s > 0, and
    scaled by s.y / y.y of the newest pair.  Without pairs it is -g."""
    q = np.array(g, dtype=float)
    coeffs = []
    for s, y in reversed(pairs):
        coeffs.append(s @ q / (y @ s))
        q -= coeffs[-1] * y
    if pairs:
        s, y = pairs[-1]
        q *= s @ y / (y @ y)
    for (s, y), a in zip(pairs, reversed(coeffs)):
        q += (a - y @ q / (y @ s)) * s
    return -q


def solve_shooting(problem: OcpProblem, k: int, initial_control: Path,
                   tol: float = 1e-12, max_iter: int = 500,
                   free_mask: Array | None = None,
                   ) -> tuple[DiscreteDecision, SolveReport]:
    """L-BFGS directions with an Armijo search over control nodes through the
    simulator.

    With an affine-in-x field and a polyhedral Theta, where every
    catching-up step is an exact projection, the gradient is exact: one
    tangent sweep over the current trajectory (``_shooting_gradient``).
    Otherwise (a nonlinear field or a smooth Theta) it comes from forward
    differences with step 1e-6 (1 + ||u||), one simulation per free entry.
    The direction d is the two-loop L-BFGS direction over the last
    ``_LBFGS_MEMORY`` accepted steps (pairs with y.s <= 0 are skipped); it
    falls back to -g, dropping the pairs, whenever g.d >= 0 and after an
    accepted step shorter than ``_LBFGS_RESET_ALPHA``.  Armijo backtracking
    from alpha = 1 on the slope g.d takes the steps and accepts only a
    strict decrease, so the cost over accepted iterates never increases and
    a step lost in rounding counts as no step; the search ends once
    alpha |g.d| <= eps max(1, |cost|), where the predicted decrease is below
    the cost's rounding unit.  Node 0 is always pinned to
    the prescribed initial control; ``free_mask`` (length k+1) can pin more.

    The loop stops when the squared gradient norm drops below ``tol``
    (``stop_reason`` "tolerance"), when ``max_iter`` gradients have been
    taken ("iteration_budget", or "tolerance" if the exact gradient of the
    returned decision meets ``tol``), or when no trial step decreases the
    cost ("line_search").  ``stat_residual`` is the gradient norm of the
    returned decision, except after a spent budget on the forward-difference
    route, where it belongs to the iterate before the last accepted step
    (the gradient of the returned one would cost a simulation per free
    entry).
    The report counts the simulations and the line-search trials among them.
    """
    mesh = Mesh(k=k, T=problem.system.T)
    if initial_control.mesh != mesh:
        raise ConfigurationError("initial control must live on the target mesh")
    m = problem.system.field.m
    mask = np.ones(k + 1, dtype=bool) if free_mask is None else \
        np.asarray(free_mask, dtype=bool).copy()
    mask[0] = False
    simulations = trials = 0

    def run(Uvals: Array) -> tuple[DiscreteDecision, list[StepRecord], float] | None:
        """Simulate a control: (decision, step records, cost), None on failure."""
        nonlocal simulations
        simulations += 1
        try:
            state, records = simulate(problem.system, Path(mesh=mesh, values=Uvals))
        except SimulationError:
            return None
        eta = np.array([r.eta for r in records]) / mesh.h
        z = DiscreteDecision(mesh=mesh, x=state.values, u=Uvals, eta=eta)
        return z, records, cost_eval(problem, z)

    def cost_of(Uvals: Array) -> float:
        result = run(Uvals)
        return float("inf") if result is None else result[2]

    U = initial_control.values.copy()
    U[0] = problem.u0
    base = run(U)
    if base is None or not np.isfinite(base[2]):
        raise InfeasibleWarmStartError("initial control cannot be simulated")
    current = base[2]
    cost_trace = [current]
    free_idx = [(j, a) for j in range(k + 1) if mask[j] for a in range(m)]
    free_nodes, free_comps = np.array(free_idx, dtype=int).reshape(-1, 2).T
    exact = _has_exact_tangents(problem.system)

    def gradient() -> Array:
        if exact:
            return _shooting_gradient(problem, base[0], base[1], free_idx)
        delta = 1e-6 * (1.0 + float(np.linalg.norm(U)))
        g = np.zeros(len(free_idx))
        for idx, (j, a) in enumerate(free_idx):
            Up = U.copy()
            Up[j, a] += delta
            g[idx] = (cost_of(Up) - current) / delta
        return g

    iterations = 0
    grad_norm = 0.0
    stop_reason = "iteration_budget" if free_idx else "tolerance"
    pairs: deque[tuple[Array, Array]] = deque(maxlen=_LBFGS_MEMORY)
    step = g_prev = None  # the last accepted step and the gradient it began at
    if free_idx:
        for iterations in range(1, max_iter + 1):
            g = gradient()
            grad_norm = float(np.linalg.norm(g))
            if grad_norm ** 2 < tol:
                stop_reason = "tolerance"
                break
            if step is not None:
                y = g - g_prev
                if float(y @ step) > 0.0:
                    pairs.append((step, y))
            d = _lbfgs_direction(g, pairs)
            slope = float(g @ d)
            if slope >= 0.0:
                pairs.clear()
                d, slope = -g, -grad_norm ** 2
            # Past alpha |g.d| <= eps max(1, |cost|) the predicted decrease is
            # below the cost's rounding unit, so no trial could show it.
            spent = np.finfo(float).eps * max(1.0, abs(current))
            alpha = 1.0
            accepted = False
            any_finite_trial = False
            while alpha >= 1e-12 and alpha * -slope > spent:
                Un = U.copy()
                Un[free_nodes, free_comps] += alpha * d
                trials += 1
                result = run(Un)
                trial = float("inf") if result is None else result[2]
                if np.isfinite(trial):
                    any_finite_trial = True
                if trial < current + 1e-4 * alpha * slope:
                    U, base, current = Un, result, trial
                    cost_trace.append(current)
                    accepted = True
                    break
                alpha /= 2
            if not accepted:
                if alpha < 1.0 and not any_finite_trial:  # trials ran, all failed
                    err = NumericalFailureError(
                        "every trial step failed to simulate")
                    err.partial = base[0]  # last accepted iterate
                    raise err
                stop_reason = "line_search"  # predicted decrease is spent
                break
            if alpha < _LBFGS_RESET_ALPHA:
                pairs.clear()
                step = None
            else:
                step, g_prev = alpha * d, g
        else:
            if exact:  # the gradient of the returned decision, no simulation
                grad_norm = float(np.linalg.norm(gradient()))
                if grad_norm ** 2 < tol:
                    stop_reason = "tolerance"
    decision = base[0]
    field = problem.system.effective_field()
    # simulator multipliers satisfy the cone condition at the right node
    psi_next = field_at_nodes(field, decision.x[1:], decision.u[1:]).psi
    bounds = problem.system.theta.bounds()
    if bounds is None:  # no interval form: report cone violation instead
        comp = max((problem.system.theta.normal_cone_violation(psi, eta)
                    for psi, eta in zip(psi_next, decision.eta)), default=0.0)
    else:
        P, c = _signed_selector(*bounds)
        comp = _comp_residual(zip(np.maximum(decision.eta @ P.T, 0.0).ravel(),
                                  (c - psi_next @ P.T).ravel()))
    report = SolveReport(
        cost=current,
        comp_residual=comp,
        stat_residual=grad_norm,
        iterations=iterations,
        sigma_trace=(),
        cost_trace=tuple(cost_trace),
        simulations=simulations,
        line_search_trials=trials,
        stop_reason=stop_reason,
    )
    return decision, report
