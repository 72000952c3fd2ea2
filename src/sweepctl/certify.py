"""Certification of candidate processes against stationarity systems.

Checks come in two flavours.  Discrete reports measure how far a mesh
decision together with candidate multipliers sits from the finite-difference
adjoint system of the transcribed problem.  Continuous reports take a
piecewise-linear pair with measure-valued multipliers and evaluate the
limiting conditions: the adjoint differential equation, the reconstruction
of the shifted adjoint from the measure, the endpoint inclusion,
nontriviality, and the refined maximum conditions available when the target
set is an orthant.

Conventions used throughout:

* paths are piecewise linear on a uniform mesh and cell quantities are
  indexed by the left node of the cell,
* the multiplier path ``eta`` stores the multiplier of cell j at node j and
  repeats the last cell's value at node k,
* a :class:`VectorMeasure` is an absolutely continuous density per cell plus
  finitely many atoms; tails integrate over the closed interval [t, T], so
  an atom sitting exactly at t is included.  Tails are vectorized over t:
  one pass (a suffix sum over the cells) serves every query time, so the
  tails at all nodes or midpoints cost O(k), not O(k^2).

:func:`assemble_certificate` fits multipliers in O(k) as well: the measure
tails join the fit as unknowns, which makes the condition matrix banded, and
one sparse factorization of the augmented least-squares system plus a tiny
NNLS over the endpoint cone coefficients solve it, through the smoothed
solver's assembler and augmented kernel.  Its results match the
dense bounded least-squares fit of the same problem to about 1e-10, not bit
for bit.

The field enters through one table per public function
(:func:`geometry.field_at_nodes`): psi and its Jacobians at every node of
the pair (one stacked expression per callback of a built-in field, one
call per node for any other callback), with the Hessian contractions
against the velocity multipliers taken from the same table.  The measure
tails inside a function read that table too, so a certify run evaluates the
field a fixed number of times per node.  The per-cell checks (multiplier
recovery, cone membership, coderivative cases, Hamiltonians) run over the
whole table at once; where a cell fails, the first failing cell is named.

Residual reports never hide a failed subproblem: conditions that cannot be
met at all (an empty coderivative, an infeasible point) surface as infinite
residuals rather than exceptions, so a report is always produced for
well-formed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Any

import numpy as np

from .geometry import (
    ConfigurationError,
    DomainError,
    FieldMap,
    NodeTable,
    NonpositiveOrthant,
    SmoothInequality,
    SurjectivityError,
    ThetaSet,
    _FREE,
    _cone_generators,
    _interval_bounds,
    _rows,
    _transpose_solver,
    coderivative_codes,
    coderivative_violations,
    cone_distance_nodes,
    decompose_nodes,
    field_at_nodes,
    psi_eval,
    surjectivity_check,
)
from .dynamics import Mesh, Path, SweepingSystem, _drift
from .ocp import (DiscreteDecision, OcpProblem, _anchor_stages, _assembler,
                  _Augmented, _quadratic_stage, _raw_args, _running_grad)

Array = np.ndarray

#: Default pass threshold for residual items.
TOL_RESIDUAL = 1e-6
#: Strict-positivity threshold for multipliers and margins.
TOL_POS = 1e-8
#: Activity threshold when classifying constraint components.
ACT_TOL = 1e-7
#: Interior margin above which a cell sits strictly inside Theta: measure
#: mass there violates nonatomicity, and the certificate fit gives such a
#: cell no density.
INTERIOR_TOL = 1e-6


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _json_value(v: Any) -> Any:
    """Recursively convert to something the json module can serialize."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        x = float(v)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_json_value(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(key): _json_value(val) for key, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, (bool, str)) or v is None:
        return v
    return str(v)


@dataclass(frozen=True)
class ResidualItem:
    """One named condition with its measured residual and pass threshold."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ResidualReport:
    """Ordered collection of residual items plus free-form diagnostics."""

    items: tuple[ResidualItem, ...]
    details: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def get(self, name: str) -> ResidualItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(f"no residual item named {name!r}")

    def as_dict(self) -> dict:
        """JSON-safe rendering; infinities become the strings 'inf'/'-inf'."""
        return {
            "passed": self.passed,
            "items": {
                item.name: {
                    "residual": _json_value(item.residual),
                    "tolerance": _json_value(item.tolerance),
                    "passed": item.passed,
                }
                for item in self.items
            },
            "details": _json_value(self.details),
        }


def _shortfall_item(name: str, margin: float) -> ResidualItem:
    """Positivity requirement encoded as a residual: shortfall below TOL_POS."""
    return ResidualItem(name=name, residual=max(0.0, TOL_POS - margin),
                        tolerance=0.0)


# ---------------------------------------------------------------------------
# Multiplier containers
# ---------------------------------------------------------------------------


@dataclass
class SubgradientSelection:
    """Chosen subgradients of the running cost along a candidate pair.

    ``w_x``/``w_u`` are the partials in the state and control arguments,
    ``v_x`` in the state velocity; ``v_u`` (control velocity) exists only
    when the running cost depends on it.  One row per mesh cell, evaluated
    at the left node with forward difference quotients.
    """

    w_x: Array
    w_u: Array
    v_x: Array
    v_u: Array | None = None

    def __post_init__(self) -> None:
        self.w_x = np.atleast_2d(np.asarray(self.w_x, dtype=float))
        self.w_u = np.atleast_2d(np.asarray(self.w_u, dtype=float))
        self.v_x = np.atleast_2d(np.asarray(self.v_x, dtype=float))
        if self.v_u is not None:
            self.v_u = np.atleast_2d(np.asarray(self.v_u, dtype=float))

    def check_shapes(self, k: int, n: int, m: int, need_v_u: bool) -> None:
        if self.w_x.shape != (k, n) or self.v_x.shape != (k, n):
            raise ConfigurationError("state subgradient rows must be (k, n)")
        if self.w_u.shape != (k, m):
            raise ConfigurationError("control subgradient rows must be (k, m)")
        if need_v_u:
            if self.v_u is None or self.v_u.shape != (k, m):
                raise ConfigurationError(
                    "this minimizer mode needs a (k, m) v_u selection")


@dataclass
class VectorMeasure:
    """Vector measure on [0, T]: cellwise density plus finitely many atoms.

    ``density`` has one R^s row per mesh cell (the Lebesgue part, constant on
    the cell); ``atoms`` is a tuple of (time, weight) pairs.  Total variation
    and tail integrals treat the two parts additively.
    """

    mesh: Mesh
    density: Array
    atoms: tuple[tuple[float, Array], ...] = ()

    def __post_init__(self) -> None:
        dens = np.atleast_2d(np.asarray(self.density, dtype=float))
        if dens.shape[0] != self.mesh.k:
            raise ConfigurationError(
                f"density needs {self.mesh.k} rows, got {dens.shape[0]}")
        self.density = dens
        cleaned = []
        for t, w in self.atoms:
            w = np.atleast_1d(np.asarray(w, dtype=float))
            if w.shape != (dens.shape[1],):
                raise ConfigurationError("atom weight dimension mismatch")
            t = float(t)
            if not -1e-12 <= t <= self.mesh.T + 1e-12:
                raise ConfigurationError(f"atom time {t} outside [0, T]")
            cleaned.append((t, w))
        self.atoms = tuple(cleaned)

    @property
    def s(self) -> int:
        return self.density.shape[1]

    def total_variation(self) -> float:
        tv = self.mesh.h * float(np.sum(np.linalg.norm(self.density, axis=1)))
        tv += float(sum(np.linalg.norm(w) for _, w in self.atoms))
        return tv

    def tail(self, field: FieldMap, state: Path, control: Path,
             t: float | Array) -> Array:
        """Integral of the transposed constraint gradient over [t, T].

        The gradient is frozen at the left node of each cell, which is exact
        for the piecewise-constant densities stored here whenever the field
        gradients are constant along the cell.  Atoms at times >= t count.

        Vectorized over t: a scalar gives one R^{n+m} vector, an array of
        times one row per time.  All tails come from one pass: the cell
        integrands h G_j density_j are summed from the right once, so each
        query costs a lookup plus its partial cell, O(k + len(t) + atoms)
        in total (see :func:`_tail_cells` for which cells count).
        """
        k = self.mesh.k
        return self._tail(field_at_nodes(field, state.values[:k], control.values[:k]),
                          state, control, t)

    def _tail(self, tab: NodeTable, state: Path, control: Path,
              t: float | Array) -> Array:
        """:meth:`tail` with the cell gradients read from the first k rows of
        a table of the field along the pair; each atom costs one more
        evaluation, at its own time."""
        k = self.mesh.k
        ts = np.asarray(t, dtype=float)
        tq = np.atleast_1d(ts)
        g = _rows(tab.J[:k].swapaxes(1, 2), self.density)
        suffix = np.zeros((k + 1, g.shape[1]))
        suffix[:k] = np.cumsum((self.mesh.h * g)[::-1], axis=0)[::-1]
        full, cut, length = _tail_cells(self.mesh, tq)
        out = suffix[full]
        at = cut >= 0
        out[at] += length[at, np.newaxis] * g[cut[at]]
        for tau, w in self.atoms:
            J = field_at_nodes(tab.field, state.at(tau)[None], control.at(tau)[None]).J
            out[tau >= tq - 1e-14] += J[0].T @ w
        return out.reshape(ts.shape + g.shape[1:])


def _tail_cells(mesh: Mesh, t: Array) -> tuple[Array, Array, Array]:
    """Which cells of the mesh lie in [t, T], for each time in t.

    A cell counts in full (length h) when its left node is >= t - 1e-14 and
    is cut at t when only its right node is > t + 1e-14.  Returns
    (full, cut, length): cells full[i] .. k - 1 count in full for t[i], and
    where cut[i] >= 0 that cell counts with length[i] = t_{cut[i]+1} - t[i].
    """
    nodes = mesh.nodes
    k = mesh.k
    first_full = np.searchsorted(nodes, t - 1e-14, side="left")
    first_in = np.searchsorted(nodes[1:], t + 1e-14, side="right")
    full = np.minimum(np.maximum(first_full, first_in), k)
    has_cut = (first_in < first_full) & (first_full <= k)
    cut = np.where(has_cut, first_full - 1, -1)
    length = np.where(has_cut, nodes[np.minimum(first_full, k)] - t, 0.0)
    return full, cut, length


@dataclass
class Certificate:
    """Multiplier bundle for the continuous stationarity system.

    ``p`` is the adjoint arc (values in R^{n+m}), ``q`` its node values after
    subtracting the measure tail, ``eta`` the velocity multiplier path (cell
    convention), ``gamma`` the adjoint measure, ``nu`` the pointwise
    coderivative element used by the refined maximum condition, ``subgrad``
    the running-cost subgradient selection.  ``mu`` carries lifted
    multipliers when the target set is described by smooth inequalities.
    ``fit_residual`` and ``non_unique`` are populated by the assembler.
    """

    lam: float
    p: Path
    q: Array
    eta: Path
    gamma: VectorMeasure
    subgrad: SubgradientSelection
    nu: Path | None = None
    mu: Path | None = None
    fit_residual: float | None = None
    non_unique: bool = False

    def __post_init__(self) -> None:
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        if not 0.0 <= self.lam < math.inf:
            raise ConfigurationError("the cost multiplier must be finite and nonnegative")


@dataclass
class DiscreteCertificate:
    """Multipliers for the discrete adjoint system on one mesh.

    ``p`` holds k+1 rows in R^{n+m}; ``gamma`` one coderivative element per
    cell.  ``theta_x``/``theta_u`` are the relaxation-term derivatives; when
    omitted they are recomputed from the decision, which gives zeros for
    problems without an anchor.
    """

    lam: float
    p: Array
    gamma: Array
    subgrad: SubgradientSelection
    theta_x: Array | None = None
    theta_u: Array | None = None

    def __post_init__(self) -> None:
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        if not 0.0 <= self.lam < math.inf:
            raise ConfigurationError("the cost multiplier must be finite and nonnegative")


@dataclass(frozen=True)
class NondegeneracyResult:
    nondegenerate: bool
    witness: Array | None = None


# ---------------------------------------------------------------------------
# Primal-side helpers
# ---------------------------------------------------------------------------


def recover_eta(system: SweepingSystem, state: Path, control: Path) -> Path:
    """Velocity multipliers of a candidate pair, all cells in one pass.

    Solves grad_x psi(x_j, u_j)^T eta_j = f(t_j, x_j) - dx_j/h on every
    cell and certifies eta_j against the normal cone within 1e-8, in one
    stacked :func:`geometry.decompose_nodes`; the first failing cell raises its
    error with the cell index j and its time t_j prefixed to the message.
    The returned path uses the cell convention (node j stores the
    multiplier of cell j, node k repeats the last cell).
    """
    if state.mesh != control.mesh:
        raise ConfigurationError("state and control must share a mesh")
    mesh = state.mesh
    k, h = mesh.k, mesh.h
    tab = field_at_nodes(system.field, state.values[:k], control.values[:k])
    v = _drift(system, mesh.nodes[:k], state.values[:k]) - np.diff(state.values, axis=0) / h
    eta, _, failure = decompose_nodes(system.theta, tab.psi, tab.Jx, v, 1e-8)
    if failure is not None:
        j, e = failure
        raise type(e)(f"cell {j} (t = {float(mesh.nodes[j]):g}): {e}") from e
    return Path(mesh=mesh, values=np.vstack([eta, eta[-1:]]))


def theta_quantities(problem: OcpProblem, z: DiscreteDecision,
                     ) -> tuple[Array, Array]:
    """Relaxation-term derivatives along a decision.

    Returns (theta_x, theta_u) with theta_x of shape (k, n).  In the mode
    with a control-velocity running cost the control part has one row per
    cell (row k of the returned (k+1, m) array stays zero); otherwise every
    node carries 2 rho (u_j - uref(t_j)).  Both are zero without an anchor
    or with rho = 0.  The anchor and its increments are the cost's
    (``ocp._anchor_stages``).
    """
    k, n, m = z.mesh.k, problem.system.field.n, problem.system.field.m
    th_u = np.zeros((k + 1, m))
    anchor = _anchor_stages(problem, z.mesh)
    if anchor is None:
        return np.zeros((k, n)), th_u
    _, _, ref, dref = anchor
    th = 2.0 * problem.rho * (np.diff(np.hstack([z.x, z.u]), axis=0) - dref)
    if problem.uses_udot:
        th_u[:k] = th[:, n:]
    else:
        th_u[:] = 2.0 * problem.rho * (z.u - ref[:, n:])
    return th[:, :n], th_u


def _interior_margin(theta: ThetaSet, z: Array) -> Array:
    """How strictly z sits inside Theta (negative outside, 0 on the
    boundary); one margin per row when z stacks points."""
    g, _, d = theta.constraint(z)
    return np.min(d - g, axis=-1, initial=math.inf)


def _midpoint_q(cert: Certificate, tab: NodeTable, state: Path,
                control: Path) -> Array:
    """q at cell midpoints: interpolated adjoint minus the measure tail."""
    nodes = state.mesh.nodes
    pvals = cert.p.values
    t_mid = 0.5 * (nodes[:-1] + nodes[1:])
    p_mid = 0.5 * (pvals[:-1] + pvals[1:])
    return p_mid - cert.gamma._tail(tab, state, control, t_mid)


# ---------------------------------------------------------------------------
# Discrete stationarity residuals
# ---------------------------------------------------------------------------


def residual_discrete_EL(problem: OcpProblem, z: DiscreteDecision,
                         cert: DiscreteCertificate) -> ResidualReport:
    """Residuals of the discrete adjoint system at a decision.

    Items: ``adjoint_ode`` (the backward difference system in both state and
    control rows), ``q_u`` (the control-adjoint pinning), ``transversality``
    (endpoint inclusion through the constraint cone), ``nontriviality_margin``
    (shortfall below the positivity threshold), ``measured_coderivative``
    (cellwise membership of gamma in the coderivative of the normal-cone
    map).  Empty coderivatives and infeasible cells report +inf.
    """
    field = problem.system.field
    theta = problem.system.theta
    mesh = z.mesh
    k, h = mesh.k, mesh.h
    n, m = field.n, field.m
    if cert.p.shape != (k + 1, n + m):
        raise ConfigurationError(f"adjoint array must be ({k + 1}, {n + m})")
    if cert.gamma.shape != (k, field.s):
        raise ConfigurationError(f"gamma array must be ({k}, {field.s})")
    sg = cert.subgrad
    sg.check_shapes(k, n, m, need_v_u=problem.uses_udot)
    if cert.theta_x is None or cert.theta_u is None:
        th_x, th_u = theta_quantities(problem, z)
    else:
        th_x = np.atleast_2d(np.asarray(cert.theta_x, dtype=float))
        th_u = np.atleast_2d(np.asarray(cert.theta_u, dtype=float))
    lam = cert.lam
    px = cert.p[:, :n]
    pu = cert.p[:, n:]
    tab = field_at_nodes(field, z.x, z.u)
    Hxx, Hux = tab.hess(z.eta)
    Jx, Ju, gam = tab.Jx[:k], tab.Ju[:k], cert.gamma

    # The backward difference system, all cells at once.
    ufrak = px[1:] - lam * (sg.v_x + th_x[:k] / h)
    dp = np.diff(cert.p, axis=0) / h
    res_x = dp[:, :n] - lam * sg.w_x - _rows(Hxx, ufrak) - _rows(Jx.swapaxes(1, 2), gam)
    if problem.uses_udot:
        w_u, pinned = sg.w_u, pu[1:] - lam * (sg.v_u + th_u[:k] / h)
    else:
        w_u, pinned = sg.w_u + th_u[:k], pu[1:]
    res_u = dp[:, n:] - lam * w_u - _rows(Hux, ufrak) - _rows(Ju.swapaxes(1, 2), gam)
    adj = float(max(np.max(np.linalg.norm(res_x, axis=1)),
                    np.max(np.linalg.norm(res_u, axis=1))))
    qu = float(np.max(np.linalg.norm(pinned, axis=1)))

    codes = coderivative_codes(*_interval_bounds(theta), tab.psi[:k], z.eta[:k],
                               _rows(Jx, ufrak), act_tol=ACT_TOL, pos_tol=TOL_POS)
    code = float(np.max(coderivative_violations(codes, gam), initial=0.0))

    p_end = cert.p[k].copy()
    if not problem.uses_udot:
        # The control-adjoint endpoint does not enter the inclusion here.
        p_end[n:] = 0.0
    gphi = np.atleast_1d(np.asarray(problem.dphi(z.x[k]), dtype=float))
    target = -p_end - lam * np.concatenate([gphi, np.zeros(m)])
    trans = float(cone_distance_nodes(theta, tab.psi[k:], tab.J[k:], target[None],
                                      ACT_TOL)[0])

    margin = lam + float(sum(np.linalg.norm(px[j]) for j in range(k)))
    margin += float(np.linalg.norm(pu[0])) + float(np.linalg.norm(px[k]))
    if problem.uses_udot:
        margin += float(np.linalg.norm(pu[k]))

    items = (
        ResidualItem("adjoint_ode", adj, TOL_RESIDUAL),
        ResidualItem("q_u", qu, TOL_RESIDUAL),
        ResidualItem("transversality", trans, TOL_RESIDUAL),
        _shortfall_item("nontriviality_margin", margin),
        ResidualItem("measured_coderivative", code, TOL_RESIDUAL),
    )
    return ResidualReport(items=items,
                          details={"nontriviality_margin": margin})


# ---------------------------------------------------------------------------
# Continuous stationarity residuals
# ---------------------------------------------------------------------------


def residual_continuous_EL(problem: OcpProblem, state: Path, control: Path,
                           cert: Certificate, tol: float = TOL_RESIDUAL,
                           ) -> ResidualReport:
    """Residuals of the measure-driven stationarity system along a pair.

    Items: ``eta`` (velocity inclusion and cone membership of the stored
    multipliers), ``adjoint_ode`` (cellwise derivative of the adjoint arc
    against its right-hand side), ``q_gamma`` (node values of q against the
    adjoint minus the measure tail), ``q_u`` (control part of q pinned to
    the velocity subgradient, or to zero when the running cost carries no
    control velocity), ``transversality``, ``nontriviality_margin``, and
    ``nonatomicity`` (measure mass strictly inside the target set).

    The refined maximum condition is checked separately by
    :func:`max_condition_check`; it needs the pointwise coderivative element
    and is only available for orthant targets.
    """
    system = problem.system
    field = system.field
    theta = system.theta
    mesh = state.mesh
    if control.mesh != mesh:
        raise ConfigurationError("state and control must share a mesh")
    if cert.p.mesh != mesh or cert.eta.mesh != mesh \
            or cert.gamma.mesh != mesh:
        raise ConfigurationError("certificate paths must live on the decision mesh")
    k, h = mesh.k, mesh.h
    n, m = field.n, field.m
    if cert.q.shape != (k + 1, n + m):
        raise ConfigurationError(f"q must hold {k + 1} rows in R^{n + m}")
    sg = cert.subgrad
    sg.check_shapes(k, n, m, need_v_u=problem.uses_udot)
    lam = cert.lam
    nodes = mesh.nodes
    pvals = cert.p.values
    tab = field_at_nodes(field, state.values, control.values)
    psis = tab.psi

    # Velocity inclusion at the stored multipliers.
    eta = cert.eta.values
    dyn = (np.diff(state.values, axis=0) / h - _drift(system, nodes[:k], state.values[:k])
           + _rows(tab.Jx[:k].swapaxes(1, 2), eta[:k]))
    cone = theta.normal_cone_violation_stack(psis[:k], eta[:k], tol=ACT_TOL)
    eta_res = float(np.max(np.where(theta.contains_stack(psis[:k], tol=ACT_TOL),
                                    np.maximum(np.linalg.norm(dyn, axis=1), cone),
                                    math.inf)))

    # The adjoint equation and the control pinning, all cells at once.
    q_mid = _midpoint_q(cert, tab, state, control)
    Hxx, Hux = tab.hess(eta[:k])
    pdot = np.diff(pvals, axis=0) / h
    r = q_mid[:, :n] - lam * sg.v_x
    rhs_x = lam * sg.w_x + _rows(Hxx, r)
    rhs_u = lam * sg.w_u + _rows(Hux, r)
    adj = float(max(np.max(np.linalg.norm(pdot[:, :n] - rhs_x, axis=1)),
                    np.max(np.linalg.norm(pdot[:, n:] - rhs_u, axis=1))))
    pinned = q_mid[:, n:] - lam * sg.v_u if problem.uses_udot else q_mid[:, n:]
    qu = float(np.max(np.linalg.norm(pinned, axis=1)))

    tails = cert.gamma._tail(tab, state, control, nodes)
    qg = float(np.max(np.linalg.norm(cert.q - (pvals - tails), axis=1)))

    gphi = np.atleast_1d(np.asarray(problem.dphi(state.values[k]), dtype=float))
    target = -pvals[k] - lam * np.concatenate([gphi, np.zeros(m)])
    trans = float(cone_distance_nodes(theta, psis[k:], tab.J[k:], target[None],
                                      ACT_TOL)[0])

    margin = lam + float(np.max(np.linalg.norm(pvals, axis=1)))
    margin += cert.gamma.total_variation()

    # Mass sitting strictly inside the target set violates nonatomicity.
    inner = _interior_margin(theta, psis)
    inside = np.minimum(inner[:-1], inner[1:]) > INTERIOR_TOL
    interior_mass = float(np.sum(h * np.linalg.norm(cert.gamma.density[inside], axis=1)))
    for tau, w in cert.gamma.atoms:
        z_tau = psi_eval(field, state.at(tau), control.at(tau))
        if _interior_margin(theta, z_tau) > INTERIOR_TOL:
            interior_mass += float(np.linalg.norm(w))

    items = (
        ResidualItem("eta", eta_res, tol),
        ResidualItem("adjoint_ode", adj, tol),
        ResidualItem("q_gamma", qg, tol),
        ResidualItem("q_u", qu, tol),
        ResidualItem("transversality", trans, tol),
        _shortfall_item("nontriviality_margin", margin),
        ResidualItem("nonatomicity", interior_mass, tol),
    )
    return ResidualReport(items=items,
                          details={"nontriviality_margin": margin,
                                   "total_variation": cert.gamma.total_variation()})


# ---------------------------------------------------------------------------
# Hamiltonians and maximum conditions
# ---------------------------------------------------------------------------


def modified_hamiltonian(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                         p: Array, nu: Array) -> float:
    """Supremum of <[nu, v], p> over admissible velocities.

    The bracket pairs the coderivative element nu with velocities generated
    by the active constraint gradients at nonpositive rates; the supremum is
    0 when every active product nu_i <grad_i, p> is nonnegative and +inf
    otherwise.  Only orthant targets are supported.  One node of
    :func:`_modified_hamiltonians`.
    """
    if not isinstance(theta, NonpositiveOrthant):
        raise ConfigurationError("the modified Hamiltonian needs an orthant target")
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    if not theta.contains(tab.psi[0], tol=ACT_TOL):
        raise DomainError(f"psi(x,u)={tab.psi[0]} is not in Theta")
    return float(_modified_hamiltonians(theta, tab.psi, tab.Jx, np.reshape(p, (1, -1)),
                                        np.reshape(nu, (1, -1)))[0])


def _modified_hamiltonians(theta: ThetaSet, Z: Array, Jx: Array, P: Array,
                           NU: Array) -> Array:
    """:func:`modified_hamiltonian` at K nodes, psi = Z[j] with grad_x psi
    = Jx[j], p = P[j] and nu = NU[j]; +inf where psi is outside Theta."""
    products = NU * _rows(Jx, P)
    unbounded = np.any((Z >= -ACT_TOL) & (products < -TOL_POS), axis=1)
    return np.where(theta.contains_stack(Z, tol=ACT_TOL) & ~unbounded, 0.0, math.inf)


def conventional_hamiltonian(field: FieldMap, theta: ThetaSet, x: Array,
                             u: Array, p: Array) -> float:
    """Supremum of <p, v> over v in minus the moving-set normal cone.

    Finite (and equal to zero) exactly when p makes a nonnegative product
    with every active generator; a single negative product lets the supremum
    run away, so the value is +inf there.  One node of
    :func:`_conventional_hamiltonians`.
    """
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    if not theta.contains(tab.psi[0], tol=ACT_TOL):
        raise DomainError(f"psi(x,u)={tab.psi[0]} is not in Theta")
    return float(_conventional_hamiltonians(theta, tab.psi, tab.Jx,
                                            np.reshape(p, (1, -1)))[0])


def _conventional_hamiltonians(theta: ThetaSet, Z: Array, Jx: Array,
                               P: Array) -> Array:
    """:func:`conventional_hamiltonian` at K nodes, psi = Z[j] with grad_x psi
    = Jx[j] and p = P[j]; +inf where psi is outside Theta.  The product of
    p with the generator grad_x psi^T a of an active row a is <a, grad_x psi p>."""
    g, Dg, d = theta.constraint(Z)
    products = _rows(Dg, _rows(Jx, P))
    unbounded = np.any((g >= d - ACT_TOL) & (products < -TOL_POS), axis=1)
    return np.where(theta.contains_stack(Z, tol=ACT_TOL) & ~unbounded, 0.0, math.inf)


def max_condition_check(problem: OcpProblem, state: Path, control: Path,
                        cert: Certificate,
                        tol: float = TOL_RESIDUAL) -> ResidualReport:
    """Refined maximum condition along a pair, for orthant targets.

    Per cell, with r = q^x at the midpoint minus lam v^x: the stored nu must
    lie in the coderivative of the normal-cone map in the direction
    grad_x psi r (item ``measured_coderivative``), the bracket of (nu, xdot)
    must annihilate r while the modified Hamiltonian stays zero, and active
    components with positive velocity multiplier must make grad_i orthogonal
    to r (all folded into item ``max_condition``, which is +inf once the
    modified Hamiltonian is).  All cells are checked at once, as stage
    expressions over the table of the field at the left nodes.
    """
    system = problem.system
    field = system.field
    theta = system.theta
    if not isinstance(theta, NonpositiveOrthant):
        raise ConfigurationError("the refined maximum condition needs an orthant target")
    if cert.nu is None:
        raise ConfigurationError("certificate carries no nu selection")
    mesh = state.mesh
    if control.mesh != mesh or cert.nu.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    k = mesh.k
    tab = field_at_nodes(field, state.values[:k], control.values[:k])
    r = _midpoint_q(cert, tab, state, control)[:, :field.n] - cert.lam * cert.subgrad.v_x
    eta, nu = cert.eta.values[:k], cert.nu.values[:k]

    dirs = _rows(tab.Jx, r)  # <grad_i, r> per component
    codes = coderivative_codes(*theta.bounds(), tab.psi, eta, dirs,
                               act_tol=ACT_TOL, pos_tol=TOL_POS)
    code = float(np.max(coderivative_violations(codes, nu), initial=0.0))
    ham = float(np.max(_modified_hamiltonians(theta, tab.psi, tab.Jx, r, nu), initial=0.0))
    if math.isinf(ham):
        maxc = math.inf
    else:
        active = tab.psi >= -ACT_TOL
        bracket = -_rows(tab.Jx.swapaxes(1, 2), active * nu * eta)
        along = np.where(active & (eta > TOL_POS), np.abs(dirs), 0.0)
        maxc = float(max(np.max(np.abs(np.sum(bracket * r, axis=1)), initial=0.0),
                         np.max(along, initial=0.0)))

    items = (
        ResidualItem("measured_coderivative", code, tol),
        ResidualItem("max_condition", maxc, tol),
    )
    return ResidualReport(items=items,
                          details={"modified_hamiltonian": ham})


def conventional_sufficiency_check(problem: OcpProblem, state: Path,
                                   control: Path, cert: Certificate) -> ResidualReport:
    """Classical Hamiltonian identity on cells where it is justified.

    A cell qualifies when psi has active components and every active
    velocity multiplier is strictly positive; there <xdot, r> must vanish
    and the conventional Hamiltonian must be zero.  Other cells are skipped
    as vacuous.  The worst conventional Hamiltonian value over all cells
    (skipped ones included) is recorded in the details, since +inf there is
    exactly the situation the refined condition is designed to survive.
    All cells are checked at once, as stage expressions over the table of
    the field at the left nodes.
    """
    system = problem.system
    field = system.field
    theta = system.theta
    mesh = state.mesh
    if control.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    bounds = theta.bounds()
    if bounds is None:
        raise ConfigurationError("componentwise activity needs a box-like target")
    k, h = mesh.k, mesh.h
    lam = cert.lam
    tab = field_at_nodes(field, state.values[:k], control.values[:k])
    r = _midpoint_q(cert, tab, state, control)[:, :field.n] - lam * cert.subgrad.v_x

    ham = _conventional_hamiltonians(theta, tab.psi, tab.Jx, r)
    # Active components: within ACT_TOL of a finite end of their interval.
    active = np.minimum(bounds[1] - tab.psi, tab.psi - bounds[0]) <= ACT_TOL
    qualifies = active.any(axis=1) & ~np.any(active & (cert.eta.values[:k] <= TOL_POS), axis=1)
    xdot_r = np.abs(_rows(np.diff(state.values, axis=0)[:, None, :] / h, r)[:, 0])
    identity = float(np.max(np.where(np.isinf(ham), math.inf, xdot_r)[qualifies],
                            initial=0.0))
    checked = int(np.sum(qualifies))

    items = (ResidualItem("hamilton_identity", identity, TOL_RESIDUAL),)
    return ResidualReport(items=items,
                          details={"cells_checked": checked,
                                   "cells_skipped": k - checked,
                                   "conventional_hamiltonian":
                                       float(np.max(ham, initial=0.0))})


# ---------------------------------------------------------------------------
# Endpoint qualification and lifts
# ---------------------------------------------------------------------------


def check_nondegeneracy(field: FieldMap, theta: ThetaSet, x_T: Array,
                        u_T: Array, eta_T: Array) -> NondegeneracyResult:
    """Endpoint qualification: only the zero multiplier may be two-sided.

    Degeneracy means some nonzero element lies both in the coderivative of
    the normal-cone map at zero direction and in minus the normal cone.  For
    a target with an interval form (``theta.bounds()``: orthant, box,
    diagonal linear image) that happens exactly when the interval table of
    :func:`coderivative_codes` at zero direction has a free component (one
    at an end with a nonzero multiplier pointing out of it), and the witness
    is -sign(eta_i) e_i at the first such i.  A smooth inequality target is
    judged through its lifted multiplier.
    Requires the full constraint Jacobian at the endpoint to be surjective.
    """
    eta_T = np.atleast_1d(np.asarray(eta_T, dtype=float))
    tab = field_at_nodes(field, np.reshape(x_T, (1, -1)), np.reshape(u_T, (1, -1)))
    z = tab.psi[0]
    if not theta.contains(z, tol=ACT_TOL):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    ok, sigma_min = surjectivity_check(tab.J[0])
    if not ok:
        raise SurjectivityError(
            f"endpoint constraint Jacobian is rank deficient (sigma_min={sigma_min:.3e})")
    if theta.normal_cone_violation(z, eta_T, tol=ACT_TOL) > ACT_TOL:
        raise DomainError("eta_T is not in the normal cone at psi(x_T, u_T)")

    bounds = theta.bounds()
    if bounds is not None:
        free = np.flatnonzero(coderivative_codes(*bounds, z, eta_T, np.zeros_like(z),
                                                 ACT_TOL, TOL_POS) == _FREE)
        if not free.size:
            return NondegeneracyResult(nondegenerate=True)
        witness = np.zeros(theta.s)
        witness[free[0]] = -np.sign(eta_T[free[0]])
        return NondegeneracyResult(nondegenerate=False, witness=witness)
    if isinstance(theta, SmoothInequality):
        hv, Dh, _ = theta.constraint(z)
        ok, sigma_min = surjectivity_check(Dh)
        if not ok:
            raise SurjectivityError(
                f"inequality Jacobian is rank deficient (sigma_min={sigma_min:.3e})")
        # eta_T passed the cone test above, so the gradients generate it.
        mu, *_ = np.linalg.lstsq(Dh.T, eta_T, rcond=None)
        for i in range(theta.l):
            if hv[i] >= -ACT_TOL and mu[i] > TOL_POS:
                return NondegeneracyResult(nondegenerate=False, witness=-Dh[i])
        return NondegeneracyResult(nondegenerate=True)
    raise ConfigurationError(
        "nondegeneracy needs a box-like or inequality-described target")


def smooth_inequality_lift(problem: OcpProblem, state: Path, control: Path,
                           cert: Certificate) -> tuple[Path, ResidualReport]:
    """Lift multipliers through an inequality-described target set.

    With Theta = {z : h(z) <= 0}, the velocity multipliers resolve as
    eta = Dh(z)^T mu and the coderivative elements as
    nu = Dh^T nu_lift + hess_h(mu) applied to the direction; the lifted pair
    must then satisfy the orthant coderivative table at (h(z), mu).  Returns
    the mu path and a report with items ``lift_mu``/``lift_nu`` (resolution
    residuals), ``measured_coderivative`` and ``max_condition`` in lifted
    coordinates.  Rank-deficient Dh raises.
    """
    system = problem.system
    field = system.field
    theta = system.theta
    if not isinstance(theta, SmoothInequality):
        raise ConfigurationError("the lift needs an inequality-described target")
    if cert.nu is None:
        raise ConfigurationError("certificate carries no nu selection")
    mesh = state.mesh
    if control.mesh != mesh or cert.nu.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    k = mesh.k
    tab = field_at_nodes(field, state.values[:k], control.values[:k])
    r = _midpoint_q(cert, tab, state, control)[:, :field.n] - cert.lam * cert.subgrad.v_x

    hs, Dhs, _ = theta.constraint(tab.psi)
    solve, ok, sigma_min = _transpose_solver(Dhs)
    if not ok.all():
        j = int(np.argmin(ok))
        raise SurjectivityError(
            f"inequality Jacobian at cell {j} is rank deficient "
            f"(sigma_min={sigma_min[j]:.3e})")
    eta, nu = cert.eta.values[:k], cert.nu.values[:k]
    DhT = Dhs.swapaxes(1, 2)
    mu = solve(eta)
    res_mu = float(np.max(np.linalg.norm(_rows(DhT, mu) - eta, axis=1), initial=0.0))

    dirs = _rows(tab.Jx, r)
    hess_term = np.zeros_like(dirs)
    if theta.hess is not None:
        hess = np.array([np.atleast_2d(np.asarray(theta.hess(z_j, mu_j), dtype=float))
                         for z_j, mu_j in zip(tab.psi, mu)])
        hess_term = _rows(hess, dirs)
    nu_lift = solve(nu - hess_term)
    res_nu = float(np.max(np.linalg.norm(_rows(DhT, nu_lift) + hess_term - nu, axis=1),
                          initial=0.0))
    lifted_dirs = _rows(Dhs, dirs)
    codes = coderivative_codes(*NonpositiveOrthant(theta.l).bounds(), hs, mu,
                               lifted_dirs, act_tol=ACT_TOL, pos_tol=TOL_POS)
    code = float(np.max(coderivative_violations(codes, nu_lift), initial=0.0))
    # The bracket over the lifted constraint gradients Dh Jx in state space.
    bracket_r = np.sum(np.where(hs >= -ACT_TOL, nu_lift * mu, 0.0) * lifted_dirs, axis=1)
    maxc = float(np.max(np.abs(bracket_r), initial=0.0))
    mu_vals = np.vstack([mu, mu[-1:]])

    items = (
        ResidualItem("lift_mu", res_mu, TOL_RESIDUAL),
        ResidualItem("lift_nu", res_nu, TOL_RESIDUAL),
        ResidualItem("measured_coderivative", code, TOL_RESIDUAL),
        ResidualItem("max_condition", maxc, TOL_RESIDUAL),
    )
    return Path(mesh=mesh, values=mu_vals), ResidualReport(items=items)


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


def _running_subgradients(problem: OcpProblem, state: Path, control: Path,
                          ) -> SubgradientSelection:
    """Cost gradients along a pair, evaluated at left nodes.

    A data-form running cost gives every cell's four partials in one array
    expression; a bare ``dell`` callback is called once per cell.
    """
    mesh = state.mesh
    n, m = problem.system.field.n, problem.system.field.m
    t = mesh.nodes[:-1]
    raw = _raw_args(problem, np.hstack([state.values, control.values]), mesh.h)
    g, _ = _running_grad(problem, t, raw, _quadratic_stage(problem, t),
                         want_hess=False)
    return SubgradientSelection(
        w_x=g[:, :n], w_u=g[:, n:n + m], v_x=g[:, n + m:2 * n + m],
        v_u=g[:, 2 * n + m:] if problem.uses_udot else None)


def _rank_deficient(A, C, free: Array) -> bool:
    """Whether the condition matrix A Z has dependent columns.

    Z maps the original unknowns (the columns ``free`` of A, CSC) to the
    tail form, the other columns being fixed by C y = 0.  Two steps of
    inverse iteration on (A Z)^T (A Z) through one factorization of the
    undamped augmented system find a vector x with ||A Z x|| <= sigma ||x||,
    sigma no smaller than the least singular value; the columns count as
    dependent when sigma falls under numpy's ``matrix_rank`` tolerance,
    max(shape) * eps * ||A||, with sqrt(||A||_1 ||A||_inf) for ||A||.  A
    pivot that vanishes exactly (splu's RuntimeError) also means dependence.
    """
    from scipy.sparse.linalg import norm
    rows, N = A.shape
    try:
        lu = _Augmented(A.indices, A.indptr, A.shape, C).factor(A.data)
    except RuntimeError:  # exactly singular
        return True
    rhs = np.zeros(rows + N + C.shape[0])
    y = np.zeros(N)
    y[free] = np.random.default_rng(0).standard_normal(len(free))
    for _ in range(2):
        rhs[rows:rows + N][free] = y[free] / np.linalg.norm(y[free])
        y = lu.solve(rhs)[rows:rows + N]
    sigma = np.linalg.norm(A @ y) / np.linalg.norm(y[free])
    tol = max(rows, len(free)) * np.finfo(float).eps \
        * math.sqrt(norm(A, 1) * norm(A, np.inf))
    return not sigma > tol


def assemble_certificate(problem: OcpProblem, state: Path, control: Path,
                         lam: float = 1.0) -> Certificate:
    """Fit multipliers to a candidate pair by constrained least squares.

    Unknowns are the adjoint node values, a piecewise-constant measure
    density, one atom at the final time, and nonnegative coefficients on the
    endpoint cone generators.  The fitted conditions are the cellwise
    adjoint equation, the control-adjoint pinning, and the endpoint
    inclusion as an equality on the generators; a small Tikhonov term,
    min ||A x - b||^2 + (1e-6)^2 ||x||^2, picks the minimum-norm
    representative, and ``non_unique`` flags a rank deficiency of the
    condition matrix A (the usual situation, since the multiplier set is a
    cone).  ``fit_residual`` is the worst condition violation at the fitted
    point; it does not bound the items a subsequent residual report checks
    beyond the fitted ones.

    Velocity multipliers are recovered from the pair first, so candidates
    violating the velocity inclusion raise before any fitting happens.
    Density variables on cells whose constraint values stay strictly inside
    the target set are fixed to zero up front: measure mass cannot live
    there, and dropping those variables removes sampling nullspaces that
    would otherwise smear an endpoint atom into oscillating densities.

    The solve is O(k).  The measure tails S_j = sum_{c >= j} h G_c dens_c +
    G_T atom (j = 1..k) join as unregularized unknowns tied by S_j - S_{j+1}
    = h G_j dens_j and S_k = G_T atom, so the tail at the midpoint of cell j
    is S_{j+1} plus its own half cell, and every condition row touches O(1)
    cells: the matrix is banded and assembled from stage stacks.  One
    sparse LU of the undamped augmented system (:class:`ocp._Augmented`,
    with the tail equalities as C) solves for the free unknowns, with the
    cone coefficients' columns as extra right-hand sides; the residual is
    affine in them, so a tiny NNLS over those few coefficients enforces
    their bounds before back-substitution.  Results match a dense bounded
    least-squares solve of the same problem to about 1e-10, not bit for
    bit.  When A has fewer rows than unknowns ``non_unique`` holds by
    counting; otherwise :func:`_rank_deficient` decides it with a second,
    unregularized factorization.
    """
    if not 0.0 <= lam < math.inf:
        raise ConfigurationError("the cost multiplier must be finite and nonnegative")
    from scipy.optimize import nnls
    system = problem.system
    field = system.field
    theta = system.theta
    mesh = state.mesh
    if control.mesh != mesh:
        raise ConfigurationError("state and control must share a mesh")
    k, h = mesh.k, mesh.h
    n, m, s = field.n, field.m, field.s
    d = n + m
    nodes = mesh.nodes

    eta_path = recover_eta(system, state, control)
    sg = _running_subgradients(problem, state, control)

    tab = field_at_nodes(field, state.values, control.values)
    grads = tab.J[:k].transpose(0, 2, 1)
    x_T = state.values[k]
    grad_T_end = tab.J[k].T
    psis = tab.psi
    if not theta.contains(psis[k], tol=ACT_TOL):
        raise DomainError(f"psi at the endpoint is not in Theta: {psis[k]}")
    cols_T = _cone_generators(theta, psis[k], grad_T_end, tol=ACT_TOL)
    n_beta = cols_T.shape[1]

    inner = _interior_margin(theta, psis)
    contact = np.flatnonzero(np.minimum(inner[:-1], inner[1:]) <= INTERIOR_TOL)

    # Unknowns, in order: p_0..p_k, the contact cells' densities, the atom
    # (these carry the Tikhonov term), the tails S_1..S_k, the cone
    # coefficients beta.  Absent density cells have index -1.
    ip = np.arange((k + 1) * d).reshape(k + 1, d)
    idens = np.full((k, s), -1)
    idens[contact] = ip.size + np.arange(len(contact) * s).reshape(-1, s)
    n_reg = ip.size + len(contact) * s + s
    iatom = np.arange(n_reg - s, n_reg)
    iS = n_reg + np.arange(k * d).reshape(k, d)  # row j holds S_{j+1}
    i_beta = n_reg + k * d
    N = i_beta + n_beta
    nvars = n_reg + n_beta

    # Condition rows, one block per cell over (p_j, p_{j+1}, S, cut cell):
    # the adjoint equation  dp/h - H (p_mid^x - tail^x(mid) - lam v^x) =
    # lam w  over the control adjoint  p_mid^u - tail^u(mid) = lam v^u (or
    # zero).  The midpoint tail is S_full plus the cut cell's length times
    # its integrand (_tail_cells, as VectorMeasure.tail counts cells).  Then
    # the endpoint inclusion rows, an equality over the cone generators: A.
    # S stacks A over the Tikhonov rows reg I of the regularized unknowns.
    H = np.concatenate(tab.hess(eta_path.values[:k]), axis=1)
    HE = np.concatenate([H, np.zeros((k, d, m))], axis=2)  # H on the x part
    full, cut, length = _tail_cells(mesh, 0.5 * (nodes[:-1] + nodes[1:]))
    Gcut = length[:, None, None] * grads[cut]
    B = np.zeros((k, d + m, 3 * d + s))
    B[:, :d, :d] = -np.eye(d) / h - 0.5 * HE
    B[:, :d, d:2 * d] = np.eye(d) / h - 0.5 * HE
    B[:, :d, 2 * d:3 * d] = HE
    B[:, :d, 3 * d:] = H @ Gcut[:, :n]
    B[:, d:, n:d] = B[:, d:, d + n:2 * d] = 0.5 * np.eye(m)
    B[:, d:, 2 * d + n:3 * d] = -np.eye(m)
    B[:, d:, 3 * d:] = -Gcut[:, n:]
    icut = np.where((cut >= 0)[:, None], idens[cut], -1)
    n_rows = k * (d + m) + d
    rows = n_rows + n_reg
    i_end = n_rows - d + np.arange(d)[None]
    ireg = np.arange(n_reg)[:, None]
    reg = 1e-6
    *_, assemble = _assembler((rows, N), [
        (np.arange(k * (d + m)).reshape(k, d + m),
         np.hstack([ip[:-1], ip[1:], iS[full - 1], icut])),
        (i_end, ip[k:]), (i_end, i_beta + np.arange(n_beta)[None]),
        (n_rows + ireg, ireg)])
    S = assemble([B, -np.eye(d)[None], -cols_T[None], np.full((n_reg, 1, 1), reg)])
    gphi = np.atleast_1d(np.asarray(problem.dphi(x_T), dtype=float))
    b = np.zeros((k + 1, d + m))
    b[:k, :d] = lam * np.hstack([sg.w_x, sg.w_u]) - (H @ (lam * sg.v_x)[:, :, None])[:, :, 0]
    if problem.uses_udot:
        b[:k, d:] = lam * sg.v_u
    b[k, :d] = lam * np.concatenate([gphi, np.zeros(m)])
    b = b.ravel()[:n_rows]

    # Tail equalities: S_j - S_{j+1} - h G_j dens_j = 0 for j < k and
    # S_k - G_T atom = 0.  They tie no cone coefficient.
    rS = iS - n_reg
    *_, assemble = _assembler((k * d, i_beta), [
        (rS, iS), (rS[:-1], iS[1:]), (rS[:-1], idens[1:]), (rS[-1:], iatom[None])])
    C = assemble([np.broadcast_to(np.eye(d), (k, d, d)),
                  np.broadcast_to(-np.eye(d), (k - 1, d, d)),
                  -h * grads[1:], -grad_T_end[None]])

    # Free unknowns through one factorization with K = S[:, :i_beta], the
    # head of S's CSC arrays; beta's columns -cols_T ride along as
    # right-hand sides, and NNLS on the affine residual fixes beta >= 0.
    nz = S.indptr[i_beta]
    rhs = np.zeros((rows + i_beta + k * d, 1 + n_beta))
    rhs[:n_rows, 0] = b
    rhs[n_rows - d:n_rows, 1:] = -cols_T
    sol = _Augmented(S.indices[:nz], S.indptr[:i_beta + 1], (rows, i_beta),
                     C).factor(S.data[:nz]).solve(rhs)
    beta = np.zeros(n_beta)
    if n_beta:
        Rb = np.vstack([sol[:rows, 1:], reg * np.eye(n_beta)])
        beta = nnls(Rb, np.concatenate([sol[:rows, 0], np.zeros(n_beta)]))[0]
    X = np.concatenate([sol[rows:rows + i_beta, 0] - sol[rows:rows + i_beta, 1:] @ beta,
                        beta])
    fit_residual = float(np.max(np.abs((S @ X)[:n_rows] - b)))
    free = np.r_[:n_reg, i_beta:N]
    non_unique = n_rows < nvars or _rank_deficient(S[:n_rows], C, free)

    p_arr = X[ip]
    dens = np.zeros((k, s))
    dens[contact] = X[idens[contact]]
    w_atom = X[iatom]
    atoms: tuple[tuple[float, Array], ...] = ()
    if float(np.linalg.norm(w_atom)) > 1e-9:
        atoms = ((float(mesh.T), w_atom),)
    gamma = VectorMeasure(mesh=mesh, density=dens, atoms=atoms)
    p_path = Path(mesh=mesh, values=p_arr)
    q = p_arr - gamma._tail(tab, state, control, nodes)
    nu_vals = np.vstack([dens, dens[-1:]]) if k else np.zeros((1, s))
    return Certificate(lam=lam, p=p_path, q=q, eta=eta_path, gamma=gamma,
                       subgrad=sg, nu=Path(mesh=mesh, values=nu_vals),
                       fit_residual=fit_residual, non_unique=non_unique)
