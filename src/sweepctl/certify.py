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
    NonpositiveOrthant,
    NotInConeError,
    SmoothInequality,
    SurjectivityError,
    ThetaSet,
    _cone_generators,
    _halfspaces_of,
    _signed_cone_distance,
    coderivative_orthant,
    coderivative_theta,
    coderivative_violation,
    normal_cone_decompose,
    psi_eval,
    surjectivity_check,
)
from .dynamics import Mesh, Path, SweepingSystem
from .ocp import DiscreteDecision, OcpProblem

Array = np.ndarray

#: Default pass threshold for residual items.
TOL_RESIDUAL = 1e-6
#: Strict-positivity threshold for multipliers and margins.
TOL_POS = 1e-8
#: Activity threshold when classifying constraint components.
ACT_TOL = 1e-7


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
            if t < -1e-12 or t > self.mesh.T + 1e-12:
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
        ts = np.asarray(t, dtype=float)
        tq = np.atleast_1d(ts)
        grads = _grads_T(field, state.values[:k], control.values[:k])
        g = (grads @ self.density[:, :, np.newaxis])[:, :, 0]
        suffix = np.zeros((k + 1, field.n + field.m))
        suffix[:k] = np.cumsum((self.mesh.h * g)[::-1], axis=0)[::-1]
        full, cut, length = _tail_cells(self.mesh, tq)
        out = suffix[full]
        at = cut >= 0
        out[at] += length[at, np.newaxis] * g[cut[at]]
        for tau, w in self.atoms:
            atom = _grad_T(field, state.at(tau), control.at(tau)) @ w
            out[tau >= tq - 1e-14] += atom
        return out.reshape(ts.shape + (field.n + field.m,))


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


def _grad_T(field: FieldMap, x: Array, u: Array) -> Array:
    """Transposed full constraint Jacobian at (x, u): shape (n + m, s)."""
    Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    Ju = np.atleast_2d(np.asarray(field.dpsi_du(x, u), dtype=float))
    return np.hstack([Jx, Ju]).T


def _grads_T(field: FieldMap, xs: Array, us: Array) -> Array:
    """:func:`_grad_T` at each row pair of (xs, us): shape (rows, n + m, s).

    Each slice is a transposed view laid out exactly as ``_grad_T`` returns
    it, so products with it round as the per-point ones do.
    """
    J = np.stack([_grad_T(field, x, u).T for x, u in zip(xs, us)])
    return J.transpose(0, 2, 1)


def _hess_xx(field: FieldMap, x: Array, u: Array, w: Array) -> Array:
    if field.hess_xx is None:
        return np.zeros((field.n, field.n))
    return np.atleast_2d(np.asarray(field.hess_xx(x, u, w), dtype=float))


def _hess_ux(field: FieldMap, x: Array, u: Array, w: Array) -> Array:
    if field.hess_ux is None:
        return np.zeros((field.m, field.n))
    return np.atleast_2d(np.asarray(field.hess_ux(x, u, w), dtype=float))


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
        if self.lam < 0:
            raise ConfigurationError("the cost multiplier must be nonnegative")


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
        if self.lam < 0:
            raise ConfigurationError("the cost multiplier must be nonnegative")


@dataclass(frozen=True)
class NondegeneracyResult:
    nondegenerate: bool
    witness: Array | None = None


# ---------------------------------------------------------------------------
# Primal-side helpers
# ---------------------------------------------------------------------------


def recover_eta(system: SweepingSystem, state: Path, control: Path,
                tol: float = 1e-8) -> Path:
    """Velocity multipliers of a candidate pair, cell by cell.

    Solves grad_x psi(x_j, u_j)^T eta_j = f(t_j, x_j) - dx_j/h on each cell
    and certifies eta_j against the normal cone; decomposition errors
    propagate.  The returned path uses the cell convention (node j stores
    the multiplier of cell j, node k repeats the last cell).
    """
    if state.mesh != control.mesh:
        raise ConfigurationError("state and control must share a mesh")
    mesh = state.mesh
    eff = system.effective_field()
    h = mesh.h
    vals = np.zeros((mesh.k + 1, eff.s))
    for j in range(mesh.k):
        x_j = state.values[j]
        f_j = np.atleast_1d(np.asarray(
            system.f(float(mesh.nodes[j]), x_j), dtype=float))
        v = f_j - (state.values[j + 1] - x_j) / h
        dec = normal_cone_decompose(eff, system.theta, x_j, control.values[j],
                                    v, tol=tol)
        vals[j] = dec.eta
    vals[mesh.k] = vals[mesh.k - 1]
    return Path(mesh=mesh, values=vals)


def theta_quantities(problem: OcpProblem, z: DiscreteDecision,
                     ) -> tuple[Array, Array]:
    """Relaxation-term derivatives along a decision.

    Returns (theta_x, theta_u) with theta_x of shape (k, n).  In the mode
    with a control-velocity running cost the control part has one row per
    cell (row k of the returned (k+1, m) array stays zero); otherwise every
    node carries 2 rho (u_j - uref(t_j)).  Both are zero without an anchor
    or with rho = 0.
    """
    k = z.mesh.k
    n = problem.system.field.n
    m = problem.system.field.m
    th_x = np.zeros((k, n))
    th_u = np.zeros((k + 1, m))
    if problem.rho == 0.0 or problem.anchor is None:
        return th_x, th_u
    xref, uref = problem.anchor
    nodes = z.mesh.nodes
    xr = xref.at(nodes)
    ur = uref.at(nodes)
    th_x[:] = 2.0 * problem.rho * (np.diff(z.x, axis=0) - np.diff(xr, axis=0))
    if problem.uses_udot:
        th_u[:k] = 2.0 * problem.rho * (np.diff(z.u, axis=0)
                                        - np.diff(ur, axis=0))
    else:
        th_u[:] = 2.0 * problem.rho * (z.u - ur)
    return th_x, th_u


def _interior_margin(theta: ThetaSet, z: Array) -> float:
    """How strictly z sits inside Theta (negative outside, 0 on the boundary)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if isinstance(theta, SmoothInequality):
        hv = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        return float(-np.max(hv))
    H, d = _halfspaces_of(theta)
    return float(np.min(d - H @ z, initial=math.inf))


def _midpoint_q(cert: Certificate, field: FieldMap, state: Path,
                control: Path) -> Array:
    """q at cell midpoints: interpolated adjoint minus the measure tail."""
    nodes = state.mesh.nodes
    pvals = cert.p.values
    t_mid = 0.5 * (nodes[:-1] + nodes[1:])
    p_mid = 0.5 * (pvals[:-1] + pvals[1:])
    return p_mid - cert.gamma.tail(field, state, control, t_mid)


# ---------------------------------------------------------------------------
# Discrete stationarity residuals
# ---------------------------------------------------------------------------


def residual_discrete_EL(problem: OcpProblem, z: DiscreteDecision,
                         cert: DiscreteCertificate,
                         tol: float = TOL_RESIDUAL) -> ResidualReport:
    """Residuals of the discrete adjoint system at a decision.

    Items: ``adjoint_ode`` (the backward difference system in both state and
    control rows), ``q_u`` (the control-adjoint pinning), ``transversality``
    (endpoint inclusion through the constraint cone), ``nontriviality_margin``
    (shortfall below the positivity threshold), ``measured_coderivative``
    (cellwise membership of gamma in the coderivative of the normal-cone
    map).  Empty coderivatives and infeasible cells report +inf.
    """
    field = problem.system.effective_field()
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

    adj = 0.0
    qu = 0.0
    code = 0.0
    for j in range(k):
        x_j, u_j, eta_j = z.x[j], z.u[j], z.eta[j]
        psi_j = psi_eval(field, x_j, u_j)
        Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x_j, u_j), dtype=float))
        Ju = np.atleast_2d(np.asarray(field.dpsi_du(x_j, u_j), dtype=float))
        ufrak = px[j + 1] - lam * (sg.v_x[j] + th_x[j] / h)
        res_x = (px[j + 1] - px[j]) / h - lam * sg.w_x[j] \
            - _hess_xx(field, x_j, u_j, eta_j) @ ufrak - Jx.T @ cert.gamma[j]
        if problem.uses_udot:
            res_u = (pu[j + 1] - pu[j]) / h - lam * sg.w_u[j] \
                - _hess_ux(field, x_j, u_j, eta_j) @ ufrak \
                - Ju.T @ cert.gamma[j]
            qu = max(qu, float(np.linalg.norm(
                pu[j + 1] - lam * (sg.v_u[j] + th_u[j] / h))))
        else:
            res_u = (pu[j + 1] - pu[j]) / h - lam * (sg.w_u[j] + th_u[j]) \
                - _hess_ux(field, x_j, u_j, eta_j) @ ufrak \
                - Ju.T @ cert.gamma[j]
            qu = max(qu, float(np.linalg.norm(pu[j + 1])))
        adj = max(adj, float(np.linalg.norm(res_x)),
                  float(np.linalg.norm(res_u)))
        try:
            cases = coderivative_theta(theta, psi_j, eta_j, Jx @ ufrak,
                                       act_tol=ACT_TOL, pos_tol=TOL_POS)
            code = max(code, coderivative_violation(cases, cert.gamma[j]))
        except DomainError:
            code = math.inf

    x_k, u_k = z.x[k], z.u[k]
    psi_k = psi_eval(field, x_k, u_k)
    p_end = cert.p[k].copy()
    if not problem.uses_udot:
        # The control-adjoint endpoint does not enter the inclusion here.
        p_end[n:] = 0.0
    gphi = np.atleast_1d(np.asarray(problem.dphi(x_k), dtype=float))
    target = -p_end - lam * np.concatenate([gphi, np.zeros(m)])
    if theta.contains(psi_k, tol=ACT_TOL):
        cols, signs = _cone_generators(theta, psi_k,
                                       _grad_T(field, x_k, u_k), tol=ACT_TOL)
        trans = _signed_cone_distance(cols, target, signs)
    else:
        trans = math.inf

    margin = lam + float(sum(np.linalg.norm(px[j]) for j in range(k)))
    margin += float(np.linalg.norm(pu[0])) + float(np.linalg.norm(px[k]))
    if problem.uses_udot:
        margin += float(np.linalg.norm(pu[k]))

    items = (
        ResidualItem("adjoint_ode", adj, tol),
        ResidualItem("q_u", qu, tol),
        ResidualItem("transversality", trans, tol),
        _shortfall_item("nontriviality_margin", margin),
        ResidualItem("measured_coderivative", code, tol),
    )
    return ResidualReport(items=items,
                          details={"nontriviality_margin": margin})


# ---------------------------------------------------------------------------
# Continuous stationarity residuals
# ---------------------------------------------------------------------------


def residual_continuous_EL(problem: OcpProblem, state: Path, control: Path,
                           cert: Certificate, tol: float = TOL_RESIDUAL,
                           tol_interior: float = 1e-6) -> ResidualReport:
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
    field = system.effective_field()
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

    # Velocity inclusion at the stored multipliers.
    eta_res = 0.0
    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        eta_j = cert.eta.values[j]
        psi_j = psi_eval(field, x_j, u_j)
        if not theta.contains(psi_j, tol=ACT_TOL):
            eta_res = math.inf
            continue
        Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x_j, u_j), dtype=float))
        xdot = (state.values[j + 1] - x_j) / h
        f_j = np.atleast_1d(np.asarray(
            system.f(float(nodes[j]), x_j), dtype=float))
        dyn = float(np.linalg.norm(xdot - f_j + Jx.T @ eta_j))
        cone = theta.normal_cone_violation(psi_j, eta_j, tol=ACT_TOL)
        eta_res = max(eta_res, dyn, cone)

    q_mid = _midpoint_q(cert, field, state, control)

    adj = 0.0
    qu = 0.0
    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        eta_j = cert.eta.values[j]
        pdot = (pvals[j + 1] - pvals[j]) / h
        r_j = q_mid[j, :n] - lam * sg.v_x[j]
        rhs_x = lam * sg.w_x[j] + _hess_xx(field, x_j, u_j, eta_j) @ r_j
        rhs_u = lam * sg.w_u[j] + _hess_ux(field, x_j, u_j, eta_j) @ r_j
        adj = max(adj, float(np.linalg.norm(pdot[:n] - rhs_x)),
                  float(np.linalg.norm(pdot[n:] - rhs_u)))
        if problem.uses_udot:
            qu = max(qu, float(np.linalg.norm(q_mid[j, n:] - lam * sg.v_u[j])))
        else:
            qu = max(qu, float(np.linalg.norm(q_mid[j, n:])))

    tails = cert.gamma.tail(field, state, control, nodes)
    qg = float(np.max(np.linalg.norm(cert.q - (pvals - tails), axis=1)))

    x_T = state.values[k]
    u_T = control.values[k]
    psi_T = psi_eval(field, x_T, u_T)
    gphi = np.atleast_1d(np.asarray(problem.dphi(x_T), dtype=float))
    target = -pvals[k] - lam * np.concatenate([gphi, np.zeros(m)])
    if theta.contains(psi_T, tol=ACT_TOL):
        cols, signs = _cone_generators(theta, psi_T,
                                       _grad_T(field, x_T, u_T), tol=ACT_TOL)
        trans = _signed_cone_distance(cols, target, signs)
    else:
        trans = math.inf

    margin = lam + float(np.max(np.linalg.norm(pvals, axis=1)))
    margin += cert.gamma.total_variation()

    # Mass sitting strictly inside the target set violates nonatomicity.
    interior_mass = 0.0
    psis = [psi_eval(field, state.values[j], control.values[j])
            for j in range(k + 1)]
    for j in range(k):
        cell_margin = min(_interior_margin(theta, psis[j]),
                          _interior_margin(theta, psis[j + 1]))
        if cell_margin > tol_interior:
            interior_mass += h * float(np.linalg.norm(cert.gamma.density[j]))
    for tau, w in cert.gamma.atoms:
        z_tau = psi_eval(field, state.at(tau), control.at(tau))
        if _interior_margin(theta, z_tau) > tol_interior:
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
    otherwise.  Only orthant targets are supported.
    """
    if not isinstance(theta, NonpositiveOrthant):
        raise ConfigurationError("the modified Hamiltonian needs an orthant target")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    z = psi_eval(field, x, u)
    if not theta.contains(z, tol=ACT_TOL):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    for i in range(theta.s):
        if z[i] < -ACT_TOL:
            continue
        if nu[i] * float(Jx[i] @ p) < -TOL_POS:
            return math.inf
    return 0.0


def conventional_hamiltonian(field: FieldMap, theta: ThetaSet, x: Array,
                             u: Array, p: Array) -> float:
    """Supremum of <p, v> over v in minus the moving-set normal cone.

    Finite (and equal to zero) exactly when p makes a nonnegative product
    with every active generator; a single negative product lets the supremum
    run away, so the value is +inf there.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    z = psi_eval(field, x, u)
    if not theta.contains(z, tol=ACT_TOL):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    cols, signs = _cone_generators(theta, z, Jx.T, tol=ACT_TOL)
    for i in range(cols.shape[1]):
        if signs[i] * float(p @ cols[:, i]) < -TOL_POS:
            return math.inf
    return 0.0


def max_condition_check(problem: OcpProblem, state: Path, control: Path,
                        cert: Certificate,
                        tol: float = TOL_RESIDUAL) -> ResidualReport:
    """Refined maximum condition along a pair, for orthant targets.

    Per cell, with r = q^x at the midpoint minus lam v^x: the stored nu must
    lie in the coderivative of the normal-cone map in the direction
    grad_x psi r (item ``measured_coderivative``), the bracket of (nu, xdot)
    must annihilate r while the modified Hamiltonian stays zero, and active
    components with positive velocity multiplier must make grad_i orthogonal
    to r (all folded into item ``max_condition``).
    """
    system = problem.system
    field = system.effective_field()
    theta = system.theta
    if not isinstance(theta, NonpositiveOrthant):
        raise ConfigurationError("the refined maximum condition needs an orthant target")
    if cert.nu is None:
        raise ConfigurationError("certificate carries no nu selection")
    mesh = state.mesh
    if control.mesh != mesh or cert.nu.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    k, h = mesh.k, mesh.h
    n = field.n
    lam = cert.lam
    sg = cert.subgrad
    q_mid = _midpoint_q(cert, field, state, control)

    code = 0.0
    maxc = 0.0
    ham = 0.0
    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        eta_j = cert.eta.values[j]
        nu_j = cert.nu.values[j]
        psi_j = psi_eval(field, x_j, u_j)
        Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x_j, u_j), dtype=float))
        r_j = q_mid[j, :n] - lam * sg.v_x[j]
        try:
            cases = coderivative_orthant(psi_j, eta_j, Jx @ r_j,
                                         act_tol=ACT_TOL, pos_tol=TOL_POS)
            code = max(code, coderivative_violation(cases, nu_j))
        except DomainError:
            code = math.inf
        try:
            ham = max(ham, modified_hamiltonian(field, theta, x_j, u_j,
                                                r_j, nu_j))
        except DomainError:
            ham = math.inf
        if math.isinf(ham):
            maxc = math.inf
            continue
        bracket = np.zeros(n)
        for i in range(theta.s):
            if psi_j[i] >= -ACT_TOL:
                bracket -= nu_j[i] * eta_j[i] * Jx[i]
        maxc = max(maxc, abs(float(bracket @ r_j)))
        for i in range(theta.s):
            if psi_j[i] >= -ACT_TOL and eta_j[i] > TOL_POS:
                maxc = max(maxc, abs(float(Jx[i] @ r_j)))

    items = (
        ResidualItem("measured_coderivative", code, tol),
        ResidualItem("max_condition", maxc, tol),
    )
    return ResidualReport(items=items,
                          details={"modified_hamiltonian": ham})


def conventional_sufficiency_check(problem: OcpProblem, state: Path,
                                   control: Path, cert: Certificate,
                                   tol: float = TOL_RESIDUAL) -> ResidualReport:
    """Classical Hamiltonian identity on cells where it is justified.

    A cell qualifies when psi has active components and every active
    velocity multiplier is strictly positive; there <xdot, r> must vanish
    and the conventional Hamiltonian must be zero.  Other cells are skipped
    as vacuous.  The worst conventional Hamiltonian value over all cells
    (skipped ones included) is recorded in the details, since +inf there is
    exactly the situation the refined condition is designed to survive.
    """
    system = problem.system
    field = system.effective_field()
    theta = system.theta
    mesh = state.mesh
    if control.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    k, h = mesh.k, mesh.h
    n = field.n
    lam = cert.lam
    sg = cert.subgrad
    q_mid = _midpoint_q(cert, field, state, control)

    checked = 0
    skipped = 0
    identity = 0.0
    ham_all = 0.0
    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        eta_j = cert.eta.values[j]
        psi_j = psi_eval(field, x_j, u_j)
        r_j = q_mid[j, :n] - lam * sg.v_x[j]
        try:
            ham_j = conventional_hamiltonian(field, theta, x_j, u_j, r_j)
        except DomainError:
            ham_j = math.inf
        ham_all = max(ham_all, ham_j)
        active = [i for i in range(theta.s)
                  if _interior_margin_component(theta, psi_j, i) <= ACT_TOL]
        if not active or any(eta_j[i] <= TOL_POS for i in active):
            skipped += 1
            continue
        checked += 1
        xdot = (state.values[j + 1] - x_j) / h
        identity = max(identity, abs(float(xdot @ r_j)))
        if math.isinf(ham_j):
            identity = math.inf

    items = (ResidualItem("hamilton_identity", identity, tol),)
    return ResidualReport(items=items,
                          details={"cells_checked": checked,
                                   "cells_skipped": skipped,
                                   "conventional_hamiltonian": ham_all})


def _interior_margin_component(theta: ThetaSet, z: Array, i: int) -> float:
    """Margin of one component of z to its nearest boundary in Theta."""
    bounds = theta.bounds()
    if bounds is None:
        raise ConfigurationError("componentwise activity needs a box-like target")
    lo, hi = bounds[0][i], bounds[1][i]
    margin = math.inf
    if np.isfinite(hi):
        margin = min(margin, hi - z[i])
    if np.isfinite(lo):
        margin = min(margin, z[i] - lo)
    return float(margin)


# ---------------------------------------------------------------------------
# Endpoint qualification and lifts
# ---------------------------------------------------------------------------


def check_nondegeneracy(field: FieldMap, theta: ThetaSet, x_T: Array,
                        u_T: Array, eta_T: Array,
                        act_tol: float = ACT_TOL,
                        pos_tol: float = TOL_POS) -> NondegeneracyResult:
    """Endpoint qualification: only the zero multiplier may be two-sided.

    Degeneracy means some nonzero element lies both in the coderivative of
    the normal-cone map at zero direction and in minus the normal cone.  For
    a target with an interval form (``theta.bounds()``: orthant, box,
    diagonal linear image) that happens exactly when a component at an end
    carries a nonzero multiplier pointing out of that end, and the witness
    is the signed unit vector -e_i at an upper end, +e_i at a lower end.  A
    smooth inequality target is judged through its lifted multiplier.
    Requires the full constraint Jacobian at the endpoint to be surjective.
    """
    x_T = np.atleast_1d(np.asarray(x_T, dtype=float))
    u_T = np.atleast_1d(np.asarray(u_T, dtype=float))
    eta_T = np.atleast_1d(np.asarray(eta_T, dtype=float))
    z = psi_eval(field, x_T, u_T)
    if not theta.contains(z, tol=act_tol):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    J_full = _grad_T(field, x_T, u_T).T
    ok, sigma_min = surjectivity_check(J_full)
    if not ok:
        raise SurjectivityError(
            f"endpoint constraint Jacobian is rank deficient (sigma_min={sigma_min:.3e})")
    if theta.normal_cone_violation(z, eta_T, tol=act_tol) > act_tol:
        raise DomainError("eta_T is not in the normal cone at psi(x_T, u_T)")

    bounds = theta.bounds()
    if bounds is not None:
        for i, (lo, hi) in enumerate(zip(*bounds)):
            if np.isfinite(hi) and z[i] >= hi - act_tol and eta_T[i] > pos_tol:
                sign = -1.0
            elif np.isfinite(lo) and z[i] <= lo + act_tol and eta_T[i] < -pos_tol:
                sign = 1.0
            else:
                continue
            witness = np.zeros(theta.s)
            witness[i] = sign
            return NondegeneracyResult(nondegenerate=False, witness=witness)
        return NondegeneracyResult(nondegenerate=True)
    if isinstance(theta, SmoothInequality):
        hv = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        ok, sigma_min = surjectivity_check(Dh)
        if not ok:
            raise SurjectivityError(
                f"inequality Jacobian is rank deficient (sigma_min={sigma_min:.3e})")
        mu, *_ = np.linalg.lstsq(Dh.T, eta_T, rcond=None)
        if float(np.linalg.norm(Dh.T @ mu - eta_T)) > act_tol * (1.0 + float(np.linalg.norm(eta_T))):
            raise NotInConeError("eta_T is not generated by the inequality gradients")
        for i in range(theta.l):
            if hv[i] >= -act_tol and mu[i] > pos_tol:
                return NondegeneracyResult(nondegenerate=False, witness=-Dh[i])
        return NondegeneracyResult(nondegenerate=True)
    raise ConfigurationError(
        "nondegeneracy needs a box-like or inequality-described target")


def smooth_inequality_lift(problem: OcpProblem, state: Path, control: Path,
                           cert: Certificate, tol: float = TOL_RESIDUAL,
                           ) -> tuple[Path, ResidualReport]:
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
    field = system.effective_field()
    theta = system.theta
    if not isinstance(theta, SmoothInequality):
        raise ConfigurationError("the lift needs an inequality-described target")
    if cert.nu is None:
        raise ConfigurationError("certificate carries no nu selection")
    mesh = state.mesh
    if control.mesh != mesh or cert.nu.mesh != mesh or cert.eta.mesh != mesh:
        raise ConfigurationError("paths must share the decision mesh")
    k, h = mesh.k, mesh.h
    n = field.n
    lam = cert.lam
    sg = cert.subgrad
    q_mid = _midpoint_q(cert, field, state, control)

    mu_vals = np.zeros((k + 1, theta.l))
    res_mu = 0.0
    res_nu = 0.0
    code = 0.0
    maxc = 0.0
    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        z_j = psi_eval(field, x_j, u_j)
        h_j = np.atleast_1d(np.asarray(theta.h(z_j), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z_j), dtype=float))
        ok, sigma_min = surjectivity_check(Dh)
        if not ok:
            raise SurjectivityError(
                f"inequality Jacobian at cell {j} is rank deficient "
                f"(sigma_min={sigma_min:.3e})")
        eta_j = cert.eta.values[j]
        mu_j, *_ = np.linalg.lstsq(Dh.T, eta_j, rcond=None)
        mu_vals[j] = mu_j
        res_mu = max(res_mu, float(np.linalg.norm(Dh.T @ mu_j - eta_j)))

        Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x_j, u_j), dtype=float))
        r_j = q_mid[j, :n] - lam * sg.v_x[j]
        dir_j = Jx @ r_j
        hess_term = np.zeros(theta.s)
        if theta.hess is not None:
            hess_term = np.atleast_2d(np.asarray(
                theta.hess(z_j, mu_j), dtype=float)) @ dir_j
        nu_j = cert.nu.values[j]
        nu_lift, *_ = np.linalg.lstsq(Dh.T, nu_j - hess_term, rcond=None)
        res_nu = max(res_nu, float(np.linalg.norm(
            Dh.T @ nu_lift + hess_term - nu_j)))
        try:
            cases = coderivative_orthant(h_j, mu_j, Dh @ dir_j,
                                         act_tol=ACT_TOL, pos_tol=TOL_POS)
            code = max(code, coderivative_violation(cases, nu_lift))
        except DomainError:
            code = math.inf
        bracket = np.zeros(n)
        grads = Dh @ Jx  # lifted constraint gradients in state space
        for i in range(theta.l):
            if h_j[i] >= -ACT_TOL:
                bracket -= nu_lift[i] * mu_j[i] * grads[i]
        maxc = max(maxc, abs(float(bracket @ r_j)))
    mu_vals[k] = mu_vals[k - 1]

    items = (
        ResidualItem("lift_mu", res_mu, tol),
        ResidualItem("lift_nu", res_nu, tol),
        ResidualItem("measured_coderivative", code, tol),
        ResidualItem("max_condition", maxc, tol),
    )
    return Path(mesh=mesh, values=mu_vals), ResidualReport(items=items)


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


def _running_subgradients(problem: OcpProblem, state: Path, control: Path,
                          ) -> SubgradientSelection:
    """Cost gradients along a pair, evaluated at left nodes."""
    mesh = state.mesh
    k, h = mesh.k, mesh.h
    n = problem.system.field.n
    m = problem.system.field.m
    w_x = np.zeros((k, n))
    w_u = np.zeros((k, m))
    v_x = np.zeros((k, n))
    v_u = np.zeros((k, m)) if problem.uses_udot else None
    for j in range(k):
        t_j = float(mesh.nodes[j])
        x_j = state.values[j]
        u_j = control.values[j]
        xd = (state.values[j + 1] - x_j) / h
        if problem.uses_udot:
            ud = (control.values[j + 1] - u_j) / h
            parts = problem.dell(t_j, x_j, u_j, xd, ud)
            v_u[j] = np.atleast_1d(np.asarray(parts[3], dtype=float))
        else:
            parts = problem.dell(t_j, x_j, u_j, xd)
        w_x[j] = np.atleast_1d(np.asarray(parts[0], dtype=float))
        w_u[j] = np.atleast_1d(np.asarray(parts[1], dtype=float))
        v_x[j] = np.atleast_1d(np.asarray(parts[2], dtype=float))
    return SubgradientSelection(w_x=w_x, w_u=w_u, v_x=v_x, v_u=v_u)


def assemble_certificate(problem: OcpProblem, state: Path, control: Path,
                         lam: float = 1.0) -> Certificate:
    """Fit multipliers to a candidate pair by constrained least squares.

    Unknowns are the adjoint node values, a piecewise-constant measure
    density, one atom at the final time, and nonnegative coefficients on the
    endpoint cone generators.  The fitted conditions are the cellwise
    adjoint equation, the control-adjoint pinning, and the endpoint
    inclusion as an equality on the generators; a small Tikhonov term picks
    the minimum-norm representative, and ``non_unique`` flags a rank
    deficiency of the condition matrix (the usual situation, since the
    multiplier set is a cone).  ``fit_residual`` is the worst condition
    violation at the fitted point; it does not bound the items a subsequent
    residual report checks beyond the fitted ones.

    Velocity multipliers are recovered from the pair first, so candidates
    violating the velocity inclusion raise before any fitting happens.
    Density variables on cells whose constraint values stay strictly inside
    the target set are fixed to zero up front: measure mass cannot live
    there, and dropping those variables removes sampling nullspaces that
    would otherwise smear an endpoint atom into oscillating densities.
    """
    if lam < 0:
        raise ConfigurationError("the cost multiplier must be nonnegative")
    system = problem.system
    field = system.effective_field()
    theta = system.theta
    mesh = state.mesh
    if control.mesh != mesh:
        raise ConfigurationError("state and control must share a mesh")
    k, h = mesh.k, mesh.h
    n, m, s = field.n, field.m, field.s
    nodes = mesh.nodes

    eta_path = recover_eta(system, state, control)
    sg = _running_subgradients(problem, state, control)

    grads = _grads_T(field, state.values[:k], control.values[:k])
    x_T = state.values[k]
    u_T = control.values[k]
    grad_T_end = _grad_T(field, x_T, u_T)
    psi_T = psi_eval(field, x_T, u_T)
    if not theta.contains(psi_T, tol=ACT_TOL):
        raise DomainError(f"psi at the endpoint is not in Theta: {psi_T}")
    cols_T, signs_T = _cone_generators(theta, psi_T, grad_T_end, tol=ACT_TOL)
    n_beta = cols_T.shape[1]

    psis = [psi_eval(field, state.values[j], control.values[j])
            for j in range(k + 1)]
    contact = [j for j in range(k)
               if min(_interior_margin(theta, psis[j]),
                      _interior_margin(theta, psis[j + 1])) <= 1e-6]

    npv = (k + 1) * (n + m)
    ndv = len(contact) * s
    i_atom = npv + ndv
    i_beta = i_atom + s
    nvars = i_beta + n_beta

    def p_slice(j: int) -> slice:
        return slice(j * (n + m), (j + 1) * (n + m))

    def px_slice(j: int) -> slice:
        return slice(j * (n + m), j * (n + m) + n)

    # Length of each contact cell inside [t_mid, T], for every midpoint: the
    # cells the tail at that midpoint integrates, as VectorMeasure.tail
    # counts them.
    t_mid = 0.5 * (nodes[:-1] + nodes[1:])
    full, cut, length = _tail_cells(mesh, t_mid)
    weights = np.where(np.arange(k) >= full[:, np.newaxis], h, 0.0)
    at = cut >= 0
    weights[at, cut[at]] = length[at]
    weights = weights[:, contact, np.newaxis, np.newaxis]
    grads_u = grads[contact, n:, :]
    dens_cols = slice(npv, i_atom)

    def dens_block(blocks: Array) -> Array:
        """(cells, rows, s) blocks side by side as the density columns."""
        return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], ndv)

    rows: list[Array] = []
    rhs: list[Array] = []

    for j in range(k):
        x_j = state.values[j]
        u_j = control.values[j]
        eta_j = eta_path.values[j]
        hxx = _hess_xx(field, x_j, u_j, eta_j)
        hux = _hess_ux(field, x_j, u_j, eta_j)
        Hmat = np.vstack([hxx, hux])  # (n+m, n)

        # Adjoint equation: dp/h - Hmat (p_mid^x - tail^x(mid) - lam v^x) = lam w.
        M = np.zeros((n + m, nvars))
        eye = np.eye(n + m)
        M[:, p_slice(j)] -= eye / h
        M[:, p_slice(j + 1)] += eye / h
        M[:, px_slice(j)] -= 0.5 * Hmat
        M[:, px_slice(j + 1)] -= 0.5 * Hmat
        M[:, dens_cols] += dens_block(
            weights[j] * (Hmat @ grads[:, :n, :])[contact])
        M[:, i_atom:i_atom + s] += Hmat @ grad_T_end[:n, :]
        b = lam * np.concatenate([sg.w_x[j], sg.w_u[j]]) \
            - Hmat @ (lam * sg.v_x[j])
        rows.append(M)
        rhs.append(b)

        # Control adjoint: p_mid^u - tail^u(mid) = lam v^u (or zero).
        M = np.zeros((m, nvars))
        sl_j = p_slice(j)
        sl_j1 = p_slice(j + 1)
        M[:, sl_j.start + n:sl_j.stop] += 0.5 * np.eye(m)
        M[:, sl_j1.start + n:sl_j1.stop] += 0.5 * np.eye(m)
        M[:, dens_cols] -= dens_block(weights[j] * grads_u)
        M[:, i_atom:i_atom + s] -= grad_T_end[n:, :]
        rows.append(M)
        rhs.append(lam * sg.v_u[j] if problem.uses_udot else np.zeros(m))

    # Endpoint inclusion as an equality over the cone generators.
    M = np.zeros((n + m, nvars))
    M[:, p_slice(k)] = -np.eye(n + m)
    for i in range(n_beta):
        M[:, i_beta + i] = -signs_T[i] * cols_T[:, i]
    gphi = np.atleast_1d(np.asarray(problem.dphi(x_T), dtype=float))
    rows.append(M)
    rhs.append(lam * np.concatenate([gphi, np.zeros(m)]))

    A = np.vstack(rows)
    b = np.concatenate(rhs)
    non_unique = int(np.linalg.matrix_rank(A)) < nvars

    reg = 1e-6
    A_aug = np.vstack([A, reg * np.eye(nvars)])
    b_aug = np.concatenate([b, np.zeros(nvars)])
    lb = np.full(nvars, -np.inf)
    lb[i_beta:] = 0.0
    ub = np.full(nvars, np.inf)
    from scipy.optimize import lsq_linear
    # The augmented system keeps rows >= columns, which the active-set
    # method needs; it finds the bounded minimum exactly on dense problems
    # of this size where the default trust-region solver can stall early.
    sol = lsq_linear(A_aug, b_aug, bounds=(lb, ub), method="bvls",
                     tol=1e-14)
    X = sol.x
    fit_residual = float(np.max(np.abs(A @ X - b))) if A.size else 0.0

    p_arr = X[:npv].reshape(k + 1, n + m)
    dens = np.zeros((k, s))
    dens[contact] = X[dens_cols].reshape(-1, s)
    w_atom = X[i_atom:i_atom + s]
    atoms: tuple[tuple[float, Array], ...] = ()
    if float(np.linalg.norm(w_atom)) > 1e-9:
        atoms = ((float(mesh.T), w_atom),)
    gamma = VectorMeasure(mesh=mesh, density=dens, atoms=atoms)
    p_path = Path(mesh=mesh, values=p_arr)
    q = p_arr - gamma.tail(field, state, control, nodes)
    nu_vals = np.vstack([dens, dens[-1:]]) if k else np.zeros((1, s))
    return Certificate(lam=lam, p=p_path, q=q, eta=eta_path, gamma=gamma,
                       subgrad=sg, nu=Path(mesh=mesh, values=nu_vals),
                       fit_residual=fit_residual, non_unique=non_unique)
