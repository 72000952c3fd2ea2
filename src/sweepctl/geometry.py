"""Constraint sets, field maps, projections, and normal-cone calculus.

This module owns the two geometric ingredients of a controlled moving set

    C(u) = { x | psi(x, u) in Theta },

namely the target set ``Theta`` (orthant, box, smooth-inequality, or linear
image of a polyhedron) and the field ``psi`` together with its derivatives.
On top of those it provides the operations the rest of the package leans on:
Euclidean projection onto ``C(u)`` with KKT multiplier recovery, the
decomposition of a normal-cone element through ``grad_x psi`` into a
``Theta``-cone multiplier, and the per-index classification of the
coderivative of the orthant/box normal-cone map.

Every projection onto a polyhedron (the affine projection, each linearized
subproblem of the nonlinear one, and polyhedral distances) is one exact
least-distance program solved by ``scipy.optimize.nnls``, which also returns
the facet multipliers.  scipy is imported inside the functions that use it,
never at package import.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Literal, Sequence

import numpy as np

#: Feasibility tolerance used when deciding membership / activity.
TOL_FEAS = 1e-9
#: Relative rank tolerance: sigma_min >= RANK_TOL_FACTOR * sigma_max.
RANK_TOL_FACTOR = 1e-8

Array = np.ndarray


class GeometryError(Exception):
    """Base class for all errors raised by this module."""


class ConfigurationError(GeometryError):
    """Dimension mismatch or unsupported variant/case."""


class ProjectionFailureError(GeometryError):
    """The feasible set is empty (or certifiably infeasible to tolerance)."""


class NumericalFailureError(GeometryError):
    """An iterative routine ran out of iterations without converging."""


class SurjectivityError(GeometryError):
    """A Jacobian required to have full row rank is rank deficient."""


class NotInConeError(GeometryError):
    """The requested vector is not a member of the relevant normal cone."""


class DomainError(GeometryError):
    """Arguments violate the domain condition of a formula."""


# ---------------------------------------------------------------------------
# Theta variants
# ---------------------------------------------------------------------------


class ThetaSet:
    """Base class for the supported Theta variants.

    A variant must know its ambient dimension ``s``, decide membership, and
    (for the polyhedral variants) describe itself as a halfspace system
    ``{z : H z <= d}`` so projections and cone tests can share one QP path.
    """

    s: int

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        raise NotImplementedError

    def halfspaces(self) -> tuple[Array, Array] | None:
        """Return (H, d) with Theta = {z : H z <= d}, or None if not polyhedral.

        The pair is built once per set and both arrays are read-only (they
        are shared by every caller).
        """
        return self._halfspaces

    @cached_property
    def _halfspaces(self) -> tuple[Array, Array] | None:
        pair = self._build_halfspaces()
        if pair is not None:
            for arr in pair:
                arr.flags.writeable = False
        return pair

    def _build_halfspaces(self) -> tuple[Array, Array] | None:
        return None

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        """How far ``eta`` is from N_Theta(z), as a nonnegative number."""
        raise NotImplementedError


@dataclass(frozen=True)
class NonpositiveOrthant(ThetaSet):
    """Theta = R^s_- (every coordinate nonpositive)."""

    s: int

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        return bool(np.all(z <= tol))

    def _build_halfspaces(self) -> tuple[Array, Array]:
        return np.eye(self.s), np.zeros(self.s)

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        worst = 0.0
        for zi, ei in zip(z, eta):
            if zi < -tol:
                worst = max(worst, abs(ei))
            else:
                worst = max(worst, max(0.0, -ei))
        return worst


@dataclass(frozen=True)
class Box(ThetaSet):
    """Theta = product of intervals [lower_i, upper_i]; infinite bounds allowed."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ConfigurationError("lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ConfigurationError(f"empty interval [{lo}, {hi}]")

    @property
    def s(self) -> int:  # type: ignore[override]
        return len(self.lower)

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return bool(np.all(z >= lo - tol) and np.all(z <= hi + tol))

    def _build_halfspaces(self) -> tuple[Array, Array]:
        rows: list[Array] = []
        rhs: list[float] = []
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            e = np.zeros(self.s)
            e[i] = 1.0
            if np.isfinite(hi):
                rows.append(e)
                rhs.append(hi)
            if np.isfinite(lo):
                rows.append(-e)
                rhs.append(-lo)
        if not rows:
            return np.zeros((0, self.s)), np.zeros(0)
        return np.array(rows), np.array(rhs)

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        worst = 0.0
        for zi, ei, lo, hi in zip(z, eta, self.lower, self.upper):
            at_hi = np.isfinite(hi) and zi >= hi - tol
            at_lo = np.isfinite(lo) and zi <= lo + tol
            if at_hi and at_lo:
                continue  # degenerate interval: eta_i is free
            if at_hi:
                worst = max(worst, max(0.0, -ei))
            elif at_lo:
                worst = max(worst, max(0.0, ei))
            else:
                worst = max(worst, abs(ei))
        return worst


@dataclass(frozen=True)
class SmoothInequality(ThetaSet):
    """Theta = {z in R^s : h(z) <= 0 componentwise} for smooth h: R^s -> R^l.

    ``jac`` returns the l x s Jacobian of h; ``hess`` is the contraction
    callback (z, mu) -> sum_i mu_i * Hessian(h_i)(z), an s x s matrix.
    """

    s: int
    l: int
    h: Callable[[Array], Array]
    jac: Callable[[Array], Array]
    hess: Callable[[Array, Array], Array] | None = None

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        val = np.atleast_1d(np.asarray(self.h(z), dtype=float))
        return bool(np.all(val <= tol))

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        # eta must be grad h(z)^T mu with mu >= 0 supported on active components.
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        val = np.atleast_1d(np.asarray(self.h(z), dtype=float))
        J = np.atleast_2d(np.asarray(self.jac(z), dtype=float))
        active = [i for i in range(self.l) if val[i] >= -tol]
        return _signed_cone_distance(J[active].T if active else np.zeros((self.s, 0)),
                                     eta, [1] * len(active))


@dataclass(frozen=True)
class LinearImagePolyhedron(ThetaSet):
    """Theta = A Z with Z = {z : G z <= g} and A invertible (SPD in section-6 use).

    ``require_spd`` triggers the symmetric-positive-definite check that the
    elastoplastic model needs.
    """

    A: tuple[tuple[float, ...], ...]
    G: tuple[tuple[float, ...], ...]
    g: tuple[float, ...]
    require_spd: bool = True

    def __post_init__(self) -> None:
        A = self._A()
        if A.shape[0] != A.shape[1]:
            raise ConfigurationError("A must be square")
        if self.require_spd:
            if not np.allclose(A, A.T, atol=1e-12):
                raise ConfigurationError("A must be symmetric")
            eigvals = np.linalg.eigvalsh(A)
            if np.min(eigvals) <= 0:
                raise ConfigurationError("A must be positive definite")
        else:
            if abs(np.linalg.det(A)) < 1e-14:
                raise ConfigurationError("A must be invertible")

    def _A(self) -> Array:
        return np.array(self.A, dtype=float)

    def _G(self) -> Array:
        return np.array(self.G, dtype=float)

    @property
    def s(self) -> int:  # type: ignore[override]
        return self._A().shape[0]

    def _build_halfspaces(self) -> tuple[Array, Array]:
        # w in A Z  <=>  G A^{-1} w <= g
        H = np.linalg.solve(self._A().T, self._G().T).T
        return H, np.array(self.g, dtype=float)

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        # Polyhedral (Euclidean) distance, per the membership metric contract.
        return polyhedron_distance(*self.halfspaces(), z) <= tol

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        H, d = self.halfspaces()
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        active = [i for i in range(H.shape[0]) if H[i] @ z >= d[i] - tol]
        return _signed_cone_distance(H[active].T if active else np.zeros((self.s, 0)),
                                     eta, [1] * len(active))


def polyhedron_distance(H: Array, d: Array, z: Array) -> float:
    """Euclidean distance from z to {w : H w <= d} (0 if inside)."""
    w, _ = _project_onto_halfspaces(H, d, z)
    return float(np.linalg.norm(w - z))


def theta_contains(theta: ThetaSet, z: Array, tol: float = TOL_FEAS) -> bool:
    """Membership of z in Theta within tol (per-variant metric)."""
    return theta.contains(np.asarray(z, dtype=float), tol)


# ---------------------------------------------------------------------------
# Field maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMap:
    """The field psi(x, u) in R^s with its partial derivatives.

    Two construction styles are supported.  ``affine_fixed`` builds the
    affine-in-both-arguments case psi = Ax x + Au u + c that all shipped
    problem instances use; ``polyhedral`` builds the moving-rows case
    psi_i(x, (u, b)) = <x, u_i> - b_i where the control is the concatenation
    of the s row vectors with the offset vector b; ``nonlinear`` takes raw
    callbacks.

    Attributes
    ----------
    n, m, s : int
        State, control, and codomain dimensions.
    psi : callable (x, u) -> R^s
    dpsi_dx : callable (x, u) -> s x n Jacobian
    dpsi_du : callable (x, u) -> s x m Jacobian
    hess_xx : callable (x, u, p) -> n x n matrix, the contraction
        of the second x-derivative against p in R^s (sum_i p_i Hess_x psi_i).
    hess_ux : callable (x, u, p) -> m x n matrix, the mixed contraction
        d/du of (dpsi_dx^T p).
    x_affine : callable u -> (A, c) with psi(y, u) = A y + c, or None when
        psi is not affine in x.  Enables the exact projection path.
    """

    n: int
    m: int
    s: int
    psi: Callable[[Array, Array], Array]
    dpsi_dx: Callable[[Array, Array], Array]
    dpsi_du: Callable[[Array, Array], Array]
    hess_xx: Callable[[Array, Array, Array], Array] | None = None
    hess_ux: Callable[[Array, Array, Array], Array] | None = None
    x_affine: Callable[[Array], tuple[Array, Array]] | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def affine_fixed(Ax: Sequence[Sequence[float]], Au: Sequence[Sequence[float]],
                     c: Sequence[float]) -> "FieldMap":
        """psi(x, u) = Ax x + Au u + c with constant matrices."""
        Ax_ = np.array(Ax, dtype=float)
        Au_ = np.array(Au, dtype=float)
        c_ = np.array(c, dtype=float)
        s, n = Ax_.shape
        m = Au_.shape[1]
        if Au_.shape[0] != s or c_.shape != (s,):
            raise ConfigurationError("inconsistent affine field shapes")
        return FieldMap(
            n=n, m=m, s=s,
            psi=lambda x, u: Ax_ @ x + Au_ @ u + c_,
            dpsi_dx=lambda x, u: Ax_,
            dpsi_du=lambda x, u: Au_,
            hess_xx=lambda x, u, p: np.zeros((n, n)),
            hess_ux=lambda x, u, p: np.zeros((m, n)),
            x_affine=lambda u: (Ax_, Au_ @ u + c_),
        )

    @staticmethod
    def polyhedral(n: int, s: int) -> "FieldMap":
        """Moving-rows polyhedral field psi_i(x, (u, b)) = <x, u_i> - b_i.

        The control vector stacks the s rows (s*n entries, row-major) followed
        by the s offsets b.
        """
        m = s * n + s

        def rows(u: Array) -> tuple[Array, Array]:
            U = np.asarray(u[: s * n], dtype=float).reshape(s, n)
            b = np.asarray(u[s * n:], dtype=float)
            return U, b

        def psi(x: Array, u: Array) -> Array:
            U, b = rows(u)
            return U @ x - b

        def dpsi_du(x: Array, u: Array) -> Array:
            J = np.zeros((s, m))
            for i in range(s):
                J[i, i * n:(i + 1) * n] = x
                J[i, s * n + i] = -1.0
            return J

        def hess_ux(x: Array, u: Array, p: Array) -> Array:
            # d/du of (U^T p): the u_i block contributes p_i * I_n.
            H = np.zeros((m, n))
            for i in range(s):
                H[i * n:(i + 1) * n, :] = p[i] * np.eye(n)
            return H

        return FieldMap(
            n=n, m=m, s=s,
            psi=psi,
            dpsi_dx=lambda x, u: rows(u)[0],
            dpsi_du=dpsi_du,
            hess_xx=lambda x, u, p: np.zeros((n, n)),
            hess_ux=hess_ux,
            x_affine=lambda u: (rows(u)[0], -rows(u)[1]),
        )

    @staticmethod
    def nonlinear(n: int, m: int, s: int,
                  psi: Callable[[Array, Array], Array],
                  dpsi_dx: Callable[[Array, Array], Array],
                  dpsi_du: Callable[[Array, Array], Array],
                  hess_xx: Callable[[Array, Array, Array], Array] | None = None,
                  hess_ux: Callable[[Array, Array, Array], Array] | None = None,
                  ) -> "FieldMap":
        return FieldMap(n=n, m=m, s=s, psi=psi, dpsi_dx=dpsi_dx,
                        dpsi_du=dpsi_du, hess_xx=hess_xx, hess_ux=hess_ux,
                        x_affine=None)


def psi_eval(field: FieldMap, x: Array, u: Array) -> Array:
    """Evaluate psi(x, u), validating dimensions."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (field.n,) or u.shape != (field.m,):
        raise ConfigurationError(
            f"expected shapes ({field.n},), ({field.m},); got {x.shape}, {u.shape}")
    z = np.atleast_1d(np.asarray(field.psi(x, u), dtype=float))
    if z.shape != (field.s,):
        raise ConfigurationError(f"psi returned shape {z.shape}, expected ({field.s},)")
    return z


@dataclass(frozen=True)
class ConeDecomposition:
    """Multiplier eta in N_Theta(psi(x,u)) with grad_x psi^T eta = v.

    ``active_indices`` is the active set I(x, u) of psi components;
    ``residual`` is ||grad_x psi^T eta - v||; ``psi`` is psi(x, u) itself.
    """

    eta: Array
    active_indices: tuple[int, ...]
    residual: float
    psi: Array


# ---------------------------------------------------------------------------
# Exact projection machinery
# ---------------------------------------------------------------------------

def _project_onto_halfspaces(G: Array, g: Array,
                             x: Array) -> tuple[Array, Array]:
    """Minimize ||y - x|| subject to G y <= g.

    Returns (y*, mu) where mu >= 0 are the row multipliers with
    x - y* = G^T mu.  With z = y - x this is the least-distance program
    min ||z|| s.t. -G z >= -(g - G x), solved exactly by one nonnegative
    least-squares problem (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23): for E = [-G^T; -(g - G x)^T], e = (0, .., 0, 1)
    and w = argmin_{w >= 0} ||E w - e||, the residual res = E w - e has
    res[-1] = -||res||^2.  It vanishes exactly when the set is empty;
    otherwise mu = w / -res[-1].  Raises ProjectionFailureError for an empty
    set and NumericalFailureError when the NNLS iteration limit is hit.
    """
    # Imported here: importing scipy would double the package's import time.
    from scipy.optimize import nnls

    r = G.shape[0]
    if r == 0 or np.all(G @ x <= g + TOL_FEAS):
        return x.copy(), np.zeros(r)
    E = -np.vstack([G.T, g - G @ x])
    e = np.zeros(E.shape[0])
    e[-1] = 1.0
    try:
        w, _ = nnls(E, e)
    except RuntimeError as err:
        raise NumericalFailureError(f"least-distance NNLS: {err}") from err
    res = E @ w - e
    if not res[-1] < 0.0:
        raise ProjectionFailureError("least-distance program is infeasible: "
                                     "the moving set is empty")
    mu = w / -res[-1]
    y = x - G.T @ mu
    if np.any(G @ y > g + 1e-9 * (1.0 + np.abs(g))):
        raise ProjectionFailureError("projection finished infeasible; set may be empty")
    return y, mu


def _sqp_local_projection(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                          warm: Array, tol: float, max_iter: int = 100,
                          ) -> tuple[Array, Array, tuple[int, ...], Array]:
    """Local projection for nonlinear psi (or smooth Theta) from a warm start.

    Sequentially projects onto the linearized constraint system at the
    current iterate; returns (y, eta, active_indices, psi(y, u)).
    """
    y = np.asarray(warm, dtype=float).copy()
    for _ in range(max_iter):
        rows, rhs, _ = _constraint_rows(field, theta, y, u)
        y_new, _ = _project_onto_halfspaces(rows, rhs, x)
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step <= tol:
            break
    else:
        raise NumericalFailureError("projection SQP did not converge")
    rows, rhs, lift = _constraint_rows(field, theta, y, u)
    _, mu = _project_onto_halfspaces(rows, rhs, x)
    eta = lift(mu)
    z = psi_eval(field, y, u)
    active = _active_indices(theta, z)
    return y, eta, active, z


def _constraint_rows(field: FieldMap, theta: ThetaSet, y: Array, u: Array,
                     ) -> tuple[Array, Array, Callable[[Array], Array]]:
    """Linearize { y : psi(y,u) in Theta } at y as rows R y <= e.

    Also returns ``lift`` mapping row multipliers mu >= 0 to the
    eta in N_Theta(psi(y,u)) they represent.
    """
    z = psi_eval(field, y, u)
    J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        R = Dh @ J
        e = Dh @ J @ y - h
        return R, e, lambda mu: Dh.T @ mu
    hs = theta.halfspaces()
    if hs is None:
        raise ConfigurationError("unsupported Theta variant for projection")
    H, d = hs
    R = H @ J
    e = H @ (J @ y - z) + d
    return R, e, lambda mu: H.T @ mu


def _active_indices(theta: ThetaSet, z: Array, tol: float = 1e-7) -> tuple[int, ...]:
    """Indices of psi components sitting on the boundary of their constraint."""
    if isinstance(theta, NonpositiveOrthant):
        return tuple(i for i in range(theta.s) if z[i] >= -tol)
    if isinstance(theta, Box):
        out = []
        for i, (lo, hi) in enumerate(zip(theta.lower, theta.upper)):
            if (np.isfinite(hi) and z[i] >= hi - tol) or \
               (np.isfinite(lo) and z[i] <= lo + tol):
                out.append(i)
        return tuple(out)
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        return tuple(i for i in range(theta.l) if h[i] >= -tol)
    if isinstance(theta, LinearImagePolyhedron):
        H, d = theta.halfspaces()
        return tuple(i for i in range(H.shape[0]) if H[i] @ z >= d[i] - tol)
    raise ConfigurationError("unknown Theta variant")


def project_onto_moving_set(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                            tol: float = 1e-10, warm_start: Array | None = None,
                            extra_starts: Sequence[Array] = (),
                            ) -> tuple[Array, ConeDecomposition]:
    """Project x onto C(u) = {y : psi(y, u) in Theta}.

    For affine-in-x fields with polyhedral Theta this is an exact convex QP.
    For nonlinear fields it is a local projection by sequential quadratic
    stepping from ``warm_start`` (required); when several candidates tie in
    distance the one with lexicographically largest coordinates wins, so
    callers can pass ``extra_starts`` to explore set-valued projections
    deterministically.

    Returns the projected point and the ConeDecomposition carrying the KKT
    multiplier eta with x - y* = grad_x psi(y*, u)^T eta.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    hs = theta.halfspaces()
    if field.x_affine is not None and hs is not None:
        A, c = field.x_affine(u)
        H, d = hs
        y, mu = _project_onto_halfspaces(H @ A, d - H @ c, x)
        eta = H.T @ mu
        z = psi_eval(field, y, u)
        active = _active_indices(theta, z)
        J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
        residual = float(np.linalg.norm((x - y) - J.T @ eta))
        return y, ConeDecomposition(eta=eta, active_indices=active,
                                    residual=residual, psi=z)

    if warm_start is None:
        raise ConfigurationError("nonlinear projection requires a feasible warm start")
    candidates: list[tuple[Array, Array, tuple[int, ...], Array]] = []
    for start in [warm_start, *extra_starts]:
        try:
            candidates.append(_sqp_local_projection(field, theta, u, x,
                                                    np.asarray(start, dtype=float), tol))
        except (NumericalFailureError, ProjectionFailureError):
            continue
    if not candidates:
        raise ProjectionFailureError("no projection candidate converged")
    dists = [np.linalg.norm(cand[0] - x) for cand in candidates]
    dmin = min(dists)
    tied = [cand for cand, dist in zip(candidates, dists) if dist <= dmin + 1e-9]
    # Deterministic tie-break: lexicographically largest coordinates win.
    y, eta, active, z = max(tied, key=lambda cand: tuple(cand[0]))
    J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
    residual = float(np.linalg.norm((x - y) - J.T @ eta))
    return y, ConeDecomposition(eta=eta, active_indices=active,
                                residual=residual, psi=z)


# ---------------------------------------------------------------------------
# Normal-cone decomposition and distances
# ---------------------------------------------------------------------------


def surjectivity_check(jacobian: Array, tol: float | None = None,
                       ) -> tuple[bool, float]:
    """Full-row-rank check: returns (ok, sigma_min).

    ``ok`` iff the smallest singular value is at least ``tol`` (default:
    RANK_TOL_FACTOR times the largest singular value).  A matrix with more
    rows than columns can never be surjective.
    """
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    s, n = J.shape
    if s > n:
        return False, 0.0
    sv = np.linalg.svd(J, compute_uv=False)
    sigma_min = float(sv[-1]) if sv.size else 0.0
    sigma_max = float(sv[0]) if sv.size else 0.0
    if tol is None:
        tol = RANK_TOL_FACTOR * sigma_max if sigma_max > 0 else RANK_TOL_FACTOR
    return sigma_min >= tol, sigma_min


def normal_cone_decompose(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                          v: Array, tol: float = 1e-8) -> ConeDecomposition:
    """Solve grad_x psi(x,u)^T eta = v with eta in N_Theta(psi(x,u)).

    The solution is unique when grad_x psi has full row rank (its transpose
    is then injective); membership of v in N(x; C(u)) is certified by the
    residual and the cone check, otherwise NotInConeError is raised.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    z = psi_eval(field, x, u)
    if not theta.contains(z, tol=max(TOL_FEAS, tol)):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    J = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    ok, sigma_min = surjectivity_check(J)
    if not ok:
        raise SurjectivityError(f"grad_x psi is rank deficient (sigma_min={sigma_min:.3e})")
    eta, *_ = np.linalg.lstsq(J.T, v, rcond=None)
    active = _active_indices(theta, z)
    eta = eta.copy()
    if isinstance(theta, NonpositiveOrthant):
        # Clean least-squares noise off the inactive components before judging.
        eta[[i for i in range(theta.s) if i not in active]] = 0.0
    residual = float(np.linalg.norm(J.T @ eta - v))
    if residual > tol * (1.0 + float(np.linalg.norm(v))):
        raise NotInConeError(f"v is not in range(grad_x psi^T): residual {residual:.3e}")
    violation = theta.normal_cone_violation(z, eta, tol=max(TOL_FEAS, tol))
    if violation > tol:
        raise NotInConeError(f"eta={eta} violates N_Theta by {violation:.3e}")
    return ConeDecomposition(eta=eta, active_indices=active, residual=residual,
                             psi=z)


def _signed_cone_distance(cols: Array, v: Array, signs: Sequence[int]) -> float:
    """Distance from v to { cols @ mu : sign_i * mu_i >= 0 }."""
    from scipy.optimize import nnls

    if cols.size == 0:
        return float(np.linalg.norm(v))
    flipped = cols * np.asarray(signs, dtype=float)[np.newaxis, :]
    _, res = nnls(flipped, v)
    return float(res)


def normal_cone_distance(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                         v: Array, tol: float = TOL_FEAS) -> float:
    """Distance from v to N(x; C(u)) = grad_x psi^T N_Theta(psi(x,u)).

    Infinity when psi(x,u) is outside Theta (the cone is then empty).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    z = psi_eval(field, x, u)
    if not theta.contains(z, tol=max(tol, 1e-7)):
        return float("inf")
    J = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    cols, signs = _cone_generators(theta, z, J.T)
    return _signed_cone_distance(cols, v, signs)


def _cone_generators(theta: ThetaSet, z: Array, JT: Array,
                     tol: float = 1e-7) -> tuple[Array, list[int]]:
    """Columns (and sign constraints) generating grad^T N_Theta(z)."""
    cols: list[Array] = []
    signs: list[int] = []
    if isinstance(theta, NonpositiveOrthant):
        for i in range(theta.s):
            if z[i] >= -tol:
                cols.append(JT[:, i])
                signs.append(1)
    elif isinstance(theta, Box):
        for i, (lo, hi) in enumerate(zip(theta.lower, theta.upper)):
            if np.isfinite(hi) and z[i] >= hi - tol:
                cols.append(JT[:, i])
                signs.append(1)
            if np.isfinite(lo) and z[i] <= lo + tol:
                cols.append(-JT[:, i])
                signs.append(1)
    elif isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        for i in range(theta.l):
            if h[i] >= -tol:
                cols.append(JT @ Dh[i])
                signs.append(1)
    elif isinstance(theta, LinearImagePolyhedron):
        H, d = theta.halfspaces()
        for i in range(H.shape[0]):
            if H[i] @ z >= d[i] - tol:
                cols.append(JT @ H[i])
                signs.append(1)
    else:
        raise ConfigurationError("unknown Theta variant")
    if not cols:
        return np.zeros((JT.shape[0], 0)), []
    return np.column_stack(cols), signs


# ---------------------------------------------------------------------------
# Coderivative of the normal-cone map
# ---------------------------------------------------------------------------


class CoderivativeCase(Enum):
    MUST_BE_ZERO = "must_be_zero"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    FREE = "free"


def coderivative_orthant(w: Array, xi: Array, udir: Array,
                         act_tol: float = TOL_FEAS,
                         pos_tol: float = 1e-12,
                         ) -> tuple[CoderivativeCase, ...] | None:
    """Per-index classification of D*N_{R^s_-}(w, xi)(udir).

    Implements the three-case table exactly:

    * ``w_i < 0``                          -> must_be_zero
    * ``w_i = 0, xi_i = 0, udir_i <  0``   -> must_be_zero
    * ``w_i = 0, xi_i = 0, udir_i >= 0``   -> nonnegative
    * ``xi_i > 0, udir_i = 0``             -> free
    * ``xi_i > 0, udir_i != 0``            -> empty set (returns None)

    Raises DomainError when (w, xi) is not in the graph of the normal-cone
    map (w outside the orthant, or xi outside N(w)).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    udir = np.atleast_1d(np.asarray(udir, dtype=float))
    if not (w.shape == xi.shape == udir.shape):
        raise ConfigurationError("w, xi, udir must share a shape")
    cases: list[CoderivativeCase] = []
    for wi, xii, ui in zip(w, xi, udir):
        if wi > act_tol:
            raise DomainError(f"w={wi} outside the nonpositive orthant")
        if wi < -act_tol:
            if abs(xii) > pos_tol:
                raise DomainError("xi must vanish where w is negative")
            cases.append(CoderivativeCase.MUST_BE_ZERO)
            continue
        # active coordinate: w_i = 0
        if xii < -pos_tol:
            raise DomainError("xi must be nonnegative where w = 0")
        if xii <= pos_tol:
            if ui < -pos_tol:
                cases.append(CoderivativeCase.MUST_BE_ZERO)
            else:
                cases.append(CoderivativeCase.NONNEGATIVE)
        else:
            if abs(ui) <= pos_tol:
                cases.append(CoderivativeCase.FREE)
            else:
                return None
    return tuple(cases)


def coderivative_theta(theta: ThetaSet, w: Array, xi: Array, udir: Array,
                       act_tol: float = TOL_FEAS, pos_tol: float = 1e-12,
                       ) -> tuple[CoderivativeCase, ...] | None:
    """Coderivative classification for the supported decomposable variants.

    Orthant delegates to :func:`coderivative_orthant`.  Box coordinates split
    into upper-bound (orthant-like), lower-bound (mirrored, giving the
    NONPOSITIVE case), and interior (must_be_zero).  LinearImagePolyhedron is
    supported when A is diagonal and Z is axis-aligned, via the reduction
    D*N_{AZ}(w,xi)(u) = A^{-T} D*N_Z(A^{-1}w, A^T xi)(A^{-1}u) which leaves
    the per-index interval type unchanged for positive diagonal scaling.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    udir = np.atleast_1d(np.asarray(udir, dtype=float))
    if isinstance(theta, NonpositiveOrthant):
        return coderivative_orthant(w, xi, udir, act_tol, pos_tol)
    if isinstance(theta, Box):
        return _coderivative_box(theta, w, xi, udir, act_tol, pos_tol)
    if isinstance(theta, LinearImagePolyhedron):
        box = _image_as_box(theta)
        A = theta._A()
        diag = np.diag(A)
        return _coderivative_box(box, w / diag, xi * diag, udir / diag,
                                 act_tol, pos_tol)
    raise ConfigurationError(
        "coderivative classification is only available for orthant/box-like variants")


def _coderivative_box(theta: Box, w: Array, xi: Array, udir: Array,
                      act_tol: float, pos_tol: float,
                      ) -> tuple[CoderivativeCase, ...] | None:
    cases: list[CoderivativeCase] = []
    for i, (lo, hi) in enumerate(zip(theta.lower, theta.upper)):
        wi, xii, ui = w[i], xi[i], udir[i]
        at_hi = np.isfinite(hi) and wi >= hi - act_tol
        at_lo = np.isfinite(lo) and wi <= lo + act_tol
        if not at_hi and not at_lo:
            if (np.isfinite(hi) and wi > hi + act_tol) or \
               (np.isfinite(lo) and wi < lo - act_tol):
                raise DomainError(f"w_{i}={wi} outside [{lo}, {hi}]")
            if abs(xii) > pos_tol:
                raise DomainError("xi must vanish at interior coordinates")
            cases.append(CoderivativeCase.MUST_BE_ZERO)
            continue
        if at_hi and xii >= -pos_tol:
            if xii <= pos_tol:
                cases.append(CoderivativeCase.MUST_BE_ZERO if ui < -pos_tol
                             else CoderivativeCase.NONNEGATIVE)
            elif abs(ui) <= pos_tol:
                cases.append(CoderivativeCase.FREE)
            else:
                return None
        elif at_lo and xii <= pos_tol:
            if xii >= -pos_tol:
                cases.append(CoderivativeCase.MUST_BE_ZERO if ui > pos_tol
                             else CoderivativeCase.NONPOSITIVE)
            elif abs(ui) <= pos_tol:
                cases.append(CoderivativeCase.FREE)
            else:
                return None
        else:
            raise DomainError(f"xi_{i}={xii} not in the interval normal cone at w_{i}={wi}")
    return tuple(cases)


def _image_as_box(theta: LinearImagePolyhedron) -> Box:
    """Reduce Theta = A Z to a box when A is diagonal and Z axis-aligned."""
    A = theta._A()
    if not np.allclose(A, np.diag(np.diag(A)), atol=1e-12):
        raise ConfigurationError("coderivative for LinearImagePolyhedron needs diagonal A")
    G = theta._G()
    g = np.asarray(theta.g, dtype=float)
    s = theta.s
    lower = [-np.inf] * s
    upper = [np.inf] * s
    for row, rhs in zip(G, g):
        nz = np.nonzero(row)[0]
        if len(nz) != 1:
            raise ConfigurationError("coderivative needs axis-aligned Z halfspaces")
        i = nz[0]
        coef = row[i]
        if coef > 0:
            upper[i] = min(upper[i], rhs / coef)
        else:
            lower[i] = max(lower[i], rhs / coef)
    diag = np.diag(A)
    # Z bounds scaled into AZ bounds happen in the caller via w/diag; keep Z's box here.
    return Box(lower=tuple(lower), upper=tuple(upper))


def coderivative_violation(cases: tuple[CoderivativeCase, ...] | None,
                           gamma: Array) -> float:
    """Distance-like violation of gamma against a coderivative classification."""
    if cases is None:
        return float("inf")
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    worst = 0.0
    for case, gi in zip(cases, gamma):
        if case is CoderivativeCase.MUST_BE_ZERO:
            worst = max(worst, abs(gi))
        elif case is CoderivativeCase.NONNEGATIVE:
            worst = max(worst, max(0.0, -gi))
        elif case is CoderivativeCase.NONPOSITIVE:
            worst = max(worst, max(0.0, gi))
    return worst


# ---------------------------------------------------------------------------
# (H4) shifts
# ---------------------------------------------------------------------------


def h4_shift(case: Literal["polyhedral", "quadratic_example"], x: Array,
             xbar: Array, ubar: Array, bbar: Array | None = None):
    """Shifted control keeping psi constant as the state moves xbar -> x.

    ``polyhedral``: rows stay at ubar, offsets shift by <x - xbar, u_i>
    (requires ``bbar``); returns (ubar, b).  ``quadratic_example``: for
    psi = x^2 + u - 1 returns u = ubar - (x - xbar)(x + xbar).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if case == "polyhedral":
        if bbar is None:
            raise ConfigurationError("polyhedral shift needs the offset vector bbar")
        rows = np.atleast_2d(np.asarray(ubar, dtype=float))
        b = np.atleast_1d(np.asarray(bbar, dtype=float)) + rows @ (x - xbar)
        return rows, b
    if case == "quadratic_example":
        u = np.atleast_1d(np.asarray(ubar, dtype=float))
        return u - (x - xbar) * (x + xbar)
    raise ConfigurationError(f"unsupported h4 case {case!r}")
