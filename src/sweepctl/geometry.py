"""Constraint sets, field maps, projections, and normal-cone calculus.

This module owns the two geometric ingredients of a controlled moving set

    C(u) = { x | psi(x, u) in Theta },

namely the target set ``Theta`` (orthant, box, smooth-inequality, or linear
image of a polyhedron) and the field ``psi`` together with its derivatives.
Code that needs the field along a pair of paths reads one
:class:`NodeTable` from :func:`field_at_nodes`: psi and its Jacobians at
every node from one call of each callback per node (one stacked array
expression for the callbacks of an affine field), shapes checked once, and
the Hessian contractions on demand.
It owns both descriptions of ``Theta`` the rest of the package reads, each
built once per set: ``halfspaces()``, the rows {z : H z <= d} of a polyhedral
Theta, and ``bounds()``, the intervals lo <= z <= hi of a box-like Theta
(orthant, box, or a linear image with diagonal A and axis-aligned Z).  Code
that works row by row reads the first, code that works component by
component reads the second; no other module decides how a Theta variant
is written as bounds.
On top of those it provides the operations the rest of the package leans on:
Euclidean projection onto ``C(u)`` with KKT multiplier recovery, the
decomposition of a normal-cone element through ``grad_x psi`` into a
``Theta``-cone multiplier, and the per-index classification of the
coderivative of the normal-cone map of a box-like Theta (one interval case
table).

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
    describe itself in up to two forms, each built once per set:
    ``halfspaces()`` gives the rows ``{z : H z <= d}`` of a polyhedral set
    (so projections and cone tests share one QP path), and ``bounds()``
    gives the componentwise interval form ``lo <= z <= hi`` of a box-like
    set (so complementarity pairs, coderivatives and componentwise activity
    read one description).
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

    def bounds(self) -> tuple[Array, Array] | None:
        """Return (lo, hi) with Theta = {z : lo <= z <= hi}, or None.

        Infinite entries mark unbounded sides.  None means Theta is not a
        product of intervals in its own coordinates.  Built once per set;
        both arrays are read-only.
        """
        return self._bounds

    @cached_property
    def _halfspaces(self) -> tuple[Array, Array] | None:
        return _read_only(self._build_halfspaces())

    @cached_property
    def _bounds(self) -> tuple[Array, Array] | None:
        return _read_only(self._build_bounds())

    def _build_halfspaces(self) -> tuple[Array, Array] | None:
        return None

    def _build_bounds(self) -> tuple[Array, Array] | None:
        return None

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        """How far ``eta`` is from N_Theta(z), as a nonnegative number."""
        raise NotImplementedError


def _read_only(pair: tuple[Array, Array] | None) -> tuple[Array, Array] | None:
    if pair is not None:
        for arr in pair:
            arr.flags.writeable = False
    return pair


class _IntervalTheta(ThetaSet):
    """Membership and normal cone of a product of intervals, read off bounds()."""

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        lo, hi = self.bounds()
        return all(lo_i - tol <= zi <= hi_i + tol
                   for zi, lo_i, hi_i in zip(z.tolist(), lo.tolist(), hi.tolist()))

    def _build_halfspaces(self) -> tuple[Array, Array]:
        # Per component: the row +e_i <= hi_i, then -e_i <= -lo_i; finite ones.
        lo, hi = self.bounds()
        eye = np.eye(self.s)
        rows = np.stack([eye, -eye], axis=1).reshape(2 * self.s, self.s)
        rhs = np.stack([hi, -lo], axis=1).ravel()
        finite = np.isfinite(rhs)
        return rows[finite], rhs[finite]

    def normal_cone_violation(self, z: Array, eta: Array, tol: float = TOL_FEAS) -> float:
        z = np.asarray(z, dtype=float).tolist()
        eta = np.asarray(eta, dtype=float).tolist()
        lo, hi = self.bounds()
        worst = 0.0
        for zi, ei, lo_i, hi_i in zip(z, eta, lo.tolist(), hi.tolist()):
            at_hi = hi_i < np.inf and zi >= hi_i - tol
            at_lo = lo_i > -np.inf and zi <= lo_i + tol
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
class NonpositiveOrthant(_IntervalTheta):
    """Theta = R^s_- (every coordinate nonpositive)."""

    s: int

    def _build_bounds(self) -> tuple[Array, Array]:
        return np.full(self.s, -np.inf), np.zeros(self.s)


@dataclass(frozen=True)
class Box(_IntervalTheta):
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

    def _build_bounds(self) -> tuple[Array, Array]:
        return np.array(self.lower, dtype=float), np.array(self.upper, dtype=float)


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

    def _build_bounds(self) -> tuple[Array, Array] | None:
        # A diagonal A maps the axis-aligned Z = [lo, hi] onto [d lo, d hi],
        # whose ends swap where a scale d_i is negative.
        A = self._A()
        if not np.allclose(A, np.diag(np.diag(A)), atol=1e-12):
            return None
        lo = np.full(self.s, -np.inf)
        hi = np.full(self.s, np.inf)
        for row, rhs in zip(self._G(), self.g):
            nz = np.nonzero(row)[0]
            if len(nz) != 1:
                return None
            i = nz[0]
            if row[i] > 0:
                hi[i] = min(hi[i], rhs / row[i])
            else:
                lo[i] = max(lo[i], rhs / row[i])
        d = np.diag(A)
        return np.minimum(lo * d, hi * d), np.maximum(lo * d, hi * d)

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
        active = _active_rows(H, d, z, tol)
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


class _ConstantCallback:
    """A field callback whose value is one read-only array at every
    argument; ``at_nodes`` gives it at a stack of K nodes as one view."""

    def __init__(self, value: Array):
        self.value = value
        value.flags.writeable = False

    def __call__(self, *args: Array) -> Array:
        return self.value

    def at_nodes(self, x: Array, *stacks: Array) -> Array:
        return np.broadcast_to(self.value, (len(x),) + self.value.shape)


class _AffineCallback:
    """The field callback (x, u) -> A x + B u + c; ``at_nodes`` evaluates it
    at a stack of nodes by the same products, one ``np.matmul`` over the
    stack, so each row equals the per-node call bit for bit."""

    def __init__(self, A: Array, B: Array, c: Array):
        self.A, self.B, self.c = A, B, c

    def __call__(self, x: Array, u: Array) -> Array:
        return self.A @ x + self.B @ u + self.c

    def at_nodes(self, x: Array, u: Array) -> Array:
        return (np.matmul(self.A, x[:, :, np.newaxis])
                + np.matmul(self.B, u[:, :, np.newaxis]))[:, :, 0] + self.c


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
        """psi(x, u) = Ax x + Au u + c with constant matrices.

        Each callback is a small object that also evaluates at a whole stack
        of nodes (see :func:`field_at_nodes`): ``psi`` an affine map, the
        Jacobians and the zero Hessian contractions constants.
        """
        Ax_, Au_, c_ = (np.array(v, dtype=float) for v in (Ax, Au, c))
        s, n = Ax_.shape
        m = Au_.shape[1]
        if Au_.shape[0] != s or c_.shape != (s,):
            raise ConfigurationError("inconsistent affine field shapes")
        return FieldMap(
            n=n, m=m, s=s,
            psi=_AffineCallback(Ax_, Au_, c_),
            dpsi_dx=_ConstantCallback(Ax_),
            dpsi_du=_ConstantCallback(Au_),
            hess_xx=_ConstantCallback(np.zeros((n, n))),
            hess_ux=_ConstantCallback(np.zeros((m, n))),
            x_affine=lambda u: (Ax_, Au_ @ u + c_),
        )

    @staticmethod
    def polyhedral(n: int, s: int) -> "FieldMap":
        """Moving-rows polyhedral field psi_i(x, (u, b)) = <x, u_i> - b_i.

        The control vector stacks the s rows (s*n entries, row-major) followed
        by the s offsets b.
        """
        m = s * n + s
        # Entry (i, i n + a) of dpsi_du is x_a; entry (i, s n + i) is -1.
        row_of, col_of = np.repeat(np.arange(s), n), np.arange(s * n)
        entry_of = np.tile(np.arange(n), s)
        offsets = (np.arange(s), s * n + np.arange(s))

        def rows(u: Array) -> tuple[Array, Array]:
            U = np.asarray(u[: s * n], dtype=float).reshape(s, n)
            b = np.asarray(u[s * n:], dtype=float)
            return U, b

        def psi(x: Array, u: Array) -> Array:
            U, b = rows(u)
            return U @ x - b

        def dpsi_du(x: Array, u: Array) -> Array:
            J = np.zeros((s, m))
            J[row_of, col_of] = np.asarray(x, dtype=float)[entry_of]
            J[offsets] = -1.0
            return J

        def hess_ux(x: Array, u: Array, p: Array) -> Array:
            # d/du of (U^T p): the u_i block contributes p_i * I_n.
            H = np.zeros((m, n))
            H[:s * n] = (np.asarray(p, dtype=float)[:, None, None]
                         * np.eye(n)).reshape(s * n, n)
            return H

        def x_affine(u: Array) -> tuple[Array, Array]:
            U, b = rows(u)
            return U, -b

        return FieldMap(
            n=n, m=m, s=s,
            psi=psi,
            dpsi_dx=lambda x, u: rows(u)[0],
            dpsi_du=dpsi_du,
            hess_xx=lambda x, u, p: np.zeros((n, n)),
            hess_ux=hess_ux,
            x_affine=x_affine,
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


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The field at K nodes, built by :func:`field_at_nodes`: ``psi`` (K, s),
    ``Jx`` (K, s, n), ``Ju`` (K, s, m) and J = [Jx | Ju], all read-only."""

    field: FieldMap
    x: Array
    u: Array
    psi: Array
    Jx: Array
    Ju: Array
    J: Array

    def hess(self, W: Array) -> tuple[Array, Array]:
        """(Hxx, Hux) at the first len(W) nodes: ``hess_xx(x_j, u_j, W[j])``
        and ``hess_ux(x_j, u_j, W[j])``, evaluated as :func:`field_at_nodes`
        evaluates its callbacks (zeros for an absent callback)."""
        f, K = self.field, len(W)
        stacks = (self.x[:K], self.u[:K], W)
        return (_stacked(f, "hess_xx", stacks, (f.n, f.n)),
                _stacked(f, "hess_ux", stacks, (f.m, f.n)))


def _stacked(field: FieldMap, name: str, stacks: tuple, shape: tuple) -> Array:
    """The callback ``name`` of the field at the K nodes whose arguments are
    the rows of ``stacks``, as one read-only (K,) + shape array, its shape
    checked once: one array expression for a callback with ``at_nodes``
    (those of ``FieldMap.affine_fixed``), else one call per node.  A value
    may drop a leading axis of length 1 (s = 1), as :func:`psi_eval`
    allows."""
    fn, K = getattr(field, name), len(stacks[0])
    if fn is None or not K:
        arr = np.zeros((K,) + shape)
    else:
        at_nodes = getattr(fn, "at_nodes", None)
        values = at_nodes(*stacks) if at_nodes else [fn(*a) for a in zip(*stacks)]
        try:
            arr = np.asarray(values, dtype=float)
        except ValueError:  # ragged: the nodes disagree on the shape
            arr = np.empty(0)
        if arr.shape[1:] not in (shape, shape[1:] if shape[0] == 1 else shape):
            got = sorted({np.shape(v) for v in values})
            raise ConfigurationError(
                f"{name} returned shape {got[0] if len(got) == 1 else got}, "
                f"expected {shape}")
        arr = arr.reshape((K,) + shape)
    arr.flags.writeable = False
    return arr


def field_at_nodes(field: FieldMap, x: Array, u: Array) -> NodeTable:
    """The field along a pair: psi and its Jacobians at the nodes (x_j, u_j),
    the rows of x and u.

    A callback of ``FieldMap.affine_fixed`` is evaluated at all nodes as one
    stacked array expression (an affine map or a constant); any other
    callback is called once per node, so a field whose callback is replaced
    (``dataclasses.replace``) falls back to per-node calls for that callback
    alone.  The shapes are checked once on the stacked values, and a
    mismatch raises the ConfigurationError that :func:`psi_eval` raises.
    The Hessian contractions are evaluated only when :meth:`NodeTable.hess`
    asks.
    """
    x, u = np.array(x, dtype=float), np.array(u, dtype=float)
    if x.shape != (len(x), field.n) or u.shape != (len(x), field.m):
        raise ConfigurationError(
            f"expected shapes (K, {field.n}), (K, {field.m}); got {x.shape}, {u.shape}")
    x.flags.writeable = u.flags.writeable = False
    s = field.s
    Jx = _stacked(field, "dpsi_dx", (x, u), (s, field.n))
    Ju = _stacked(field, "dpsi_du", (x, u), (s, field.m))
    J = np.concatenate([Jx, Ju], axis=2)
    J.flags.writeable = False
    return NodeTable(field=field, x=x, u=u, psi=_stacked(field, "psi", (x, u), (s,)),
                     Jx=Jx, Ju=Ju, J=J)


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
    set, and NumericalFailureError when the NNLS iteration limit is hit or
    when x, G or g is not finite.
    """
    # Imported here: importing scipy would double the package's import time.
    from scipy.optimize import nnls

    r, n = G.shape
    Gx = G @ x
    if r == 0 or (Gx <= g + TOL_FEAS).all():
        return x.copy(), np.zeros(r)
    # Column-major like G^T, which fixes how E @ w below rounds.
    E = np.empty((n + 1, r), order="F")
    np.negative(G.T, out=E[:n])
    np.subtract(Gx, g, out=E[n])
    e = np.zeros(n + 1)
    e[n] = 1.0
    try:
        w, _ = nnls(E, e)
    except RuntimeError as err:
        raise NumericalFailureError(f"least-distance NNLS: {err}") from err
    except ValueError as err:  # nnls rejects infinite and NaN entries
        raise NumericalFailureError(
            f"least-distance program has a non-finite point or row: {err}") from err
    res = E @ w - e
    if not res[-1] < 0.0:
        raise ProjectionFailureError("least-distance program is infeasible: "
                                     "the moving set is empty")
    mu = w / -res[-1]
    y = x - G.T @ mu
    if (G @ y > g + 1e-9 * (1.0 + np.abs(g))).any():
        raise ProjectionFailureError("projection finished infeasible; set may be empty")
    return y, mu


def _sqp_local_projection(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                          warm: Array, tol: float, max_iter: int = 100,
                          ) -> tuple[Array, Array]:
    """Local projection for nonlinear psi (or smooth Theta) from a warm start.

    Sequentially projects x onto the linearized constraint system at the
    current iterate until the iterate moves by at most ``tol``; returns
    (y, eta) with eta from the last linearization, the one whose projection
    is y (no closing re-solve at y).
    """
    y = np.asarray(warm, dtype=float).copy()
    for _ in range(max_iter):
        rows, rhs, lift = _constraint_rows(field, theta, y, u)
        y_new, mu = _project_onto_halfspaces(rows, rhs, x)
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step <= tol:
            return y, lift(mu)
    raise NumericalFailureError("projection SQP did not converge")


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


def _active_sets(theta: ThetaSet, Z: Array, tol: float = 1e-7,
                 ) -> list[tuple[int, ...]]:
    """Indices of the constraints active at each row z = psi of Z.

    Components of z for an orthant or box, components of h for a smooth
    inequality, and halfspace rows for a linear image.
    """
    if isinstance(theta, _IntervalTheta):
        lo, hi = theta.bounds()
        mask = (((hi < np.inf) & (Z >= hi - tol))
                | ((lo > -np.inf) & (Z <= lo + tol)))
    elif isinstance(theta, SmoothInequality):
        mask = np.array([np.atleast_1d(np.asarray(theta.h(z), dtype=float))
                         for z in Z]).reshape(len(Z), theta.l) >= -tol
    else:
        H, d = _halfspaces_of(theta)
        mask = np.matmul(H, Z[:, :, np.newaxis])[:, :, 0] >= d - tol
    return [tuple(i for i, active in enumerate(row) if active)
            for row in mask.tolist()]


def _halfspaces_of(theta: ThetaSet) -> tuple[Array, Array]:
    hs = theta.halfspaces()
    if hs is None:
        raise ConfigurationError("unknown Theta variant")
    return hs


def _active_rows(H: Array, d: Array, z: Array, tol: float) -> list[int]:
    """Rows of H z <= d that z meets within tol."""
    return [i for i in range(H.shape[0]) if H[i] @ z >= d[i] - tol]


def _project_step(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                  warm: Array | None, tol: float = 1e-10) -> tuple[Array, Array]:
    """The projection of one catching-up step and nothing else: (y, eta) with
    y the projection of x onto C(u) and x - y = grad_x psi(y, u)^T eta.

    One exact least-distance solve for an affine-in-x field with a
    polyhedral Theta, else the local SQP projection from ``warm``.
    """
    hs = theta.halfspaces()
    if field.x_affine is not None and hs is not None:
        A, c = field.x_affine(u)
        H, d = hs
        y, mu = _project_onto_halfspaces(H @ A, d - H @ c, x)
        return y, H.T @ mu
    if warm is None:
        raise ConfigurationError("nonlinear projection requires a feasible warm start")
    return _sqp_local_projection(field, theta, u, x, warm, tol)


def _projection_diagnostics(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                            y: Array, eta: Array,
                            ) -> tuple[Array, Array, list[tuple[int, ...]]]:
    """For projections y_j of x_j onto C(u_j) with multipliers eta_j (the
    rows of each argument): psi(y_j, u_j), the KKT residual
    ||x_j - y_j - grad_x psi(y_j, u_j)^T eta_j|| and the active set, from one
    :func:`field_at_nodes` table over the pairs (y_j, u_j)."""
    tab = field_at_nodes(field, y, u)
    v = (x - y) - np.matmul(tab.Jx.transpose(0, 2, 1), eta[:, :, np.newaxis])[:, :, 0]
    residual = np.sqrt(np.matmul(v[:, np.newaxis, :], v[:, :, np.newaxis])[:, 0, 0])
    return tab.psi, residual, _active_sets(theta, tab.psi)


def project_onto_moving_set(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                            tol: float = 1e-10, warm_start: Array | None = None,
                            extra_starts: Sequence[Array] = (),
                            ) -> tuple[Array, ConeDecomposition]:
    """Project x onto C(u) = {y : psi(y, u) in Theta}.

    For affine-in-x fields with polyhedral Theta this is an exact convex QP.
    For nonlinear fields it is a local projection by sequential quadratic
    stepping from ``warm_start`` (required), whose multiplier comes from the
    last linearization, with no closing re-solve at the converged point.
    When several candidates tie in distance the one with lexicographically
    largest coordinates wins, so callers can pass ``extra_starts`` to
    explore set-valued projections deterministically.

    Returns the projected point and the ConeDecomposition carrying the KKT
    multiplier eta with x - y* = grad_x psi(y*, u)^T eta.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if field.x_affine is not None and theta.halfspaces() is not None:
        y, eta = _project_step(field, theta, u, x, None)
    else:
        candidates: list[tuple[Array, Array]] = []
        for start in [warm_start, *extra_starts]:
            try:
                candidates.append(_project_step(field, theta, u, x, start, tol))
            except (NumericalFailureError, ProjectionFailureError):
                continue
        if not candidates:
            raise ProjectionFailureError("no projection candidate converged")
        dists = [np.linalg.norm(cand[0] - x) for cand in candidates]
        dmin = min(dists)
        tied = [cand for cand, dist in zip(candidates, dists) if dist <= dmin + 1e-9]
        # Deterministic tie-break: lexicographically largest coordinates win.
        y, eta = max(tied, key=lambda cand: tuple(cand[0]))
    psi, residual, active = _projection_diagnostics(
        field, theta, x[np.newaxis], u[np.newaxis], y[np.newaxis], eta[np.newaxis])
    return y, ConeDecomposition(eta=eta, active_indices=active[0],
                                residual=float(residual[0]), psi=psi[0])


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
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    return _decompose(theta, tab.psi[0], tab.Jx[0], v, tol)


def _decompose(theta: ThetaSet, z: Array, J: Array, v: Array,
               tol: float) -> ConeDecomposition:
    """:func:`normal_cone_decompose` at psi = z with grad_x psi = J."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not theta.contains(z, tol=max(TOL_FEAS, tol)):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    ok, sigma_min = surjectivity_check(J)
    if not ok:
        raise SurjectivityError(f"grad_x psi is rank deficient (sigma_min={sigma_min:.3e})")
    eta, *_ = np.linalg.lstsq(J.T, v, rcond=None)
    [active] = _active_sets(theta, z[np.newaxis])
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
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    return _cone_distance(theta, tab.psi[0], tab.Jx[0], v, tol)


def _cone_distance(theta: ThetaSet, z: Array, J: Array, v: Array,
                   tol: float) -> float:
    """:func:`normal_cone_distance` at psi = z with grad_x psi = J."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not theta.contains(z, tol=max(tol, 1e-7)):
        return float("inf")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    cols, signs = _cone_generators(theta, z, J.T)
    return _signed_cone_distance(cols, v, signs)


def _cone_generators(theta: ThetaSet, z: Array, JT: Array,
                     tol: float = 1e-7) -> tuple[Array, list[int]]:
    """Columns (and sign constraints) generating grad^T N_Theta(z).

    One column JT a per active constraint row a: the gradient of each active
    component of h for a smooth inequality, each active halfspace row
    otherwise.  Every column carries the sign +1.
    """
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        rows = [Dh[i] for i in range(theta.l) if h[i] >= -tol]
    else:
        H, d = _halfspaces_of(theta)
        rows = [H[i] for i in _active_rows(H, d, z, tol)]
    if not rows:
        return np.zeros((JT.shape[0], 0)), []
    return np.column_stack([JT @ a for a in rows]), [1] * len(rows)


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

    The interval table of :func:`coderivative_theta` on (-inf, 0]:

    * ``w_i < 0``                          -> must_be_zero
    * ``w_i = 0, xi_i = 0, udir_i <  0``   -> must_be_zero
    * ``w_i = 0, xi_i = 0, udir_i >= 0``   -> nonnegative
    * ``xi_i > 0, udir_i = 0``             -> free
    * ``xi_i > 0, udir_i != 0``            -> empty set (returns None)

    Raises DomainError when (w, xi) is not in the graph of the normal-cone
    map (w outside the orthant, or xi outside N(w)).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return _interval_coderivative(np.full(w.shape, -np.inf), np.zeros(w.shape),
                                  w, xi, udir, act_tol, pos_tol)


def coderivative_theta(theta: ThetaSet, w: Array, xi: Array, udir: Array,
                       act_tol: float = TOL_FEAS, pos_tol: float = 1e-12,
                       ) -> tuple[CoderivativeCase, ...] | None:
    """Per-index classification of D*N_Theta(w, xi)(udir) for box-like Theta.

    Reads ``theta.bounds()``, so an orthant, a box and a linear image with
    diagonal A and axis-aligned Z (the box it equals) share one table.  Per
    component, with N = [0, inf) at an upper end and (-inf, 0] at a lower
    end (an end whose normal cone holds xi_i; a degenerate interval takes
    its upper end when xi_i >= 0):

    * interior ``w_i``                       -> must_be_zero
    * at an end, ``xi_i = 0``, ``udir_i`` pointing out of N -> must_be_zero
    * at an end, ``xi_i = 0``, otherwise     -> nonnegative (upper end) or
      nonpositive (lower end)
    * ``xi_i != 0``, ``udir_i = 0``          -> free
    * ``xi_i != 0``, ``udir_i != 0``         -> empty set (returns None)

    Raises DomainError when w lies outside Theta or xi outside N_Theta(w),
    and ConfigurationError when Theta has no interval form.
    """
    bounds = theta.bounds()
    if bounds is None:
        raise ConfigurationError(
            "coderivative classification is only available for orthant/box-like variants")
    return _interval_coderivative(*bounds, w, xi, udir, act_tol, pos_tol)


def _interval_coderivative(lo: Array, hi: Array, w: Array, xi: Array,
                           udir: Array, act_tol: float, pos_tol: float,
                           ) -> tuple[CoderivativeCase, ...] | None:
    """The interval case table (see :func:`coderivative_theta`)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    udir = np.atleast_1d(np.asarray(udir, dtype=float))
    if not (w.shape == xi.shape == udir.shape == lo.shape):
        raise ConfigurationError("w, xi, udir must share the shape of Theta's bounds")
    cases: list[CoderivativeCase] = []
    for i, (lo_i, hi_i, wi, xii, ui) in enumerate(zip(lo, hi, w, xi, udir)):
        if wi > hi_i + act_tol or wi < lo_i - act_tol:
            raise DomainError(f"w_{i}={wi} outside [{lo_i}, {hi_i}]")
        at_hi = np.isfinite(hi_i) and wi >= hi_i - act_tol
        at_lo = np.isfinite(lo_i) and wi <= lo_i + act_tol
        if at_hi and xii >= -pos_tol:
            sign, sided = 1.0, CoderivativeCase.NONNEGATIVE
        elif at_lo and xii <= pos_tol:
            sign, sided = -1.0, CoderivativeCase.NONPOSITIVE
        elif at_hi or at_lo:
            raise DomainError(f"xi_{i}={xii} not in the interval normal cone at w_{i}={wi}")
        elif abs(xii) > pos_tol:
            raise DomainError(f"xi_{i}={xii} must vanish at an interior w_{i}={wi}")
        else:
            cases.append(CoderivativeCase.MUST_BE_ZERO)
            continue
        if abs(xii) <= pos_tol:
            cases.append(CoderivativeCase.MUST_BE_ZERO if sign * ui < -pos_tol
                         else sided)
        elif abs(ui) <= pos_tol:
            cases.append(CoderivativeCase.FREE)
        else:
            return None
    return tuple(cases)


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
