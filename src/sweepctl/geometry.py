"""Constraint sets, field maps, projections, and normal-cone calculus.

This module owns the two geometric ingredients of a controlled moving set

    C(u) = { x | psi(x, u) in Theta },

namely the target set ``Theta`` (orthant, box, smooth-inequality, or linear
image of a polyhedron) and the field ``psi`` together with its derivatives.
Each field callback the package builds is written once, over a stack of K
nodes (``at_nodes``); a call at one node is that form at K = 1.  Code that
needs the field along a pair of paths reads one :class:`NodeTable` from
:func:`field_at_nodes`: psi and its Jacobians at every node (one stacked
expression per callback, one call per node for a hand-written callback),
shapes checked once, and the Hessian contractions on demand.
It owns the three descriptions of ``Theta`` the rest of the package reads:
``constraint(z)``, the rows g(z) <= d of every variant with their Jacobian
(g = H z for a polyhedron, g = h and d = 0 for smooth inequalities), for
row-wise code; ``halfspaces()``, the rows {z : H z <= d} of a polyhedral
Theta, for the exact projection; and ``bounds()``, the intervals
lo <= z <= hi of a box-like Theta (orthant, box, or a linear image with
diagonal A and axis-aligned Z), for componentwise code.  No other module
decides how a Theta variant is written as rows or bounds.
On top of those it provides the operations the rest of the package leans on:
Euclidean projection onto ``C(u)`` with KKT multiplier recovery, the
decomposition of a normal-cone element through ``grad_x psi`` into a
``Theta``-cone multiplier, and the per-index classification of the
coderivative of the normal-cone map of a box-like Theta (one interval case
table).  Membership, the normal-cone test, the decomposition, the
moving-set cone distance grad_x psi^T N_Theta(psi) and the case table each
have a form over a stack of K points, and the one-point functions are
one-node calls of it.

One least-distance kernel (:func:`_project_onto_halfspaces`) answers every
projection onto a polyhedron (the affine projection, each linearized
subproblem of the nonlinear one, polyhedral distances, the shooting
gradient's critical cones) and, by Moreau's decomposition, every cone
distance but the interval normal-cone test: the distance from v to the cone
of some rows is the length of v's projection onto their polar cone.  For an
affine-in-x field and a polyhedral Theta, :func:`_step_rows` builds the
rows of C(u) at a whole stack of controls in one expression.  scipy is
imported inside :func:`_nnls_projection`, never at package import.
"""

from __future__ import annotations

import math
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
    describe itself in up to three forms: ``constraint(z)``, the rows
    ``g(z) <= d`` of every variant, for row-wise code (linearization,
    activity, normal cones, feasibility, margins); ``halfspaces()``, the
    rows ``{z : H z <= d}`` of a polyhedral set, for the exact projection;
    and ``bounds()``, the interval form ``lo <= z <= hi`` of a box-like set,
    for componentwise code (complementarity pairs, coderivatives).  The
    last two are built once per set.
    """

    s: int

    def contains(self, z: Array, tol: float = TOL_FEAS) -> bool:
        """Whether the point z (s,) lies in Theta within tol: one point of
        :meth:`contains_stack`."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.s,):
            raise ConfigurationError(f"expected point in R^{self.s}, got shape {z.shape}")
        return bool(self.contains_stack(z[np.newaxis], tol)[0])

    def contains_stack(self, Z: Array, tol: float = TOL_FEAS) -> Array:
        """Membership within tol of each row of Z (K, s), in the variant's
        own metric, as a (K,) bool array."""
        raise NotImplementedError

    def constraint(self, z: Array) -> tuple[Array, Array, Array]:
        """Return (g, Dg, d) with Theta = {z : g(z) <= d} at points z (..., s).

        g has shape (..., l), the Jacobian Dg broadcasts to (..., l, s) and
        d holds the l bounds.  Built here from ``halfspaces()`` as g = H z,
        Dg = H; raises ConfigurationError for a variant with neither form.
        """
        hs = self.halfspaces()
        if hs is None:
            raise ConfigurationError(f"{type(self).__name__} has no constraint rows")
        H, d = hs
        return np.matmul(H, np.asarray(z, dtype=float)[..., np.newaxis])[..., 0], H, d

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
        """How far ``eta`` is from N_Theta(z), as a nonnegative number: one
        node of :meth:`normal_cone_violation_stack`."""
        Z, E = (np.asarray(a, dtype=float)[np.newaxis] for a in (z, eta))
        return float(self.normal_cone_violation_stack(Z, E, tol)[0])

    def normal_cone_violation_stack(self, Z: Array, E: Array,
                                    tol: float = TOL_FEAS) -> Array:
        """The distance of each E[j] to the cone of the rows of Dg(Z[j])
        active within tol, as a (K,) array, by :func:`_cone_distance_rows`."""
        Z, E = np.asarray(Z, dtype=float), np.asarray(E, dtype=float)
        g, Dg, d = self.constraint(Z)
        return _cone_distance_rows(np.broadcast_to(Dg, g.shape + (self.s,)),
                                   g >= d - tol, E)


def _read_only(pair: tuple[Array, Array] | None) -> tuple[Array, Array] | None:
    if pair is not None:
        for arr in pair:
            arr.flags.writeable = False
    return pair


class _IntervalTheta(ThetaSet):
    """Membership and normal cone of a product of intervals, read off bounds()."""

    def contains_stack(self, Z: Array, tol: float = TOL_FEAS) -> Array:
        lo, hi = self.bounds()
        Z = np.asarray(Z, dtype=float)
        return np.all((lo - tol <= Z) & (Z <= hi + tol), axis=-1)

    def _build_halfspaces(self) -> tuple[Array, Array]:
        # Per component: the row +e_i <= hi_i, then -e_i <= -lo_i; finite ones.
        lo, hi = self.bounds()
        eye = np.eye(self.s)
        rows = np.stack([eye, -eye], axis=1).reshape(2 * self.s, self.s)
        rhs = np.stack([hi, -lo], axis=1).ravel()
        finite = np.isfinite(rhs)
        return rows[finite], rhs[finite]

    def normal_cone_violation_stack(self, Z: Array, E: Array,
                                    tol: float = TOL_FEAS) -> Array:
        """Componentwise: the part of eta_i outside [0, inf) at an upper end,
        outside (-inf, 0] at a lower end, all of it inside the interval, and
        none where both ends meet (a degenerate interval leaves eta_i free)."""
        lo, hi = self.bounds()
        Z, E = np.asarray(Z, dtype=float), np.asarray(E, dtype=float)
        at_hi = (hi < np.inf) & (Z >= hi - tol)
        at_lo = (lo > -np.inf) & (Z <= lo + tol)
        viol = np.where(at_hi, np.maximum(-E, 0.0),
                        np.where(at_lo, np.maximum(E, 0.0), np.abs(E)))
        return np.max(np.where(at_hi & at_lo, 0.0, viol), axis=-1, initial=0.0)


@dataclass(frozen=True)
class NonpositiveOrthant(_IntervalTheta):
    """Theta = R^s_- (every coordinate nonpositive)."""

    s: int

    def _build_bounds(self) -> tuple[Array, Array]:
        return np.full(self.s, -np.inf), np.zeros(self.s)


@dataclass(frozen=True)
class Box(_IntervalTheta):
    """Theta = product of intervals [lower_i, upper_i]; a lower end may be
    -inf and an upper end +inf, and no end is NaN."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ConfigurationError("lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not (lo <= hi and lo < np.inf and hi > -np.inf):
                raise ConfigurationError(f"interval [{lo}, {hi}] is empty or has a NaN end")

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

    def contains_stack(self, Z: Array, tol: float = TOL_FEAS) -> Array:
        """h(z) <= tol componentwise, one ``h`` call per point."""
        return np.array([np.all(np.asarray(self.h(z), dtype=float) <= tol)
                         for z in np.asarray(Z, dtype=float)], dtype=bool)

    def constraint(self, z: Array) -> tuple[Array, Array, Array]:
        """(h(z), Dh(z), 0), one ``h`` and one ``jac`` call per point."""
        z = np.asarray(z, dtype=float)
        lead, points = z.shape[:-1], z.reshape(-1, self.s)
        g = np.array([np.atleast_1d(np.asarray(self.h(p), dtype=float))
                      for p in points]).reshape(lead + (self.l,))
        Dg = np.array([np.atleast_2d(np.asarray(self.jac(p), dtype=float))
                       for p in points]).reshape(lead + (self.l, self.s))
        return g, Dg, np.zeros(self.l)


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
        return len(self.A)

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

    def contains_stack(self, Z: Array, tol: float = TOL_FEAS) -> Array:
        """Polyhedral (Euclidean) distance at most tol, per the membership
        metric contract.  A point meeting every row within TOL_FEAS is at
        distance 0 (the projection's own early exit), so only the other
        points are projected."""
        H, d = self.halfspaces()
        Z = np.asarray(Z, dtype=float)
        inside = np.all(self.constraint(Z)[0] <= d + TOL_FEAS, axis=-1)
        for j in np.flatnonzero(~inside):
            inside[j] = polyhedron_distance(H, d, Z[j]) <= tol
        return inside


def polyhedron_distance(H: Array, d: Array, z: Array) -> float:
    """Euclidean distance from z to {w : H w <= d} (0 if inside)."""
    w, _ = _project_onto_halfspaces(H, d, z)
    return float(np.linalg.norm(w - z))


# ---------------------------------------------------------------------------
# Field maps
# ---------------------------------------------------------------------------


class _Stacked:
    """A field callback written once, as ``at_nodes`` over a stack of K
    nodes (a leading axis on each argument).  A call at one node is that form
    at K = 1: row 0 of the value, or of each array of a pair."""

    def __init__(self, at_nodes: Callable):
        self.at_nodes = at_nodes

    def __call__(self, *args: Array):
        value = self.at_nodes(*(np.asarray(a, dtype=float)[np.newaxis] for a in args))
        return tuple(v[0] for v in value) if isinstance(value, tuple) else value[0]


class _ConstantCallback(_Stacked):
    """A field callback whose value is one read-only array at every argument:
    one broadcast view at a stack of K nodes, the array itself at one node
    (an SQP step reads a Jacobian at one node per iteration)."""

    def __init__(self, value: Array):
        value.flags.writeable = False
        super().__init__(lambda x, *stacks: np.broadcast_to(value, (len(x),) + value.shape))
        self.value = value

    def __call__(self, *args: Array) -> Array:
        return self.value


@dataclass(frozen=True)
class FieldMap:
    """The field psi(x, u) in R^s with its partial derivatives.

    Four constructors are supported.  ``affine_fixed`` builds the
    affine-in-both-arguments case psi = Ax x + Au u + c that all shipped
    problem instances use; ``polyhedral`` builds the moving-rows case
    psi_i(x, (u, b)) = <x, u_i> - b_i where the control is the concatenation
    of the s row vectors with the offset vector b; ``nonlinear`` takes raw
    callbacks.  ``with_state_map`` composes a field with a linear state map,
    psi(G x, u), so a state-mapped moving set is one more field.

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
        psi is not affine in x.  Enables the exact projection path.  The
        callbacks of ``affine_fixed`` and ``polyhedral``, and the ``x_affine``
        of ``with_state_map``, are written once, over a stack of K nodes
        (``at_nodes``; ``x_affine.at_nodes(U)`` gives (A (K, s, n), c (K, s))),
        and a one-node call is that form at K = 1.
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
        """psi(x, u) = Ax x + Au u + c with constant matrices; the Jacobians
        and the zero Hessian contractions are constants."""
        Ax_, Au_, c_ = (np.array(v, dtype=float) for v in (Ax, Au, c))
        s, n = Ax_.shape
        m = Au_.shape[1]
        if Au_.shape[0] != s or c_.shape != (s,):
            raise ConfigurationError("inconsistent affine field shapes")
        return FieldMap(
            n=n, m=m, s=s,
            psi=_Stacked(lambda X, U: _rows(Ax_, X) + _rows(Au_, U) + c_),
            dpsi_dx=_ConstantCallback(Ax_),
            dpsi_du=_ConstantCallback(Au_),
            hess_xx=_ConstantCallback(np.zeros((n, n))),
            hess_ux=_ConstantCallback(np.zeros((m, n))),
            x_affine=_Stacked(lambda U: (np.broadcast_to(Ax_, (len(U), s, n)),
                                         _rows(Au_, U) + c_)),
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

        def rows(U: Array) -> tuple[Array, Array]:  # (K, s, n) rows, (K, s) offsets
            U = np.asarray(U, dtype=float)
            return U[:, : s * n].reshape(len(U), s, n), U[:, s * n:]

        def psi(X: Array, U: Array) -> Array:
            R, B = rows(U)
            return _rows(R, X) - B

        def dpsi_du(X: Array, U: Array) -> Array:
            J = np.zeros((len(X), s, m))
            J[:, row_of, col_of] = np.asarray(X, dtype=float)[:, entry_of]
            J[:, offsets[0], offsets[1]] = -1.0
            return J

        def hess_ux(X: Array, U: Array, P: Array) -> Array:
            # d/du of (U^T p): the u_i block contributes p_i * I_n.
            H = np.zeros((len(X), m, n))
            H[:, :s * n] = (np.asarray(P, dtype=float)[:, :, None, None]
                            * np.eye(n)).reshape(len(X), s * n, n)
            return H

        def x_affine(U: Array) -> tuple[Array, Array]:
            R, B = rows(U)
            return R, -B

        return FieldMap(
            n=n, m=m, s=s,
            psi=_Stacked(psi),
            dpsi_dx=_Stacked(lambda X, U: rows(U)[0]),
            dpsi_du=_Stacked(dpsi_du),
            hess_xx=_ConstantCallback(np.zeros((n, n))),
            hess_ux=_Stacked(hess_ux),
            x_affine=_Stacked(x_affine),
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

    def with_state_map(self, G: Array) -> "FieldMap":
        """psi(G x, u) for a square n x n matrix G, with the derivatives by
        the chain rule; an affine-in-x field stays affine in x, its pairs
        (A G, c) taken from the inner pairs by :func:`_affine_pairs`."""
        G = np.atleast_2d(np.asarray(G, dtype=float))
        if G.shape[0] != G.shape[1]:
            raise ConfigurationError("state map must be a square matrix")
        if G.shape[0] != self.n:
            raise ConfigurationError("state map size must match the field")

        def x_affine(U: Array) -> tuple[Array, Array]:
            A, c = _affine_pairs(self, U)
            return np.matmul(A, G), c

        return FieldMap(
            n=self.n, m=self.m, s=self.s,
            psi=lambda x, u: self.psi(G @ x, u),
            dpsi_dx=lambda x, u: np.atleast_2d(self.dpsi_dx(G @ x, u)) @ G,
            dpsi_du=lambda x, u: self.dpsi_du(G @ x, u),
            hess_xx=(None if self.hess_xx is None else
                     lambda x, u, p: G.T @ self.hess_xx(G @ x, u, p) @ G),
            hess_ux=(None if self.hess_ux is None else
                     lambda x, u, p: self.hess_ux(G @ x, u, p) @ G),
            x_affine=None if self.x_affine is None else _Stacked(x_affine),
        )


def _point(field: FieldMap, x: Array, u: Array) -> tuple[Array, Array]:
    """x and u as float vectors, checked to lie in R^n and R^m."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (field.n,) or u.shape != (field.m,):
        raise ConfigurationError(
            f"expected shapes ({field.n},), ({field.m},); got {x.shape}, {u.shape}")
    return x, u


def psi_eval(field: FieldMap, x: Array, u: Array) -> Array:
    """Evaluate psi(x, u), validating dimensions."""
    x, u = _point(field, x, u)
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
    checked once: its ``at_nodes`` form (every callback the package builds),
    else one call per node (``FieldMap.nonlinear``, or a callback swapped in
    by ``dataclasses.replace``).  A value may drop a leading axis of length
    1 (s = 1), as :func:`psi_eval` allows."""
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

    Each callback is read by :func:`_stacked`: a stacked form at all nodes
    at once, any other callback once per node, so a field whose callback is
    replaced (``dataclasses.replace``) falls back to per-node calls for that
    callback alone.  The shapes are checked once on the stacked values, and a
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
    x - y* = G^T mu.  A point meeting every row within TOL_FEAS is its own
    projection.  Otherwise the rows V violated at x are taken as the active
    set: with R = G[V], mu_V solves (R R^T) mu_V = (G x - g)_V (a division
    for one row) and y = x - R^T mu_V.  That y is accepted when mu_V >= 0,
    every row holds at y within TOL_FEAS and, for two or more rows, every
    row of V is tight at y within TOL_FEAS: the KKT conditions of the convex
    program then hold, so y is the projection.  The tightness test rejects
    the points that an ill-conditioned R R^T puts off the projection.

    Every other case (a singular R R^T, as with more violated rows than
    dimensions, or a failed guess) takes one NNLS solve.  A cone (g = 0) is
    mu = argmin_{mu >= 0} ||G^T mu - x||, y = x - G^T mu (Moreau 1962); any
    other polyhedron is the least-distance program min ||z|| s.t.
    -G z >= -(g - G x), z = y - x (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23): for E = [-G^T; -(g - G x)^T], e = (0, .., 0, 1)
    and w = argmin_{w >= 0} ||E w - e||, res = E w - e has
    res[-1] = -||res||^2, zero exactly when the set is empty; else
    mu = w / -res[-1], and y must hold every row and be tight where mu_i > 0,
    within 1e-6 (1 + |g_i| + (|G| |y|)_i).  The absolute TOL_FEAS reads the
    cone distance of an x shorter than about 1e-9 as ||x||, below every
    tolerance it meets (``ACT_TOL`` 1e-7, ``TOL_RESIDUAL`` 1e-6).  Rows
    through one point are a translated cone where the program fails.  Raises
    ProjectionFailureError for an empty set, NumericalFailureError for a hit
    NNLS iteration limit, failed complementarity or a non-finite x, G or g.
    """
    slack = (G.dot(x) - g).tolist()
    if all(v <= TOL_FEAS for v in slack):  # a NaN slack fails the test
        return x.copy(), np.zeros(len(g))
    # A non-finite x, G or g leaves a non-finite slack (inf * 0 is NaN).
    if not all(map(math.isfinite, slack)):
        raise NumericalFailureError(
            "least-distance program has a non-finite point or row")
    V = [i for i, v in enumerate(slack) if v > TOL_FEAS]
    mu = np.zeros(len(g))
    if len(V) == 1:
        [i] = V
        aa = G[i].dot(G[i])
        if aa > 0.0:
            mu[i] = slack[i] / aa
            y = x - mu[i] * G[i]
            if all(v <= TOL_FEAS for v in (G.dot(y) - g).tolist()):
                return y, mu
    elif len(V) <= len(x):  # more rows than dimensions: R R^T is singular
        R = G.take(V, axis=0)
        try:
            mu_V = np.linalg.solve(R.dot(R.T), [slack[i] for i in V])
        except np.linalg.LinAlgError:  # a singular R R^T
            pass
        else:
            y = x - mu_V.dot(R)
            excess = (G.dot(y) - g).tolist()
            if (all(m >= 0.0 for m in mu_V.tolist())
                    and all(v <= TOL_FEAS for v in excess)
                    and all(excess[i] >= -TOL_FEAS for i in V)):
                mu[V] = mu_V
                return y, mu
    return _nnls_projection(G, g, x, slack)


def _nnls_projection(G: Array, g: Array, x: Array,
                     slack: list[float]) -> tuple[Array, Array]:
    """The NNLS solve of :func:`_project_onto_halfspaces`, with slack =
    G x - g: over the rows of a cone (g = 0, never empty), else the
    least-distance program; where that raises, rows through one point p =
    lstsq(G, g) (|G p - g| <= 1e-12 (1 + |g|)) are the cone moved to p:
    y = x - G^T mu with mu = argmin_{mu >= 0} ||G^T mu - (x - p)||."""
    # Imported here: importing scipy would double the package's import time.
    from scipy.optimize import nnls

    r, n = G.shape
    # Column-major like G^T, which fixes how E @ w below rounds.
    E = np.empty((n + 1, r), order="F")
    np.negative(G.T, out=E[:n])
    E[n] = slack
    e = np.zeros(n + 1)
    e[n] = 1.0
    try:
        if not g.any():  # a cone: one NNLS over its rows (Moreau)
            mu, _ = nnls(G.T, x)
            return x - G.T @ mu, mu
        w, _ = nnls(E, e)
        try:
            return _least_distance_point(G, g, x, w, E @ w - e)
        except (ProjectionFailureError, NumericalFailureError):
            p = np.linalg.lstsq(G, g, rcond=None)[0]
            if (np.abs(G @ p - g) > 1e-12 * (1.0 + np.abs(g))).any():
                raise
            mu, _ = nnls(G.T, x - p)
            return x - G.T @ mu, mu
    except RuntimeError as err:
        raise NumericalFailureError(f"least-distance NNLS: {err}") from err


def _least_distance_point(G: Array, g: Array, x: Array, w: Array,
                          res: Array) -> tuple[Array, Array]:
    """(y, mu) from the least-distance NNLS solution w and res = E w - e,
    or the error of an empty set, an infeasible y or failed complementarity."""
    if not res[-1] < 0.0:
        raise ProjectionFailureError("least-distance program is infeasible: "
                                     "the moving set is empty")
    mu = w / -res[-1]
    y = x - G.T @ mu
    # The NNLS rounding grows with the point, so a row's slack scales with
    # |G| |y|; the absolute test runs first, as it almost always passes.
    excess = G @ y - g
    if (excess > 1e-9 * (1.0 + np.abs(g))).any() and (
            excess > 1e-9 * (1.0 + np.abs(g) + np.abs(G) @ np.abs(y))).any():
        raise ProjectionFailureError("projection finished infeasible; set may be empty")
    loose = [i for i, (m, e) in enumerate(zip(mu.tolist(), excess.tolist()))
             if m > 0.0 and abs(e) > 1e-6]  # a row with a multiplier must be tight
    if loose and (abs(excess[loose]) > 1e-6 * (
            1.0 + abs(g[loose]) + abs(G[loose]) @ abs(y))).any():
        raise NumericalFailureError("least-distance projection failed complementarity")
    return y, mu


def _sqp_local_projection(field: FieldMap, theta: ThetaSet, u: Array, x: Array,
                          warm: Array) -> tuple[Array, Array]:
    """Local projection for nonlinear psi (or smooth Theta) from a warm start.

    Sequentially projects x onto the linearized constraint system at the
    current iterate until the iterate moves by at most 1e-10, within 100
    iterations; returns (y, eta) with eta from the last linearization, the
    one whose projection is y (no closing re-solve at y).  The shapes of the
    warm start and of u are checked once, as :func:`psi_eval` checks them.
    """
    y = np.atleast_1d(np.asarray(warm, dtype=float)).copy()
    if y.shape != (field.n,):
        raise ConfigurationError(f"expected a warm start in R^{field.n}, got shape {y.shape}")
    linearize = _linearization(field, theta, u)
    for _ in range(100):
        rows, rhs, lift = linearize(y)
        y_new, mu = _project_onto_halfspaces(rows, rhs, x)
        move = y_new - y
        y = y_new
        if math.sqrt(move.dot(move)) <= 1e-10:  # ||move||, as np.linalg.norm rounds it
            return y, lift(mu)
    raise NumericalFailureError("projection SQP did not converge")


def _linearization(field: FieldMap, theta: ThetaSet, u: Array,
                   ) -> Callable[[Array], tuple[Array, Array, Callable[[Array], Array]]]:
    """The linearization of C(u) for one control u, whose shape is checked
    here once: y -> (R, e, lift), the rows R y <= e of C(u) linearized at y
    and the map from row multipliers mu >= 0 to the eta in N_Theta(psi(y,u))
    they represent.  It calls ``psi`` and ``dpsi_dx`` directly, checks psi's
    output shape as :func:`psi_eval` does, and reads the halfspaces of a
    polyhedral Theta once."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (field.m,):
        raise ConfigurationError(f"expected a control in R^{field.m}, got shape {u.shape}")
    hs = theta.halfspaces()

    def rows(y: Array) -> tuple[Array, Array, Callable[[Array], Array]]:
        z = np.atleast_1d(np.asarray(field.psi(y, u), dtype=float))
        if z.shape != (field.s,):
            raise ConfigurationError(f"psi returned shape {z.shape}, expected ({field.s},)")
        J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
        if hs is None:
            g, Dg, d = theta.constraint(z)
        else:
            Dg, d = hs
            g = Dg.dot(z)
        R = Dg.dot(J)
        return R, R.dot(y) - g + d, Dg.T.dot

    return rows


def _step_rows(field: FieldMap, theta: ThetaSet, U: Array,
               ) -> tuple[Array, Array, Array] | None:
    """The moving sets C(u_j) at the K controls that are the rows of U, as
    halfspaces R_j y <= rhs_j, for a field affine in x, psi(y, u) =
    A(u) y + c(u), and a polyhedral Theta = {z : H z <= d}: R_j = H A(u_j)
    and rhs_j = d - H c(u_j).  Returns (R (K, r, n), rhs (K, r), H), or None
    for any other field or Theta.

    The pairs (A, c) come from :func:`_affine_pairs`.  Every product is taken
    per node (:func:`_rows`), so the rows of one control do not depend on
    the others: one step's rows equal its rows inside a stack bit for bit.
    """
    if not _exact_steps(field, theta):
        return None
    H, d = theta.halfspaces()
    A, c = _affine_pairs(field, U)
    return np.matmul(H, A), d - _rows(H, c), H


def _exact_steps(field: FieldMap, theta: ThetaSet) -> bool:
    """Whether :func:`_step_rows` builds the rows of every C(u): an
    affine-in-x field and a polyhedral Theta, every step one exact projection."""
    return field.x_affine is not None and theta.halfspaces() is not None


def _affine_pairs(field: FieldMap, U: Array) -> tuple[Array, Array]:
    """The pairs (A(u_j), c(u_j)) with psi(y, u_j) = A(u_j) y + c(u_j) of a
    field affine in x at the K controls that are the rows of U, as
    (A (K, s, n), c (K, s)): the stacked form ``x_affine.at_nodes`` of a
    field the package built, else one ``x_affine`` call per control (a
    callback swapped in by ``dataclasses.replace``)."""
    at_nodes = getattr(field.x_affine, "at_nodes", None)
    if at_nodes is not None:
        return at_nodes(U)
    pairs = [field.x_affine(u) for u in U]
    return (np.array([a for a, _ in pairs], dtype=float),
            np.array([c for _, c in pairs], dtype=float))


def _active_sets(theta: ThetaSet, Z: Array, tol: float = 1e-7,
                 ) -> list[tuple[int, ...]]:
    """Indices of the constraints active at each row z = psi of Z.

    Components of z for an orthant or box, rows of ``theta.constraint``
    otherwise.
    """
    if isinstance(theta, _IntervalTheta):
        lo, hi = theta.bounds()
        mask = (((hi < np.inf) & (Z >= hi - tol))
                | ((lo > -np.inf) & (Z <= lo + tol)))
    else:
        g, _, d = theta.constraint(Z)
        mask = g >= d - tol
    return [tuple(i for i, active in enumerate(row) if active)
            for row in mask.tolist()]


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
                            warm_start: Array | None = None,
                            ) -> tuple[Array, ConeDecomposition]:
    """Project x onto C(u) = {y : psi(y, u) in Theta}.

    For affine-in-x fields with polyhedral Theta this is an exact convex QP.
    For nonlinear fields it is the local projection that the catching-up
    step's SQP reaches from ``warm_start`` (required), whose multiplier
    comes from the last linearization, with no closing re-solve.  So x at
    the centre of a gap of a nonconvex set goes to the side of the warm
    start, and a failing SQP raises its GeometryError, as in the step.

    Returns the projected point and the ConeDecomposition carrying the KKT
    multiplier eta with x - y* = grad_x psi(y*, u)^T eta.
    """
    x, u = _point(field, x, u)
    rows = _step_rows(field, theta, u[np.newaxis])
    if rows is not None:
        R, rhs, H = rows
        y, mu = _project_onto_halfspaces(R[0], rhs[0], x)
        eta = _rows(H.T, mu[np.newaxis])[0]
    elif warm_start is None:
        raise ConfigurationError("nonlinear projection requires a feasible warm start")
    else:
        y, eta = _sqp_local_projection(field, theta, u, x, warm_start)
    psi, residual, active = _projection_diagnostics(
        field, theta, x[np.newaxis], u[np.newaxis], y[np.newaxis], eta[np.newaxis])
    return y, ConeDecomposition(eta=eta, active_indices=active[0],
                                residual=float(residual[0]), psi=psi[0])


# ---------------------------------------------------------------------------
# Normal-cone decomposition and distances
# ---------------------------------------------------------------------------


def surjectivity_check(jacobian: Array) -> tuple[bool, float]:
    """Full-row-rank check: returns (ok, sigma_min).

    ``ok`` iff the smallest singular value is at least RANK_TOL_FACTOR times
    the largest one (times 1 for the zero matrix).  A matrix with more rows
    than columns can never be surjective.
    """
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    _, ok, sigma_min = _transpose_solver(J[np.newaxis])
    return bool(ok[0]), float(sigma_min[0])


def _transpose_solver(J: Array) -> tuple[Callable[[Array], Array], Array, Array]:
    """For a stack J (K, s, n): (solve, ok, sigma_min), with ``ok`` and
    ``sigma_min`` the rank test of :func:`surjectivity_check` per matrix and
    ``solve(V)`` the least-squares solutions y_j of J_j^T y = V_j (zero
    where ok fails).  One stacked SVD J_j = U_j S_j W_j^T serves both, as
    y_j = U_j S_j^-1 W_j^T V_j; ok means no singular value is cut, so these
    are the ``lstsq`` solutions up to rounding.  A matrix with a non-finite
    entry fails the test (as the zero matrix), so that it cannot stop the
    SVD of the others."""
    finite = np.all(np.isfinite(J), axis=(1, 2))
    U, S, Wt = np.linalg.svd(np.where(finite[:, np.newaxis, np.newaxis], J, 0.0),
                             full_matrices=False)
    s, n = J.shape[1:]
    if s > n or not S.shape[1]:
        ok, sigma_min = np.zeros(len(J), dtype=bool), np.zeros(len(J))
    else:
        sigma_min, sigma_max = S[:, -1], S[:, 0]
        tol = np.where(sigma_max > 0, RANK_TOL_FACTOR * sigma_max, RANK_TOL_FACTOR)
        ok = (sigma_min >= tol) & finite

    def solve(V: Array) -> Array:
        c = _rows(Wt, V)
        return _rows(U, np.divide(c, S, out=np.zeros_like(c), where=ok[:, np.newaxis]))

    return solve, ok, sigma_min


def _rows(A: Array, v: Array) -> Array:
    """A[j] @ v[j] over the leading axes (A may be one matrix for all),
    rounded exactly as the one-at-a-time products are."""
    return (A @ v[..., np.newaxis])[..., 0]


def normal_cone_decompose(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                          v: Array) -> ConeDecomposition:
    """Solve grad_x psi(x,u)^T eta = v with eta in N_Theta(psi(x,u)).

    The solution is unique when grad_x psi has full row rank (its transpose
    is then injective); membership of v in N(x; C(u)) is certified by the
    residual and the cone check within 1e-8, otherwise NotInConeError is
    raised.  One node of :func:`decompose_nodes`.
    """
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    eta, residual, failure = decompose_nodes(theta, tab.psi, tab.Jx,
                                             np.reshape(v, (1, -1)), 1e-8)
    if failure is not None:
        raise failure[1]
    [active] = _active_sets(theta, tab.psi)
    return ConeDecomposition(eta=eta[0], active_indices=active,
                             residual=float(residual[0]), psi=tab.psi[0])


def decompose_nodes(theta: ThetaSet, Z: Array, J: Array, V: Array, tol: float,
                    ) -> tuple[Array, Array, tuple[int, GeometryError] | None]:
    """:func:`normal_cone_decompose` at K nodes at once: psi = Z[j] (K, s),
    grad_x psi = J[j] (K, s, n) and v = V[j] (K, n).

    One stacked SVD gives the rank test and the least-squares eta
    (:func:`_transpose_solver`); membership, the orthant cleanup, the
    residual and the cone test are stage expressions.  Returns (eta,
    residual, failure): ``failure`` is None when every node passes, else
    (j, error) for the smallest failing node j, with the error that node
    raises first in the order DomainError, SurjectivityError, then
    NotInConeError for v off the range and for eta off the cone.
    """
    tol_in = max(TOL_FEAS, tol)
    V = np.asarray(V, dtype=float)
    inside = theta.contains_stack(Z, tol_in)
    solve, ok, sigma_min = _transpose_solver(J)
    eta = solve(V)
    if isinstance(theta, NonpositiveOrthant):
        # Clean least-squares noise off the components that _active_sets
        # finds inactive before judging.
        eta[~(Z >= -1e-7)] = 0.0
    residual = np.linalg.norm(_rows(J.swapaxes(1, 2), eta) - V, axis=1)
    violation = theta.normal_cone_violation_stack(Z, eta, tol_in)
    checks = (
        (~inside, DomainError, lambda j: f"psi(x,u)={Z[j]} is not in Theta"),
        (~ok, SurjectivityError,
         lambda j: f"grad_x psi is rank deficient (sigma_min={sigma_min[j]:.3e})"),
        (residual > tol * (1.0 + np.linalg.norm(V, axis=1)), NotInConeError,
         lambda j: f"v is not in range(grad_x psi^T): residual {residual[j]:.3e}"),
        (violation > tol, NotInConeError,
         lambda j: f"eta={eta[j]} violates N_Theta by {violation[j]:.3e}"),
    )
    failing = np.flatnonzero(np.any([mask for mask, _, _ in checks], axis=0))
    if not failing.size:
        return eta, residual, None
    j = int(failing[0])
    _, error, message = next(check for check in checks if check[0][j])
    return eta, residual, (j, error(message(j)))


def _cone_distance_rows(R: Array, active: Array, E: Array) -> Array:
    """Distance from each E[j] (K, dim) to the cone spanned with nonnegative
    coefficients by the rows R[j][active[j]] of a (K, l, dim) stack: by
    Moreau's decomposition, the length of the kernel's projection of E[j]
    onto the polar cone {y : R_A y <= 0}, one kernel call per node."""
    ys = [_project_onto_halfspaces(rows[mask], np.zeros(mask.sum()), e)[0]
          for rows, mask, e in zip(R, active, E)]
    return np.array([math.sqrt(y.dot(y)) for y in ys], dtype=float)


def normal_cone_distance(field: FieldMap, theta: ThetaSet, x: Array, u: Array,
                         v: Array) -> float:
    """Distance from v to N(x; C(u)) = grad_x psi^T N_Theta(psi(x,u)).

    Infinity when psi(x,u) is outside Theta (the cone is then empty).  One
    node of :func:`cone_distance_nodes` at its default tolerance."""
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    return float(cone_distance_nodes(theta, tab.psi, tab.Jx, np.reshape(v, (1, -1)))[0])


def cone_distance_nodes(theta: ThetaSet, Z: Array, J: Array, V: Array,
                        tol: float = TOL_FEAS) -> Array:
    """:func:`normal_cone_distance` at K nodes at once: psi = Z[j] (K, s),
    grad_x psi = J[j] (K, s, n) and v = V[j] (K, n).  The cone of node j is
    spanned by the rows a^T J[j] of its constraints active within 1e-7, all
    nodes in one :func:`_cone_distance_rows`; a node outside Theta (within
    max(tol, 1e-7)) is at distance +inf."""
    inside = theta.contains_stack(Z, max(tol, 1e-7))
    g, Dg, d = theta.constraint(Z)
    out = _cone_distance_rows(np.matmul(Dg, J), (g >= d - 1e-7) & inside[:, np.newaxis],
                              np.asarray(V, dtype=float))
    out[~inside] = np.inf
    return out


def _cone_generators(theta: ThetaSet, z: Array, JT: Array,
                     tol: float = 1e-7) -> Array:
    """Columns generating grad^T N_Theta(z) with nonnegative coefficients:
    one column JT a per active constraint row a of ``theta.constraint``."""
    g, Dg, d = theta.constraint(z)
    rows = Dg[g >= d - tol]
    if not len(rows):
        return np.zeros((JT.shape[0], 0))
    return np.column_stack([JT @ a for a in rows])


# ---------------------------------------------------------------------------
# Coderivative of the normal-cone map
# ---------------------------------------------------------------------------


class CoderivativeCase(Enum):
    MUST_BE_ZERO = "must_be_zero"
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    FREE = "free"


#: Case codes of :func:`coderivative_codes`: the first four name the cases
#: of ``_CASES``, then an empty coderivative and the three ways (w, xi)
#: leaves the graph of the normal-cone map.
_ZERO, _NONNEG, _NONPOS, _FREE, _EMPTY, _W_OUTSIDE, _XI_AT_END, _XI_INTERIOR = range(8)
_CASES = (CoderivativeCase.MUST_BE_ZERO, CoderivativeCase.NONNEGATIVE,
          CoderivativeCase.NONPOSITIVE, CoderivativeCase.FREE)


def coderivative_orthant(w: Array, xi: Array, udir: Array,
                         ) -> tuple[CoderivativeCase, ...] | None:
    """Per-index classification of D*N_{R^s_-}(w, xi)(udir).

    The interval table of :func:`coderivative_theta` on (-inf, 0], at its
    default tolerances:

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
                                  w, xi, udir, TOL_FEAS, 1e-12)


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
    return _interval_coderivative(*_interval_bounds(theta), w, xi, udir,
                                  act_tol, pos_tol)


def _interval_bounds(theta: ThetaSet) -> tuple[Array, Array]:
    bounds = theta.bounds()
    if bounds is None:
        raise ConfigurationError(
            "coderivative classification is only available for orthant/box-like variants")
    return bounds


def coderivative_codes(lo: Array, hi: Array, W: Array, XI: Array, U: Array,
                       act_tol: float = TOL_FEAS, pos_tol: float = 1e-12) -> Array:
    """The interval table of :func:`coderivative_theta` on [lo, hi] at the
    rows of W, XI and U (K, s), as a (K, s) array of case codes:
    ``_CASES[c]`` for c < ``_EMPTY``, while a larger code marks an empty
    coderivative or (w, xi) off the graph."""
    W, XI, U = (np.asarray(a, dtype=float) for a in (W, XI, U))
    at_hi = np.isfinite(hi) & (W >= hi - act_tol)
    at_lo = np.isfinite(lo) & (W <= lo + act_tol)
    upper = at_hi & (XI >= -pos_tol)
    lower = ~upper & at_lo & (XI <= pos_tol)
    sided = np.where(np.where(upper, U, -U) < -pos_tol, _ZERO,
                     np.where(upper, _NONNEG, _NONPOS))
    at_end = np.where(np.abs(XI) <= pos_tol, sided,
                      np.where(np.abs(U) <= pos_tol, _FREE, _EMPTY))
    codes = np.where(upper | lower, at_end,
                     np.where(at_hi | at_lo, _XI_AT_END,
                              np.where(np.abs(XI) > pos_tol, _XI_INTERIOR, _ZERO)))
    return np.where((W > hi + act_tol) | (W < lo - act_tol), _W_OUTSIDE, codes)


def _interval_coderivative(lo: Array, hi: Array, w: Array, xi: Array,
                           udir: Array, act_tol: float, pos_tol: float,
                           ) -> tuple[CoderivativeCase, ...] | None:
    """One point of :func:`coderivative_codes`: the first component whose code
    names no case decides, as None for an empty coderivative or as the
    DomainError of (w, xi) off the graph."""
    w, xi, udir = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (w, xi, udir))
    if not (w.shape == xi.shape == udir.shape == lo.shape):
        raise ConfigurationError("w, xi, udir must share the shape of Theta's bounds")
    codes = coderivative_codes(lo, hi, w, xi, udir, act_tol, pos_tol)
    bad = np.flatnonzero(codes >= _EMPTY)
    if not bad.size:
        return tuple(_CASES[c] for c in codes)
    i = int(bad[0])
    if codes[i] == _W_OUTSIDE:
        raise DomainError(f"w_{i}={w[i]} outside [{lo[i]}, {hi[i]}]")
    if codes[i] == _XI_AT_END:
        raise DomainError(f"xi_{i}={xi[i]} not in the interval normal cone at w_{i}={w[i]}")
    if codes[i] == _XI_INTERIOR:
        raise DomainError(f"xi_{i}={xi[i]} must vanish at an interior w_{i}={w[i]}")
    return None


def coderivative_violation(cases: tuple[CoderivativeCase, ...] | None,
                           gamma: Array) -> float:
    """Distance-like violation of gamma against a coderivative classification."""
    if cases is None:
        return float("inf")
    codes = np.array([_CASES.index(case) for case in cases], dtype=int)
    return float(coderivative_violations(codes, np.atleast_1d(
        np.asarray(gamma, dtype=float)))[()])


def coderivative_violations(codes: Array, G: Array) -> Array:
    """:func:`coderivative_violation` of each row of G against the case
    codes of the same row; +inf where a code names no case (an empty
    coderivative or (w, xi) off the graph, which the checks count alike)."""
    G = np.asarray(G, dtype=float)
    viol = np.select([codes == _ZERO, codes == _NONNEG, codes == _NONPOS],
                     [np.abs(G), np.maximum(-G, 0.0), np.maximum(G, 0.0)], 0.0)
    return np.where(np.any(codes >= _EMPTY, axis=-1), np.inf,
                    np.max(viol, axis=-1, initial=0.0))


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
