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
        ``x_affine`` of ``affine_fixed`` and of ``polyhedral``, and that of
        ``with_state_map`` over either, also has a stacked form
        ``x_affine.at_nodes(U)``: the pairs at the K controls that are the
        rows of U, as (A (K, s, n), c (K, s)), each row equal to the
        one-control call bit for bit.  :func:`_affine_pairs` reads it, for
        the rows of every catching-up step and the shooting gradient's step
        maps at once, and calls any other ``x_affine`` once per control.
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

        def x_affine(u: Array) -> tuple[Array, Array]:
            return Ax_, Au_ @ u + c_

        x_affine.at_nodes = lambda U: (np.broadcast_to(Ax_, (len(U), s, n)),
                                       _rows(Au_, U) + c_)
        return FieldMap(
            n=n, m=m, s=s,
            psi=_AffineCallback(Ax_, Au_, c_),
            dpsi_dx=_ConstantCallback(Ax_),
            dpsi_du=_ConstantCallback(Au_),
            hess_xx=_ConstantCallback(np.zeros((n, n))),
            hess_ux=_ConstantCallback(np.zeros((m, n))),
            x_affine=x_affine,
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

        x_affine.at_nodes = lambda U: (
            np.asarray(U[:, : s * n], dtype=float).reshape(len(U), s, n),
            -np.asarray(U[:, s * n:], dtype=float))

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

    def with_state_map(self, G: Array) -> "FieldMap":
        """psi(G x, u) for a square n x n matrix G, with the derivatives by
        the chain rule; an affine-in-x field stays affine in x, its pair
        (A G, c) taken from one inner ``x_affine`` call per control, or
        from the inner ``at_nodes`` for a stack."""
        G = np.atleast_2d(np.asarray(G, dtype=float))
        if G.shape[0] != G.shape[1]:
            raise ConfigurationError("state map must be a square matrix")
        if G.shape[0] != self.n:
            raise ConfigurationError("state map size must match the field")
        x_affine = None
        if self.x_affine is not None:
            inner, inner_nodes = self.x_affine, getattr(self.x_affine, "at_nodes", None)

            def x_affine(u: Array) -> tuple[Array, Array]:
                A, c = inner(u)
                return A @ G, c

            if inner_nodes is not None:
                def at_nodes(U: Array) -> tuple[Array, Array]:
                    A, c = inner_nodes(U)
                    return np.matmul(A, G), c

                x_affine.at_nodes = at_nodes
        return FieldMap(
            n=self.n, m=self.m, s=self.s,
            psi=lambda x, u: self.psi(G @ x, u),
            dpsi_dx=lambda x, u: np.atleast_2d(self.dpsi_dx(G @ x, u)) @ G,
            dpsi_du=lambda x, u: self.dpsi_du(G @ x, u),
            hess_xx=(None if self.hess_xx is None else
                     lambda x, u, p: G.T @ self.hess_xx(G @ x, u, p) @ G),
            hess_ux=(None if self.hess_ux is None else
                     lambda x, u, p: self.hess_ux(G @ x, u, p) @ G),
            x_affine=x_affine,
        )


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
    tolerance it meets (``ACT_TOL`` 1e-7, ``TOL_RESIDUAL`` 1e-6).  Raises
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
    least-distance program."""
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
    except RuntimeError as err:
        raise NumericalFailureError(f"least-distance NNLS: {err}") from err
    res = E @ w - e
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
                          warm: Array, tol: float = 1e-10, max_iter: int = 100,
                          ) -> tuple[Array, Array]:
    """Local projection for nonlinear psi (or smooth Theta) from a warm start.

    Sequentially projects x onto the linearized constraint system at the
    current iterate until the iterate moves by at most ``tol``; returns
    (y, eta) with eta from the last linearization, the one whose projection
    is y (no closing re-solve at y).  The shapes of the warm start and of u
    are checked once, as :func:`psi_eval` checks them.
    """
    y = np.atleast_1d(np.asarray(warm, dtype=float)).copy()
    if y.shape != (field.n,):
        raise ConfigurationError(f"expected a warm start in R^{field.n}, got shape {y.shape}")
    linearize = _linearization(field, theta, u)
    for _ in range(max_iter):
        rows, rhs, lift = linearize(y)
        y_new, mu = _project_onto_halfspaces(rows, rhs, x)
        move = y_new - y
        y = y_new
        if math.sqrt(move.dot(move)) <= tol:  # ||move||, as np.linalg.norm rounds it
            return y, lift(mu)
    raise NumericalFailureError("projection SQP did not converge")


def _linearization(field: FieldMap, theta: ThetaSet, u: Array,
                   ) -> Callable[[Array], tuple[Array, Array, Callable[[Array], Array]]]:
    """The map y -> :func:`_constraint_rows` (field, theta, y, u) for one
    control u, whose shape is checked here once.  It calls ``psi`` and
    ``dpsi_dx`` directly, checks psi's output shape as :func:`psi_eval`
    does, and reads the halfspaces of a polyhedral Theta once."""
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


def _constraint_rows(field: FieldMap, theta: ThetaSet, y: Array, u: Array,
                     ) -> tuple[Array, Array, Callable[[Array], Array]]:
    """Linearize { y : psi(y,u) in Theta } at y as rows R y <= e.

    Also returns ``lift`` mapping row multipliers mu >= 0 to the
    eta in N_Theta(psi(y,u)) they represent.
    """
    return _linearization(field, theta, u)(np.atleast_1d(np.asarray(y, dtype=float)))


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
    hs = theta.halfspaces()
    if field.x_affine is None or hs is None:
        return None
    H, d = hs
    A, c = _affine_pairs(field, U)
    return np.matmul(H, A), d - _rows(H, c), H


def _affine_pairs(field: FieldMap, U: Array) -> tuple[Array, Array]:
    """The pairs (A(u_j), c(u_j)) with psi(y, u_j) = A(u_j) y + c(u_j) of a
    field affine in x at the K controls that are the rows of U, as
    (A (K, s, n), c (K, s)): from ``x_affine.at_nodes`` when the field has
    it, else from one ``x_affine`` call per control."""
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
    rows = _step_rows(field, theta, u[np.newaxis])
    if rows is not None:
        R, rhs, H = rows
        y, mu = _project_onto_halfspaces(R[0], rhs[0], x)
        eta = _rows(H.T, mu[np.newaxis])[0]
    else:
        starts = [warm_start, *extra_starts]
        if any(start is None for start in starts):
            raise ConfigurationError("nonlinear projection requires a feasible warm start")
        candidates: list[tuple[Array, Array]] = []
        for start in starts:
            try:
                candidates.append(_sqp_local_projection(field, theta, u, x, start, tol))
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
    _, ok, sigma_min = _transpose_solver(J[np.newaxis], tol)
    return bool(ok[0]), float(sigma_min[0])


def _transpose_solver(J: Array, tol: float | None = None,
                      ) -> tuple[Callable[[Array], Array], Array, Array]:
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
        if tol is None:
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
                          v: Array, tol: float = 1e-8) -> ConeDecomposition:
    """Solve grad_x psi(x,u)^T eta = v with eta in N_Theta(psi(x,u)).

    The solution is unique when grad_x psi has full row rank (its transpose
    is then injective); membership of v in N(x; C(u)) is certified by the
    residual and the cone check, otherwise NotInConeError is raised.  One
    node of :func:`decompose_nodes`.
    """
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    eta, residual, failure = decompose_nodes(theta, tab.psi, tab.Jx,
                                             np.reshape(v, (1, -1)), tol)
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
                         v: Array, tol: float = TOL_FEAS) -> float:
    """Distance from v to N(x; C(u)) = grad_x psi^T N_Theta(psi(x,u)).

    Infinity when psi(x,u) is outside Theta (the cone is then empty).  One
    node of :func:`cone_distance_nodes`."""
    tab = field_at_nodes(field, np.reshape(x, (1, -1)), np.reshape(u, (1, -1)))
    return float(cone_distance_nodes(theta, tab.psi, tab.Jx, np.reshape(v, (1, -1)),
                                     tol)[0])


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
