"""One constraint-row form of Theta: ``ThetaSet.constraint`` against the
per-variant branches it replaced.

The oracles below are test-local copies of the code that wrote the rows of
a polyhedral or smooth-inequality Theta once per reader: both branches of
the SQP linearization, the feasibility violation, the active sets, the
interior margin, the cone generators and the two variant copies of
``normal_cone_violation``.  Every output of the new code must equal them bit
for bit, with three exceptions that come from rounding:

* the right-hand side of the polyhedral linearization is now R y - g + d
  instead of H (J y - z) + d; it must agree to 1e-14 relative to the size of
  its terms;
* the old polyhedral cone generators and normal-cone test took a row's value
  as the dot product H_i z, while the old active sets took it from one
  matrix product H z, and the two round differently in the last bit.  Where
  that put a row on opposite sides of the activity edge d_i - tol, the old
  readers disagreed with each other; the new ones all read g = H z, so there
  they must match the oracle taken with the active sets' rows, and the row
  must sit within rounding of the edge;
* the normal-cone test of a Theta without interval form is now the
  least-distance kernel's projection onto the polar cone instead of an
  NNLS over the active rows; it must agree to 1e-13 (1 + ||eta||).
"""

import math

import numpy as np
import pytest

from sweepctl.certify import ACT_TOL, _interior_margin
from sweepctl.dynamics import _feasibility
from sweepctl.geometry import (
    TOL_FEAS,
    Box,
    FieldMap,
    LinearImagePolyhedron,
    SmoothInequality,
    _IntervalTheta,
    _active_sets,
    _cone_generators,
    _constraint_rows,
)


# ---------------------------------------------------------------------------
# Oracles: the per-variant branches as they were
# ---------------------------------------------------------------------------

def oracle_halfspaces_of(theta):
    hs = theta.halfspaces()
    assert hs is not None
    return hs


def oracle_active_rows(H, d, z, tol):
    return [i for i in range(H.shape[0]) if H[i] @ z >= d[i] - tol]


def oracle_signed_cone_distance(cols, v, signs):
    from scipy.optimize import nnls

    if cols.size == 0:
        return float(np.linalg.norm(v))
    flipped = cols * np.asarray(signs, dtype=float)[np.newaxis, :]
    _, res = nnls(flipped, v)
    return float(res)


def oracle_constraint_rows(field, theta, y, u):
    z = field.psi(y, u)
    J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        R = Dh @ J
        e = Dh @ J @ y - h
        return R, e, lambda mu: Dh.T @ mu
    H, d = oracle_halfspaces_of(theta)
    R = H @ J
    e = H @ (J @ y - z) + d
    return R, e, lambda mu: H.T @ mu


def oracle_feasibility(theta, Z):
    hs = theta.halfspaces()
    if hs is not None:
        H, d = hs
        if H.shape[0] == 0:
            return np.zeros(len(Z))
        slack = np.matmul(H, Z[:, :, np.newaxis])[:, :, 0] - d
    else:
        slack = np.array([np.atleast_1d(np.asarray(theta.h(z), dtype=float))
                          for z in Z]).reshape(len(Z), theta.l)
    return np.maximum(0.0, slack.max(axis=1))


def oracle_active_sets(theta, Z, tol=1e-7):
    if isinstance(theta, _IntervalTheta):
        lo, hi = theta.bounds()
        mask = (((hi < np.inf) & (Z >= hi - tol))
                | ((lo > -np.inf) & (Z <= lo + tol)))
    elif isinstance(theta, SmoothInequality):
        mask = np.array([np.atleast_1d(np.asarray(theta.h(z), dtype=float))
                         for z in Z]).reshape(len(Z), theta.l) >= -tol
    else:
        H, d = oracle_halfspaces_of(theta)
        mask = np.matmul(H, Z[:, :, np.newaxis])[:, :, 0] >= d - tol
    return [tuple(i for i, active in enumerate(row) if active)
            for row in mask.tolist()]


def oracle_interior_margin(theta, z):
    if isinstance(theta, SmoothInequality):
        return -np.array([np.max(theta.h(zj)) for zj in z.reshape(-1, theta.s)]
                         ).reshape(z.shape[:-1])
    H, d = oracle_halfspaces_of(theta)
    return np.min(d - (H @ z[..., np.newaxis])[..., 0], axis=-1, initial=math.inf)


def oracle_cone_generators(theta, z, JT, tol=1e-7, active=None):
    """``active`` overrides the rows the polyhedral branch finds active."""
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        Dh = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        rows = [Dh[i] for i in range(theta.l) if h[i] >= -tol]
    else:
        H, d = oracle_halfspaces_of(theta)
        if active is None:
            active = oracle_active_rows(H, d, z, tol)
        rows = [H[i] for i in active]
    if not rows:
        return np.zeros((JT.shape[0], 0))
    return np.column_stack([JT @ a for a in rows])


def oracle_normal_cone_violation(theta, z, eta, tol=TOL_FEAS, active=None):
    if isinstance(theta, SmoothInequality):
        val = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        J = np.atleast_2d(np.asarray(theta.jac(z), dtype=float))
        active = [i for i in range(theta.l) if val[i] >= -tol]
        return oracle_signed_cone_distance(
            J[active].T if active else np.zeros((theta.s, 0)), eta, [1] * len(active))
    H, d = oracle_halfspaces_of(theta)
    if active is None:
        active = oracle_active_rows(H, d, z, tol)
    return oracle_signed_cone_distance(
        H[active].T if active else np.zeros((theta.s, 0)), eta, [1] * len(active))


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

#: Offsets of a point from a constraint's bound: on it, at and near the
#: activity tolerances, and well off it on either side.
OFFSETS = (0.0, 1e-7, -1e-7, 1e-9, -1e-9, 1e-8, -1e-8, 0.3, -0.3)


def _spd(rng, s):
    B = rng.normal(size=(s, s))
    return B @ B.T + np.eye(s)


def image_theta(rng, duplicate=False):
    """A linear image A Z with non-diagonal SPD A; optionally one row of G
    repeated, so two active rows are dependent."""
    s = int(rng.integers(2, 4))
    G = rng.normal(size=(int(rng.integers(s + 1, s + 4)), s))
    g = rng.uniform(0.5, 2.0, size=len(G))
    if duplicate:
        G, g = np.vstack([G, G[:1]]), np.append(g, g[0])
    return LinearImagePolyhedron(A=tuple(map(tuple, _spd(rng, s))),
                                 G=tuple(map(tuple, G)), g=tuple(g))


def whole_space(rng):
    s = int(rng.integers(1, 3))
    return Box(lower=(-math.inf,) * s, upper=(math.inf,) * s)


def cut_disk():
    """The unit disk cut by the halfplane z_1 <= 0.6."""
    return SmoothInequality(
        s=2, l=2, h=lambda z: np.array([z @ z - 1.0, z[0] - 0.6]),
        jac=lambda z: np.array([2.0 * z, [1.0, 0.0]]))


def polyhedral_points(rng, theta, count):
    """Points whose row i sits at d_i + offset for a random row and offset,
    plus free points."""
    H, d = theta.halfspaces()
    pts = []
    for _ in range(count):
        z = rng.normal(size=theta.s)
        if len(H) and rng.random() < 0.85:
            i = int(rng.integers(len(H)))
            a = H[i]
            z = z + (d[i] + rng.choice(OFFSETS) - a @ z) / (a @ a) * a
        pts.append(z)
    return np.array(pts)


def disk_points(rng, count):
    pts = []
    for _ in range(count):
        kind = int(rng.integers(4))
        if kind == 0:  # on the circle, inside the halfplane
            t = rng.uniform(0.93, 2 * np.pi - 0.93)
            z = (1.0 + rng.choice(OFFSETS) / 2.0) * np.array([np.cos(t), np.sin(t)])
        elif kind == 1:  # on the line z_1 = 0.6
            z = np.array([0.6 + rng.choice(OFFSETS), rng.uniform(-0.8, 0.8)])
        elif kind == 2:  # the corners, where both rows are active
            z = np.array([0.6, rng.choice([0.8, -0.8])]) + rng.choice(OFFSETS)
        else:
            z = rng.normal(scale=0.7, size=2)
        pts.append(z)
    return np.array(pts)


def cases(seed=20261019):
    """(name, theta, points) for every variant the row form must cover."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(12):
        theta = image_theta(rng, duplicate=r % 2 == 1)
        out.append(("duplicate" if r % 2 else "image", theta,
                    polyhedral_points(rng, theta, 40)))
    for _ in range(3):
        theta = whole_space(rng)
        out.append(("whole_space", theta, rng.normal(size=(20, theta.s))))
    out.append(("cut_disk", cut_disk(), disk_points(rng, 200)))
    return out, rng


def _field(s, rng):
    """A nonlinear field psi(y, u) = M y + 0.1 y^2 + u on R^s."""
    M = rng.normal(size=(s, s)) + 2.0 * np.eye(s)
    return FieldMap.nonlinear(
        s, s, s,
        psi=lambda y, u: M @ y + 0.1 * y * y + u,
        dpsi_dx=lambda y, u: M + np.diag(0.2 * y),
        dpsi_du=lambda y, u: np.eye(s))


CASES, _ = cases()


def tie_rows(theta, z, tol):
    """None where the old per-row and stacked activity tests agree at z;
    else the stacked test's active rows, after checking that every row the
    two tests split on sits within rounding of its edge d_i - tol."""
    if isinstance(theta, (SmoothInequality, _IntervalTheta)):
        return None  # one evaluation per point, or exact unit rows
    H, d = theta.halfspaces()
    dot = oracle_active_rows(H, d, z, tol)
    [stacked] = oracle_active_sets(theta, z[np.newaxis], tol)
    if dot == list(stacked):
        return None
    for i in set(dot) ^ set(stacked):
        edge_gap = abs(H[i] @ z - (d[i] - tol))
        assert edge_gap <= 4e-15 * (np.abs(H[i]) @ np.abs(z) + abs(d[i]))
    return list(stacked)


@pytest.mark.parametrize("name,theta,points", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_row_readers_match_the_per_variant_branches(name, theta, points):
    rng = np.random.default_rng(len(points) + theta.s)
    assert np.array_equal(_feasibility(theta, points), oracle_feasibility(theta, points))
    assert np.array_equal(_interior_margin(theta, points),
                          oracle_interior_margin(theta, points))
    for tol in (1e-7, ACT_TOL, TOL_FEAS):
        assert _active_sets(theta, points, tol) == oracle_active_sets(theta, points, tol)
    JT = rng.normal(size=(int(rng.integers(1, 4)), theta.s))
    for z in points:
        assert np.array_equal(_interior_margin(theta, z), oracle_interior_margin(theta, z))
        for tol in (1e-7, ACT_TOL):
            assert np.array_equal(
                _cone_generators(theta, z, JT, tol=tol),
                oracle_cone_generators(theta, z, JT, tol, tie_rows(theta, z, tol)))
        if isinstance(theta, _IntervalTheta):
            continue  # keeps its closed-form normal_cone_violation
        g, Dg, d = theta.constraint(z)
        rows = np.broadcast_to(Dg, g.shape + z.shape)
        coef = rng.choice([0.0, 0.0, 1.0], size=len(g)) * rng.uniform(0.1, 2.0, size=len(g))
        for eta in (np.zeros(theta.s), coef @ rows,
                    coef @ rows + rng.normal(scale=1e-3, size=theta.s),
                    rng.normal(size=theta.s)):
            for tol in (TOL_FEAS, ACT_TOL):
                got = theta.normal_cone_violation(z, eta, tol)
                want = oracle_normal_cone_violation(theta, z, eta, tol,
                                                    tie_rows(theta, z, tol))
                assert abs(got - want) <= 1e-13 * (1.0 + np.linalg.norm(eta))


@pytest.mark.parametrize("name,theta,points", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_linearized_rows_match_the_per_variant_branches(name, theta, points):
    rng = np.random.default_rng(3 * len(points) + theta.s)
    field = _field(theta.s, rng)
    for z in points[:20]:
        y = rng.normal(scale=0.5, size=theta.s)
        u = z - field.psi(y, np.zeros(theta.s))  # psi(y, u) lands near z
        R, rhs, lift = _constraint_rows(field, theta, y, u)
        want_R, want_rhs, want_lift = oracle_constraint_rows(field, theta, y, u)
        assert np.array_equal(R, want_R)
        mu = rng.uniform(size=len(rhs))
        assert np.array_equal(lift(mu), want_lift(mu))
        if isinstance(theta, SmoothInequality):
            assert np.array_equal(rhs, want_rhs)
        else:
            # R y - g + d against H (J y - z) + d: the same sum, rounded in
            # another order.
            g, Dg, d = theta.constraint(field.psi(y, u))
            scale = np.abs(R) @ np.abs(y) + np.abs(g) + np.abs(d)
            assert np.all(np.abs(rhs - want_rhs) <= 1e-14 * scale)


@pytest.mark.parametrize("name,theta,points", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_a_stack_of_points_gives_each_point_s_rows(name, theta, points):
    g, Dg, d = theta.constraint(points)
    assert g.shape == (len(points), len(d))
    Dg = np.broadcast_to(Dg, g.shape + (theta.s,))
    for j, z in enumerate(points):
        g_j, Dg_j, d_j = theta.constraint(z)
        assert g_j.shape == d.shape
        assert np.array_equal(g[j], g_j) and np.array_equal(Dg[j], Dg_j)
        assert np.array_equal(d_j, d)
    # a stack of stacks keeps its leading axes
    g2, _, _ = theta.constraint(points.reshape(2, -1, theta.s))
    assert np.array_equal(g2.reshape(g.shape), g)


def test_the_cases_reach_every_activity_pattern():
    """The seeded points sit on, near and off the bounds: every case has
    active and inactive rows, and the polyhedra meet rows at exactly the
    activity tolerance's edge within rounding."""
    for name, theta, points in CASES:
        g, _, d = theta.constraint(points)
        if name == "whole_space":
            assert g.shape == (len(points), 0)
            continue
        active = g >= d - 1e-7
        assert active.any() and (~active).any(), name
        if name == "cut_disk":
            assert (active.all(axis=1)).any()  # the corners
        near = np.abs(g - d + 1e-7) < 1e-12
        assert near.any(), name
