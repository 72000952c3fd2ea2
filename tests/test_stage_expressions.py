"""Stage expressions against the per-cell loops they replaced.

Each oracle below is a test-local copy of the loop as it was: the per-point
moving-set cone distance (membership, the active rows' columns J^T a and one
NNLS), the per-cell inclusion residual built on it, the exact segment
quadrature of the anchor term, the midpoint loop that prolongs multipliers
to a finer mesh and the node loop of the localization tube.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from sweepctl.dynamics import Mesh, Path, SweepingSystem, inclusion_residual, simulate
from sweepctl.geometry import (
    TOL_FEAS,
    Box,
    ConfigurationError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    SmoothInequality,
    cone_distance_nodes,
    field_at_nodes,
)
from sweepctl.ocp import (
    DiscreteDecision,
    _prolong,
    cost_eval,
    cost_grad,
    localization_violation,
    solve_shooting,
)
from sweepctl.problems import INSTANCE_IDS, instance, solution_on_mesh


# ---------------------------------------------------------------------------
# Oracles: the per-cell loops as they were
# ---------------------------------------------------------------------------


def oracle_cone_distance(theta, z, J, v, tol=TOL_FEAS):
    """Distance from v to J^T N_Theta(z), one point at a time: +inf outside
    Theta, else one NNLS over the columns J^T a of the rows active within
    1e-7."""
    from scipy.optimize import nnls

    if not theta.contains(z, tol=max(tol, 1e-7)):
        return math.inf
    g, Dg, d = theta.constraint(z)
    rows = Dg[g >= d - 1e-7]
    if not len(rows):
        return float(np.linalg.norm(v))
    return float(nnls(np.column_stack([J.T @ a for a in rows]), v)[1])


def oracle_inclusion_residual(system, state, control, convention):
    mesh = state.mesh
    k, h = mesh.k, mesh.h
    at = 1 if convention == "implicit" else 0
    out = np.zeros(k)
    for j in range(k):
        x_j = state.values[j]
        v = -(state.values[j + 1] - x_j) / h + np.atleast_1d(
            np.asarray(system.f(float(mesh.nodes[j]), x_j), dtype=float))
        tab = field_at_nodes(system.field, state.values[j + at][None],
                             control.values[j + at][None])
        out[j] = oracle_cone_distance(system.theta, tab.psi[0], tab.Jx[0], v)
    return out


def oracle_segment_sq_integral(t0, t1, v, ref):
    """Exact integral of ||v - ref'(t)||^2 over [t0, t1] for PL ``ref``."""
    nodes = ref.mesh.nodes
    cuts = nodes[(nodes > t0 + 1e-15) & (nodes < t1 - 1e-15)]
    ts = np.concatenate([[t0], cuts, [t1]])
    slopes = ref.diff_quotients()
    total = 0.0
    for a, b in zip(ts[:-1], ts[1:]):
        cell = min(int(0.5 * (a + b) / ref.mesh.h), ref.mesh.k - 1)
        d = v - slopes[cell]
        total += (b - a) * float(d @ d)
    return total


def oracle_anchor_cost(problem, z):
    xref, uref = problem.anchor
    mesh = z.mesh
    h = mesh.h
    vx = np.diff(z.x, axis=0) / h
    total = 0.0
    if problem.mode == "W12xW12":
        vu = np.diff(z.u, axis=0) / h
        for j in range(mesh.k):
            t0, t1 = mesh.nodes[j], mesh.nodes[j + 1]
            total += oracle_segment_sq_integral(t0, t1, vx[j], xref)
            total += oracle_segment_sq_integral(t0, t1, vu[j], uref)
        return problem.rho * h * total
    for j in range(mesh.k + 1):
        d = z.u[j] - uref.at(mesh.nodes[j])
        total += float(d @ d)
    for j in range(mesh.k):
        total += oracle_segment_sq_integral(mesh.nodes[j], mesh.nodes[j + 1], vx[j], xref)
    return problem.rho * total


def oracle_prolong_eta(z, mesh):
    eta = np.zeros((mesh.k, z.eta.shape[1]))
    for j in range(mesh.k):
        tm = 0.5 * (mesh.nodes[j] + mesh.nodes[j + 1])
        cj = min(int(tm / z.mesh.h), z.mesh.k - 1)
        eta[j] = z.eta[cj]
    return eta


def oracle_localization(problem, z):
    xref, uref = problem.anchor
    worst = 0.0
    for j, t in enumerate(z.mesh.nodes):
        d = np.concatenate([z.x[j] - xref.at(t), z.u[j] - uref.at(t)])
        worst = max(worst, float(np.linalg.norm(d)) - problem.epsilon / 2.0)
    return max(0.0, worst)


# ---------------------------------------------------------------------------
# The stacked moving-set cone distance
# ---------------------------------------------------------------------------

#: Offsets of a point from a constraint's bound: on it, within and beyond
#: the 1e-7 activity and membership tolerances, and well off either side
#: (a positive offset past 1e-7 leaves Theta).
OFFSETS = (0.0, 0.0, 1e-9, -1e-9, -1e-8, -1e-6, -0.3, 1e-6, 0.3)


def _spd(rng, s):
    B = rng.normal(size=(s, s))
    return B @ B.T + np.eye(s)


def _box_points(rng, theta, count):
    """Each component on a bound, near one, inside or outside."""
    lo, hi = theta.bounds()
    Z = rng.uniform(-1.0, 1.0, size=(count, theta.s))
    for z in Z:
        for i in range(theta.s):
            ends = [e for e in (lo[i], hi[i]) if np.isfinite(e)]
            if ends and rng.random() < 0.7:
                end = ends[int(rng.integers(len(ends)))]
                inward = 1.0 if end == lo[i] else -1.0
                z[i] = end - inward * rng.choice(OFFSETS)
            elif np.isfinite(lo[i]) and np.isfinite(hi[i]):
                z[i] = rng.uniform(lo[i], hi[i])
            elif np.isfinite(hi[i]):
                z[i] = hi[i] - abs(z[i])
            elif np.isfinite(lo[i]):
                z[i] = lo[i] + abs(z[i])
    return Z


def _polyhedral_points(rng, theta, count):
    """Points whose row i sits at d_i + offset for a random row and offset
    (all other rows of a duplicated row move with it), plus free points."""
    H, d = theta.halfspaces()
    pts = []
    for _ in range(count):
        z = rng.normal(scale=0.3, size=theta.s)
        if rng.random() < 0.85:
            i = int(rng.integers(len(H)))
            a = H[i]
            z = z + (d[i] + rng.choice(OFFSETS) - a @ z) / (a @ a) * a
        pts.append(z)
    return np.array(pts)


def _disk_points(rng, count):
    pts = []
    for _ in range(count):
        kind = int(rng.integers(4))
        if kind == 0:  # on the circle, inside the halfplane
            t = rng.uniform(0.93, 2 * np.pi - 0.93)
            z = (1.0 + rng.choice(OFFSETS) / 2.0) * np.array([np.cos(t), np.sin(t)])
        elif kind == 1:  # on the line z_1 = 0.6
            z = np.array([0.6 + rng.choice(OFFSETS), rng.uniform(-0.7, 0.7)])
        elif kind == 2:  # the corners, where both rows are active
            z = np.array([0.6, rng.choice([0.8, -0.8])])
        else:
            z = rng.normal(scale=0.7, size=2)
        pts.append(z)
    return np.array(pts)


def cone_cases(seed=20261019):
    rng = np.random.default_rng(seed)
    out = []
    for s in (1, 3):
        theta = NonpositiveOrthant(s)
        out.append(("orthant", theta, _box_points(rng, theta, 60)))
    # one degenerate interval [0.5, 0.5] and one half-line
    theta = Box(lower=(-1.0, 0.5, -math.inf), upper=(1.0, 0.5, 0.0))
    out.append(("box", theta, _box_points(rng, theta, 80)))
    for duplicate in (False, True):
        s = 2
        G = rng.normal(size=(4, s))
        g = rng.uniform(0.5, 2.0, size=len(G))
        if duplicate:  # one row of G twice: two dependent active rows
            G, g = np.vstack([G, G[:1]]), np.append(g, g[0])
        theta = LinearImagePolyhedron(A=tuple(map(tuple, _spd(rng, s))),
                                      G=tuple(map(tuple, G)), g=tuple(g))
        out.append(("duplicate" if duplicate else "image", theta,
                    _polyhedral_points(rng, theta, 80)))
    disk = SmoothInequality(
        s=2, l=2, h=lambda z: np.array([z @ z - 1.0, z[0] - 0.6]),
        jac=lambda z: np.array([2.0 * z, [1.0, 0.0]]))
    out.append(("cut_disk", disk, _disk_points(rng, 120)))
    return out


CONE_CASES = cone_cases()


def _cone_vectors(rng, theta, Z, J):
    """Per node: zero, a member of J^T N_Theta(z) with some active rows at
    coefficient 0 (weakly active), a member plus noise, or a random vector."""
    g, Dg, d = theta.constraint(Z)
    Dg = np.broadcast_to(Dg, g.shape + (theta.s,))
    V = np.zeros((len(Z), J.shape[2]))
    for j in range(len(Z)):
        active = g[j] >= d - 1e-7
        coef = active * rng.choice([0.0, 1.0], size=len(d)) * rng.uniform(0.1, 2.0, len(d))
        member = J[j].T @ (Dg[j].T @ coef)
        kind = j % 4
        V[j] = (0.0 * member if kind == 0 else member if kind == 1
                else member + rng.normal(scale=1e-3, size=V.shape[1]) if kind == 2
                else rng.normal(size=V.shape[1]))
    return V


@pytest.mark.parametrize("name,theta,points", CONE_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CONE_CASES)])
def test_stacked_cone_distance_matches_the_per_point_nnls(name, theta, points):
    rng = np.random.default_rng(len(points) + 7 * theta.s)
    for n in (1, 2, 3):
        J = rng.normal(size=(len(points), theta.s, n))
        V = _cone_vectors(rng, theta, points, J)
        got = cone_distance_nodes(theta, points, J, V)
        want = np.array([oracle_cone_distance(theta, z, Jj, v)
                         for z, Jj, v in zip(points, J, V)])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        scale = 1.0 + np.linalg.norm(V, axis=1)[finite]
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-13 * scale)
        assert np.all(got[finite] >= 0.0)


def test_the_cone_cases_cover_the_degenerate_nodes():
    """Every kind of node the stacked form branches on occurs above."""
    kinds = set()
    for _, theta, points in CONE_CASES:
        inside = theta.contains_stack(points, 1e-7)
        g, _, d = theta.constraint(points)
        count = np.sum(g >= d - 1e-7, axis=1)
        kinds |= {"outside"} if np.any(~inside) else set()
        kinds |= {f"active={min(int(c), 2)}" for c in count[inside]}
    assert kinds == {"outside", "active=0", "active=1", "active=2"}


@pytest.mark.parametrize("iid", INSTANCE_IDS)
@pytest.mark.parametrize("convention", ["implicit", "explicit"])
def test_inclusion_residual_matches_the_per_cell_loop(iid, convention):
    """On simulated pairs (residual near 0) and on perturbed states (some
    steps off the cone, some outside the moving set)."""
    problem = instance(iid).problem
    system = problem.system
    rng = np.random.default_rng(5)
    for k in (8, 40):
        mesh = Mesh(k=k, T=system.T)
        # the reference control where there is one, else a ramp from u0
        control = (solution_on_mesh(iid, k)[1] if iid != "nonconvex22" else
                   Path(mesh=mesh, values=problem.u0 + 0.5 * mesh.nodes[:, None]))
        state, _ = simulate(system, control)
        noisy = Path(mesh=state.mesh,
                     values=state.values + rng.normal(scale=0.05, size=state.values.shape))
        for pair in (state, noisy):
            got = inclusion_residual(system, pair, control, convention)
            want = oracle_inclusion_residual(system, pair, control, convention)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * (1.0 + want[finite]))


def test_inclusion_residual_of_a_bare_drift_and_a_smooth_theta():
    """A callback drift and the unit disk, where the cone distance is an NNLS
    over the disk's one row or nothing."""
    disk = SmoothInequality(s=2, l=1, h=lambda z: np.array([z @ z - 1.0]),
                            jac=lambda z: np.array([2.0 * z]))
    field = FieldMap.affine_fixed(np.eye(2), np.zeros((2, 1)), np.zeros(2))
    system = SweepingSystem(f=lambda t, x: np.array([1.0 + t, 0.5]), field=field,
                            theta=disk, x0=np.zeros(2), T=1.0)
    mesh = Mesh(k=30, T=1.0)
    control = Path(mesh=mesh, values=np.zeros((31, 1)))
    state, _ = simulate(system, control)
    rng = np.random.default_rng(3)
    noisy = Path(mesh=mesh, values=state.values + rng.normal(scale=0.05, size=(31, 2)))
    for pair in (state, noisy):
        for convention in ("implicit", "explicit"):
            got = inclusion_residual(system, pair, control, convention)
            want = oracle_inclusion_residual(system, pair, control, convention)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-14 * (1.0 + want[finite]))
    assert np.max(inclusion_residual(system, state, control)) <= 1e-8


@pytest.mark.parametrize("theta", [
    SmoothInequality(s=1, l=1, h=lambda z: np.array([z[0] ** 2 - 1.0]),
                     jac=lambda z: np.array([[2.0 * z[0]]])),
    LinearImagePolyhedron(A=((2.0, 0.5), (0.5, 1.0)),
                          G=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), g=(0.5, 0.5, 0.8)),
], ids=["smooth", "image"])
def test_shooting_cone_report_of_a_theta_without_bounds(theta):
    """Without interval form the report is the worst normal-cone violation
    of the simulator's multipliers at (x_{j+1}, u_{j+1})."""
    s = theta.s
    field = FieldMap.affine_fixed(np.eye(s), np.ones((s, 1)), np.zeros(s))
    system = SweepingSystem(f=lambda t, x: np.full(s, 2.0), field=field,
                            theta=theta, x0=np.zeros(s), T=1.0)
    problem = dataclasses.replace(instance("remark45").problem, system=system,
                                  u0=np.array([-0.5]))
    assert theta.bounds() is None
    k = 6
    mesh = Mesh(k=k, T=1.0)
    z, report = solve_shooting(problem, k, Path(mesh=mesh, values=np.full((k + 1, 1), -0.5)),
                               max_iter=3)
    psi = field_at_nodes(field, z.x[1:], z.u[1:]).psi
    want = max(theta.normal_cone_violation(p, e) for p, e in zip(psi, z.eta))
    assert report.comp_residual == pytest.approx(want, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# The anchor term
# ---------------------------------------------------------------------------


#: (instance, rho): W12xC, and W12xW12 with n = m = 1 and n = m = 2.
ANCHORED = [("remark45", 0.7), ("elastoplastic61", 0.4), ("counterexample53", 0.3)]


def _anchored(iid, rho, k_ref=8):
    problem = instance(iid).problem
    return dataclasses.replace(problem, rho=rho, anchor=solution_on_mesh(iid, k_ref))


def _random_decision(rng, problem, k):
    mesh = Mesh(k=k, T=problem.system.T)
    xa, ua = problem.anchor
    x = xa.at(mesh.nodes) + rng.normal(scale=0.3, size=(k + 1, xa.dim))
    u = ua.at(mesh.nodes) + rng.normal(scale=0.3, size=(k + 1, ua.dim))
    return DiscreteDecision(mesh=mesh, x=x, u=u,
                            eta=np.zeros((k, problem.system.field.s)))


@pytest.mark.parametrize("iid,rho", ANCHORED)
@pytest.mark.parametrize("k", [6, 8, 12, 16, 37])
def test_anchored_cost_matches_the_segment_quadrature(iid, rho, k):
    """k_ref = 8 against coarser (6), equal (8), nested (16) and
    non-nested (12, 37) decision meshes."""
    anchored = _anchored(iid, rho)
    plain = instance(iid).problem
    rng = np.random.default_rng(k)
    for _ in range(3):
        z = _random_decision(rng, anchored, k)
        want = cost_eval(plain, z) + oracle_anchor_cost(anchored, z)
        assert abs(cost_eval(anchored, z) - want) <= 1e-14 * abs(want)
    # on the anchor's own nodes the term is the plain cost again
    xa, ua = anchored.anchor
    on = DiscreteDecision(mesh=xa.mesh, x=xa.values, u=ua.values,
                          eta=np.zeros((xa.mesh.k, plain.system.field.s)))
    assert abs(cost_eval(anchored, on) - cost_eval(plain, on)) <= 1e-14


@pytest.mark.parametrize("iid,rho", ANCHORED)
@pytest.mark.parametrize("k", [6, 12])
def test_anchored_cost_grad_matches_central_differences(iid, rho, k):
    anchored = _anchored(iid, rho)
    z = _random_decision(np.random.default_rng(k + 1), anchored, k)
    dX, dU = cost_grad(anchored, z)
    step = 1e-6
    for name, arr, grad in (("x", z.x, dX), ("u", z.u, dU)):
        fd = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            values = []
            for sign in (1.0, -1.0):
                moved = arr.copy()
                moved[idx] += sign * step
                values.append(cost_eval(anchored, dataclasses.replace(z, **{name: moved})))
            fd[idx] = (values[0] - values[1]) / (2 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-7)


def test_an_anchor_off_the_horizon_or_dimensions_is_rejected():
    """An anchor on [0, 0.5] of a [0, 1] problem would leave its value
    extrapolating the last slope while its gradient clips to the end."""
    problem = instance("elastoplastic61").problem
    xa, ua = solution_on_mesh("elastoplastic61", 8)
    short = Mesh(k=8, T=0.5)
    for anchor in ((Path(mesh=short, values=xa.values), ua),
                   (xa, Path(mesh=short, values=ua.values)),
                   (Path(mesh=xa.mesh, values=np.hstack([xa.values, xa.values])), ua),
                   (xa, Path(mesh=ua.mesh, values=np.hstack([ua.values, ua.values])))):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(problem, rho=0.5, anchor=anchor)
        with pytest.raises(ConfigurationError):  # the tube needs one too
            dataclasses.replace(problem, anchor=anchor, epsilon=0.5)
    dataclasses.replace(problem, rho=0.5, anchor=(xa, ua))


# ---------------------------------------------------------------------------
# Prolongation and the localization tube
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k_coarse,k_fine", [(3, 4), (7, 14), (13, 25), (25, 50),
                                             (25, 51), (6, 37)])
def test_prolonged_multipliers_match_the_midpoint_loop(k_coarse, k_fine):
    problem = instance("counterexample53").problem
    rng = np.random.default_rng(k_coarse * k_fine)
    mesh = Mesh(k=k_coarse, T=problem.system.T)
    z = DiscreteDecision(mesh=mesh, x=rng.normal(size=(k_coarse + 1, 2)),
                         u=rng.normal(size=(k_coarse + 1, 2)),
                         eta=rng.normal(size=(k_coarse, 2)))
    fine = _prolong(problem, z, k_fine)
    assert np.array_equal(fine.eta, oracle_prolong_eta(z, fine.mesh))


@pytest.mark.parametrize("iid,rho", ANCHORED)
def test_localization_violation_matches_the_node_loop(iid, rho):
    anchored = _anchored(iid, rho)
    rng = np.random.default_rng(17)
    for k, epsilon in itertools.product((6, 8, 37), (0.1, 1.0, 10.0)):
        tube = dataclasses.replace(anchored, epsilon=epsilon)
        z = _random_decision(rng, tube, k)
        assert localization_violation(tube, z) == pytest.approx(
            oracle_localization(tube, z), rel=1e-15, abs=1e-15)
