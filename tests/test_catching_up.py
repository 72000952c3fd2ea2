"""The catching-up loop of ``simulate`` against the per-step path it replaced.

The oracle below is a test-local copy of the per-step catching-up code as it
stood before the loop kept only the drift and the projection: every step
projected through the full ``project_onto_moving_set`` (the stacked
least-distance program, and for a nonlinear field or a smooth Theta an SQP
closed by a re-solve at the converged point), then evaluated psi, the active
set, grad_x psi, the residual norm and the feasibility of that one step.

Both project with the production least-distance kernel
(``_project_onto_halfspaces``); ``oracle_halfspaces``, the kernel's NNLS
form, is the reference that the kernel itself is held to below.  On the
affine path (an affine-in-x field and a polyhedral Theta) the arithmetic is
unchanged, so states, multipliers, active sets and
feasibility must agree bit for bit; the residuals only change summation
order.  On the nonlinear path the states must agree bit for bit and the
multipliers, which now come from the last SQP linearization, to the
distance of that linearization from the returned point (``ETA_TOL``).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from sweepctl.dynamics import (
    AffineDrift,
    Mesh,
    Path,
    SimulationError,
    SweepingSystem,
    simulate,
    step_catching_up,
)
from sweepctl.geometry import (
    TOL_FEAS,
    Box,
    FieldMap,
    GeometryError,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    NumericalFailureError,
    ProjectionFailureError,
    SmoothInequality,
    _cone_distance_rows,
    _linearization,
    _project_onto_halfspaces,
    project_onto_moving_set,
    psi_eval,
)
from sweepctl.problems import instance

# ---------------------------------------------------------------------------
# The oracle: the per-step path
# ---------------------------------------------------------------------------


def oracle_halfspaces(G, g, x):
    from scipy.optimize import nnls

    r = G.shape[0]
    if r == 0 or np.all(G @ x <= g + TOL_FEAS):
        return x.copy(), np.zeros(r)
    E = -np.vstack([G.T, g - G @ x])
    e = np.zeros(E.shape[0])
    e[-1] = 1.0
    w, _ = nnls(E, e)
    res = E @ w - e
    if not res[-1] < 0.0:
        raise ProjectionFailureError("least-distance program is infeasible: "
                                     "the moving set is empty")
    mu = w / -res[-1]
    y = x - G.T @ mu
    if np.any(G @ y > g + 1e-9 * (1.0 + np.abs(g))):
        raise ProjectionFailureError("projection finished infeasible; set may be empty")
    return y, mu


def oracle_active(theta, z, tol=1e-7):
    if isinstance(theta, (NonpositiveOrthant, Box)):
        lo, hi = theta.bounds()
        return tuple(i for i, (zi, lo_i, hi_i)
                     in enumerate(zip(z.tolist(), lo.tolist(), hi.tolist()))
                     if (hi_i < np.inf and zi >= hi_i - tol)
                     or (lo_i > -np.inf and zi <= lo_i + tol))
    if isinstance(theta, SmoothInequality):
        h = np.atleast_1d(np.asarray(theta.h(z), dtype=float))
        return tuple(i for i in range(theta.l) if h[i] >= -tol)
    H, d = theta.halfspaces()
    return tuple(i for i in range(H.shape[0]) if H[i] @ z >= d[i] - tol)


def oracle_sqp(field, theta, u, x, warm, tol=1e-10, max_iter=100):
    y = np.asarray(warm, dtype=float).copy()
    for _ in range(max_iter):
        rows, rhs, _ = _linearization(field, theta, u)(y)
        y_new, _ = _project_onto_halfspaces(rows, rhs, x)
        step = np.linalg.norm(y_new - y)
        y = y_new
        if step <= tol:
            break
    else:
        raise NumericalFailureError("projection SQP did not converge")
    rows, rhs, lift = _linearization(field, theta, u)(y)
    _, mu = _project_onto_halfspaces(rows, rhs, x)
    return y, lift(mu)


def oracle_project(field, theta, u, x, warm):
    hs = theta.halfspaces()
    if field.x_affine is not None and hs is not None:
        A, c = field.x_affine(u)
        H, d = hs
        y, mu = _project_onto_halfspaces(H @ A, d - H @ c, x)
        eta = H.T @ mu
    else:
        try:
            y, eta = oracle_sqp(field, theta, u, x, warm)
        except (NumericalFailureError, ProjectionFailureError):
            raise ProjectionFailureError("no projection candidate converged")
    z = psi_eval(field, y, u)
    J = np.atleast_2d(np.asarray(field.dpsi_dx(y, u), dtype=float))
    residual = float(np.linalg.norm((x - y) - J.T @ eta))
    return y, eta, oracle_active(theta, z), residual, z


def oracle_feasibility(theta, z):
    hs = theta.halfspaces()
    if hs is not None:
        H, d = hs
        return float(max(0.0, np.max(H @ z - d)))
    return float(max(0.0, np.max(np.atleast_1d(theta.h(z)))))


def oracle_simulate(system, control):
    """States and (eta, residual, feasibility, active) per step."""
    mesh = control.mesh
    field = system.field
    z0 = psi_eval(field, system.x0, control.values[0])
    if not system.theta.contains(z0, tol=TOL_FEAS):
        raise SimulationError(0, f"initial state infeasible: psi(x0,u0)={z0}")
    xs = np.zeros((mesh.k + 1, system.field.n))
    xs[0] = system.x0
    steps = []
    for j in range(mesh.k):
        x_j, u_next = xs[j], control.values[j + 1]
        drifted = x_j + mesh.h * np.atleast_1d(np.asarray(
            system.f(float(mesh.nodes[j]), x_j), dtype=float))
        try:
            y, eta, active, residual, z = oracle_project(
                field, system.theta, u_next, drifted, x_j)
        except GeometryError as e:
            raise SimulationError(j, str(e)) from e
        xs[j + 1] = y
        steps.append((eta, residual, oracle_feasibility(system.theta, z), active))
    return xs, steps


# ---------------------------------------------------------------------------
# The kernel against its NNLS form
# ---------------------------------------------------------------------------


def least_distance_case(rng, kind):
    """Seeded rows G y <= g (n <= 4, up to 12 rows) around an interior
    point c, and a point x off the set, shaped by ``kind``."""
    n, r = int(rng.integers(1, 5)), int(rng.integers(2, 12))  # r + 1 rows if dependent
    G = rng.standard_normal((r, n))
    c = rng.standard_normal(n)
    g = G @ c + rng.uniform(0.05, 1.0, r)
    x = c + rng.uniform(0.5, 4.0) * rng.standard_normal(n)
    if kind == "duplicated":
        G[1], g[1] = G[0], g[0]
    elif kind == "dependent":  # row 2 is a positive combination of rows 0, 1
        G = np.vstack([G, 0.5 * G[0] + 1.5 * G[1]])
        g = np.append(g, 0.5 * g[0] + 1.5 * g[1])
    elif kind == "flat":  # rows 0 and 1 pin a flat side: lo == hi
        G[1], g[0], g[1] = -G[0], G[0] @ c, -(G[0] @ c)
    elif kind == "parallel":  # an ill-conditioned Gram matrix
        G[1] = G[0] + 1e-7 * rng.standard_normal(n)
        g[1] = g[0] + 1e-7 * rng.uniform()
    elif kind == "weak":  # x projects onto y with row 1 tight at mu_1 = 0
        y = c + rng.standard_normal(n)
        g[:2] = G[:2] @ y
        g[2:] = np.maximum(g[2:], G[2:] @ y + rng.uniform(0.05, 1.0, r - 2))
        x = y + rng.uniform(0.5, 2.0) * G[0]
    return G, g, x


LEAST_DISTANCE_KINDS = ("generic", "duplicated", "dependent", "flat", "parallel",
                        "weak")


def test_the_kernel_solves_the_nnls_least_distance_program(monkeypatch):
    from sweepctl import geometry

    nnls_calls = []
    nnls = geometry._nnls_projection

    def counted(*args):
        nnls_calls.append(1)
        return nnls(*args)

    monkeypatch.setattr(geometry, "_nnls_projection", counted)
    rng = np.random.default_rng(2025)
    paths = {kind: {"inside": 0, "closed form": 0, "nnls": 0}
             for kind in LEAST_DISTANCE_KINDS}
    for trial in range(3000):
        kind = LEAST_DISTANCE_KINDS[trial % len(LEAST_DISTANCE_KINDS)]
        G, g, x = least_distance_case(rng, kind)
        before = len(nnls_calls)
        y, mu = _project_onto_halfspaces(G, g, x)
        want_y, want_mu = oracle_halfspaces(G, g, x)
        if np.all(G @ x <= g + TOL_FEAS):
            path = "inside"
        else:
            path = "nnls" if len(nnls_calls) > before else "closed form"
        paths[kind][path] += 1
        assert np.linalg.norm(y - want_y) <= 1e-12 * (1.0 + np.linalg.norm(want_y)), kind
        # KKT: x - y = G^T mu with mu >= 0 on rows that hold with equality
        assert np.all(mu >= 0.0)
        scale = 1.0 + np.linalg.norm(x)
        assert np.linalg.norm(x - y - G.T @ mu) <= 1e-12 * scale
        assert np.all(G @ y - g <= 1e-9 * scale)
        assert np.all(mu * np.abs(G @ y - g) <= 1e-9 * scale)
        active = (mu > 0.0) | (want_mu > 0.0)
        if np.linalg.matrix_rank(G[active]) == active.sum():
            np.testing.assert_allclose(mu, want_mu, rtol=1e-8, atol=1e-12 * scale)
    # Every kind reaches both the closed form and its NNLS fallback (a
    # failed guess of the active set, or a singular Gram matrix).
    for kind, counts in paths.items():
        assert counts["closed form"] >= 50 and counts["nnls"] >= 50, (kind, counts)


@pytest.mark.parametrize("one_row", [True, False])
def test_the_kernel_rejects_an_empty_set_and_a_non_finite_entry(one_row):
    # |y| <= -1 is empty; with one_row the point violates only its first row
    G, g = np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])
    x = np.array([3.0 if one_row else 0.0])
    for project in (_project_onto_halfspaces, oracle_halfspaces):
        with pytest.raises(ProjectionFailureError):
            project(G, g, x)
    # a point with one violated row or two, and a NaN or inf in x, G or g
    G, g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0, 3.0])
    x = np.array([2.0, 0.0 if one_row else 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        for where in ("x", "G", "g"):
            args = {"G": G.copy(), "g": g.copy(), "x": x.copy()}
            args[where].flat[-1] = bad
            with pytest.raises(NumericalFailureError), np.errstate(invalid="ignore"):
                _project_onto_halfspaces(args["G"], args["g"], args["x"])


CONE_KINDS = ("generic", "copy", "twice", "sum")


def degenerate_cone(rng, kind):
    """Seeded rows of a cone {y : G y <= 0} in R^n, n in {2, 3}, with n + 1
    to n + 3 rows, the last one generic or a copy of row 0, twice row 0 or
    row 0 + row 1; and a point t G^T c, c in {0, 1} U(0.1, 2) per row, with
    or without N(0, 0.01^2) noise."""
    n = int(rng.integers(2, 4))
    r = int(rng.integers(n + 1, n + 4))
    G = rng.standard_normal((r, n))
    if kind == "copy":
        G[-1] = G[0]
    elif kind == "twice":
        G[-1] = 2.0 * G[0]
    elif kind == "sum":
        G[-1] = G[0] + G[1]
    c = rng.integers(0, 2, r) * rng.uniform(0.1, 2.0, r)
    x = rng.uniform(-1.0, 2.0) * (G.T @ c)
    if rng.random() < 0.5:
        x += rng.normal(scale=0.01, size=n)
    return G, x


def oracle_cone_projection(G, x):
    """Brute force over active sets: the projection onto a polyhedral cone
    is the projection onto the null space of the rows tight at it, so it is
    the nearest feasible one among those of every row subset."""
    best, best_dist = None, np.inf
    scale = 1e-12 * (1.0 + np.linalg.norm(x))
    for size in range(min(G.shape) + 1):
        for rows in itertools.combinations(range(len(G)), size):
            GS = G[list(rows)]
            y = x - np.linalg.pinv(GS) @ (GS @ x) if size else x
            dist = np.linalg.norm(x - y)
            if dist < best_dist and np.all(G @ y <= scale):
                best, best_dist = y, dist
    return best


def test_the_kernel_projects_onto_degenerate_cones(monkeypatch):
    """A zero right-hand side is a cone, which always holds 0: the kernel
    must return its projection even with more violated rows than dimensions
    and with repeated rows, where the least-distance program can fail; and
    a cone distance is the length of that projection (Moreau)."""
    from sweepctl import geometry

    nnls_calls = []
    nnls = geometry._nnls_projection

    def counted(*args):
        nnls_calls.append(1)
        return nnls(*args)

    monkeypatch.setattr(geometry, "_nnls_projection", counted)
    rng = np.random.default_rng(20261020)
    paths = {"inside": 0, "closed form": 0, "nnls": 0}
    for trial in range(2000):
        G, x = degenerate_cone(rng, CONE_KINDS[trial % len(CONE_KINDS)])
        zero = np.zeros(len(G))
        before = len(nnls_calls)
        y, mu = _project_onto_halfspaces(G, zero, x)
        if np.all(G @ x <= TOL_FEAS):
            paths["inside"] += 1
        else:
            paths["nnls" if len(nnls_calls) > before else "closed form"] += 1
        scale = 1.0 + np.linalg.norm(x)
        assert np.linalg.norm(y - oracle_cone_projection(G, x)) <= 1e-10 * scale
        # KKT: x - y = G^T mu, mu >= 0, G y <= 0, mu_i (G y)_i = 0
        assert np.all(mu >= 0.0)
        assert np.linalg.norm(x - y - G.T @ mu) <= 1e-12 * scale
        assert np.all(G @ y <= 1e-9 * scale)
        assert np.all(mu * np.abs(G @ y) <= 1e-9 * scale)
        # Moreau: the distance from x to the cone of the active rows R_A is
        # the length of the projection y_A of x onto their polar cone, with
        # x - y_A = R_A^T mu_A in the cone and orthogonal to y_A.
        active = rng.random(len(G)) < 0.7
        [dist] = _cone_distance_rows(G[np.newaxis], active[np.newaxis], x[np.newaxis])
        y_A, mu_A = _project_onto_halfspaces(G[active], zero[active], x)
        assert abs(dist - np.linalg.norm(y_A)) <= 1e-13 * scale
        assert np.all(G[active] @ y_A <= 1e-9 * scale) and np.all(mu_A >= 0.0)
        assert np.linalg.norm(x - y_A - G[active].T @ mu_A) <= 1e-12 * scale
        assert abs(y_A @ (x - y_A)) <= 1e-12 * scale ** 2
    assert paths["closed form"] >= 50 and paths["nnls"] >= 50, paths


def test_the_kernel_never_returns_a_non_projection_on_a_translated_cone():
    """Rows through one point p (g = G p) are a translated cone, which the
    least-distance program solves; the kernel returns its projection or
    raises, and never returns a point that is not the projection."""
    rng = np.random.default_rng(20261021)
    solved = 0
    for trial in range(1000):
        G, x = degenerate_cone(rng, CONE_KINDS[trial % len(CONE_KINDS)])
        p = rng.standard_normal(G.shape[1])
        try:
            y, _ = _project_onto_halfspaces(G, G @ p, x + p)
        except GeometryError:
            continue
        want = p + oracle_cone_projection(G, x)
        assert np.linalg.norm(y - want) <= 1e-8 * (1.0 + np.linalg.norm(x + p))
        solved += 1
    assert solved >= 900


def test_the_kernel_projects_onto_every_translated_cone():
    """Where the least-distance program fails on rows through one point p,
    the kernel solves them as the cone moved to p: every draw projects."""
    rng = np.random.default_rng(20261021)
    for trial in range(1000):
        G, x = degenerate_cone(rng, CONE_KINDS[trial % len(CONE_KINDS)])
        p = rng.standard_normal(G.shape[1])
        y, mu = _project_onto_halfspaces(G, G @ p, x + p)
        want = p + oracle_cone_projection(G, x)
        assert np.linalg.norm(y - want) <= 1e-8 * (1.0 + np.linalg.norm(x + p)), trial
        assert np.all(mu >= 0.0)


# ---------------------------------------------------------------------------
# Seeded instances
# ---------------------------------------------------------------------------


def polyhedral_case(n, s, seed, k=60, duplicate=False):
    """Random moving polytope {x : U x <= b(t)} and a drift out of its first
    face; ``duplicate`` repeats row 0 as row 1 (two dependent active rows)."""
    rng = np.random.default_rng(seed)
    while True:
        U = rng.standard_normal((s, n))
        if duplicate:
            U[1] = U[0]
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        d = U[0] + U[1]
        if np.linalg.norm(d) > 1e-3:
            d /= np.linalg.norm(d)
            if U[0] @ d >= 0.5:
                break
    b0 = rng.uniform(0.5, 1.5, s)
    phase = rng.uniform(0.0, 2 * np.pi, s)
    if duplicate:
        b0[1], phase[1] = b0[0], phase[0]
    mesh = Mesh(k=k, T=2.0)
    t = mesh.nodes[:, None]
    b = b0 * (1.0 + 0.3 * np.sin(2 * np.pi * t / mesh.T + phase))
    control = np.hstack([np.tile(U.reshape(-1), (k + 1, 1)), b])
    system = SweepingSystem(f=AffineDrift(-0.5 * np.eye(n), 3.0 * d),
                            field=FieldMap.polyhedral(n, s),
                            theta=NonpositiveOrthant(s), x0=np.zeros(n), T=2.0)
    return system, Path(mesh=mesh, values=control)


def pinned_box_case():
    """psi = x + u in a Box whose first interval is a point (lo == hi): both
    rows of that component stay active, so the active rows are dependent."""
    field = FieldMap.affine_fixed(np.eye(2), np.eye(2), [0.0, 0.0])
    theta = Box(lower=(0.0, -np.inf), upper=(0.0, 0.0))
    mesh = Mesh(k=50, T=1.0)
    t = mesh.nodes
    u = np.column_stack([0.3 * np.sin(3 * t), 0.5 - 0.8 * t])
    system = SweepingSystem(f=AffineDrift(np.zeros((2, 2)), [1.0, 1.0]),
                            field=field, theta=theta, x0=[0.0, -0.5], T=1.0)
    return system, Path(mesh=mesh, values=u)


def weakly_active_case():
    """The drift pushes into the face x_0 <= b(t) and slides along
    x_1 <= 0, which stays active with a zero multiplier."""
    field = FieldMap.affine_fixed(np.eye(2), [[-1.0], [0.0]], [0.0, 0.0])
    mesh = Mesh(k=50, T=1.0)
    b = 0.2 + 0.1 * np.sin(4 * mesh.nodes)
    system = SweepingSystem(f=AffineDrift(np.zeros((2, 2)), [1.0, 0.0]),
                            field=field, theta=NonpositiveOrthant(2),
                            x0=[0.0, 0.0], T=1.0)
    return system, Path(mesh=mesh, values=b[:, None])


def state_map_case():
    system, control = polyhedral_case(2, 4, seed=7, k=50)
    mapped = SweepingSystem(f=system.f,
                            field=system.field.with_state_map([[1.5, 0.4], [-0.3, 0.8]]),
                            theta=system.theta, x0=system.x0, T=system.T)
    return mapped, control


def linear_image_case():
    """psi = x - u in A Z with a non-diagonal SPD A and a hexagon Z."""
    angles = np.arange(6) * np.pi / 3
    theta = LinearImagePolyhedron(A=((2.0, 0.5), (0.5, 1.0)),
                                  G=tuple(zip(np.cos(angles), np.sin(angles))),
                                  g=(1.0,) * 6)
    field = FieldMap.affine_fixed(np.eye(2), -np.eye(2), [0.0, 0.0])
    mesh = Mesh(k=60, T=2.0)
    t = mesh.nodes
    u = 0.4 * np.column_stack([np.cos(3 * t) - 1.0, np.sin(2 * t)])
    system = SweepingSystem(f=AffineDrift(-0.2 * np.eye(2), [2.0, 1.0]),
                            field=field, theta=theta, x0=[0.0, 0.0], T=2.0)
    return system, Path(mesh=mesh, values=u)


def smooth_theta_case():
    """psi = x - u in the unit disk: the SQP path with an affine field."""
    theta = SmoothInequality(s=2, l=1, h=lambda z: np.array([z @ z - 1.0]),
                             jac=lambda z: 2.0 * z[np.newaxis, :])
    field = FieldMap.affine_fixed(np.eye(2), -np.eye(2), [0.0, 0.0])
    mesh = Mesh(k=60, T=2.0)
    t = mesh.nodes
    u = 0.3 * np.column_stack([np.sin(2 * t), 1.0 - np.cos(t)])
    system = SweepingSystem(f=AffineDrift(np.zeros((2, 2)), [2.0, -1.0]),
                            field=field, theta=theta, x0=[0.0, 0.0], T=2.0)
    return system, Path(mesh=mesh, values=u)


def nonconvex22_case():
    system = instance("nonconvex22").problem.system
    mesh = Mesh(k=200, T=system.T)
    t = mesh.nodes
    u = -t - 0.08 * np.sin(2 * np.pi * t) ** 2
    return system, Path(mesh=mesh, values=u[:, None])


AFFINE_CASES = {
    **{f"polyhedral-n{n}-s{s}": (lambda n=n, s=s: polyhedral_case(n, s, seed=10 * n + s))
       for n in (2, 3) for s in (4, 8, 12)},
    "duplicated-rows": lambda: polyhedral_case(2, 6, seed=3, duplicate=True),
    "pinned-box": pinned_box_case,
    "weakly-active": weakly_active_case,
    "state-map": state_map_case,
    "linear-image": linear_image_case,
}
NONLINEAR_CASES = {"smooth-theta": smooth_theta_case, "nonconvex22": nonconvex22_case}
#: How far the multipliers may move.  They come from the linearization at
#: the SQP's last iterate but one, at most the SQP step tolerance 1e-10 from
#: the returned point: where the SQP converges quadratically (nonconvex22)
#: that step is far smaller; on the disk it converges linearly and the last
#: step can be close to 1e-10.
ETA_TOL = {"smooth-theta": 1e-10, "nonconvex22": 1e-12}


# ---------------------------------------------------------------------------
# The loop against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_loop_matches_the_per_step_path_bit_for_bit(case):
    system, control = AFFINE_CASES[case]()
    xs, steps = oracle_simulate(system, control)
    state, records = simulate(system, control)
    assert np.array_equal(state.values, xs)
    assert len(records) == len(steps)
    for rec, (eta, residual, feasibility, active) in zip(records, steps):
        assert np.array_equal(rec.eta, eta)
        assert rec.active_indices == active
        assert rec.feasibility == feasibility
        assert abs(rec.projection_residual - residual) <= 1e-15


def test_the_affine_cases_reach_what_they_are_built_for():
    # Each degenerate case must really produce its degeneracy.
    _, records = simulate(*AFFINE_CASES["duplicated-rows"]())
    assert any({0, 1} <= set(r.active_indices) for r in records)
    _, records = simulate(*AFFINE_CASES["pinned-box"]())
    assert all(0 in r.active_indices for r in records)
    _, records = simulate(*AFFINE_CASES["weakly-active"]())
    weak = [r for r in records if 1 in r.active_indices]
    assert weak and all(r.eta[1] == 0.0 for r in weak)
    assert any(r.eta[0] > 0.0 for r in weak)
    for case in ("state-map", "linear-image"):
        _, records = simulate(*AFFINE_CASES[case]())
        assert any(r.active_indices for r in records)


@pytest.mark.parametrize("case", sorted(NONLINEAR_CASES))
def test_nonlinear_loop_matches_the_per_step_path(case):
    system, control = NONLINEAR_CASES[case]()
    xs, steps = oracle_simulate(system, control)
    state, records = simulate(system, control)
    assert np.array_equal(state.values, xs)
    assert any(r.active_indices for r in records)
    for rec, (eta, residual, feasibility, active) in zip(records, steps):
        np.testing.assert_allclose(rec.eta, eta, rtol=0.0, atol=ETA_TOL[case])
        assert rec.active_indices == active
        assert rec.feasibility == feasibility
        assert rec.projection_residual <= 1e-12


def test_empty_moving_set_fails_at_the_same_step_with_the_same_message():
    # |x| <= -u is empty once u > 0.
    field = FieldMap.affine_fixed([[1.0], [-1.0]], [[1.0], [1.0]], [0.0, 0.0])
    system = SweepingSystem(f=AffineDrift(np.zeros((1, 1)), [0.5]), field=field,
                            theta=NonpositiveOrthant(2), x0=[0.0], T=1.0)
    control = Path(mesh=Mesh(k=6, T=1.0),
                   values=np.array([-1.0, -0.8, -0.4, -0.1, 0.3, 0.5, 1.0]))
    with pytest.raises(SimulationError) as expected:
        oracle_simulate(system, control)
    with pytest.raises(SimulationError) as got:
        simulate(system, control)
    assert got.value.step == expected.value.step == 3
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("case", ["polyhedral-n3-s8", "linear-image",
                                  "smooth-theta", "nonconvex22"])
def test_step_catching_up_is_one_step_of_simulate(case):
    system, control = {**AFFINE_CASES, **NONLINEAR_CASES}[case]()
    state, records = simulate(system, control)
    mesh = control.mesh
    for j, rec in enumerate(records):
        y, one = step_catching_up(system, state.values[j], control.values[j + 1],
                                  float(mesh.nodes[j]), mesh.h)
        assert np.array_equal(y, state.values[j + 1])
        assert np.array_equal(one.eta, rec.eta)
        assert one.active_indices == rec.active_indices
        assert one.feasibility == rec.feasibility
        assert one.projection_residual == rec.projection_residual


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_one_tie_rule_for_the_step_and_the_projection(side):
    """nonconvex22 at u = 0.5 is {x : x^2 >= 1/2}, and the drift
    f(t, x) = -x with h = 1 lands x_j = +-1 on 0, the centre of the gap,
    where both roots are nearest.  The step and the projection from the
    warm start x_j both take the root on the side of x_j, with one eta."""
    system = dataclasses.replace(instance("nonconvex22").problem.system,
                                 f=AffineDrift([[-1.0]], [0.0]))
    y, record = step_catching_up(system, np.array([side]), np.array([0.5]), 0.0, 1.0)
    y2, dec = project_onto_moving_set(system.field, system.theta, np.array([0.5]),
                                      np.zeros(1), warm_start=np.array([side]))
    np.testing.assert_allclose(y, [side * np.sqrt(0.5)], rtol=0.0, atol=1e-12)
    assert np.array_equal(y2, y)
    assert np.array_equal(dec.eta, record.eta)
    assert dec.residual == record.projection_residual


@pytest.mark.parametrize("iid", ["remark45", "nonconvex22"])
def test_non_finite_control_fails_at_its_step(iid):
    system = instance(iid).problem.system
    mesh = Mesh(k=10, T=system.T)
    u = np.full((11, 1), -2.0 if iid == "remark45" else 0.0)
    u[5] = np.nan
    with pytest.raises(SimulationError) as info:
        simulate(system, Path(mesh=mesh, values=u))
    assert info.value.step == 4
    assert isinstance(info.value.__cause__, NumericalFailureError)
