"""Geometry layer: projections, cone decomposition, coderivative table."""

import dataclasses
import itertools

import numpy as np
import pytest

from sweepctl import cli
from sweepctl.geometry import (
    Box,
    ConeDecomposition,
    CoderivativeCase,
    ConfigurationError,
    DomainError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    NotInConeError,
    ProjectionFailureError,
    SmoothInequality,
    coderivative_orthant,
    coderivative_theta,
    field_at_nodes,
    h4_shift,
    normal_cone_decompose,
    normal_cone_distance,
    project_onto_moving_set,
    psi_eval,
    surjectivity_check,
    theta_contains,
)
from sweepctl.dynamics import (AffineDrift, Mesh, Path, SimulationError, SweepingSystem,
                               simulate)
from sweepctl.problems import instance

# ---------------------------------------------------------------------------
# Independent oracles (kept deliberately dumb and separate from the library)
# ---------------------------------------------------------------------------


def brute_force_project(G, g, x):
    """Projection of x onto {y : G y <= g} by enumerating every row subset.

    For each subset S, project x onto the affine set {G_S y = g_S} via the
    least-norm correction, keep the candidates that satisfy all rows, and
    return the closest one.  The true projection has some active set, and
    that subset reproduces it, so the minimum over feasible candidates is
    exact.  Only usable for a handful of rows.
    """
    r = G.shape[0]
    best = None
    for k in range(r + 1):
        for S in itertools.combinations(range(r), k):
            if k == 0:
                y = x.copy()
            else:
                Gs = G[list(S)]
                gs = g[list(S)]
                corr, *_ = np.linalg.lstsq(Gs, gs - Gs @ x, rcond=None)
                y = x + corr
                if np.linalg.norm(Gs @ y - gs) > 1e-9 * (1 + np.linalg.norm(gs)):
                    continue
            if np.any(G @ y > g + 1e-9):
                continue
            d = np.linalg.norm(y - x)
            if best is None or d < best[0]:
                best = (d, y)
    assert best is not None, "oracle: empty feasible set"
    return best[1]


def orthant_coderivative_oracle(w, xi, u):
    """One-coordinate lookup of the three-case table (None = empty set)."""
    if w < 0:
        return "must_be_zero"
    if xi == 0:
        return "must_be_zero" if u < 0 else "nonnegative"
    return "free" if u == 0 else None


def box_coderivative_oracle(lo, hi, w, xi, u):
    """One-coordinate box table: the lower bound mirrors the orthant rule."""
    if lo < w < hi:
        return "must_be_zero"
    if w == hi:
        if xi == 0:
            return "must_be_zero" if u < 0 else "nonnegative"
        return "free" if u == 0 else None
    if xi == 0:
        return "must_be_zero" if u > 0 else "nonpositive"
    return "free" if u == 0 else None


def random_affine_instance(rng, n, s):
    """Affine field + orthant with a guaranteed strictly feasible point."""
    Ax = rng.normal(size=(s, n))
    Au = rng.normal(size=(s, 2))
    u = rng.normal(size=2)
    y0 = rng.normal(size=n)
    margin = rng.uniform(0.1, 1.0, size=s)
    c = -Ax @ y0 - Au @ u - margin
    field = FieldMap.affine_fixed(Ax, Au, c)
    theta = NonpositiveOrthant(s)
    G = Ax
    g = -(Au @ u + c)
    return field, theta, u, G, g


# ---------------------------------------------------------------------------
# Field evaluation and membership
# ---------------------------------------------------------------------------


def quadratic_field():
    """psi(x, u) = x^2 + u - 1 on R x R."""
    return FieldMap.nonlinear(
        n=1, m=1, s=1,
        psi=lambda x, u: np.array([x[0] ** 2 + u[0] - 1.0]),
        dpsi_dx=lambda x, u: np.array([[2.0 * x[0]]]),
        dpsi_du=lambda x, u: np.array([[1.0]]),
        hess_xx=lambda x, u, p: np.array([[2.0 * p[0]]]),
        hess_ux=lambda x, u, p: np.zeros((1, 1)),
    )


def scalar_sum_field():
    """psi(x, u) = x + u."""
    return FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])


class TestPsiEval:
    def test_polyhedral_rows(self):
        field = FieldMap.polyhedral(n=2, s=2)
        u = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0])  # rows (1,0),(0,1); b=(1,1)
        z = psi_eval(field, np.array([1.0, 1.0]), u)
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-14)

    def test_quadratic(self):
        z = psi_eval(quadratic_field(), np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(z, [0.0], atol=1e-14)

    def test_scalar_sum(self):
        z = psi_eval(scalar_sum_field(), np.array([1.5]), np.array([-2.0]))
        np.testing.assert_allclose(z, [-0.5], atol=1e-14)

    def test_dimension_check(self):
        with pytest.raises(Exception):
            psi_eval(scalar_sum_field(), np.array([1.0, 2.0]), np.array([0.0]))


class TestThetaContains:
    def test_orthant(self):
        theta = NonpositiveOrthant(2)
        assert theta_contains(theta, np.array([-1.0, 0.0]))

    def test_orthant_tolerance(self):
        theta = NonpositiveOrthant(2)
        assert theta_contains(theta, np.array([1e-12, -3.0]), tol=1e-9)
        assert not theta_contains(theta, np.array([1e-6, -3.0]), tol=1e-9)

    def test_smooth_inequality(self):
        theta = SmoothInequality(
            s=1, l=1,
            h=lambda z: np.array([z[0] - 1.0]),
            jac=lambda z: np.array([[1.0]]),
        )
        assert not theta_contains(theta, np.array([2.0]))
        assert theta_contains(theta, np.array([0.5]))

    def test_box(self):
        theta = Box(lower=(-1.0, 0.0), upper=(1.0, np.inf))
        assert theta_contains(theta, np.array([0.0, 100.0]))
        assert not theta_contains(theta, np.array([0.0, -1.0]))

    def test_linear_image(self):
        # A = diag(2, 1): A[-1,1]^2 = [-2,2] x [-1,1]
        theta = LinearImagePolyhedron(
            A=((2.0, 0.0), (0.0, 1.0)),
            G=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            g=(1.0, 1.0, 1.0, 1.0),
        )
        assert theta_contains(theta, np.array([1.5, 0.5]))
        assert not theta_contains(theta, np.array([2.5, 0.0]))

    @pytest.mark.parametrize("theta", [
        NonpositiveOrthant(2),
        Box(lower=(-1.0, -np.inf), upper=(1.0, 2.0)),
        LinearImagePolyhedron(A=((2.0, 0.0), (0.0, 1.0)),
                              G=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)),
                              g=(1.0, 1.0, 1.0)),
    ])
    def test_halfspaces_are_built_once_and_read_only(self, theta):
        H, d = theta.halfspaces()
        again = theta.halfspaces()
        assert again[0] is H and again[1] is d
        lo, hi = theta.bounds()
        again = theta.bounds()
        assert again[0] is lo and again[1] is hi
        for arr in (H, d, lo, hi):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert all(theta.contains(z) for z in (np.zeros(2), -0.5 * np.ones(2)))

    def test_bounds_exist_only_for_box_like_sets(self):
        lo, hi = NonpositiveOrthant(2).bounds()
        np.testing.assert_array_equal(lo, [-np.inf, -np.inf])
        np.testing.assert_array_equal(hi, [0.0, 0.0])
        skew = LinearImagePolyhedron(A=((2.0, 1.0), (1.0, 2.0)),
                                     G=((1.0, 0.0),), g=(1.0,))
        slanted = LinearImagePolyhedron(A=((1.0, 0.0), (0.0, 1.0)),
                                        G=((1.0, 1.0),), g=(1.0,))
        smooth = SmoothInequality(s=1, l=1, h=lambda z: z ** 2 - 1.0,
                                  jac=lambda z: np.array([[2.0 * z[0]]]))
        for theta in (skew, slanted, smooth):
            assert theta.bounds() is None

    def test_linear_image_requires_spd(self):
        with pytest.raises(Exception):
            LinearImagePolyhedron(A=((0.0, 1.0), (1.0, 0.0)),
                                  G=((1.0, 0.0),), g=(1.0,))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class TestProjection:
    def test_scalar_active(self):
        # C(-1) = {y : y - 1 <= 0}; projecting 2 lands on the wall.
        field, theta = scalar_sum_field(), NonpositiveOrthant(1)
        y, dec = project_onto_moving_set(field, theta, np.array([-1.0]), np.array([2.0]))
        np.testing.assert_allclose(y, [1.0], atol=1e-10)
        np.testing.assert_allclose(dec.eta, [1.0], atol=1e-10)
        assert dec.active_indices == (0,)

    def test_scalar_inactive(self):
        field, theta = scalar_sum_field(), NonpositiveOrthant(1)
        y, dec = project_onto_moving_set(field, theta, np.array([-2.0]), np.array([1.5]))
        np.testing.assert_allclose(y, [1.5], atol=1e-14)
        np.testing.assert_allclose(dec.eta, [0.0], atol=1e-14)
        assert dec.active_indices == ()

    def test_nonconvex_tie_break(self):
        # C(1/2) = {x : x^2 >= 1/2} and the origin sits dead center; both
        # square roots are closest, the positive one wins the tie.
        field = quadratic_field()
        theta = Box(lower=(0.0,), upper=(np.inf,))
        y, dec = project_onto_moving_set(
            field, theta, np.array([0.5]), np.array([0.0]),
            warm_start=np.array([-1.0]), extra_starts=[np.array([1.0])])
        np.testing.assert_allclose(y, [np.sqrt(0.5)], atol=1e-9)
        assert dec.residual < 1e-9

    def test_multiplier_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            field, theta, u, G, g = random_affine_instance(rng, n, s)
            x = rng.normal(scale=2.0, size=n)
            y, dec = project_onto_moving_set(field, theta, u, x)
            J = field.dpsi_dx(y, u)
            np.testing.assert_allclose((x - y) - J.T @ dec.eta,
                                       np.zeros(n), atol=1e-9)
            assert np.all(dec.eta >= -1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            field, theta, u, G, g = random_affine_instance(rng, n, s)
            x = rng.normal(scale=2.0, size=n)
            y, _ = project_onto_moving_set(field, theta, u, x)
            y_ref = brute_force_project(G, g, x)
            np.testing.assert_allclose(y, y_ref, atol=1e-8)
        # many rows: the oracle enumerates 2^s subsets, so only a few trials
        for s in (9, 9, 9, 12, 12, 12):
            n = int(rng.integers(2, 4))
            field, theta, u, G, g = random_affine_instance(rng, n, s)
            x = rng.normal(scale=4.0, size=n)
            y, _ = project_onto_moving_set(field, theta, u, x)
            y_ref = brute_force_project(G, g, x)
            np.testing.assert_allclose(y, y_ref, atol=1e-8)

    def test_dependent_active_rows(self):
        # Duplicated rows, and a box pinning psi to a single value: the
        # multipliers are not unique, so check the KKT identity and the cone.
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            row = rng.normal(size=n)
            Ax = np.vstack([row, row, 2.0 * row, rng.normal(size=n)])
            c = np.array([-1.0, -1.0, -2.0, -5.0])
            field = FieldMap.affine_fixed(Ax, np.zeros((4, 1)), c)
            theta = NonpositiveOrthant(4)
            x = rng.normal(scale=3.0, size=n) + 2.0 * row / (row @ row)
            y, dec = project_onto_moving_set(field, theta, np.zeros(1), x)
            np.testing.assert_allclose(y, brute_force_project(Ax, -c, x), atol=1e-8)
            np.testing.assert_allclose((x - y) - Ax.T @ dec.eta, np.zeros(n),
                                       atol=1e-10)
            assert np.all(dec.eta >= -1e-12)
        pinned = Box(lower=(0.5, -np.inf), upper=(0.5, 1.0))
        field = FieldMap.affine_fixed([[1.0, 1.0], [1.0, -1.0]], [[0.0], [0.0]],
                                      [0.0, 0.0])
        for x in ([3.0, 0.0], [-2.0, 1.0], [0.25, 0.25], [4.0, -4.0]):
            x = np.array(x)
            y, dec = project_onto_moving_set(field, pinned, np.zeros(1), x)
            z = psi_eval(field, y, np.zeros(1))
            assert abs(z[0] - 0.5) <= 1e-10 and z[1] <= 1.0 + 1e-10
            J = field.dpsi_dx(y, np.zeros(1))
            np.testing.assert_allclose((x - y) - J.T @ dec.eta, np.zeros(2),
                                       atol=1e-10)
            assert pinned.normal_cone_violation(z, dec.eta) <= 1e-12

    def test_weakly_active_row(self):
        # Rows x_1 <= 0 and x_2 <= 0.  Both points end where row 2 is active
        # with a zero multiplier: the first is already feasible, the second
        # is projected onto the corner by row 1 alone.
        field = FieldMap.affine_fixed(np.eye(2), np.zeros((2, 1)), [0.0, 0.0])
        theta = NonpositiveOrthant(2)
        u = np.zeros(1)
        y, dec = project_onto_moving_set(field, theta, u, np.array([-1.0, 0.0]))
        np.testing.assert_allclose(y, [-1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(dec.eta, [0.0, 0.0], atol=1e-14)
        assert dec.active_indices == (1,)
        y, dec = project_onto_moving_set(field, theta, u, np.array([2.0, 0.0]))
        np.testing.assert_allclose(y, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(dec.eta, [2.0, 0.0], atol=1e-12)
        assert dec.active_indices == (0, 1)

    def test_empty_moving_set(self):
        # x + u <= 0 and -x + u <= 0, i.e. |x| <= -u: empty for u > 0.
        field = FieldMap.affine_fixed([[1.0], [-1.0]], [[1.0], [1.0]], [0.0, 0.0])
        theta = NonpositiveOrthant(2)
        for x in (0.0, 3.0, -1.5):
            with pytest.raises(ProjectionFailureError):
                project_onto_moving_set(field, theta, np.array([0.5]), np.array([x]))
        # The same set seen from the simulator: it empties at step 2.
        system = SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                                theta=theta, x0=np.zeros(1), T=1.0)
        control = Path(mesh=Mesh(k=4, T=1.0),
                       values=np.array([-1.0, -1.0, -0.5, 0.5, 1.0]))
        with pytest.raises(SimulationError) as info:
            simulate(system, control)
        assert info.value.step == 2

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            field, theta, u, _, _ = random_affine_instance(rng, n, s)
            x = rng.normal(scale=2.0, size=n)
            y, _ = project_onto_moving_set(field, theta, u, x)
            y2, _ = project_onto_moving_set(field, theta, u, y)
            np.testing.assert_allclose(y2, y, atol=1e-10)

    def test_nonexpansive(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n, s = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            field, theta, u, _, _ = random_affine_instance(rng, n, s)
            x1 = rng.normal(scale=2.0, size=n)
            x2 = rng.normal(scale=2.0, size=n)
            y1, _ = project_onto_moving_set(field, theta, u, x1)
            y2, _ = project_onto_moving_set(field, theta, u, x2)
            assert np.linalg.norm(y1 - y2) <= np.linalg.norm(x1 - x2) + 1e-10


# ---------------------------------------------------------------------------
# Normal-cone decomposition
# ---------------------------------------------------------------------------


class TestDecompose:
    def test_polyhedral_identity_rows(self):
        field = FieldMap.polyhedral(n=2, s=2)
        u = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        dec = normal_cone_decompose(field, NonpositiveOrthant(2),
                                    np.array([1.0, 1.0]), u, np.array([2.0, 3.0]))
        np.testing.assert_allclose(dec.eta, [2.0, 3.0], atol=1e-10)
        assert dec.active_indices == (0, 1)
        assert dec.residual < 1e-12

    def test_zero_vector_inactive(self):
        dec = normal_cone_decompose(scalar_sum_field(), NonpositiveOrthant(1),
                                    np.array([1.5]), np.array([-2.0]), np.array([0.0]))
        np.testing.assert_allclose(dec.eta, [0.0], atol=1e-14)
        assert dec.active_indices == ()

    def test_wrong_direction_rejected(self):
        with pytest.raises(NotInConeError):
            normal_cone_decompose(scalar_sum_field(), NonpositiveOrthant(1),
                                  np.array([1.0]), np.array([-1.0]), np.array([-1.0]))

    def test_round_trip(self):
        rng = np.random.default_rng(19)
        count = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            s = int(rng.integers(1, min(n, 3) + 1))  # s <= n keeps full row rank
            field, theta, u, _, _ = random_affine_instance(rng, n, s)
            x = rng.normal(scale=2.0, size=n)
            y, dec = project_onto_moving_set(field, theta, u, x)
            if not dec.active_indices:
                continue
            count += 1
            v = field.dpsi_dx(y, u).T @ dec.eta
            dec2 = normal_cone_decompose(field, theta, y, u, v)
            np.testing.assert_allclose(field.dpsi_dx(y, u).T @ dec2.eta, v,
                                       atol=1e-10)
            np.testing.assert_allclose(dec2.eta, dec.eta, atol=1e-8)
        assert count > 50  # the loop must actually exercise active projections

    def test_distance_helper(self):
        field, theta = scalar_sum_field(), NonpositiveOrthant(1)
        # active at x=1, u=-1: cone is [0, inf) * 1
        assert normal_cone_distance(field, theta, np.array([1.0]), np.array([-1.0]),
                                    np.array([2.0])) < 1e-12
        assert normal_cone_distance(field, theta, np.array([1.0]), np.array([-1.0]),
                                    np.array([-2.0])) == pytest.approx(2.0, abs=1e-10)
        # inactive: cone is {0}
        assert normal_cone_distance(field, theta, np.array([0.0]), np.array([-2.0]),
                                    np.array([0.5])) == pytest.approx(0.5, abs=1e-10)


class TestSurjectivity:
    def test_identity(self):
        ok, smin = surjectivity_check(np.eye(2))
        assert ok and smin == pytest.approx(1.0)

    def test_single_row(self):
        ok, smin = surjectivity_check(np.array([[1.0, 1.0]]))
        assert ok and smin == pytest.approx(np.sqrt(2.0))

    def test_zero_matrix(self):
        ok, smin = surjectivity_check(np.zeros((1, 2)))
        assert not ok

    def test_more_rows_than_columns(self):
        ok, smin = surjectivity_check(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert not ok and smin == 0.0


# ---------------------------------------------------------------------------
# Coderivative classification
# ---------------------------------------------------------------------------

CASE_NAMES = {
    CoderivativeCase.MUST_BE_ZERO: "must_be_zero",
    CoderivativeCase.NONNEGATIVE: "nonnegative",
    CoderivativeCase.NONPOSITIVE: "nonpositive",
    CoderivativeCase.FREE: "free",
}


class TestCoderivativeOrthant:
    def test_inactive_coordinate(self):
        cases = coderivative_orthant([-1.0], [0.0], [5.0])
        assert cases == (CoderivativeCase.MUST_BE_ZERO,)

    def test_active_zero_multiplier(self):
        cases = coderivative_orthant([0.0], [0.0], [1.0])
        assert cases == (CoderivativeCase.NONNEGATIVE,)
        cases = coderivative_orthant([0.0], [0.0], [-1.0])
        assert cases == (CoderivativeCase.MUST_BE_ZERO,)

    def test_positive_multiplier(self):
        cases = coderivative_orthant([0.0], [2.0], [0.0])
        assert cases == (CoderivativeCase.FREE,)

    def test_empty(self):
        assert coderivative_orthant([0.0], [2.0], [1.0]) is None
        assert coderivative_orthant([0.0, 0.0], [0.0, 2.0], [1.0, -1.0]) is None

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            coderivative_orthant([1.0], [0.0], [0.0])  # w outside orthant
        with pytest.raises(DomainError):
            coderivative_orthant([-1.0], [1.0], [0.0])  # xi not in N(w)
        with pytest.raises(DomainError):
            coderivative_orthant([0.0], [-1.0], [0.0])

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_exhaustive_against_oracle(self, s):
        graph_points = [(-1.0, 0.0), (0.0, 0.0), (0.0, 2.0)]
        dirs = [-3.0, 0.0, 5.0]
        per_index = [(w, xi, u) for (w, xi) in graph_points for u in dirs]
        for combo in itertools.product(per_index, repeat=s):
            w = np.array([t[0] for t in combo])
            xi = np.array([t[1] for t in combo])
            u = np.array([t[2] for t in combo])
            expected = [orthant_coderivative_oracle(*t) for t in combo]
            got = coderivative_orthant(w, xi, u)
            if any(e is None for e in expected):
                assert got is None
            else:
                assert got is not None
                assert [CASE_NAMES[c] for c in got] == expected


class TestCoderivativeBox:
    def test_lower_bound_mirror(self):
        theta = Box(lower=(0.0,), upper=(np.inf,))
        assert coderivative_theta(theta, [0.0], [0.0], [1.0]) == \
            (CoderivativeCase.MUST_BE_ZERO,)
        assert coderivative_theta(theta, [0.0], [0.0], [-1.0]) == \
            (CoderivativeCase.NONPOSITIVE,)
        assert coderivative_theta(theta, [0.0], [-2.0], [0.0]) == \
            (CoderivativeCase.FREE,)
        assert coderivative_theta(theta, [0.0], [-2.0], [1.0]) is None

    @pytest.mark.parametrize("theta, lo, hi", [
        pytest.param(Box(lower=(-1.0,), upper=(1.0,)), (-1.0,), (1.0,), id="1"),
        pytest.param(Box(lower=(-1.0,) * 2, upper=(1.0,) * 2),
                     (-1.0,) * 2, (1.0,) * 2, id="2"),
        # image sets, scored against the box each one equals
        pytest.param(LinearImagePolyhedron(
            A=((2.0, 0.0), (0.0, 0.5)),
            G=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            g=(1.0, 1.0, 1.0, 1.0)), (-2.0, -0.5), (2.0, 0.5), id="image-2-0.5"),
        pytest.param(LinearImagePolyhedron(
            A=((-1.0, 0.0), (0.0, 3.0)),
            G=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            g=(1.0, 2.0, 1.0, 1.0), require_spd=False),
            (-1.0, -3.0), (2.0, 3.0), id="image-neg1-3"),
    ])
    def test_exhaustive_against_oracle(self, theta, lo, hi):
        per_component = []
        for lo_i, hi_i in zip(lo, hi):
            graph_points = [(0.5 * (lo_i + hi_i), 0.0), (hi_i, 0.0), (hi_i, 2.0),
                            (lo_i, 0.0), (lo_i, -2.0)]
            dirs = [-3.0, 0.0, 5.0]
            per_component.append([(lo_i, hi_i, w, xi, u)
                                  for (w, xi) in graph_points for u in dirs])
        for combo in itertools.product(*per_component):
            w = np.array([t[2] for t in combo])
            xi = np.array([t[3] for t in combo])
            u = np.array([t[4] for t in combo])
            expected = [box_coderivative_oracle(*t) for t in combo]
            got = coderivative_theta(theta, w, xi, u)
            if any(e is None for e in expected):
                assert got is None
            else:
                assert got is not None
                assert [CASE_NAMES[c] for c in got] == expected

    def test_points_outside_the_box_raise(self):
        theta = Box(lower=(-1.0,), upper=(1.0,))
        for w in (2.0, -2.0, 1.0 + 1e-6):
            with pytest.raises(DomainError):
                coderivative_theta(theta, [w], [0.0], [0.0])
        # a one-sided box, and an image set outside the box it equals
        with pytest.raises(DomainError):
            coderivative_theta(Box(lower=(0.0,), upper=(np.inf,)), [-1.0],
                               [0.0], [0.0])
        image = LinearImagePolyhedron(A=((-1.0,),), G=((1.0,), (-1.0,)),
                                      g=(1.0, 2.0), require_spd=False)
        with pytest.raises(DomainError):
            coderivative_theta(image, [2.5], [0.0], [0.0])

    def test_linear_image_diagonal_reduction(self):
        theta = LinearImagePolyhedron(
            A=((2.0, 0.0), (0.0, 0.5)),
            G=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            g=(1.0, 1.0, 1.0, 1.0),
        )
        # Theta = [-2,2] x [-1/2,1/2]; first coordinate at its upper bound.
        got = coderivative_theta(theta, [2.0, 0.1], [1.0, 0.0], [0.0, 3.0])
        assert got == (CoderivativeCase.FREE, CoderivativeCase.MUST_BE_ZERO)
        assert coderivative_theta(theta, [2.0, 0.1], [1.0, 0.0], [0.5, 0.0]) is None


# ---------------------------------------------------------------------------
# Constant-field shifts
# ---------------------------------------------------------------------------


class TestH4Shift:
    def test_polyhedral_offsets(self):
        rows, b = h4_shift("polyhedral", x=np.array([2.0, 0.0]),
                           xbar=np.array([1.0, 0.0]), ubar=np.array([[1.0, 0.0]]),
                           bbar=np.array([1.0]))
        np.testing.assert_allclose(rows, [[1.0, 0.0]])
        np.testing.assert_allclose(b, [2.0], atol=1e-14)

    def test_quadratic(self):
        u = h4_shift("quadratic_example", x=np.array([2.0]),
                     xbar=np.array([1.0]), ubar=np.array([0.0]))
        np.testing.assert_allclose(u, [-3.0], atol=1e-14)

    def test_no_move_no_shift(self):
        u = h4_shift("quadratic_example", x=np.array([1.0]),
                     xbar=np.array([1.0]), ubar=np.array([0.25]))
        np.testing.assert_allclose(u, [0.25], atol=1e-14)

    def test_shift_keeps_psi_constant(self):
        rng = np.random.default_rng(23)
        field = quadratic_field()
        for _ in range(20):
            xbar = rng.normal(size=1)
            ubar = rng.normal(size=1)
            x = rng.normal(size=1)
            u = h4_shift("quadratic_example", x=x, xbar=xbar, ubar=ubar)
            np.testing.assert_allclose(psi_eval(field, x, u),
                                       psi_eval(field, xbar, ubar), atol=1e-12)


# ---------------------------------------------------------------------------
# The field along a pair: one node table
# ---------------------------------------------------------------------------


def _bent_field():
    """A 2-D field with nonzero Hessians in both blocks."""
    return FieldMap.nonlinear(
        n=2, m=1, s=2,
        psi=lambda x, u: np.array([x[0] ** 2 + x[1] * u[0], x[0] * x[1] - u[0] ** 2]),
        dpsi_dx=lambda x, u: np.array([[2.0 * x[0], u[0]], [x[1], x[0]]]),
        dpsi_du=lambda x, u: np.array([[x[1]], [-2.0 * u[0]]]),
        hess_xx=lambda x, u, p: np.array([[2.0 * p[0], p[1]], [p[1], 0.0]]),
        hess_ux=lambda x, u, p: np.array([[0.0, p[0]]]),
    )


def _table_fields():
    rng = np.random.default_rng(7)
    quad_spec = {"moving_set": {"psi": {"kind": "quadratic_scalar",
                                        "a": 0.7, "b": -1.3, "c": 0.4}}}
    mapped = SweepingSystem(f=AffineDrift.zero(2), field=_bent_field(),
                            theta=NonpositiveOrthant(2), x0=np.zeros(2), T=1.0,
                            g=rng.normal(size=(2, 2)))
    return {
        "affine_fixed": FieldMap.affine_fixed(rng.normal(size=(3, 2)),
                                              rng.normal(size=(3, 2)),
                                              rng.normal(size=3)),
        "polyhedral": FieldMap.polyhedral(n=2, s=3),
        "nonconvex22": instance("nonconvex22").problem.system.field,
        "quadratic_scalar": cli._build_field(quad_spec, 1, 1, 1),
        "effective_field": mapped.effective_field(),
    }


@pytest.mark.parametrize("name", sorted(_table_fields()))
def test_node_table_equals_the_per_point_callbacks(name):
    field = _table_fields()[name]
    rng = np.random.default_rng([len(name), 3])
    K = 6
    x = rng.normal(size=(K, field.n))
    u = rng.normal(size=(K, field.m))
    W = rng.normal(size=(K, field.s))
    tab = field_at_nodes(field, x, u)
    Hxx, Hux = tab.hess(W)
    assert tab.psi.shape == (K, field.s)
    assert tab.J.shape == (K, field.s, field.n + field.m)
    for j in range(K):
        assert np.array_equal(tab.psi[j], psi_eval(field, x[j], u[j]))
        assert np.array_equal(tab.Jx[j], field.dpsi_dx(x[j], u[j]))
        assert np.array_equal(tab.Ju[j], field.dpsi_du(x[j], u[j]))
        assert np.array_equal(tab.J[j], np.hstack([tab.Jx[j], tab.Ju[j]]))
        assert np.array_equal(Hxx[j], field.hess_xx(x[j], u[j], W[j]))
        assert np.array_equal(Hux[j], field.hess_ux(x[j], u[j], W[j]))
    if name == "polyhedral":
        assert np.any(Hux != 0.0)
    # contractions at the first nodes only, and a read-only table
    assert np.array_equal(tab.hess(W[:2])[0], Hxx[:2])
    for arr in (tab.x, tab.u, tab.psi, tab.Jx, tab.Ju, tab.J):
        assert not arr.flags.writeable


def test_node_table_without_hessian_callbacks_reads_zeros():
    field = FieldMap.nonlinear(n=2, m=1, s=1,
                               psi=lambda x, u: np.array([x @ x + u[0]]),
                               dpsi_dx=lambda x, u: 2.0 * x[None],
                               dpsi_du=lambda x, u: np.ones((1, 1)))
    tab = field_at_nodes(field, np.ones((3, 2)), np.zeros((3, 1)))
    Hxx, Hux = tab.hess(np.ones((3, 1)))
    assert Hxx.shape == (3, 2, 2) and Hux.shape == (3, 1, 2)
    assert not Hxx.any() and not Hux.any()


@pytest.mark.parametrize("wrong", ["psi", "dpsi_dx", "dpsi_du", "ragged",
                                   "hess_xx", "hess_ux", "x", "u"])
def test_node_table_rejects_wrong_shapes(wrong):
    field = _bent_field()
    bad = {
        "psi": lambda x, u: np.zeros(3),
        "dpsi_dx": lambda x, u: np.zeros((2, 3)),
        "dpsi_du": lambda x, u: np.zeros((1, 2)),
        "ragged": lambda x, u: np.zeros(2 if x[0] > 0 else 3),
        "hess_xx": lambda x, u, p: np.zeros((2, 1)),
        "hess_ux": lambda x, u, p: np.zeros((2, 2)),
    }
    x, u = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 1))
    if wrong in ("x", "u"):
        with pytest.raises(ConfigurationError):
            field_at_nodes(field, x[:, :1] if wrong == "x" else x,
                           u if wrong == "x" else np.zeros((3, 1)))
        return
    name = "psi" if wrong == "ragged" else wrong
    field = dataclasses.replace(field, **{name: bad[wrong]})
    with pytest.raises(ConfigurationError, match=name):
        field_at_nodes(field, x, u).hess(np.ones((2, 2)))


def _loop_polyhedral_derivatives(n, s, x, u, p):
    """``FieldMap.polyhedral``'s dpsi_du, hess_ux and x_affine written row by
    row, as the constructor first built them."""
    m = s * n + s
    J = np.zeros((s, m))
    H = np.zeros((m, n))
    for i in range(s):
        J[i, i * n:(i + 1) * n] = x
        J[i, s * n + i] = -1.0
        H[i * n:(i + 1) * n, :] = p[i] * np.eye(n)
    U = np.asarray(u[: s * n], dtype=float).reshape(s, n)
    return J, H, (U, -np.asarray(u[s * n:], dtype=float))


@pytest.mark.parametrize("n,s", [(1, 1), (2, 4), (3, 8), (3, 12)])
def test_polyhedral_derivatives_equal_the_row_loops(n, s):
    field = FieldMap.polyhedral(n, s)
    rng = np.random.default_rng([n, s])
    for _ in range(3):
        x, u, p = rng.normal(size=n), rng.normal(size=field.m), rng.normal(size=s)
        J, H, (A, c) = _loop_polyhedral_derivatives(n, s, x, u, p)
        got_A, got_c = field.x_affine(u)
        for got, want in ((field.dpsi_du(x, u), J), (field.hess_ux(x, u, p), H),
                          (got_A, A), (got_c, c)):
            assert got.shape == want.shape
            # bit for bit, the sign of every zero included
            assert got.tobytes() == want.tobytes()
