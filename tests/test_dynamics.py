"""Catching-up stepping, residuals, path metrics, refinement studies."""

import dataclasses

import numpy as np
import pytest

from sweepctl.dynamics import (
    ConvergenceTable,
    Mesh,
    Path,
    SimulationError,
    SweepingSystem,
    convergence_study,
    feasible_companion_polyhedral,
    inclusion_residual,
    simulate,
    step_catching_up,
    w12_distance,
)
from sweepctl.geometry import (
    ConfigurationError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    normal_cone_distance,
    project_onto_moving_set,
    psi_eval,
)
from sweepctl.problems import instance

# ---------------------------------------------------------------------------
# Reference trajectories integrated by hand (oracles for the DERIVED cases)
# ---------------------------------------------------------------------------


def moving_halfline_state(t):
    """Zero-drift state for the wall at 2-t (t<=1) then 1, started at 3/2.

    The state rests until the wall reaches it at t=1/2, rides the wall down
    to 1, and rests again.
    """
    if t <= 0.5:
        return 1.5
    if t <= 1.0:
        return 2.0 - t
    return 1.0


def moving_halfline_control(t):
    return t - 2.0 if t <= 1.0 else -1.0


def elastic_interval_state(t):
    """Zero-drift state in the moving interval [-1,1] - t, started at 1/2.

    The upper face 1 - t meets the state at t = 1/2 and sweeps it down.
    """
    return min(0.5, 1.0 - t)


def scalar_sum_system(x0=1.5, T=2.0):
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    return SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                          theta=NonpositiveOrthant(1), x0=np.array([x0]), T=T)


def elastic_interval_system():
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    theta = LinearImagePolyhedron(A=((1.0,),), G=((1.0,), (-1.0,)), g=(1.0, 1.0))
    return SweepingSystem(f=lambda t, x: np.zeros(1), field=field, theta=theta,
                          x0=np.array([0.5]), T=1.0)


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


class TestStep:
    def test_feasible_no_motion(self):
        sys_ = scalar_sum_system()
        x1, rec = step_catching_up(sys_, np.array([1.5]), np.array([-1.8]), 0.0, 0.01)
        np.testing.assert_allclose(x1, [1.5], atol=1e-14)
        np.testing.assert_allclose(rec.eta, [0.0], atol=1e-14)

    def test_swept_by_wall(self):
        sys_ = scalar_sum_system()
        x1, rec = step_catching_up(sys_, np.array([1.5]), np.array([-1.4]), 0.0, 0.01)
        np.testing.assert_allclose(x1, [1.4], atol=1e-12)
        assert rec.feasibility <= 1e-12
        np.testing.assert_allclose(rec.eta, [0.1], atol=1e-12)

    def test_pure_drift(self):
        field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
        sys_ = SweepingSystem(f=lambda t, x: np.ones(1), field=field,
                              theta=NonpositiveOrthant(1), x0=np.zeros(1), T=1.0)
        x1, rec = step_catching_up(sys_, np.array([0.0]), np.array([-10.0]), 0.0, 0.1)
        np.testing.assert_allclose(x1, [0.1], atol=1e-14)
        np.testing.assert_allclose(rec.eta, [0.0], atol=1e-14)


@pytest.mark.parametrize("iid", ["remark45", "nonconvex22"])
@pytest.mark.parametrize("wrong", ["x", "u"])
def test_one_step_entry_points_check_shapes(iid, wrong):
    """A state or control of the wrong length is a ConfigurationError, as in
    psi_eval, on the exact path (remark45) and the SQP path (nonconvex22).
    It used to fail inside numpy: a broadcast of the state into x_0, or a
    matmul core-dimension mismatch on the control."""
    system = instance(iid).problem.system
    x, u = system.x0, np.array([-1.0])
    if wrong == "x":
        x = np.ones(2)
    else:
        u = np.zeros(2)
    with pytest.raises(ConfigurationError, match=r"expected shapes \(1,\), \(1,\)"):
        project_onto_moving_set(system.field, system.theta, u, x, warm_start=system.x0)
    with pytest.raises(ConfigurationError, match=r"expected shapes \(1,\), \(1,\)"):
        step_catching_up(system, x, u, 0.0, 0.1)


# ---------------------------------------------------------------------------
# Full simulations
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_moving_halfline(self):
        sys_ = scalar_sum_system()
        mesh = Mesh(k=200, T=2.0)
        control = Path.sample(mesh, moving_halfline_control)
        state, records = simulate(sys_, control)
        expected = np.array([moving_halfline_state(t) for t in mesh.nodes])
        err = np.max(np.abs(state.values[:, 0] - expected))
        assert err <= 2 * mesh.h
        assert all(r.feasibility <= 1e-9 for r in records)
        assert all(r.projection_residual <= 1e-9 for r in records)

    def test_constant_interior_control(self):
        sys_ = scalar_sum_system(x0=0.0)
        mesh = Mesh(k=50, T=2.0)
        control = Path.sample(mesh, lambda t: -5.0)
        state, _ = simulate(sys_, control)
        np.testing.assert_allclose(state.values, 0.0, atol=1e-14)

    def test_elastic_interval(self):
        sys_ = elastic_interval_system()
        mesh = Mesh(k=100, T=1.0)
        control = Path.sample(mesh, lambda t: t)
        state, _ = simulate(sys_, control)
        expected = np.array([elastic_interval_state(t) for t in mesh.nodes])
        np.testing.assert_allclose(state.values[:, 0], expected, atol=1e-10)

    def test_infeasible_start_rejected(self):
        sys_ = scalar_sum_system(x0=3.0)
        mesh = Mesh(k=10, T=2.0)
        control = Path.sample(mesh, moving_halfline_control)  # C(0) = (-inf, 2]
        with pytest.raises(SimulationError):
            simulate(sys_, control)


class TestInclusionResidual:
    def test_simulated_output_passes(self):
        sys_ = scalar_sum_system()
        mesh = Mesh(k=80, T=2.0)
        control = Path.sample(mesh, moving_halfline_control)
        state, _ = simulate(sys_, control)
        res = inclusion_residual(sys_, state, control)
        assert np.max(res) <= 1e-8

    def test_frozen_state_fails(self):
        sys_ = scalar_sum_system()
        mesh = Mesh(k=10, T=2.0)
        control = Path.sample(mesh, moving_halfline_control)
        frozen = Path(mesh=mesh, values=np.full(mesh.k + 1, 1.5))
        res = inclusion_residual(sys_, frozen, control)
        assert np.max(res) > 0  # the wall passes through the frozen state

    def test_sampled_optimal_pair(self):
        sys_ = scalar_sum_system()
        mesh = Mesh(k=100, T=2.0)
        control = Path.sample(mesh, moving_halfline_control)
        state = Path.sample(mesh, moving_halfline_state)
        for convention in ("implicit", "explicit"):
            res = inclusion_residual(sys_, state, control, convention=convention)
            assert np.max(res) <= 1e-8

    def test_matches_the_per_step_cone_distance(self):
        # one node table over the k steps: nodes 1..k for the implicit
        # reading, 0..k-1 for the explicit one
        rng = np.random.default_rng(11)
        n, s, k = 2, 3, 12
        U = rng.normal(size=(s, n))
        b = rng.uniform(0.5, 1.5, size=(k + 1, s))
        mesh = Mesh(k=k, T=1.0)
        control = Path(mesh=mesh, values=np.hstack([np.tile(U.ravel(), (k + 1, 1)), b]))
        sys_ = SweepingSystem(f=lambda t, x: 2.0 - x, field=FieldMap.polyhedral(n, s),
                              theta=NonpositiveOrthant(s), x0=np.zeros(n), T=1.0)
        state, _ = simulate(sys_, control)
        for convention, at in (("implicit", 1), ("explicit", 0)):
            res = inclusion_residual(sys_, state, control, convention=convention)
            for j in range(k):
                v = -(state.values[j + 1] - state.values[j]) / mesh.h \
                    + sys_.f(0.0, state.values[j])
                assert res[j] == normal_cone_distance(
                    sys_.field, sys_.theta, state.values[j + at],
                    control.values[j + at], v)


# ---------------------------------------------------------------------------
# Feasible companion (polyhedral offset shift)
# ---------------------------------------------------------------------------


class TestFeasibleCompanion:
    def test_identical_states_unchanged(self):
        mesh = Mesh(k=4, T=1.0)
        xref = Path(mesh=mesh, values=np.linspace(0, 1, 5).reshape(-1, 1) @ np.ones((1, 2)))
        b = Path(mesh=mesh, values=np.ones(5))
        out = feasible_companion_polyhedral(xref, xref, np.array([[1.0, 0.0]]), b)
        np.testing.assert_allclose(out.values, b.values, atol=1e-14)

    def test_single_row_shift(self):
        mesh = Mesh(k=1, T=1.0)
        xref = Path(mesh=mesh, values=np.array([[1.0, 1.0], [1.0, 1.0]]))
        x = Path(mesh=mesh, values=np.array([[1.1, 1.0], [1.1, 1.0]]))
        b = Path(mesh=mesh, values=np.array([1.0, 1.0]))
        out = feasible_companion_polyhedral(x, xref, np.array([[1.0, 0.0]]), b)
        np.testing.assert_allclose(out.values[:, 0], [1.1, 1.1], atol=1e-14)

    def test_zero_rows_unchanged(self):
        mesh = Mesh(k=2, T=1.0)
        xref = Path(mesh=mesh, values=np.zeros((3, 2)))
        x = Path(mesh=mesh, values=np.ones((3, 2)))
        b = Path(mesh=mesh, values=np.full(3, 0.7))
        out = feasible_companion_polyhedral(x, xref, np.zeros((1, 2)), b)
        np.testing.assert_allclose(out.values, b.values, atol=1e-14)

    def test_psi_values_preserved(self):
        rng = np.random.default_rng(5)
        mesh = Mesh(k=6, T=1.0)
        rows = rng.normal(size=(2, 3))
        xref = Path(mesh=mesh, values=rng.normal(size=(7, 3)))
        x = Path(mesh=mesh, values=rng.normal(size=(7, 3)))
        b = Path(mesh=mesh, values=rng.normal(size=(7, 2)))
        out = feasible_companion_polyhedral(x, xref, rows, b)
        for j in range(7):
            psi_new = rows @ x.values[j] - out.values[j]
            psi_ref = rows @ xref.values[j] - b.values[j]
            np.testing.assert_allclose(psi_new, psi_ref, atol=1e-12)


def test_mesh_nodes_are_cached_and_read_only():
    mesh = Mesh(k=4, T=2.0)
    nodes = mesh.nodes
    assert mesh.nodes is nodes
    np.testing.assert_array_equal(nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    # equality and hashing still see only (k, T)
    assert mesh == Mesh(k=4, T=2.0) and hash(mesh) == hash(Mesh(k=4, T=2.0))


def test_state_map_composes_into_the_field():
    # The field is the system's only description of the moving set: a state
    # map G is the field psi(G x, u), affine in x when psi is.
    field = FieldMap.affine_fixed([[1.0, 0.0]], [[1.0]], [0.0])
    mapped = field.with_state_map([[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(mapped.psi(np.array([1.0, 3.0]), np.array([0.5])),
                                  [2.5])
    A, c = mapped.x_affine(np.array([0.5]))
    np.testing.assert_array_equal(A, [[2.0, 0.0]])
    np.testing.assert_array_equal(c, [0.5])
    system = SweepingSystem(f=lambda t, x: np.zeros(2), field=mapped,
                            theta=NonpositiveOrthant(1), x0=[-1.0, 0.0], T=1.0)
    assert system.field is mapped
    assert [f.name for f in dataclasses.fields(SweepingSystem)] == [
        "f", "field", "theta", "x0", "T"]


def test_simulate_evaluates_psi_once_per_step():
    # psi is evaluated once at the initial node and once per step, where the
    # node table of the step records reads it; feasibility comes from that
    # value instead of evaluating psi again.
    from dataclasses import replace
    from sweepctl import dynamics
    from sweepctl.problems import instance, solution_on_mesh
    system = instance("elastoplastic61").problem.system
    _, control = solution_on_mesh("elastoplastic61", 40)
    seen = []

    def counting_psi(x, u):
        z = system.field.psi(x, u)
        seen.append(z)
        return z
    counted = replace(system, field=replace(system.field, psi=counting_psi))
    state, records = simulate(counted, control)
    assert len(seen) == 1 + control.mesh.k
    for j, rec in enumerate(records):
        z = psi_eval(system.field, state.values[j + 1], control.values[j + 1])
        assert rec.feasibility == dynamics.feasibility_violation(system.theta, z)


# ---------------------------------------------------------------------------
# Path metric
# ---------------------------------------------------------------------------


class TestW12Distance:
    def test_identical(self):
        mesh = Mesh(k=5, T=1.0)
        a = Path.sample(mesh, lambda t: np.array([t, 1 - t]))
        assert w12_distance(a, a) == (0.0, 0.0)

    def test_linear_ramp(self):
        for k in (1, 7, 30):
            mesh = Mesh(k=k, T=1.0)
            a = Path.sample(mesh, lambda t: 0.0)
            b = Path.sample(mesh, lambda t: t)
            w12, sup = w12_distance(a, b)
            assert w12 == pytest.approx(1.0, abs=1e-12)
            assert sup == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset(self):
        mesh = Mesh(k=8, T=2.0)
        a = Path.sample(mesh, lambda t: np.array([np.sin(t), t]))
        b = Path(mesh=mesh, values=a.values + np.array([0.3, -0.4]))
        w12, sup = w12_distance(a, b)
        assert w12 == pytest.approx(0.5, abs=1e-12)
        assert sup == pytest.approx(0.5, abs=1e-12)

    def test_union_mesh_exact_for_shared_function(self):
        a = Path.sample(Mesh(k=3, T=1.0), lambda t: 2 * t - 1)
        b = Path.sample(Mesh(k=5, T=1.0), lambda t: 2 * t - 1)
        w12, sup = w12_distance(a, b)
        assert w12 <= 1e-12 and sup <= 1e-12

    def test_cross_mesh_hand_value(self):
        # a = t on one cell, b = two cells flat then rising to 1:
        # derivative gap is -1 then +1 on the halves, so w12 = 1, sup = 1/2.
        a = Path(mesh=Mesh(k=1, T=1.0), values=np.array([0.0, 1.0]))
        b = Path(mesh=Mesh(k=2, T=1.0), values=np.array([0.0, 0.0, 1.0]))
        w12, sup = w12_distance(a, b)
        assert w12 == pytest.approx(1.0, abs=1e-12)
        assert sup == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Refinement study
# ---------------------------------------------------------------------------


def halfline_reference_pair():
    # Both reference curves are piecewise linear with kinks on these meshes,
    # so the Path representation is exact.
    state = Path.sample(Mesh(k=4, T=2.0), moving_halfline_state)
    control = Path.sample(Mesh(k=2, T=2.0), moving_halfline_control)
    return state, control


class TestConvergenceStudy:
    def test_moving_halfline_errors(self):
        sys_ = scalar_sum_system()
        reference = halfline_reference_pair()
        table = convergence_study(
            sys_, lambda k: Path.sample(Mesh(k=k, T=2.0), moving_halfline_control),
            reference, ks=[25, 50, 100, 200])
        errs = [r.state_error_w12 for r in table.rows]
        # Hand values: k=25 leaves derivative gaps in the two kink cells
        # (0.035 total square), k=50 only around t=1/2 (0.01); both kink
        # times become nodes at k=100 and the discrete path is exact.
        assert errs[0] == pytest.approx(np.sqrt(0.035), rel=1e-9)
        assert errs[1] == pytest.approx(0.1, rel=1e-9)
        assert errs[2] <= 1e-12
        assert errs[3] <= 1e-12
        assert table.monotone

    def test_reference_equals_simulation(self):
        sys_ = scalar_sum_system()
        k = 40
        control = Path.sample(Mesh(k=k, T=2.0), moving_halfline_control)
        state, _ = simulate(sys_, control)
        table = convergence_study(sys_, lambda kk: control, (state, control), ks=[k])
        assert table.rows[0].state_error_w12 <= 1e-12
        assert table.rows[0].control_error_sup <= 1e-12
        assert table.monotone

    def test_requires_increasing_ks(self):
        sys_ = scalar_sum_system()
        reference = halfline_reference_pair()
        with pytest.raises(Exception):
            convergence_study(
                sys_, lambda k: Path.sample(Mesh(k=k, T=2.0), moving_halfline_control),
                reference, ks=[50, 25])
