"""Cost templates, transcription structure, and the two solvers."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from sweepctl.dynamics import Mesh, Path, simulate
from sweepctl.geometry import (
    ConfigurationError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    NumericalFailureError,
    SmoothInequality,
    field_at_nodes,
)
from sweepctl.dynamics import AffineDrift, SweepingSystem
from sweepctl.ocp import (
    DiscreteDecision,
    InfeasibleWarmStartError,
    OcpProblem,
    QuadraticStageCost,
    QuadraticTerminalCost,
    _KktSystem,
    _damped_step,
    _has_exact_tangents,
    _lbfgs_direction,
    _shooting_gradient,
    cost_eval,
    cost_grad,
    localization_violation,
    solve_shooting,
    solve_smoothed,
    transcribe,
)
from sweepctl.certify import recover_eta
from sweepctl.cli import build_problem
from sweepctl.problems import (
    elastoplastic_instance,
    instance,
    instance_spec,
    solution_on_mesh,
)


def remark45_problem():
    return instance("remark45").problem


def remark45_uref(t):
    return -2.0 + t if t < 1.0 else -1.0


def exact_remark45_decision(k):
    """The closed-form pair as a discrete decision, multipliers included."""
    problem = remark45_problem()
    state, control = solution_on_mesh("remark45", k)
    eta = recover_eta(problem.system, state, control)
    z = DiscreteDecision(mesh=state.mesh, x=state.values, u=control.values,
                         eta=eta.values[:-1])
    return problem, z


# ---------------------------------------------------------------------------
# Cost evaluation
# ---------------------------------------------------------------------------


def test_exact_remark45_pair_costs_zero():
    # The tracked control equals its reference at every node and the terminal
    # state sits on the target, so the discrete cost vanishes identically.
    for k in (8, 40, 200):
        problem, z = exact_remark45_decision(k)
        assert abs(cost_eval(problem, z)) <= 1e-14


def test_unit_running_cost_integrates_to_horizon():
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    system = SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                            theta=NonpositiveOrthant(1), x0=[-1.0], T=3.0)
    problem = OcpProblem(
        system=system,
        phi=lambda x: 0.0, dphi=lambda x: np.zeros(1),
        ell=lambda t, x, u, vx: 1.0,
        dell=lambda t, x, u, vx: (np.zeros(1), np.zeros(1), np.zeros(1)),
        mode="W12xC", u0=[0.0])
    for k in (1, 7, 30):
        mesh = Mesh(k=k, T=3.0)
        z = DiscreteDecision(mesh=mesh, x=np.zeros((k + 1, 1)),
                             u=np.zeros((k + 1, 1)), eta=np.zeros((k, 1)))
        assert abs(cost_eval(problem, z) - 3.0) < 1e-12


def test_control_energy_cost_by_hand():
    """linear u from (1,1) to (0,0) plus constant state: J = phi + 1/2 |du|^2."""
    problem = instance("counterexample53").problem
    k = 4
    mesh = Mesh(k=k, T=1.0)
    u = np.linspace([1.0, 1.0], [0.0, 0.0], k + 1)
    x = np.ones((k + 1, 2))
    z = DiscreteDecision(mesh=mesh, x=x, u=u, eta=np.zeros((k, 2)))
    # udot = (-1,-1) on every cell: running term = 1/2 * 2 = 1; phi(1,1) = 1.
    assert abs(cost_eval(problem, z) - 2.0) < 1e-12


def test_anchor_terms_vanish_on_the_anchor():
    problem, z = exact_remark45_decision(8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    anchored = dataclasses.replace(problem, rho=0.7, anchor=(xbar, ubar))
    assert abs(cost_eval(anchored, z) - cost_eval(problem, z)) < 1e-14
    # moving the control off the anchor by d adds rho * sum d^2 (W12xC form)
    z_off = DiscreteDecision(mesh=z.mesh, x=z.x, u=z.u + 0.1, eta=z.eta)
    base = cost_eval(problem, z_off)
    expected = 0.7 * (z.mesh.k + 1) * 0.1 ** 2
    assert abs(cost_eval(anchored, z_off) - base - expected) < 1e-12


def test_rho_without_anchor_is_rejected():
    problem = remark45_problem()
    with pytest.raises(ConfigurationError):
        dataclasses.replace(problem, rho=1.0)


def test_cost_forms_and_callbacks_are_validated():
    problem = remark45_problem()
    with pytest.raises(ConfigurationError):  # a callback needs its gradient
        dataclasses.replace(problem, phi=lambda x: 0.0)
    with pytest.raises(ConfigurationError):
        OcpProblem(system=problem.system, phi=problem.phi,
                   ell=lambda t, x, u, vx: 0.0, mode="W12xC", u0=[-2.0])
    with pytest.raises(ConfigurationError):  # udot is not a W12xC argument
        dataclasses.replace(problem, ell=QuadraticStageCost(energy=1.0))
    with pytest.raises(ConfigurationError):
        QuadraticStageCost(tracking=1.0)
    with pytest.raises(ConfigurationError):
        QuadraticStageCost(tracking=1.0, ref=([0.0, 1.0, 1.0], [[0.0]] * 3))


def test_localization_violation_measures_tube_exit():
    problem, z = exact_remark45_decision(8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    tight = dataclasses.replace(problem, anchor=(xbar, ubar), epsilon=0.5)
    assert localization_violation(tight, z) == 0.0
    z_off = DiscreteDecision(mesh=z.mesh, x=z.x + 1.0, u=z.u, eta=z.eta)
    # node distance 1 against a tube of radius eps/2 = 0.25
    assert abs(localization_violation(tight, z_off) - 0.75) < 1e-12
    assert localization_violation(problem, z_off) == 0.0  # no anchor, no tube


# ---------------------------------------------------------------------------
# Transcription structure
# ---------------------------------------------------------------------------


def test_transcription_counts_scalar_halfline():
    tr = transcribe(remark45_problem(), 2)
    # one finite bound (psi <= 0), scalar state and control
    assert tr.counts == {"variables": 8, "dynamic_equalities": 2,
                         "complementarity_rows": 2, "endpoint_rows": 1}


def test_transcription_counts_plane_and_interval():
    tr = transcribe(instance("counterexample53").problem, 4)
    assert tr.counts["complementarity_rows"] == 8
    assert tr.counts["variables"] == 5 * 4 + 4 * 2
    tr = transcribe(instance("elastoplastic61").problem, 3)
    # the interval image set contributes an upper and a lower bound per step
    assert tr.counts["complementarity_rows"] == 6
    assert tr.counts["endpoint_rows"] == 2


def test_transcription_rejects_smooth_theta():
    theta = SmoothInequality(
        s=1, l=1, h=lambda z: np.array([z[0] ** 2 - 1.0]),
        jac=lambda z: np.array([[2.0 * z[0]]]),
        hess=lambda z, w: np.array([[2.0 * w[0]]]))
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    system = SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                            theta=theta, x0=[0.0], T=1.0)
    problem = dataclasses.replace(remark45_problem(), system=system)
    with pytest.raises(ConfigurationError):
        transcribe(problem, 4)


def test_theta_bounds_follow_a_negative_diagonal_scaling():
    # Z = [-2, 1] scaled by A = -1 is Theta = [-1, 2]
    theta = LinearImagePolyhedron(A=((-1.0,),), G=((1.0,), (-1.0,)),
                                  g=(1.0, 2.0), require_spd=False)
    lo, hi = theta.bounds()
    for z in np.linspace(-3.0, 3.0, 25):
        assert bool(lo[0] <= z <= hi[0]) == theta.contains(np.array([z]))
    # a mixed-sign diagonal with one-sided Z rows
    theta = LinearImagePolyhedron(A=((-2.0, 0.0), (0.0, 3.0)),
                                  G=((1.0, 0.0), (0.0, -1.0)),
                                  g=(1.0, 1.0), require_spd=False)
    lo, hi = theta.bounds()
    np.testing.assert_array_equal(lo, [-2.0, -3.0])
    np.testing.assert_array_equal(hi, [np.inf, np.inf])
    for z in itertools.product(np.linspace(-4.0, 4.0, 17), repeat=2):
        z = np.array(z)
        assert bool(np.all((lo <= z) & (z <= hi))) == theta.contains(z)


def test_initial_decision_is_dynamically_consistent():
    tr = transcribe(remark45_problem(), 8)
    z = tr.initial_decision()
    assert tr.dynamics_residual(z) <= 1e-12
    assert all(slack >= -1e-12 for _, slack in tr.pair_values(z))


# ---------------------------------------------------------------------------
# Smoothed continuation solver
# ---------------------------------------------------------------------------


def test_smoothed_reaches_the_remark45_optimum():
    problem = remark45_problem()
    tr = transcribe(problem, 100)
    z, report = solve_smoothed(tr)
    assert report.cost <= 1e-3
    uref = np.array([remark45_uref(t) for t in z.mesh.nodes])
    assert np.max(np.abs(z.u[:, 0] - uref)) <= 5e-2
    assert tr.dynamics_residual(z) <= 1e-6
    assert report.comp_residual <= 1e-6
    assert report.stat_residual <= 1e-8


def test_smoothed_keeps_a_stationary_warm_start():
    problem, z = exact_remark45_decision(8)
    tr = transcribe(problem, 8)
    z_out, report = solve_smoothed(tr, sigma_schedule=[1e-12], warm=z)
    assert report.iterations == 0
    assert np.array_equal(z_out.x, z.x)
    assert np.array_equal(z_out.u, z.u)


def test_smoothed_validates_the_schedule():
    tr = transcribe(remark45_problem(), 4)
    with pytest.raises(ConfigurationError):
        solve_smoothed(tr, sigma_schedule=[0.1, 0.5])
    with pytest.raises(ConfigurationError):
        solve_smoothed(tr, sigma_schedule=[])
    with pytest.raises(ConfigurationError):
        solve_smoothed(tr, sigma_schedule=[0.1, -0.01])


def test_smoothed_rejects_unpinned_warm_start():
    problem, z = exact_remark45_decision(8)
    bad_u = z.u.copy()
    bad_u[0] = -1.0  # u0 is -2 in the problem data
    bad = DiscreteDecision(mesh=z.mesh, x=z.x, u=bad_u, eta=z.eta)
    tr = transcribe(problem, 8)
    with pytest.raises(InfeasibleWarmStartError):
        solve_smoothed(tr, warm=bad)


def test_smoothed_solves_the_reachable_play_target():
    # with the terminal target at the initial state, resting is optimal
    problem = elastoplastic_instance(0.5).problem
    z, report = solve_smoothed(transcribe(problem, 40))
    assert report.cost <= 1e-5
    assert abs(z.x[-1, 0] - 0.5) <= 1e-3


def test_smoothed_cost_trace_settles_downward():
    """Stage costs may undershoot the constrained optimum while sigma is
    large (the relaxed problems are slightly cheaper), so monotonicity holds
    up to that relaxation scale."""
    z, report = solve_smoothed(transcribe(remark45_problem(), 50))
    diffs = np.diff(report.cost_trace)
    assert np.all(diffs <= 1e-4)
    assert report.cost_trace[-1] <= report.cost_trace[0]


# ---------------------------------------------------------------------------
# Shooting solver
# ---------------------------------------------------------------------------


def test_shooting_agrees_with_smoothed_on_remark45():
    problem = remark45_problem()
    k = 25
    _, rep_smooth = solve_smoothed(transcribe(problem, k))
    mesh = Mesh(k=k, T=problem.system.T)
    warm = Path(mesh=mesh, values=np.full((k + 1, 1), -2.0))
    _, rep_shoot = solve_shooting(problem, k, warm)
    assert abs(rep_smooth.cost - rep_shoot.cost) <= 1e-3


def test_shooting_recovers_the_reference_without_contact():
    """Started deep inside the moving set the tracking problem decouples:
    every free node should land on the reference."""
    base = remark45_problem()
    system = dataclasses.replace(base.system, x0=np.array([-5.0]))
    problem = dataclasses.replace(base, system=system)
    k = 8
    mesh = Mesh(k=k, T=2.0)
    init = Path(mesh=mesh, values=np.array(
        [[remark45_uref(t) + 0.3] for t in mesh.nodes]))
    z, report = solve_shooting(problem, k, init)
    for j in range(k):
        assert abs(z.u[j, 0] - remark45_uref(mesh.nodes[j])) <= 1e-3
    assert np.max(np.abs(z.x - (-5.0))) == 0.0  # zero drift, no contact


def test_shooting_keeps_pinned_nodes():
    problem = remark45_problem()
    k = 6
    mesh = Mesh(k=k, T=2.0)
    init = Path(mesh=mesh, values=np.full((k + 1, 1), -2.0))
    z, report = solve_shooting(problem, k, init,
                               free_mask=np.zeros(k + 1, dtype=bool))
    assert report.iterations == 0
    assert np.array_equal(z.u, init.values)


def test_shooting_cost_trace_is_nonincreasing():
    problem = remark45_problem()
    k = 16
    mesh = Mesh(k=k, T=2.0)
    warm = Path(mesh=mesh, values=np.full((k + 1, 1), -2.0))
    _, report = solve_shooting(problem, k, warm)
    assert np.all(np.diff(report.cost_trace) <= 0.0)


def test_shooting_rejects_unsimulatable_start():
    # a prescribed initial control that puts x0 outside the moving set makes
    # every candidate unsimulatable (node 0 is pinned to u0)
    problem = dataclasses.replace(remark45_problem(), u0=np.array([5.0]))
    k = 4
    mesh = Mesh(k=k, T=2.0)
    vals = np.full((k + 1, 1), -2.0)
    with pytest.raises(InfeasibleWarmStartError):
        solve_shooting(problem, k, Path(mesh=mesh, values=vals))


def test_shooting_needs_the_matching_mesh():
    problem = remark45_problem()
    wrong = Path(mesh=Mesh(k=5, T=2.0), values=np.full((6, 1), -2.0))
    with pytest.raises(ConfigurationError):
        solve_shooting(problem, 10, wrong)


# ---------------------------------------------------------------------------
# Exact shooting gradients against forward differences
# ---------------------------------------------------------------------------


def _simulated(problem, U, mesh):
    state, records = simulate(problem.system, Path(mesh=mesh, values=U))
    eta = np.array([r.eta for r in records]) / mesh.h
    return DiscreteDecision(mesh=mesh, x=state.values, u=U, eta=eta), records


def _reference(instance_id, k, scale, seed):
    """A problem instance at its reference control plus seeded noise."""
    problem = instance(instance_id).problem
    U = solution_on_mesh(instance_id, k)[1].values.copy()
    U[1:] += scale * np.random.default_rng(seed).standard_normal(U[1:].shape)
    return problem, U


def _retargeted_remark45():
    """remark45 at its reference control, but with terminal target 1/2: the
    rest phase is weakly active (x + u = 0 with a zero multiplier) and the
    terminal gradient is not zero, so the one-sided tangents there count."""
    problem, U = _reference("remark45", 16, 0.0, 0)
    return dataclasses.replace(problem, phi=lambda x: 0.5 * (x[0] - 0.5) ** 2,
                               dphi=lambda x: np.array([x[0] - 0.5])), U


def _moving_polytope(n, s):
    """Moving polytope {x : U_j x <= b_j} with every row and offset a free
    control entry, an affine drift pushing out through its first faces,
    and costs on the state, the control and its rate."""
    rng = np.random.default_rng([n, s])
    rows = rng.standard_normal((s, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    push = 3.0 * (rows[0] + 0.5 * rows[1])
    system = SweepingSystem(f=lambda t, x: -0.5 * x + push,
                            field=FieldMap.polyhedral(n, s),
                            theta=NonpositiveOrthant(s), x0=np.zeros(n), T=1.0)
    u0 = np.concatenate([rows.ravel(), rng.uniform(0.3, 0.8, s)])
    problem = OcpProblem(
        system=system, phi=lambda x: 0.5 * x @ x, dphi=lambda x: x.copy(),
        ell=lambda t, x, u, vx, vu: 0.5 * x @ x + 0.05 * u @ u + 0.5 * vu @ vu,
        dell=lambda t, x, u, vx, vu: (x.copy(), 0.1 * u, np.zeros_like(vx),
                                      vu.copy()),
        mode="W12xW12", u0=u0)
    U = np.tile(u0, (7, 1))
    U[1:] += 0.05 * rng.standard_normal(U[1:].shape)
    return problem, U


def _state_mapped():
    """counterexample53 swept through the state map g = [[2, 0], [1, 1]]."""
    base = instance("counterexample53").problem
    problem = dataclasses.replace(
        base, system=dataclasses.replace(base.system, g=[[2.0, 0.0], [1.0, 1.0]]),
        u0=np.array([2.5, 2.5]))
    U = np.linspace(2.5, 1.0, 11)[:, None] * np.ones((1, 2))
    U[1:] += 0.2 * np.random.default_rng(53).standard_normal((10, 2))
    return problem, U


def _duplicated_rows(scale):
    """elastoplastic61 with its upper face listed twice (dependent rows)."""
    problem, U = _reference("elastoplastic61", 20, scale, 61)
    theta = LinearImagePolyhedron(A=((1.0,),), G=((1.0,), (1.0,), (-1.0,)),
                                  g=(1.0, 1.0, 1.0))
    return dataclasses.replace(
        problem, system=dataclasses.replace(problem.system, theta=theta)), U


def _mixed_activity():
    """counterexample53 with the first face pushing the state and the second
    resting on it: every step has one strictly and one weakly active row."""
    problem, U = _reference("counterexample53", 10, 0.0, 0)
    U[1:, 0] = np.linspace(0.95, 0.5, 10)
    return problem, U


def _anchored_at(instance_id, rho, k, seed):
    _, U = _reference(instance_id, k, 0.2, seed)
    return _anchored(instance_id, rho), U


GRADIENT_CASES = {
    "remark45-reference": lambda: _reference("remark45", 16, 0.0, 0),
    "remark45-retargeted-rest": _retargeted_remark45,
    "remark45-noisy": lambda: _reference("remark45", 16, 0.2, 45),
    "elastoplastic61": lambda: _reference("elastoplastic61", 20, 0.2, 61),
    "counterexample53": lambda: _reference("counterexample53", 10, 0.2, 53),
    "counterexample53-mixed-activity": _mixed_activity,
    "polytope-n2-s4": lambda: _moving_polytope(2, 4),
    "polytope-n2-s8": lambda: _moving_polytope(2, 8),
    "polytope-n3-s4": lambda: _moving_polytope(3, 4),
    "polytope-n3-s8": lambda: _moving_polytope(3, 8),
    "state-map": _state_mapped,
    "duplicated-rows-reference": lambda: _duplicated_rows(0.0),
    "duplicated-rows-noisy": lambda: _duplicated_rows(0.2),
    "anchored-w12c": lambda: _anchored_at("remark45", 0.7, 16, 7),
    "anchored-w12w12": lambda: _anchored_at("elastoplastic61", 0.4, 20, 4),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_shooting_gradient_matches_forward_differences(case):
    problem, U = GRADIENT_CASES[case]()
    k, m = U.shape[0] - 1, U.shape[1]
    mesh = Mesh(k=k, T=problem.system.T)
    assert _has_exact_tangents(problem.system)
    free = [(j, a) for j in range(1, k + 1) for a in range(m)]
    z, records = _simulated(problem, U, mesh)
    g = _shooting_gradient(problem, z, records, free)
    base = cost_eval(problem, z)
    fd = np.empty(len(free))
    for i, (j, a) in enumerate(free):
        Up = U.copy()
        Up[j, a] += 1e-7
        fd[i] = (cost_eval(problem, _simulated(problem, Up, mesh)[0]) - base) / 1e-7
    assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("case", ["anchored-w12c", "anchored-w12w12",
                                  "polytope-n3-s4", "remark45-noisy"])
def test_cost_grad_matches_forward_differences(case):
    problem, U = GRADIENT_CASES[case]()
    z, _ = _simulated(problem, U, Mesh(k=U.shape[0] - 1, T=problem.system.T))
    dX, dU = cost_grad(problem, z)
    assert dX.shape == z.x.shape and dU.shape == z.u.shape
    base = cost_eval(problem, z)
    for name, grad in (("x", dX), ("u", dU)):
        for idx in np.ndindex(grad.shape):
            moved = getattr(z, name).copy()
            moved[idx] += 1e-7
            fd = (cost_eval(problem, dataclasses.replace(z, **{name: moved}))
                  - base) / 1e-7
            assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, np.max(np.abs(grad)))


def test_shooting_reaches_the_default_tolerance():
    """From the start the benchmark's README cites (remark45, k=16, seed 51)
    the forward-difference gradients stalled above 1e-12 until the cap."""
    problem, U = _reference("remark45", 16, 0.2, [51, 1])
    _, report = solve_shooting(problem, 16, Path(mesh=Mesh(k=16, T=2.0), values=U),
                               tol=1e-12, max_iter=100)
    assert report.iterations < 100
    assert report.stat_residual ** 2 < 1e-12


def test_exact_route_simulates_once_per_line_search_trial():
    problem = remark45_problem()
    k = 8
    warm = Path(mesh=Mesh(k=k, T=2.0), values=np.full((k + 1, 1), -2.0))
    _, report = solve_shooting(problem, k, warm)
    assert report.iterations >= 2
    assert report.line_search_trials >= report.iterations - 1
    assert report.simulations == 1 + report.line_search_trials
    # forward differences would need k simulations per gradient
    assert report.simulations < k * report.iterations


def test_nonlinear_field_keeps_forward_differences():
    problem = instance("nonconvex22").problem
    assert not _has_exact_tangents(problem.system)
    k = 6
    u = np.zeros((k + 1, 1))
    u[1:, 0] = 0.3 * np.linspace(0.0, 1.0, k)
    _, report = solve_shooting(problem, k, Path(mesh=Mesh(k=k, T=1.0), values=u),
                               max_iter=10)
    assert np.all(np.diff(report.cost_trace) <= 0.0)
    assert report.cost_trace[-1] < report.cost_trace[0]
    assert report.simulations == (1 + k * report.iterations
                                  + report.line_search_trials)


@pytest.mark.parametrize("max_iter, simulations, cost",
                         [(40, 417, 0.5021), (60, 626, 0.50048)])
def test_forward_differences_reach_the_nonsmooth_optimum(max_iter, simulations,
                                                         cost):
    """On nonconvex22 the optimum is a kink.  The L-BFGS memory is dropped
    after a line search that needs a step below 2^-10, and a trial whose
    decrease is lost in rounding is rejected, so the forward-difference route
    stays within what steepest descent spent and gets further (the bounds are
    its simulations and cost at the same max_iter)."""
    problem = instance("nonconvex22").problem
    k = 6
    u = np.zeros((k + 1, 1))
    u[1:, 0] = 0.3 * np.linspace(0.0, 1.0, k)
    _, report = solve_shooting(problem, k, Path(mesh=Mesh(k=k, T=1.0), values=u),
                               max_iter=max_iter)
    assert np.all(np.diff(report.cost_trace) <= 0.0)
    assert report.simulations <= simulations
    assert report.cost <= cost


@pytest.mark.parametrize("k", [16, 20])
def test_remark45_shooting_converges_in_few_iterations(k):
    for seed in range(3):
        problem, U = _reference("remark45", k, 0.2, seed)
        _, report = solve_shooting(problem, k, Path(mesh=Mesh(k=k, T=2.0), values=U),
                                   tol=1e-10)
        assert report.stop_reason == "tolerance"
        assert report.iterations <= 35
        assert report.stat_residual ** 2 < 1e-10


def _elastoplastic_budget(seed):
    """elastoplastic61 at k=20 from a seeded noisy resting control, with a
    40-iteration budget; returns the problem, the result and the mesh."""
    problem = instance("elastoplastic61").problem
    k = 20
    u = np.zeros((k + 1, 1))
    u[1:] = 0.03 * np.random.default_rng(seed).standard_normal((k, 1))
    mesh = Mesh(k=k, T=1.0)
    return problem, solve_shooting(problem, k, Path(mesh=mesh, values=u),
                                   max_iter=40), mesh


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elastoplastic_budget_reaches_the_optimum(seed):
    _, (_, report), _ = _elastoplastic_budget(seed)
    assert report.stop_reason == "iteration_budget"
    assert abs(report.cost - 0.125) <= 1e-6
    assert report.simulations <= 60
    assert report.simulations == 1 + report.line_search_trials
    assert np.all(np.diff(report.cost_trace) <= 0.0)


def test_budget_end_residual_belongs_to_the_returned_decision():
    problem, (z, report), mesh = _elastoplastic_budget(1)
    assert report.iterations == 40
    _, records = simulate(problem.system, Path(mesh=mesh, values=z.u))
    free = [(j, 0) for j in range(1, mesh.k + 1)]
    g = _shooting_gradient(problem, z, records, free)
    assert report.stat_residual == pytest.approx(np.linalg.norm(g), rel=1e-12)


def test_lbfgs_direction_descends_on_curvature_pairs():
    rng = np.random.default_rng(3)
    assert np.array_equal(_lbfgs_direction(np.array([1.0, -2.0]), []),
                          np.array([-1.0, 2.0]))
    for _ in range(200):
        n = int(rng.integers(1, 12))
        pairs = []
        while len(pairs) < int(rng.integers(1, 9)):
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            if y @ s > 0.0:
                pairs.append((s, y))
        g = rng.standard_normal(n)
        assert g @ _lbfgs_direction(g, pairs) < 0.0


# ---------------------------------------------------------------------------
# Cross-checks between the two solvers
# ---------------------------------------------------------------------------


def test_solvers_cross_validate_on_the_play_operator():
    problem = instance("elastoplastic61").problem
    k = 20
    _, rep_smooth = solve_smoothed(transcribe(problem, k))
    mesh = Mesh(k=k, T=1.0)
    warm = Path(mesh=mesh, values=np.zeros((k + 1, 1)))
    _, rep_shoot = solve_shooting(problem, k, warm)
    assert abs(rep_smooth.cost - rep_shoot.cost) <= 1e-3


def test_random_feasible_decisions_never_beat_the_solver():
    """The smoothed optimum should weakly dominate arbitrary simulated
    controls; random perturbations give the comparison pool."""
    problem = remark45_problem()
    k = 50
    tr = transcribe(problem, k)
    z_opt, report = solve_smoothed(tr)
    rng = np.random.default_rng(20240817)
    mesh = Mesh(k=k, T=2.0)
    from sweepctl.dynamics import SimulationError, simulate
    beaten = 0
    for _ in range(25):
        vals = np.array([[remark45_uref(t)] for t in mesh.nodes])
        vals[1:] += rng.normal(scale=0.2, size=(k, 1))
        vals[0] = problem.u0
        try:
            state, records = simulate(problem.system, Path(mesh=mesh, values=vals))
        except SimulationError:
            continue
        eta = np.array([r.eta for r in records]) / mesh.h
        z = DiscreteDecision(mesh=mesh, x=state.values, u=vals, eta=eta)
        if cost_eval(problem, z) < report.cost - 1e-9:
            beaten += 1
    assert beaten == 0


# ---------------------------------------------------------------------------
# Smoothed KKT Jacobian against central differences of its residual
# ---------------------------------------------------------------------------


def _affine_drift_problem():
    """counterexample53 rebuilt from its spec with an affine drift."""
    spec = instance_spec("counterexample53", k=6)
    spec["dynamics"] = {"kind": "affine", "A": [[-0.5, 0.3], [0.2, -0.4]],
                        "b": [0.1, -0.2]}
    return build_problem(spec)


def _anchored(instance_id, rho):
    problem = instance(instance_id).problem
    return dataclasses.replace(problem, rho=rho,
                               anchor=solution_on_mesh(instance_id, 8))


#: A tracked control whose interior breakpoints fall between the nodes of
#: the meshes below (k = 6 on [0, 2] puts nodes at multiples of 1/3).
OFF_MESH_TIMES = [0.0, 0.45, 1.3, 2.0]
OFF_MESH_VALUES = [[-2.0], [-1.4], [-0.9], [-1.1]]


def _off_mesh_tracking_problem():
    """remark45 from its spec, tracking a reference with off-mesh kinks
    toward a reweighted terminal target."""
    spec = instance_spec("remark45", k=6)
    spec["cost"]["ell"].update(weight=0.8, times=OFF_MESH_TIMES,
                               values=OFF_MESH_VALUES)
    spec["cost"]["phi"].update(weight=1.7, center=[0.8])
    return build_problem(spec)


def _tracking_and_energy_problem():
    """remark45 in W12xW12 with a stage cost carrying both weights."""
    return dataclasses.replace(
        remark45_problem(), mode="W12xW12",
        ell=QuadraticStageCost(tracking=0.8, energy=0.3,
                               ref=(OFF_MESH_TIMES, OFF_MESH_VALUES)))


KKT_CASES = {
    "remark45": remark45_problem,
    "counterexample53": lambda: instance("counterexample53").problem,
    "elastoplastic61": lambda: instance("elastoplastic61").problem,
    "nonconvex22": lambda: instance("nonconvex22").problem,
    "remark45_anchored_w12c": lambda: _anchored("remark45", 0.7),
    "elastoplastic61_anchored_w12w12": lambda: _anchored("elastoplastic61", 0.4),
    "spec_affine_drift": _affine_drift_problem,
    "spec_tracking_off_mesh": _off_mesh_tracking_problem,
    "tracking_and_energy_w12w12": _tracking_and_energy_problem,
}


@pytest.mark.parametrize("sigma", [0.3, 1e-3])
@pytest.mark.parametrize("case", sorted(KKT_CASES))
def test_kkt_jacobian_matches_central_differences(case, sigma):
    kkt = _KktSystem(transcribe(KKT_CASES[case](), 6))
    rng = np.random.default_rng([sum(map(ord, case)), round(1 / sigma)])
    X = kkt.pack_primal(kkt.tr.initial_decision())
    X = X + rng.normal(scale=0.2, size=X.shape)
    F, J = kkt.residual(X, sigma, with_jacobian=True)
    assert np.array_equal(kkt.residual(X, sigma)[0], F)

    def shifted(i, c):
        Y = X.copy()
        Y[i] += c * 3e-5 * (1.0 + abs(X[i]))
        return kkt.residual(Y, sigma)[0]

    # Fourth-order central differences: the residual differences the drift
    # itself (step 1e-6), so a coarse probe step keeps that noise out, and
    # the higher order keeps the smoothing curvature at small sigma out.
    fd = np.column_stack([
        (8 * (shifted(i, 1) - shifted(i, -1)) - (shifted(i, 2) - shifted(i, -2)))
        / (12 * 3e-5 * (1.0 + abs(X[i]))) for i in range(X.size)])
    assert np.max(np.abs(J - fd)) <= 1e-7 * max(1.0, np.max(np.abs(J)))


# ---------------------------------------------------------------------------
# Exact stage derivatives of the data forms against the callback path
# ---------------------------------------------------------------------------


def _as_callbacks(problem):
    """The same problem with its cost and drift hidden behind bare callbacks,
    so the solvers fall back to central differences."""
    f, phi, dphi, ell, dell = (problem.system.f, problem.phi, problem.dphi,
                               problem.ell, problem.dell)
    return dataclasses.replace(
        problem, system=dataclasses.replace(problem.system, f=lambda t, x: f(t, x)),
        phi=lambda x: phi(x), dphi=lambda x: dphi(x),
        ell=lambda *a: ell(*a), dell=lambda *a: dell(*a))


@pytest.mark.parametrize("sigma", [0.3, 1e-3])
@pytest.mark.parametrize("case", sorted(KKT_CASES))
def test_exact_stage_derivatives_match_the_callback_path(case, sigma):
    problem = KKT_CASES[case]()
    assert isinstance(problem.ell, QuadraticStageCost)
    assert isinstance(problem.phi, QuadraticTerminalCost)
    assert isinstance(problem.system.f, AffineDrift)
    exact = _KktSystem(transcribe(problem, 6))
    fd = _KktSystem(transcribe(_as_callbacks(problem), 6))
    assert exact.quad is not None and fd.quad is None
    rng = np.random.default_rng([sum(map(ord, case)), round(1 / sigma), 2])
    X = exact.pack_primal(exact.tr.initial_decision())
    X = X + rng.normal(scale=0.2, size=X.shape)
    F, J = exact.residual(X, sigma, with_jacobian=True)
    F_fd, J_fd = fd.residual(X, sigma, with_jacobian=True)
    # F carries the drift Jacobian too, so both share the differencing bound.
    assert np.max(np.abs(F - F_fd)) <= 1e-7 * max(1.0, np.max(np.abs(F)))
    assert np.max(np.abs(J - J_fd)) <= 1e-7 * max(1.0, np.max(np.abs(J)))
    z = exact.unpack(X)
    assert cost_eval(problem, z) == pytest.approx(
        cost_eval(_as_callbacks(problem), z), rel=1e-14, abs=1e-14)
    for g, g_fd in zip(cost_grad(problem, z), cost_grad(_as_callbacks(problem), z)):
        assert np.max(np.abs(g - g_fd)) <= 1e-14 * max(1.0, np.max(np.abs(g)))


def test_tracking_reference_interpolates_between_breakpoints():
    cost = QuadraticStageCost(tracking=1.0, ref=(OFF_MESH_TIMES, OFF_MESH_VALUES))
    t = np.array([-1.0, 0.0, 0.3, 0.45, 1.0, 1.9, 2.0, 3.0])
    expected = [-2.0, -2.0, -2.0 + 0.6 * 0.3 / 0.45, -1.4,
                -1.4 + 0.5 * 0.55 / 0.85, -0.9 - 0.2 * 0.6 / 0.7, -1.1, -1.1]
    assert np.allclose(cost.ref_at(t)[:, 0], expected, rtol=0, atol=1e-15)
    for tj, e in zip(t, expected):
        assert cost.ref_at(float(tj)) == pytest.approx([e], abs=1e-15)
        assert cost(float(tj), [0.0], np.array([0.5]), [0.0]) == pytest.approx(
            (0.5 - e) ** 2, abs=1e-14)


def test_data_forms_are_read_not_called(monkeypatch):
    """The smoothed KKT stages, cost_grad and cost_eval read a data-form
    problem's weights and drift matrix: no per-node callback calls."""
    calls = {}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[cls.__name__ + "." + name] = calls.get(cls.__name__ + "." + name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((QuadraticStageCost, "__call__"), (QuadraticStageCost, "grad"),
                      (QuadraticTerminalCost, "grad"), (AffineDrift, "__call__")):
        counting(cls, name)
    for case in ("remark45_anchored_w12c", "elastoplastic61", "spec_affine_drift",
                 "tracking_and_energy_w12w12"):
        problem = KKT_CASES[case]()
        kkt = _KktSystem(transcribe(problem, 6))
        decision = kkt.tr.initial_decision()  # the simulation steps the drift
        z = kkt.nodes(kkt.pack_primal(decision))
        calls.clear()
        kkt._stages(z, want_hess=True)
        kkt._stages(z, want_hess=False)
        cost_grad(problem, decision)
        cost_eval(problem, decision)
        assert calls == {}, (case, calls)
        # The wrappers are live: the callback route is counted.
        _KktSystem(transcribe(_as_callbacks(problem), 6))._stages(z, want_hess=True)
        assert set(calls) == {"QuadraticStageCost.grad", "QuadraticTerminalCost.grad",
                              "AffineDrift.__call__"}, (case, calls)


# ---------------------------------------------------------------------------
# Sparse KKT iteration against its dense oracles
# ---------------------------------------------------------------------------


def _dense_assemble(N, blocks):
    """Dense N x N matrix from stacks of dense blocks: each (rows, cols, B)
    puts B[j] at rows[j] x cols[j]; entries sharing a position add up in
    input order, entries with a negative index are dropped."""
    r = np.concatenate([np.broadcast_to(i[:, :, None], B.shape).ravel()
                        for i, _, B in blocks])
    c = np.concatenate([np.broadcast_to(j[:, None, :], B.shape).ravel()
                        for _, j, B in blocks])
    v = np.concatenate([B.ravel() for _, _, B in blocks])
    keep = (r >= 0) & (c >= 0)
    return np.bincount(r[keep] * N + c[keep], v[keep],
                       minlength=N * N).reshape(N, N)


def _dense_damped_step(J, F, lam, D):
    """The damped least-squares step by dense QR least squares on
    [J; sqrt(lam) D^(1/2)] d = [-F; 0]."""
    aug = np.vstack([J, np.sqrt(lam) * np.diag(np.sqrt(D))])
    return np.linalg.lstsq(aug, np.concatenate([-F, np.zeros(J.shape[1])]),
                           rcond=None)[0]


def _kkt_point(case, sigma, k=6):
    kkt = _KktSystem(transcribe(KKT_CASES[case](), k))
    rng = np.random.default_rng([sum(map(ord, case)), round(1 / sigma), 3])
    X = kkt.pack_primal(kkt.tr.initial_decision())
    return kkt, X + rng.normal(scale=0.2, size=X.shape)


@pytest.mark.parametrize("sigma", [0.3, 1e-3])
@pytest.mark.parametrize("case", sorted(KKT_CASES))
def test_sparse_jacobian_equals_the_dense_assembly(case, sigma):
    kkt, X = _kkt_point(case, sigma)
    F, pt = kkt.evaluate(X, sigma)
    J = kkt.jacobian(pt)
    assert J.format == "csc" and J.shape == (kkt.N, kkt.N)
    assert J.has_canonical_format
    blocks = [(i, j, B) for (i, j), B in zip(kkt.block_positions, kkt.jacobian_blocks(pt))]
    assert np.array_equal(J.toarray(), _dense_assemble(kkt.N, blocks))
    # The convenience wrapper evaluates the same point the same way.
    F2, J2 = kkt.residual(X, sigma, with_jacobian=True)
    assert np.array_equal(F2, F) and np.array_equal(J2.toarray(), J.toarray())


def _step_inputs(case):
    """F and three Jacobians at a perturbed KKT point: J itself, J with two
    equal columns (J^T J singular) and J with a repeated column appended
    (rectangular)."""
    kkt, X = _kkt_point(case, 1e-3)
    F, pt = kkt.evaluate(X, 1e-3)
    J = kkt.jacobian(pt).toarray()
    dup = J.copy()
    dup[:, 1] = dup[:, 0]
    return F, (J, dup, np.hstack([J, J[:, :1]]))


@pytest.mark.parametrize("lam", [1e-4, 1.0])
@pytest.mark.parametrize("case", ["remark45", "elastoplastic61_anchored_w12w12"])
def test_augmented_step_matches_dense_least_squares(case, lam):
    from scipy.sparse import csc_array

    F, jacobians = _step_inputs(case)
    for A in jacobians:
        D = np.maximum(np.sum(A * A, axis=0), 1e-8)
        # well enough conditioned that both steps are accurate to 1e-10
        assert np.linalg.cond(A.T @ A + lam * np.diag(D)) <= 1e7
        d = _damped_step(csc_array(A), F, lam, D)
        want = _dense_damped_step(A, F, lam, D)
        assert np.linalg.norm(d - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("lam", [1e-8, 1e-4, 1.0])
@pytest.mark.parametrize("case", ["remark45", "counterexample53",
                                  "elastoplastic61_anchored_w12w12"])
def test_augmented_step_solves_the_damped_normal_equations(case, lam):
    """Where J^T J + lam D is near singular (counterexample53, small lam)
    the two steps part by its condition number times the rounding unit;
    the augmented step still satisfies its optimality condition
    J^T (J d + F) + lam D d = 0 to the rounding level."""
    from scipy.sparse import csc_array

    F, jacobians = _step_inputs(case)
    for A in jacobians:
        D = np.maximum(np.sum(A * A, axis=0), 1e-8)
        d = _damped_step(csc_array(A), F, lam, D)
        gap = A.T @ (A @ d + F) + lam * D * d
        assert np.linalg.norm(gap) <= 1e-12 * max(1.0, np.linalg.norm(A.T @ F))


@pytest.mark.parametrize("name", ["remark45", "counterexample53", "elastoplastic61"])
def test_stacked_affine_table_equals_per_node_calls(name):
    field = instance(name).problem.system.effective_field()
    assert all(hasattr(getattr(field, cb), "at_nodes")
               for cb in ("psi", "dpsi_dx", "dpsi_du", "hess_xx", "hess_ux"))
    calls = []

    def per_node(fn):
        def call(*args):
            calls.append(1)
            return fn(*args)
        return call

    plain = dataclasses.replace(field, **{cb: per_node(getattr(field, cb)) for cb in
                                          ("psi", "dpsi_dx", "dpsi_du", "hess_xx", "hess_ux")})
    rng = np.random.default_rng(sum(map(ord, name)))
    K = 9
    x, u = rng.normal(size=(K, field.n)), rng.normal(size=(K, field.m))
    W = rng.normal(size=(K, field.s))
    stacked, node = field_at_nodes(field, x, u), field_at_nodes(plain, x, u)
    assert len(calls) == 3 * K
    for attr in ("psi", "Jx", "Ju", "J"):
        assert getattr(stacked, attr).tobytes() == getattr(node, attr).tobytes(), attr
    for got, want in zip(stacked.hess(W), node.hess(W)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(calls) == 5 * K


#: The smoothed workload of the benchmark: (instance, k) -> (iterations, cost).
#: The costs are those of the dense normal-equation iteration this sparse
#: augmented one replaced, which it repeats bit for bit.
BENCHMARK_SMOOTHED = {
    ("remark45", 25): (58, "0x1.0c6f7a0b5ff19p-15"),
    ("remark45", 50): (87, "0x1.0c6f7a0b610b7p-16"),
    ("elastoplastic61", 40): (10, "0x1.fffffffffcdaap-4"),
    ("elastoplastic61", 100): (14, "0x1.fffffffffcca5p-4"),
}


@pytest.mark.parametrize("name,k", sorted(BENCHMARK_SMOOTHED))
def test_benchmark_smoothed_solves_repeat_iterations_and_costs(name, k):
    problem = (remark45_problem() if name == "remark45"
               else elastoplastic_instance(0.0).problem)
    _, report = solve_smoothed(transcribe(problem, k))
    iterations, cost = BENCHMARK_SMOOTHED[name, k]
    assert report.iterations == iterations
    assert report.cost == float.fromhex(cost)
    assert report.stat_residual <= 1e-9


def test_smoothed_reports_one_factorization_per_damped_trial(monkeypatch):
    import scipy.sparse.linalg

    factorizations = []
    splu = scipy.sparse.linalg.splu

    def counting(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factorizations.append(1)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    problem = remark45_problem()
    _, first = solve_smoothed(transcribe(problem, 8))
    assert len(factorizations) == first.line_search_trials
    _, second = solve_smoothed(transcribe(problem, 8))
    assert second.line_search_trials == first.line_search_trials
    assert len(factorizations) == 2 * first.line_search_trials
    # every iteration accepts one trial; rejected trials come on top
    assert first.line_search_trials >= first.iterations > 0
    assert first.simulations == 0


def test_kkt_rows_are_located_by_kind_and_step():
    kkt = _KktSystem(transcribe(KKT_CASES["counterexample53"](), 5))
    tables = {"stationarity": (kkt.iz[1:], 1), "mu": (kkt.imu, 0),
              "gamma": (kkt.igam, 0), "adjoint": (kkt.ip, 0),
              "terminal": (kkt.it[None], kkt.mesh.k)}
    seen = 0
    for kind, (table, first) in tables.items():
        for j, row in enumerate(table):
            for i in row:
                assert kkt.locate(int(i)) == (kind, j + first)
                seen += 1
    assert seen == kkt.N


def test_smoothed_failure_names_the_mesh_stage_and_worst_row():
    # Below the rounding floor of the residual (about 1e-16) the last
    # stage stops when no damped trial lowers ||F||: a stall in well
    # under a second.
    tr = transcribe(remark45_problem(), 6)
    with pytest.raises(NumericalFailureError) as info:
        solve_smoothed(tr, sigma_schedule=[1e-8], tol_stat=1e-17)
    err = info.value
    message = str(err)
    assert "k=6 mesh" in message and "sigma 1e-08 stage" in message
    match = re.search(r"worst row: (\w+) at step (\d+)", message)
    assert match and match.group(1) in ("stationarity", "mu", "gamma", "adjoint",
                                        "terminal")
    assert 0 <= int(match.group(2)) <= 6
    assert err.partial.x.shape == (7, 1) and err.partial.u.shape == (7, 1)
