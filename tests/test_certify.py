"""Stationarity residuals, certificate assembly, and endpoint checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from sweepctl.dynamics import Mesh, Path, SweepingSystem, simulate
from sweepctl.geometry import (
    Box,
    ConfigurationError,
    DomainError,
    FieldMap,
    NonpositiveOrthant,
    NotInConeError,
    SmoothInequality,
    SurjectivityError,
    _cone_generators,
    coderivative_orthant,
    coderivative_theta,
    coderivative_violation,
)
from sweepctl.ocp import DiscreteDecision, OcpProblem, QuadraticStageCost
from sweepctl.certify import (
    ACT_TOL,
    TOL_POS,
    Certificate,
    DiscreteCertificate,
    ResidualItem,
    ResidualReport,
    SubgradientSelection,
    VectorMeasure,
    _interior_margin,
    _running_subgradients,
    assemble_certificate,
    check_nondegeneracy,
    conventional_hamiltonian,
    conventional_sufficiency_check,
    max_condition_check,
    modified_hamiltonian,
    recover_eta,
    residual_continuous_EL,
    residual_discrete_EL,
    smooth_inequality_lift,
    theta_quantities,
)
from sweepctl.problems import certificate_on_mesh, instance, solution_on_mesh


def halfline_field():
    return FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])


def ramp_state(t):
    if t < 0.5:
        return np.array([1.5])
    if t < 1.0:
        return np.array([2.0 - t])
    return np.array([1.0])


def ramp_control(t):
    return np.array([-2.0 + t if t < 1.0 else -1.0])


def residuals(report):
    return {item.name: item.residual for item in report.items}


# ---------------------------------------------------------------------------
# Reference certificates
# ---------------------------------------------------------------------------


def test_play_reference_multipliers_certify_exactly():
    """Zero adjoint plus a single endpoint atom closes the play instance.

    The sliding segment makes every stationarity row piecewise constant, so
    nothing is lost to quadrature and each residual comes out identically
    zero on any admissible mesh.
    """
    problem = instance("elastoplastic61").problem
    state, control = solution_on_mesh("elastoplastic61", 50)
    cert = certificate_on_mesh("elastoplastic61", 50)
    report = residual_continuous_EL(problem, state, control, cert, tol=1e-6)
    assert report.passed
    for name, value in residuals(report).items():
        assert value == 0.0, name
    assert report.details["total_variation"] == pytest.approx(1.0)


def test_tracking_reference_needs_no_multipliers():
    # Optimal cost zero means the certificate can vanish entirely apart from
    # the cost multiplier, and it does so exactly on every mesh that keeps
    # the control kinks on nodes.
    problem = instance("remark45").problem
    for k in (4, 8, 48):
        state, control = solution_on_mesh("remark45", k)
        cert = certificate_on_mesh("remark45", k)
        report = residual_continuous_EL(problem, state, control, cert)
        assert report.passed
        assert all(v == 0.0 for v in residuals(report).values())
        assert report.details["total_variation"] == 0.0


def test_resting_plane_certificate_passes_every_check():
    """The resting pair certifies even though the classical value blows up."""
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = certificate_on_mesh("counterexample53", 8)

    report = residual_continuous_EL(problem, state, control, cert)
    assert report.passed
    assert all(v == 0.0 for v in residuals(report).values())

    maxrep = max_condition_check(problem, state, control, cert, tol=1e-10)
    assert maxrep.passed
    assert maxrep.get("measured_coderivative").residual == 0.0
    assert maxrep.get("max_condition").residual == 0.0
    assert maxrep.details["modified_hamiltonian"] == 0.0

    suff = conventional_sufficiency_check(problem, state, control, cert)
    # Every cell rests with zero velocity multipliers, so the classical
    # identity has nothing to check, while its Hamiltonian is infinite.
    assert suff.details["cells_checked"] == 0
    assert suff.details["cells_skipped"] == 8
    assert math.isinf(suff.details["conventional_hamiltonian"])


def test_certificates_scale_along_the_cone():
    # Multipliers form a cone: scaling lam, p, q, gamma, nu together by any
    # positive factor preserves every residual of an exact certificate.
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = certificate_on_mesh("counterexample53", 8)
    c = 3.0
    scaled = Certificate(
        lam=c * cert.lam,
        p=Path(mesh=state.mesh, values=c * cert.p.values),
        q=c * cert.q,
        eta=cert.eta,
        gamma=VectorMeasure(mesh=state.mesh, density=c * cert.gamma.density,
                            atoms=tuple((t, c * w)
                                        for t, w in cert.gamma.atoms)),
        subgrad=cert.subgrad,
        nu=Path(mesh=state.mesh, values=c * cert.nu.values))
    report = residual_continuous_EL(problem, state, control, scaled)
    assert report.passed
    assert report.details["nontriviality_margin"] == pytest.approx(
        c * (1.0 + math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Residual sensitivity
# ---------------------------------------------------------------------------


def test_cost_multiplier_bump_breaks_transversality():
    # The endpoint inclusion couples lam to the adjoint through the target
    # gradient, so changing lam alone must surface there and nowhere else.
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = certificate_on_mesh("counterexample53", 8)
    bumped = dataclasses.replace(cert, lam=1.001)
    report = residual_continuous_EL(problem, state, control, bumped)
    assert not report.passed
    assert report.get("transversality").residual == pytest.approx(
        1e-3 * math.sqrt(2.0), rel=1e-9)
    for name in ("eta", "adjoint_ode", "q_gamma", "q_u", "nonatomicity"):
        assert report.get(name).residual == 0.0


def test_constant_adjoint_without_endpoint_support_fails():
    """An adjoint pointing away from the endpoint cone is caught at T."""
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    eta = recover_eta(problem.system, state, control)
    sg = SubgradientSelection(w_x=np.zeros((8, 1)), w_u=np.zeros((8, 1)),
                              v_x=np.zeros((8, 1)))
    pvals = np.tile(np.array([1.0, 0.0]), (9, 1))
    cert = Certificate(
        lam=0.0, p=Path(mesh=state.mesh, values=pvals), q=pvals.copy(),
        eta=eta, gamma=VectorMeasure(mesh=state.mesh, density=np.zeros((8, 1))),
        subgrad=sg)
    report = residual_continuous_EL(problem, state, control, cert)
    assert not report.passed
    # -p_T = (-1, 0) projects to zero on the active ray spanned by (1, 1).
    assert report.get("transversality").residual == pytest.approx(1.0)
    for name in ("eta", "adjoint_ode", "q_gamma", "q_u", "nonatomicity"):
        assert report.get(name).residual == 0.0
    assert report.get("nontriviality_margin").residual == 0.0


def test_zero_bundle_trips_nontriviality_alone():
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    eta = recover_eta(problem.system, state, control)
    sg = SubgradientSelection(w_x=np.zeros((8, 1)), w_u=np.zeros((8, 1)),
                              v_x=np.zeros((8, 1)))
    cert = Certificate(
        lam=0.0, p=Path(mesh=state.mesh, values=np.zeros((9, 2))),
        q=np.zeros((9, 2)), eta=eta,
        gamma=VectorMeasure(mesh=state.mesh, density=np.zeros((8, 1))),
        subgrad=sg)
    report = residual_continuous_EL(problem, state, control, cert)
    assert not report.passed
    item = report.get("nontriviality_margin")
    assert item.residual == pytest.approx(1e-8)
    assert item.tolerance == 0.0
    assert report.details["nontriviality_margin"] == 0.0
    others = [i for i in report.items if i.name != "nontriviality_margin"]
    assert all(i.passed for i in others)


def test_random_perturbations_never_certify():
    """Any single 1e-3 nudge of an exact certificate fails the report."""
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = certificate_on_mesh("counterexample53", 8)
    rng = np.random.default_rng(20240819)
    for _ in range(20):
        delta = float(rng.choice([-1e-3, 1e-3]))
        kind = int(rng.integers(0, 4))
        p = cert.p.values.copy()
        q = cert.q.copy()
        dens = cert.gamma.density.copy()
        lam = 1.0
        if kind == 0:
            p[rng.integers(0, 9), rng.integers(0, 4)] += delta
        elif kind == 1:
            q[rng.integers(0, 9), rng.integers(0, 4)] += delta
        elif kind == 2:
            dens[rng.integers(0, 8), rng.integers(0, 2)] += delta
        else:
            lam = 1.0 + delta
        tweaked = Certificate(
            lam=lam, p=Path(mesh=state.mesh, values=p), q=q, eta=cert.eta,
            gamma=VectorMeasure(mesh=state.mesh, density=dens),
            subgrad=cert.subgrad, nu=cert.nu)
        report = residual_continuous_EL(problem, state, control, tweaked)
        assert not report.passed


def test_atom_weight_errors_show_in_the_tail():
    # The q arc subtracts the measure tail, so a wrong atom weight shifts
    # every node value of p - tail by the same vector.
    problem = instance("elastoplastic61").problem
    state, control = solution_on_mesh("elastoplastic61", 20)
    cert = certificate_on_mesh("elastoplastic61", 20)
    gamma = VectorMeasure(mesh=state.mesh, density=cert.gamma.density,
                          atoms=((1.0, np.array([-1.001])),))
    report = residual_continuous_EL(
        problem, state, control, dataclasses.replace(cert, gamma=gamma))
    assert not report.passed
    assert report.get("q_gamma").residual == pytest.approx(
        1e-3 * math.sqrt(2.0), rel=1e-9)


def test_off_target_pair_reports_infinities():
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    cert = certificate_on_mesh("remark45", 8)
    outside = Path(mesh=state.mesh, values=state.values + 10.0)
    report = residual_continuous_EL(problem, outside, control, cert)
    assert math.isinf(report.get("eta").residual)
    assert math.isinf(report.get("transversality").residual)
    assert not report.passed


# ---------------------------------------------------------------------------
# Discrete adjoint system
# ---------------------------------------------------------------------------


def discrete_reference(k):
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", k)
    eta = recover_eta(problem.system, state, control)
    z = DiscreteDecision(mesh=state.mesh, x=state.values, u=control.values,
                         eta=eta.values[:-1])
    sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                              v_x=np.zeros((k, 1)))
    return problem, z, sg


def test_discrete_reference_multipliers_vanish():
    problem, z, sg = discrete_reference(8)
    cert = DiscreteCertificate(lam=1.0, p=np.zeros((9, 2)),
                               gamma=np.zeros((8, 1)), subgrad=sg)
    report = residual_discrete_EL(problem, z, cert)
    assert report.passed
    assert all(v == 0.0 for v in residuals(report).values())
    assert report.details["nontriviality_margin"] == pytest.approx(1.0)


def test_discrete_control_adjoint_is_pinned():
    # Without a control velocity in the running cost the control adjoint
    # must vanish nodewise; a kink also feeds the backward difference rows.
    problem, z, sg = discrete_reference(8)
    p = np.zeros((9, 2))
    p[3, 1] += 1e-3
    cert = DiscreteCertificate(lam=1.0, p=p, gamma=np.zeros((8, 1)),
                               subgrad=sg)
    report = residual_discrete_EL(problem, z, cert)
    assert not report.passed
    assert report.get("q_u").residual == pytest.approx(1e-3)
    assert report.get("adjoint_ode").residual == pytest.approx(4e-3)
    assert report.get("measured_coderivative").residual == 0.0


def test_discrete_shape_validation():
    problem, z, sg = discrete_reference(8)
    with pytest.raises(ConfigurationError):
        residual_discrete_EL(problem, z, DiscreteCertificate(
            lam=1.0, p=np.zeros((8, 2)), gamma=np.zeros((8, 1)), subgrad=sg))
    with pytest.raises(ConfigurationError):
        residual_discrete_EL(problem, z, DiscreteCertificate(
            lam=1.0, p=np.zeros((9, 2)), gamma=np.zeros((9, 1)), subgrad=sg))


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


def test_assembler_finds_the_endpoint_atom():
    """Least squares recovers the single-atom certificate of the play ramp."""
    problem = instance("elastoplastic61").problem
    state, control = solution_on_mesh("elastoplastic61", 20)
    cert = assemble_certificate(problem, state, control)
    assert cert.fit_residual <= 1e-9
    assert cert.non_unique
    assert np.max(np.abs(cert.p.values)) <= 1e-9
    assert len(cert.gamma.atoms) == 1
    t_atom, w_atom = cert.gamma.atoms[0]
    assert t_atom == pytest.approx(1.0)
    assert w_atom[0] == pytest.approx(-1.0, abs=1e-6)
    assert np.max(np.abs(cert.gamma.density)) <= 1e-6
    report = residual_continuous_EL(problem, state, control, cert)
    assert report.passed


def test_assembler_reproduces_the_resting_adjoint():
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = assemble_certificate(problem, state, control)
    assert cert.fit_residual <= 1e-9
    assert cert.non_unique
    expected = np.array([-1.0, -1.0, 0.0, 0.0])
    assert np.max(np.abs(cert.p.values - expected)) <= 1e-9
    report = residual_continuous_EL(problem, state, control, cert)
    assert report.passed
    assert report.get("q_gamma").residual <= 1e-10


def test_assembler_returns_silence_on_an_unconstrained_optimum():
    # The tracking reference already satisfies stationarity with everything
    # zero, and the minimum-norm fit lands exactly there.
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    cert = assemble_certificate(problem, state, control)
    assert cert.fit_residual == 0.0
    assert np.max(np.abs(cert.p.values)) == 0.0
    assert cert.gamma.atoms == ()
    assert np.max(np.abs(cert.gamma.density)) == 0.0


def test_assembler_keeps_measures_off_the_interior():
    """A pair resting strictly inside the moving set gets a pure adjoint.

    Density variables on interior cells are removed before fitting and the
    endpoint atom row forces itself to zero, so the whole measure vanishes
    and the endpoint inclusion is carried by the adjoint alone.
    """
    problem = dataclasses.replace(instance("counterexample53").problem,
                                  u0=np.array([2.0, 2.0]))
    mesh = Mesh(k=8, T=1.0)
    state = Path(mesh=mesh, values=np.ones((9, 2)))
    control = Path(mesh=mesh, values=2.0 * np.ones((9, 2)))
    cert = assemble_certificate(problem, state, control)
    assert cert.gamma.atoms == ()
    assert np.max(np.abs(cert.gamma.density)) <= 1e-9
    expected = np.array([-1.0, -1.0, 0.0, 0.0])
    assert np.max(np.abs(cert.p.values - expected)) <= 1e-6
    report = residual_continuous_EL(problem, state, control, cert)
    assert report.passed


def test_assembler_rejects_pairs_off_the_dynamics():
    # Shifting the control detaches the state from the boundary, leaving a
    # sliding velocity that no normal-cone element can produce.
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    detached = Path(mesh=control.mesh, values=control.values - 1.0)
    with pytest.raises(NotInConeError):
        assemble_certificate(problem, state, detached)


def test_measure_slack_cannot_fool_the_pointwise_condition():
    """The coderivative check rejects what the measure rows absorb.

    A tracking error next to a contact cell can be soaked into the measure
    density, so the plain residual report still passes; the recovered nu
    then sits on an inactive cell, where the coderivative only contains
    zero, and the refined condition fails by exactly the soaked amount.
    """
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    vals = control.values.copy()
    vals[1, 0] += 0.05
    bumped = Path(mesh=control.mesh, values=vals)
    cert = assemble_certificate(problem, state, bumped)
    assert cert.fit_residual <= 1e-9
    assert residual_continuous_EL(problem, state, bumped, cert).passed
    report = max_condition_check(problem, state, bumped, cert)
    assert not report.passed
    assert report.get("measured_coderivative").residual == pytest.approx(
        0.1, abs=1e-6)


def test_running_subgradients_read_data_forms(monkeypatch):
    """A data-form running cost gives every cell's partials without one
    ``dell`` call; as a bare callback it is called once per cell, and both
    routes give equal blocks (a zero partial may differ in sign only)."""
    calls = []
    grad = QuadraticStageCost.grad

    def counting(self, *args):
        calls.append(args[0])
        return grad(self, *args)

    monkeypatch.setattr(QuadraticStageCost, "grad", counting)
    mesh = Mesh(k=20, T=1.0)
    t = mesh.nodes[:, None]
    curved = (Path(mesh=mesh, values=1.0 - 0.5 * t),
              Path(mesh=mesh, values=np.sin(3.0 * t)))
    for iid in ("remark45", "counterexample53", "elastoplastic61", "nonconvex22"):
        problem = instance(iid).problem  # dell is the counting grad
        state, control = curved if iid == "nonconvex22" else solution_on_mesh(iid, 20)
        calls.clear()
        sg = _running_subgradients(problem, state, control)
        assert calls == [], iid
        data_form = problem.ell
        bare = dataclasses.replace(problem, ell=lambda *a: data_form(*a),
                                   dell=lambda *a: data_form.grad(*a))
        by_cell = _running_subgradients(bare, state, control)
        assert len(calls) == state.mesh.k, iid
        for name in ("w_x", "w_u", "v_x", "v_u"):
            a, b = getattr(sg, name), getattr(by_cell, name)
            assert (a is None and b is None) or np.array_equal(a, b), (iid, name)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


def test_modified_hamiltonian_casework():
    field = halfline_field()
    theta = NonpositiveOrthant(1)
    # inactive constraint: any nu and p give zero
    assert modified_hamiltonian(field, theta, [-2.0], [0.0], [3.0], [5.0]) == 0.0
    # active with nonnegative product: still zero
    assert modified_hamiltonian(field, theta, [1.0], [-1.0], [1.0], [2.0]) == 0.0
    # active with a negative product: unbounded
    assert math.isinf(
        modified_hamiltonian(field, theta, [1.0], [-1.0], [-1.0], [2.0]))
    with pytest.raises(DomainError):
        modified_hamiltonian(field, theta, [1.0], [0.5], [1.0], [1.0])


def test_conventional_hamiltonian_casework():
    field = halfline_field()
    theta = NonpositiveOrthant(1)
    assert conventional_hamiltonian(field, theta, [-2.0], [0.0], [-7.0]) == 0.0
    assert conventional_hamiltonian(field, theta, [1.0], [-1.0], [2.0]) == 0.0
    assert math.isinf(
        conventional_hamiltonian(field, theta, [1.0], [-1.0], [-2.0]))
    with pytest.raises(DomainError):
        conventional_hamiltonian(field, theta, [1.0], [0.5], [1.0])


def test_hamiltonian_checks_need_the_right_target():
    field = halfline_field()
    box = Box(lower=(0.0,), upper=(math.inf,))
    with pytest.raises(ConfigurationError):
        modified_hamiltonian(field, box, [1.0], [0.0], [1.0], [1.0])
    problem = instance("elastoplastic61").problem
    state, control = solution_on_mesh("elastoplastic61", 20)
    cert = certificate_on_mesh("elastoplastic61", 20)
    with pytest.raises(ConfigurationError):
        max_condition_check(problem, state, control, cert)
    rproblem = instance("remark45").problem
    rstate, rcontrol = solution_on_mesh("remark45", 8)
    rcert = dataclasses.replace(certificate_on_mesh("remark45", 8), nu=None)
    with pytest.raises(ConfigurationError):
        max_condition_check(rproblem, rstate, rcontrol, rcert)


# ---------------------------------------------------------------------------
# Endpoint qualification
# ---------------------------------------------------------------------------


def test_reference_endpoint_is_nondegenerate():
    field = halfline_field()
    result = check_nondegeneracy(field, NonpositiveOrthant(1),
                                 [1.0], [-1.0], [0.0])
    assert result.nondegenerate
    assert result.witness is None


def test_positive_multiplier_on_active_face_degenerates():
    """The returned witness really is two-sided at the endpoint."""
    field = halfline_field()
    theta = NonpositiveOrthant(1)
    result = check_nondegeneracy(field, theta, [1.0], [-1.0], [1.0])
    assert not result.nondegenerate
    witness = result.witness
    assert witness is not None and np.linalg.norm(witness) > 0
    np.testing.assert_allclose(witness, [-1.0])
    # witness sits in the coderivative at zero direction ...
    cases = coderivative_orthant(np.array([0.0]), np.array([1.0]),
                                 np.array([0.0]))
    assert coderivative_violation(cases, witness) == 0.0
    # ... while its negative lies in the normal cone itself.
    assert theta.normal_cone_violation(np.array([0.0]), -witness) == 0.0


def test_box_lower_face_witness_points_inward():
    field = halfline_field()
    box = Box(lower=(0.0,), upper=(math.inf,))
    result = check_nondegeneracy(field, box, [1.0], [-1.0], [-1.0])
    assert not result.nondegenerate
    np.testing.assert_allclose(result.witness, [1.0])
    cases = coderivative_theta(box, np.array([0.0]), np.array([-1.0]),
                               np.array([0.0]))
    assert coderivative_violation(cases, result.witness) == 0.0
    assert box.normal_cone_violation(np.array([0.0]), -result.witness) == 0.0


# Per-variant branches that read an orthant or a box field by field, kept as
# oracles for the code that now reads theta.halfspaces() and theta.bounds().

def _intervals(theta):
    if isinstance(theta, NonpositiveOrthant):
        return [(-math.inf, 0.0)] * theta.s
    return list(zip(theta.lower, theta.upper))


def oracle_cone_generators(theta, z, JT, tol=1e-7):
    cols = []
    for i, (lo, hi) in enumerate(_intervals(theta)):
        if np.isfinite(hi) and z[i] >= hi - tol:
            cols.append(JT[:, i])
        if np.isfinite(lo) and z[i] <= lo + tol:
            cols.append(-JT[:, i])
    if not cols:
        return np.zeros((JT.shape[0], 0)), []
    return np.column_stack(cols), [1] * len(cols)


def oracle_interior_margin(theta, z):
    if isinstance(theta, NonpositiveOrthant):
        return float(-np.max(z))
    margin = math.inf
    for i, (lo, hi) in enumerate(_intervals(theta)):
        if np.isfinite(hi):
            margin = min(margin, hi - z[i])
        if np.isfinite(lo):
            margin = min(margin, z[i] - lo)
    return float(margin)


def oracle_nondegeneracy(theta, z, eta, act_tol=ACT_TOL, pos_tol=TOL_POS):
    """Witness, None when nondegenerate, or "domain" when eta is rejected."""
    intervals = _intervals(theta)
    if any(z[i] < lo - act_tol or z[i] > hi + act_tol
           for i, (lo, hi) in enumerate(intervals)):
        return "domain"
    worst = 0.0
    for i, (lo, hi) in enumerate(intervals):
        at_hi = np.isfinite(hi) and z[i] >= hi - act_tol
        at_lo = np.isfinite(lo) and z[i] <= lo + act_tol
        if at_hi and at_lo:
            continue
        worst = max(worst, max(0.0, -eta[i]) if at_hi else
                    max(0.0, eta[i]) if at_lo else abs(eta[i]))
    if worst > act_tol:
        return "domain"
    for i, (lo, hi) in enumerate(intervals):
        if np.isfinite(hi) and z[i] >= hi - act_tol and eta[i] > pos_tol:
            return -np.eye(len(intervals))[i]
        if np.isfinite(lo) and z[i] <= lo + act_tol and eta[i] < -pos_tol:
            return np.eye(len(intervals))[i]
    return None


def random_interval_case(rng):
    """An orthant or box with points on, near and off its bounds."""
    s = int(rng.integers(1, 5))
    if rng.random() < 0.3:
        theta = NonpositiveOrthant(s)
    else:
        lower, upper = [], []
        for _ in range(s):
            a, b = sorted(rng.normal(scale=2.0, size=2))
            # [a, b], lo == hi, one-sided either way, or the whole line
            kind = int(rng.integers(5))
            lower.append((a, a, -math.inf, a, -math.inf)[kind])
            upper.append((b, a, b, math.inf, math.inf)[kind])
        theta = Box(lower=tuple(lower), upper=tuple(upper))
    z = np.empty(s)
    for i, (lo, hi) in enumerate(_intervals(theta)):
        ends = [e for e in (lo, hi) if np.isfinite(e)]
        if not ends or rng.random() < 0.15:
            z[i] = rng.normal()
            continue
        e = ends[int(rng.integers(len(ends)))]
        z[i] = e + rng.choice([0.0, 1e-8, -1e-8, 1e-7, -1e-7, 0.3, -0.3])
    eta = rng.choice([0.0, 1e-9, -1e-9, 2e-8, -2e-8, 1.0, -1.0], size=s) \
        * rng.uniform(0.5, 2.0, size=s)
    JT = rng.normal(size=(int(rng.integers(1, 4)), s))
    return theta, z, eta, JT


def test_interval_helpers_match_the_per_variant_branches():
    rng = np.random.default_rng(20240518)
    counts = {"degenerate": 0, "domain": 0, "nondegenerate": 0}
    for _ in range(4000):
        theta, z, eta, JT = random_interval_case(rng)
        for tol in (1e-7, ACT_TOL):
            cols, signs = _cone_generators(theta, z, JT, tol=tol)
            want_cols, want_signs = oracle_cone_generators(theta, z, JT, tol)
            assert np.array_equal(cols, want_cols) and signs == want_signs
        assert np.array_equal(_interior_margin(theta, z),
                              oracle_interior_margin(theta, z))
        s = theta.s
        field = FieldMap.affine_fixed(np.eye(s), np.zeros((s, 1)), np.zeros(s))
        want = oracle_nondegeneracy(theta, z, eta)
        try:
            got = check_nondegeneracy(field, theta, z, [0.0], eta)
        except DomainError:
            assert isinstance(want, str)
            counts["domain"] += 1
            continue
        assert not isinstance(want, str)
        if want is None:
            assert got.nondegenerate and got.witness is None
            counts["nondegenerate"] += 1
        else:
            assert not got.nondegenerate and np.array_equal(got.witness, want)
            counts["degenerate"] += 1
    assert min(counts.values()) >= 200, counts


def test_nondegeneracy_validates_its_inputs():
    theta = NonpositiveOrthant(1)
    flat = FieldMap.affine_fixed([[0.0]], [[0.0]], [0.0])
    with pytest.raises(SurjectivityError):
        check_nondegeneracy(flat, theta, [1.0], [-1.0], [0.0])
    field = halfline_field()
    with pytest.raises(DomainError):
        check_nondegeneracy(field, theta, [1.0], [0.5], [0.0])
    with pytest.raises(DomainError):
        # eta > 0 on an inactive constraint is not a cone element
        check_nondegeneracy(field, theta, [1.0], [-2.0], [1.0])


# ---------------------------------------------------------------------------
# Inequality lifting
# ---------------------------------------------------------------------------


def ramp_problem_with(theta):
    field = halfline_field()
    system = SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                            theta=theta, x0=[1.5], T=2.0)

    def ell(t, x, u, vx):
        return (u[0] - ramp_control(t)[0]) ** 2

    def dell(t, x, u, vx):
        return (np.zeros(1),
                np.array([2.0 * (u[0] - ramp_control(t)[0])]),
                np.zeros(1))

    return OcpProblem(system=system,
                      phi=lambda x: 0.5 * (x[0] - 1.0) ** 2,
                      dphi=lambda x: np.array([x[0] - 1.0]),
                      ell=ell, dell=dell, mode="W12xC", u0=[-2.0])


def ramp_certificate(problem, state, control):
    k = state.mesh.k
    eta = recover_eta(problem.system, state, control)
    sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                              v_x=np.zeros((k, 1)))
    return Certificate(
        lam=1.0, p=Path(mesh=state.mesh, values=np.zeros((k + 1, 2))),
        q=np.zeros((k + 1, 2)), eta=eta,
        gamma=VectorMeasure(mesh=state.mesh, density=np.zeros((k, 1))),
        subgrad=sg, nu=Path(mesh=state.mesh, values=np.zeros((k + 1, 1))))


def test_identity_lift_recovers_the_orthant_multipliers():
    theta = SmoothInequality(s=1, l=1, h=lambda z: z.copy(),
                             jac=lambda z: np.array([[1.0]]))
    problem = ramp_problem_with(theta)
    state, control = solution_on_mesh("remark45", 8)
    cert = ramp_certificate(problem, state, control)
    mu, report = smooth_inequality_lift(problem, state, control, cert)
    assert report.passed
    assert all(v == 0.0 for v in residuals(report).values())
    np.testing.assert_allclose(mu.values, cert.eta.values)


def test_scaled_inequality_halves_the_lifted_multiplier():
    # Describing the same half-line by h(z) = 2z rescales the gradients, so
    # the lifted multiplier must shrink by the same factor.
    theta = SmoothInequality(s=1, l=1, h=lambda z: 2.0 * z,
                             jac=lambda z: np.array([[2.0]]))
    problem = ramp_problem_with(theta)
    state, control = solution_on_mesh("remark45", 8)
    cert = ramp_certificate(problem, state, control)
    mu, report = smooth_inequality_lift(problem, state, control, cert)
    assert report.passed
    np.testing.assert_allclose(mu.values, 0.5 * cert.eta.values)


def test_lift_requires_inequality_targets_and_rank():
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    cert = certificate_on_mesh("remark45", 8)
    with pytest.raises(ConfigurationError):
        smooth_inequality_lift(problem, state, control, cert)
    # multipliers built under the identity description, then checked against
    # a gradient-free description of the same set
    identity = SmoothInequality(s=1, l=1, h=lambda z: z.copy(),
                                jac=lambda z: np.array([[1.0]]))
    flat = SmoothInequality(s=1, l=1, h=lambda z: 0.0 * z,
                            jac=lambda z: np.array([[0.0]]))
    fcert = ramp_certificate(ramp_problem_with(identity), state, control)
    with pytest.raises(SurjectivityError):
        smooth_inequality_lift(ramp_problem_with(flat), state, control, fcert)


# ---------------------------------------------------------------------------
# Velocity multiplier recovery
# ---------------------------------------------------------------------------


def test_velocity_multipliers_on_slide_and_rest():
    problem = instance("remark45").problem
    state, control = solution_on_mesh("remark45", 8)
    eta = recover_eta(problem.system, state, control)
    expected = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(eta.values.ravel(), expected, atol=1e-13)


def test_multiplier_recovery_spots_an_off_node_kink():
    # With 50 cells on [0, 2] the kink at t = 1/2 falls inside a cell; the
    # sampled pair then shows sliding velocity while the left node is still
    # strictly inside the half-line, which no cone element can explain.
    problem = instance("remark45").problem
    mesh = Mesh(k=50, T=2.0)
    state = Path.sample(mesh, ramp_state)
    control = Path.sample(mesh, ramp_control)
    with pytest.raises(NotInConeError):
        recover_eta(problem.system, state, control)


def test_recovery_needs_matching_meshes():
    problem = instance("remark45").problem
    state, _ = solution_on_mesh("remark45", 8)
    _, control = solution_on_mesh("remark45", 4)
    with pytest.raises(ConfigurationError):
        recover_eta(problem.system, state, control)


def test_recovered_multipliers_match_simulation_records():
    """Catching-up step records and pairwise recovery agree while in contact.

    A strictly advancing wall keeps the state glued to the boundary at both
    cell ends, which is the regime where the left-node recovery convention
    and the projection multipliers describe the same object.
    """
    system = instance("remark45").problem.system
    mesh = Mesh(k=16, T=2.0)
    rng = np.random.default_rng(20240820)
    for _ in range(5):
        steps = 0.02 + 0.2 * rng.random(16)
        uvals = np.concatenate([[ -1.5], -1.5 + np.cumsum(steps)])
        control = Path(mesh=mesh, values=uvals.reshape(-1, 1))
        state, records = simulate(system, control)
        eta = recover_eta(system, state, control)
        for j, record in enumerate(records):
            np.testing.assert_allclose(eta.values[j], record.eta / mesh.h,
                                       atol=1e-10)


def test_recovery_is_zero_without_contact():
    system = instance("remark45").problem.system
    mesh = Mesh(k=12, T=2.0)
    rng = np.random.default_rng(20240821)
    uvals = -3.0 + 0.5 * rng.random((13, 1))  # wall stays beyond the state
    control = Path(mesh=mesh, values=uvals)
    state, records = simulate(system, control)
    eta = recover_eta(system, state, control)
    assert np.max(np.abs(eta.values)) == 0.0
    assert np.max(np.abs(state.values - 1.5)) == 0.0


# ---------------------------------------------------------------------------
# Measures, selections, reports
# ---------------------------------------------------------------------------


def test_vector_measure_arithmetic():
    mesh = Mesh(k=4, T=1.0)
    dens = np.array([[1.0], [0.0], [2.0], [0.0]])
    vm = VectorMeasure(mesh=mesh, density=dens,
                       atoms=((1.0, np.array([-3.0])),))
    assert vm.total_variation() == pytest.approx(0.25 * 3.0 + 3.0)
    field = halfline_field()
    state = Path(mesh=mesh, values=np.zeros((5, 1)))
    control = Path(mesh=mesh, values=np.zeros((5, 1)))
    # psi = x + u has unit gradients, so tails integrate the raw density.
    np.testing.assert_allclose(vm.tail(field, state, control, 0.0),
                               [0.75 - 3.0, 0.75 - 3.0])
    np.testing.assert_allclose(vm.tail(field, state, control, 0.5),
                               [0.5 - 3.0, 0.5 - 3.0])
    # Starting inside a cell keeps only the remaining slice of its mass.
    np.testing.assert_allclose(vm.tail(field, state, control, 0.3),
                               [0.5 - 3.0, 0.5 - 3.0])


def _loop_tail(vm, field, state, control, t):
    """Per-cell reference for VectorMeasure.tail at one time."""
    def grad_T(t):
        x, u = state.at(t), control.at(t)
        return np.hstack([np.atleast_2d(field.dpsi_dx(x, u)),
                          np.atleast_2d(field.dpsi_du(x, u))]).T

    nodes = vm.mesh.nodes
    out = np.zeros(field.n + field.m)
    for j in range(vm.mesh.k):
        right = float(nodes[j + 1])
        if right <= t + 1e-14:
            continue
        left = float(nodes[j])
        length = vm.mesh.h if left >= t - 1e-14 else right - t
        out += length * grad_T(left) @ vm.density[j]
    for tau, w in vm.atoms:
        if tau >= t - 1e-14:
            out += grad_T(tau) @ w
    return out


@pytest.mark.parametrize("n, m, s", [(1, 1, 1), (2, 1, 3), (1, 3, 2),
                                     (3, 2, 1), (2, 2, 2), (3, 3, 3)])
def test_vectorized_tail_matches_the_per_point_loop(n, m, s):
    rng = np.random.default_rng([n, m, s])
    A, B = rng.standard_normal((s, n)), rng.standard_normal((s, m))
    c, d = rng.standard_normal(s), rng.standard_normal(s)
    # State- and control-dependent gradients, so every node's differs.
    field = FieldMap(
        n=n, m=m, s=s,
        psi=lambda x, u: A @ x + B @ u + c * np.sum(np.sin(x)),
        dpsi_dx=lambda x, u: A + np.outer(c, np.cos(x)),
        dpsi_du=lambda x, u: B + np.outer(d, u ** 2))
    k, T = 9, 1.3
    mesh = Mesh(k=k, T=T)
    nodes = mesh.nodes
    state = Path(mesh=mesh, values=rng.standard_normal((k + 1, n)))
    control = Path(mesh=mesh, values=rng.standard_normal((k + 1, m)))
    atoms = tuple((t, rng.standard_normal(s))
                  for t in (float(nodes[4]), T, 0.37 * T))
    vm = VectorMeasure(mesh=mesh, density=rng.standard_normal((k, s)),
                       atoms=atoms)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    near = np.concatenate([nodes[1:-1] - 5e-16, nodes[1:-1] + 5e-16])
    ts = np.concatenate([nodes, mids, [0.0, T, 0.37 * T], near])
    ref = np.array([_loop_tail(vm, field, state, control, float(t))
                    for t in ts])
    got = vm.tail(field, state, control, ts)
    assert got.shape == (len(ts), n + m)
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))
    one = vm.tail(field, state, control, float(mids[3]))
    assert one.shape == (n + m,)
    np.testing.assert_allclose(one, ref[k + 1 + 3], rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_vector_measure_validation():
    mesh = Mesh(k=4, T=1.0)
    with pytest.raises(ConfigurationError):
        VectorMeasure(mesh=mesh, density=np.zeros((3, 1)))
    with pytest.raises(ConfigurationError):
        VectorMeasure(mesh=mesh, density=np.zeros((4, 1)),
                      atoms=((0.5, np.array([1.0, 2.0])),))
    with pytest.raises(ConfigurationError):
        VectorMeasure(mesh=mesh, density=np.zeros((4, 1)),
                      atoms=((1.5, np.array([1.0])),))


def test_certificate_bundle_validation():
    problem = instance("counterexample53").problem
    state, control = solution_on_mesh("counterexample53", 8)
    cert = certificate_on_mesh("counterexample53", 8)
    with pytest.raises(ConfigurationError):
        Certificate(lam=-0.5, p=cert.p, q=cert.q, eta=cert.eta,
                    gamma=cert.gamma, subgrad=cert.subgrad)
    # a certificate built on a different mesh is rejected up front
    other = certificate_on_mesh("remark45", 4)
    rstate, rcontrol = solution_on_mesh("remark45", 8)
    with pytest.raises(ConfigurationError):
        residual_continuous_EL(instance("remark45").problem,
                               rstate, rcontrol, other)
    # the control-velocity mode insists on a v_u selection
    sg = SubgradientSelection(w_x=np.zeros((8, 2)), w_u=np.zeros((8, 2)),
                              v_x=np.zeros((8, 2)))
    with pytest.raises(ConfigurationError):
        residual_continuous_EL(problem, state, control,
                               dataclasses.replace(cert, subgrad=sg))


def test_reports_serialize_infinities():
    report = ResidualReport(
        items=(ResidualItem("a", math.inf, 1e-6),
               ResidualItem("b", 0.0, 1e-6)),
        details={"flag": np.bool_(True), "value": np.float64(2.5)})
    data = json.loads(json.dumps(report.as_dict()))
    assert data["passed"] is False
    assert data["items"]["a"]["residual"] == "inf"
    assert data["items"]["b"]["passed"] is True
    assert data["details"]["flag"] is True
    assert data["details"]["value"] == 2.5
    with pytest.raises(KeyError):
        report.get("missing")


def test_theta_quantities_follow_the_anchor():
    problem = instance("remark45").problem
    mesh = Mesh(k=8, T=2.0)
    xa = Path.sample(mesh, ramp_state)
    ua = Path.sample(mesh, ramp_control)
    z = DiscreteDecision(mesh=mesh, x=xa.values, u=ua.values + 0.1,
                         eta=np.zeros((8, 1)))
    # without an anchor both derivative blocks vanish
    tx, tu = theta_quantities(problem, z)
    assert np.max(np.abs(tx)) == 0.0 and np.max(np.abs(tu)) == 0.0
    # the node-wise mode penalizes the offset at every node
    anchored = dataclasses.replace(problem, rho=0.7, anchor=(xa, ua))
    tx, tu = theta_quantities(anchored, z)
    assert np.max(np.abs(tx)) == 0.0
    np.testing.assert_allclose(tu, 2.0 * 0.7 * 0.1 * np.ones((9, 1)))
    # the quotient mode only sees control increments, so a constant offset
    # disappears entirely
    cproblem = instance("counterexample53").problem
    cstate, ccontrol = solution_on_mesh("counterexample53", 8)
    canchored = dataclasses.replace(cproblem, rho=0.5,
                                    anchor=(cstate, ccontrol))
    cz = DiscreteDecision(mesh=cstate.mesh, x=cstate.values,
                          u=ccontrol.values + 0.3, eta=np.zeros((8, 2)))
    tx, tu = theta_quantities(canchored, cz)
    assert np.max(np.abs(tx)) == 0.0
    assert np.max(np.abs(tu)) == 0.0
