"""The bundled instance catalog and its problem-spec export."""

import json
import math

import numpy as np
import pytest

from sweepctl.cli import build_problem, build_system
from sweepctl.certify import residual_continuous_EL
from sweepctl.dynamics import Mesh, Path, simulate
from sweepctl.geometry import ConfigurationError, LinearImagePolyhedron
from sweepctl.problems import (
    INSTANCE_IDS,
    certificate_on_mesh,
    elastoplastic_instance,
    instance,
    instance_spec,
    solution_on_mesh,
)


def test_catalog_ids_build_and_describe_themselves():
    for iid in INSTANCE_IDS:
        inst = instance(iid)
        assert inst.id == iid
        assert isinstance(inst.notes, str) and len(inst.notes) > 40
        assert inst.problem.system.T > 0
        if iid == "nonconvex22":
            assert inst.known_solution is None
            assert inst.known_certificate is None
        else:
            state, control = inst.known_solution
            assert state.mesh == control.mesh
            assert inst.known_certificate.p.mesh == state.mesh


def test_unknown_ids_raise():
    with pytest.raises(ConfigurationError):
        instance("play95")
    with pytest.raises(ConfigurationError):
        solution_on_mesh("play95", 8)
    with pytest.raises(ConfigurationError):
        certificate_on_mesh("nonconvex22", 8)


@pytest.mark.parametrize("k", [0, -3, True, 2.5, "8"])
def test_instance_spec_needs_a_positive_integer_mesh_size(k):
    with pytest.raises(ConfigurationError, match="k must be a positive integer"):
        instance_spec("remark45", k=k)


def test_reference_pairs_reproduce_under_catching_up():
    # Each closed form was chosen so that the implicit stepping reproduces
    # its node values exactly, not just to discretization accuracy.
    for iid, k in (("remark45", 8), ("counterexample53", 5),
                   ("elastoplastic61", 6)):
        problem = instance(iid).problem
        state, control = solution_on_mesh(iid, k)
        assert np.allclose(control.values[0], problem.u0)
        replay, records = simulate(problem.system, control)
        assert np.max(np.abs(replay.values - state.values)) <= 1e-12
        assert all(r.projection_residual <= 1e-9 for r in records)


def test_reference_certificates_pass_on_their_instances():
    for iid, k in (("remark45", 8), ("counterexample53", 6),
                   ("elastoplastic61", 10)):
        problem = instance(iid).problem
        state, control = solution_on_mesh(iid, k)
        cert = certificate_on_mesh(iid, k)
        assert residual_continuous_EL(problem, state, control, cert).passed
    # the default bundles carried by the catalog entries agree as well
    for iid in ("remark45", "counterexample53", "elastoplastic61"):
        inst = instance(iid)
        state, control = inst.known_solution
        report = residual_continuous_EL(inst.problem, state, control,
                                        inst.known_certificate)
        assert report.passed


def test_reference_mesh_constraints():
    with pytest.raises(ConfigurationError):
        solution_on_mesh("remark45", 6)  # t = 1/2 must be a node
    with pytest.raises(ConfigurationError):
        solution_on_mesh("remark45", 5)
    with pytest.raises(ConfigurationError):
        solution_on_mesh("elastoplastic61", 5)
    with pytest.raises(ConfigurationError):
        solution_on_mesh("nonconvex22", 8)


def test_adjustable_play_target():
    moved = elastoplastic_instance(0.5)
    assert moved.known_solution is None
    assert moved.known_certificate is None
    # the terminal cost is recentered on the requested target
    assert moved.problem.dphi(np.array([0.5]))[0] == 0.0
    default = elastoplastic_instance()
    assert default.known_solution is not None
    assert default.problem.dphi(np.array([0.5]))[0] == 0.5


def test_specs_serialize_and_rebuild():
    """Exported specs survive JSON and rebuild the catalog problems."""
    for iid in INSTANCE_IDS:
        spec = instance_spec(iid, k=12)
        assert json.loads(json.dumps(spec)) == spec
        assert spec["schema"] == 1
        assert spec["solver"]["k"] == 12
        original = instance(iid).problem
        rebuilt = build_problem(spec)
        assert rebuilt.mode == original.mode
        assert rebuilt.system.T == original.system.T
        assert type(rebuilt.system.theta) is type(original.system.theta)
        assert np.allclose(rebuilt.u0, original.u0)
        system = build_system(spec)
        assert system.field.n == original.system.field.n
        assert system.field.m == original.system.field.m
        if iid == "nonconvex22":
            assert "reference" not in spec
        else:
            assert "reference" in spec


def test_spec_reference_matches_the_closed_form():
    spec = instance_spec("remark45")
    state, control = solution_on_mesh("remark45", 8)
    ref = spec["reference"]
    assert np.allclose(ref["x"]["times"], state.mesh.nodes)
    assert np.allclose(ref["x"]["values"], state.values)
    assert np.allclose(ref["u"]["values"], control.values)


def test_rebuilt_costs_match_the_catalog():
    # Both routes carry equal data forms; phi and ell also agree at a
    # handful of points.
    rng = np.random.default_rng(20240822)
    for iid in INSTANCE_IDS:
        original = instance(iid).problem
        rebuilt = build_problem(instance_spec(iid))
        for a, b in ((rebuilt.phi, original.phi), (rebuilt.ell, original.ell),
                     (rebuilt.system.f, original.system.f)):
            assert type(a) is type(b)
            np.testing.assert_equal(vars(a), vars(b))
        assert rebuilt.system.theta == original.system.theta
        n = original.system.field.n
        m = original.system.field.m
        for _ in range(5):
            x = rng.normal(size=n)
            u = rng.normal(size=m)
            vx = rng.normal(size=n)
            assert rebuilt.phi(x) == pytest.approx(original.phi(x))
            if original.uses_udot:
                vu = rng.normal(size=m)
                assert rebuilt.ell(0.3, x, u, vx, vu) == pytest.approx(
                    original.ell(0.3, x, u, vx, vu))
            else:
                assert rebuilt.ell(0.3, x, u, vx) == pytest.approx(
                    original.ell(0.3, x, u, vx))


def test_image_theta_from_a_spec_is_hashable():
    theta = build_system(instance_spec("elastoplastic61", 8)).theta
    stated = LinearImagePolyhedron(A=((1.0,),), G=((1.0,), (-1.0,)),
                                   g=(1.0, 1.0))
    assert theta == stated
    assert hash(theta) == hash(stated)


def test_curved_boundary_ride():
    """Pushing the nonconvex set from inside slides along the parabola.

    With u(t) = -t the admissible region is |x| >= sqrt(1 + t); starting on
    the right branch the projection lands on sqrt(1 + t) at every node, so
    the state follows the curved boundary to sqrt(2) at the final time.
    """
    problem = instance("nonconvex22").problem
    mesh = Mesh(k=20, T=1.0)
    control = Path.sample(mesh, lambda t: np.array([-t]))
    state, records = simulate(problem.system, control)
    expected = np.sqrt(1.0 + mesh.nodes)
    assert np.max(np.abs(state.values.ravel() - expected)) <= 1e-8
    assert state.values[-1, 0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # the lower-face ride keeps a strictly negative multiplier throughout
    assert all(r.eta[0] < 0 for r in records)
