"""Named benchmark instances.

Four controlled sweeping problems with hand-checkable structure.  Each
instance is stated once, as a problem spec in the format of
:mod:`sweepctl.spec`: :func:`instance` builds it through the spec reader and
:func:`instance_spec` exports it.  An instance bundles the optimal control
problem with, where available, a closed-form process and a multiplier
certificate; both can be rebuilt on any compatible mesh through
:func:`solution_on_mesh` and :func:`certificate_on_mesh`.

The instances:

``remark45``
    Scalar state and control, moving halfline x + u <= 0, horizon 2.  The
    control is penalized toward a ramp-then-hold reference; the optimal
    process slides along the constraint on [1/2, 1].  Its certificate is
    identically zero apart from the cost multiplier, and the pair is exactly
    piecewise linear, so discretizations hit it without error when the
    breakpoints 1/2 and 1 are mesh nodes (k divisible by 4).

``counterexample53``
    Plane sweeping by a translated orthant, terminal cost pulls the state to
    the origin, running cost is control effort.  The constant pair resting
    at the initial point satisfies the full stationarity system with
    bounded multipliers even though cheaper processes exist (moving the set
    early drops the cost toward 1/2 while the resting pair costs 1).  The
    classical Hamiltonian maximization fails here with value +inf; the
    pointwise condition with the zero coderivative element holds, which is
    exactly what makes this a cautionary instance.

``elastoplastic61``
    Scalar play operator: the state is swept by the interval [-1, 1] + u.
    With the terminal target at zeta1 = 0 the analyzed process pushes the
    state from 1/2 down to 0 by ramping the control, sticking to the upper
    face from t = 1/2 on.  The certificate has an identically zero adjoint
    and a single endpoint atom of weight -1 in its measure.  The pair is
    stationary, not globally optimal: freezing the control costs 1/8 while
    the ramp costs 1/2.  ``elastoplastic_instance`` exposes the terminal
    target as a parameter; zeta1 = 1/2 makes the resting process optimal
    with zero cost, a convenient solver target.

``nonconvex22``
    Scalar quadratic constraint x^2 + u - 1 >= 0, so the moving set is the
    complement of a shrinking interval and is not convex.  Exercises the
    projection and coderivative machinery on a curved boundary.  The cost
    data here (quadratic pull toward the origin, control effort) is chosen
    for convenience; no reference solution ships with it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .geometry import ConfigurationError
from .dynamics import Mesh, Path, SweepingSystem
from .ocp import OcpProblem
from .certify import Certificate, SubgradientSelection, VectorMeasure, recover_eta
from .spec import build_problem

Array = np.ndarray


@dataclass(frozen=True)
class NamedInstance:
    """A benchmark problem with optional reference data.

    ``known_solution`` is a (state, control) pair of piecewise-linear paths
    on a small default mesh; ``known_certificate`` a multiplier bundle that
    passes the continuous stationarity residuals on the same mesh.  Both are
    None when no closed form is available.
    """

    id: str
    problem: OcpProblem
    known_solution: tuple[Path, Path] | None
    known_certificate: Certificate | None
    notes: str


#: id -> (problem spec, notes, cells of the default reference mesh or None).
_CATALOG: dict[str, tuple[dict, str, int | None]] = {
    "remark45": (
        {"schema": 1, "dims": {"n": 1, "m": 1, "s": 1}, "horizon": 2.0,
         "dynamics": {"kind": "zero"},
         "moving_set": {
             "psi": {"kind": "affine", "Ax": [[1.0]], "Au": [[1.0]], "c": [0.0]},
             "theta": {"kind": "orthant", "s": 1}},
         # The tracked control: a ramp from -2 to -1 on [0, 1], then a hold.
         "cost": {"phi": {"kind": "quadratic_distance", "center": [1.0],
                          "weight": 1.0},
                  "ell": {"kind": "control_tracking", "weight": 1.0,
                          "times": [0.0, 1.0, 2.0],
                          "values": [[-2.0], [-1.0], [-1.0]]}},
         "initial": {"x0": [1.5], "u0": [-2.0]},
         "mode": "w12c"},
        ("Scalar sweeping by the halfline x <= -u with the control "
         "tracked to a ramp; the optimal process holds at 1.5, "
         "slides from t = 1/2 to t = 1, then rests at 1.  Optimal "
         "cost 0; all multipliers vanish apart from the cost one."),
        4),
    "counterexample53": (
        {"schema": 1, "dims": {"n": 2, "m": 2, "s": 2}, "horizon": 1.0,
         "dynamics": {"kind": "zero"},
         "moving_set": {
             "psi": {"kind": "affine",
                     "Ax": [[1.0, 0.0], [0.0, 1.0]],
                     "Au": [[-1.0, 0.0], [0.0, -1.0]],
                     "c": [0.0, 0.0]},
             "theta": {"kind": "orthant", "s": 2}},
         "cost": {"phi": {"kind": "quadratic_distance", "center": [0.0, 0.0],
                          "weight": 1.0},
                  "ell": {"kind": "control_energy", "weight": 1.0}},
         "initial": {"x0": [1.0, 1.0], "u0": [1.0, 1.0]},
         "mode": "w12w12"},
        ("Plane translation of the nonpositive orthant.  The "
         "resting pair at (1,1) carries a bounded certificate "
         "although translating the set earlier is cheaper; the "
         "classical Hamiltonian maximization blows up to +inf at "
         "the same data, so only the pointwise condition with the "
         "zero coderivative element certifies the pair."),
        5),
    "elastoplastic61": (
        {"schema": 1, "dims": {"n": 1, "m": 1, "s": 1}, "horizon": 1.0,
         "dynamics": {"kind": "zero"},
         "moving_set": {
             "psi": {"kind": "affine", "Ax": [[1.0]], "Au": [[1.0]], "c": [0.0]},
             "theta": {"kind": "image", "A": [[1.0]],
                       "G": [[1.0], [-1.0]], "g": [1.0, 1.0]}},
         "cost": {"phi": {"kind": "quadratic_distance", "center": [0.0],
                          "weight": 1.0},
                  "ell": {"kind": "control_energy", "weight": 1.0}},
         "initial": {"x0": [0.5], "u0": [0.0]},
         "mode": "w12w12"},
        ("Scalar play operator swept by [-1, 1] + u.  The reference "
         "ramp drives the state from 1/2 to 0, sticking to the upper "
         "face from t = 1/2; its certificate is a single endpoint "
         "atom of weight -1 with a zero adjoint.  Stationary but not "
         "globally optimal: the resting control costs 1/8 versus 1/2 "
         "for the ramp."),
        4),
    "nonconvex22": (
        {"schema": 1, "dims": {"n": 1, "m": 1, "s": 1}, "horizon": 1.0,
         "dynamics": {"kind": "zero"},
         "moving_set": {
             "psi": {"kind": "quadratic_scalar", "a": 1.0, "b": 1.0, "c": -1.0},
             "theta": {"kind": "box", "lower": [0.0], "upper": [None]}},
         "cost": {"phi": {"kind": "quadratic_distance", "center": [0.0],
                          "weight": 1.0},
                  "ell": {"kind": "control_energy", "weight": 1.0}},
         "initial": {"x0": [1.0], "u0": [0.0]},
         "mode": "w12w12"},
        ("Quadratic scalar constraint x^2 + u - 1 >= 0, a "
         "nonconvex moving set (complement of an interval).  "
         "Stress instance for projection and coderivative "
         "handling on a curved boundary; quadratic cost data "
         "chosen for convenience, no reference pair."),
        None),
}


INSTANCE_IDS = tuple(_CATALOG)


def _entry(instance_id: str) -> tuple[dict, str, int | None]:
    try:
        return _CATALOG[instance_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown instance {instance_id!r}; known ids: "
            f"{', '.join(INSTANCE_IDS)}") from None


# ---------------------------------------------------------------------------
# Reference pairs and certificates on arbitrary meshes
# ---------------------------------------------------------------------------


def _remark45_xbar(t: float) -> Array:
    if t < 0.5:
        return np.array([1.5])
    if t < 1.0:
        return np.array([2.0 - t])
    return np.array([1.0])


def _elastoplastic_xbar(t: float) -> Array:
    return np.array([0.5 if t < 0.5 else 1.0 - t])


def _elastoplastic_ubar(t: float) -> Array:
    return np.array([t])


def solution_on_mesh(instance_id: str, k: int) -> tuple[Path, Path]:
    """Sample the closed-form reference pair of an instance on k cells.

    The sampling is exact only when every breakpoint of the reference lands
    on a node, so the mesh is validated: remark45 needs k divisible by 4,
    elastoplastic61 an even k.
    """
    spec = _entry(instance_id)[0]
    if instance_id == "remark45":
        if k % 4 != 0:
            raise ConfigurationError(
                "remark45 reference needs k divisible by 4 so that t = 1/2 "
                "and t = 1 are nodes")
        mesh = Mesh(k=k, T=spec["horizon"])
        # The optimal control is the tracked ramp itself.
        ell = spec["cost"]["ell"]
        u = [np.interp(mesh.nodes, ell["times"], col)
             for col in np.array(ell["values"]).T]
        return (Path.sample(mesh, _remark45_xbar),
                Path(mesh=mesh, values=np.array(u).T))
    if instance_id == "counterexample53":
        mesh = Mesh(k=k, T=spec["horizon"])
        return (Path(mesh=mesh, values=np.ones((k + 1, 2))),
                Path(mesh=mesh, values=np.ones((k + 1, 2))))
    if instance_id == "elastoplastic61":
        if k % 2 != 0:
            raise ConfigurationError(
                "elastoplastic61 reference needs an even k so that t = 1/2 "
                "is a node")
        mesh = Mesh(k=k, T=spec["horizon"])
        return (Path.sample(mesh, _elastoplastic_xbar),
                Path.sample(mesh, _elastoplastic_ubar))
    raise ConfigurationError(f"{instance_id} has no reference pair")


def _certificate(instance_id: str, system: SweepingSystem, state: Path,
                 control: Path) -> Certificate:
    """Reference multipliers of an instance for its sampled pair."""
    mesh = state.mesh
    k = mesh.k
    # Velocity multipliers come from the pair, which also revalidates it
    # against the dynamics.
    eta = recover_eta(system, state, control)
    if instance_id == "remark45":
        sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                                  v_x=np.zeros((k, 1)))
        return Certificate(
            lam=1.0, p=Path(mesh=mesh, values=np.zeros((k + 1, 2))),
            q=np.zeros((k + 1, 2)), eta=eta,
            gamma=VectorMeasure(mesh=mesh, density=np.zeros((k, 1))),
            subgrad=sg, nu=Path(mesh=mesh, values=np.zeros((k + 1, 1))))
    if instance_id == "counterexample53":
        sg = SubgradientSelection(w_x=np.zeros((k, 2)), w_u=np.zeros((k, 2)),
                                  v_x=np.zeros((k, 2)), v_u=np.zeros((k, 2)))
        pvals = np.tile(np.array([-1.0, -1.0, 0.0, 0.0]), (k + 1, 1))
        return Certificate(
            lam=1.0, p=Path(mesh=mesh, values=pvals), q=pvals.copy(), eta=eta,
            gamma=VectorMeasure(mesh=mesh, density=np.zeros((k, 2))),
            subgrad=sg, nu=Path(mesh=mesh, values=np.zeros((k + 1, 2))))
    # elastoplastic61, the last instance with a reference pair
    sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                              v_x=np.zeros((k, 1)), v_u=np.ones((k, 1)))
    gamma = VectorMeasure(mesh=mesh, density=np.zeros((k, 1)),
                          atoms=((1.0, np.array([-1.0])),))
    return Certificate(
        lam=1.0, p=Path(mesh=mesh, values=np.zeros((k + 1, 2))),
        q=np.ones((k + 1, 2)), eta=eta, gamma=gamma, subgrad=sg,
        nu=Path(mesh=mesh, values=np.zeros((k + 1, 1))))


def certificate_on_mesh(instance_id: str, k: int) -> Certificate:
    """Reference multipliers of an instance, rebuilt on k cells."""
    state, control = solution_on_mesh(instance_id, k)
    system = build_problem(_entry(instance_id)[0]).system
    return _certificate(instance_id, system, state, control)


# ---------------------------------------------------------------------------
# Lookup and export
# ---------------------------------------------------------------------------


def instance(instance_id: str) -> NamedInstance:
    """Build a named instance; unknown ids raise."""
    spec, notes, ref_k = _entry(instance_id)
    problem = build_problem(spec)
    pair = cert = None
    if ref_k is not None:
        pair = solution_on_mesh(instance_id, ref_k)
        cert = _certificate(instance_id, problem.system, *pair)
    return NamedInstance(id=instance_id, problem=problem, known_solution=pair,
                         known_certificate=cert, notes=notes)


def elastoplastic_instance(zeta1: float = 0.0) -> NamedInstance:
    """The play-operator instance with an adjustable terminal target.

    Reference data ships only for the default target; other values give a
    bare problem (zeta1 = 1/2 makes resting at the initial state optimal
    with zero cost).
    """
    if zeta1 == 0.0:
        return instance("elastoplastic61")
    spec = copy.deepcopy(_CATALOG["elastoplastic61"][0])
    spec["cost"]["phi"]["center"] = [zeta1]
    return NamedInstance(
        id="elastoplastic61", problem=build_problem(spec), known_solution=None,
        known_certificate=None,
        notes=("Play operator with terminal target "
               f"{zeta1}; no reference pair for this target."))


def instance_spec(instance_id: str, k: int = 50) -> dict:
    """Instance as a problem-spec dictionary (the CLI file format).

    Includes the reference pair (sampled on the reference's own breakpoint
    mesh refined to 8 cells) when one exists, so convergence runs work
    straight from the exported file.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    spec, _, ref_k = _entry(instance_id)
    spec = copy.deepcopy(spec)
    spec["solver"] = {"k": k}
    if ref_k is not None:
        state, control = solution_on_mesh(instance_id, 8)
        spec["reference"] = {
            "x": {"times": state.mesh.nodes.tolist(),
                  "values": state.values.tolist()},
            "u": {"times": control.mesh.nodes.tolist(),
                  "values": control.values.tolist()},
        }
    return spec
