"""Named benchmark instances.

Four controlled sweeping problems with hand-checkable structure.  Each
instance bundles the optimal control problem with, where available, a
closed-form process and a multiplier certificate; both can be rebuilt on any
compatible mesh through :func:`solution_on_mesh` and
:func:`certificate_on_mesh`.

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

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box,
    ConfigurationError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
)
from .dynamics import AffineDrift, Mesh, Path, SweepingSystem
from .ocp import OcpProblem, QuadraticStageCost, QuadraticTerminalCost
from .certify import Certificate, SubgradientSelection, VectorMeasure, recover_eta

Array = np.ndarray

INSTANCE_IDS = ("remark45", "counterexample53", "elastoplastic61", "nonconvex22")


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


# ---------------------------------------------------------------------------
# remark45
# ---------------------------------------------------------------------------


#: The tracked control: a ramp from -2 to -1 on [0, 1], then a hold.
_REMARK45_COST = QuadraticStageCost(
    tracking=1.0, ref=((0.0, 1.0, 2.0), ((-2.0,), (-1.0,), (-1.0,))))


def _remark45_xbar(t: float) -> Array:
    if t < 0.5:
        return np.array([1.5])
    if t < 1.0:
        return np.array([2.0 - t])
    return np.array([1.0])


def _remark45_problem() -> OcpProblem:
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    system = SweepingSystem(f=AffineDrift.zero(1), field=field,
                            theta=NonpositiveOrthant(1), x0=[1.5], T=2.0)
    return OcpProblem(system=system, phi=QuadraticTerminalCost(center=[1.0]),
                      ell=_REMARK45_COST, mode="W12xC", u0=[-2.0])


# ---------------------------------------------------------------------------
# counterexample53
# ---------------------------------------------------------------------------


def _counterexample53_problem() -> OcpProblem:
    field = FieldMap.affine_fixed(np.eye(2), -np.eye(2), np.zeros(2))
    system = SweepingSystem(f=AffineDrift.zero(2), field=field,
                            theta=NonpositiveOrthant(2), x0=[1.0, 1.0], T=1.0)
    return OcpProblem(system=system, phi=QuadraticTerminalCost(center=np.zeros(2)),
                      ell=QuadraticStageCost(energy=1.0), mode="W12xW12",
                      u0=[1.0, 1.0])


# ---------------------------------------------------------------------------
# elastoplastic61
# ---------------------------------------------------------------------------


def _elastoplastic_problem(zeta1: float) -> OcpProblem:
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    theta = LinearImagePolyhedron(A=((1.0,),), G=((1.0,), (-1.0,)),
                                  g=(1.0, 1.0))
    system = SweepingSystem(f=AffineDrift.zero(1), field=field, theta=theta,
                            x0=[0.5], T=1.0)
    return OcpProblem(system=system, phi=QuadraticTerminalCost(center=[zeta1]),
                      ell=QuadraticStageCost(energy=1.0), mode="W12xW12",
                      u0=[0.0])


def _elastoplastic_xbar(t: float) -> Array:
    return np.array([0.5 if t < 0.5 else 1.0 - t])


def _elastoplastic_ubar(t: float) -> Array:
    return np.array([t])


def elastoplastic_instance(zeta1: float = 0.0) -> NamedInstance:
    """The play-operator instance with an adjustable terminal target.

    Reference data ships only for the default target; other values give a
    bare problem (zeta1 = 1/2 makes resting at the initial state optimal
    with zero cost).
    """
    problem = _elastoplastic_problem(zeta1)
    if zeta1 != 0.0:
        return NamedInstance(
            id="elastoplastic61", problem=problem, known_solution=None,
            known_certificate=None,
            notes=("Play operator with terminal target "
                   f"{zeta1}; no reference pair for this target."))
    pair = solution_on_mesh("elastoplastic61", 4)
    cert = certificate_on_mesh("elastoplastic61", 4)
    return NamedInstance(
        id="elastoplastic61", problem=problem, known_solution=pair,
        known_certificate=cert,
        notes=("Scalar play operator swept by [-1, 1] + u.  The reference "
               "ramp drives the state from 1/2 to 0, sticking to the upper "
               "face from t = 1/2; its certificate is a single endpoint "
               "atom of weight -1 with a zero adjoint.  Stationary but not "
               "globally optimal: the resting control costs 1/8 versus 1/2 "
               "for the ramp."))


# ---------------------------------------------------------------------------
# nonconvex22
# ---------------------------------------------------------------------------


def _nonconvex22_problem() -> OcpProblem:
    field = FieldMap.nonlinear(
        n=1, m=1, s=1,
        psi=lambda x, u: np.array([x[0] ** 2 + u[0] - 1.0]),
        dpsi_dx=lambda x, u: np.array([[2.0 * x[0]]]),
        dpsi_du=lambda x, u: np.array([[1.0]]),
        hess_xx=lambda x, u, p: np.array([[2.0 * p[0]]]),
        hess_ux=lambda x, u, p: np.array([[0.0]]),
    )
    theta = Box(lower=(0.0,), upper=(np.inf,))
    system = SweepingSystem(f=AffineDrift.zero(1), field=field, theta=theta,
                            x0=[1.0], T=1.0)
    return OcpProblem(system=system, phi=QuadraticTerminalCost(center=[0.0]),
                      ell=QuadraticStageCost(energy=1.0), mode="W12xW12",
                      u0=[0.0])


# ---------------------------------------------------------------------------
# Reference pairs and certificates on arbitrary meshes
# ---------------------------------------------------------------------------


def solution_on_mesh(instance_id: str, k: int) -> tuple[Path, Path]:
    """Sample the closed-form reference pair of an instance on k cells.

    The sampling is exact only when every breakpoint of the reference lands
    on a node, so the mesh is validated: remark45 needs k divisible by 4,
    elastoplastic61 an even k.
    """
    if instance_id == "remark45":
        if k % 4 != 0:
            raise ConfigurationError(
                "remark45 reference needs k divisible by 4 so that t = 1/2 "
                "and t = 1 are nodes")
        mesh = Mesh(k=k, T=2.0)
        return (Path.sample(mesh, _remark45_xbar),
                Path(mesh=mesh, values=_REMARK45_COST.ref_at(mesh.nodes)))
    if instance_id == "counterexample53":
        mesh = Mesh(k=k, T=1.0)
        return (Path(mesh=mesh, values=np.ones((k + 1, 2))),
                Path(mesh=mesh, values=np.ones((k + 1, 2))))
    if instance_id == "elastoplastic61":
        if k % 2 != 0:
            raise ConfigurationError(
                "elastoplastic61 reference needs an even k so that t = 1/2 "
                "is a node")
        mesh = Mesh(k=k, T=1.0)
        return (Path.sample(mesh, _elastoplastic_xbar),
                Path.sample(mesh, _elastoplastic_ubar))
    if instance_id == "nonconvex22":
        raise ConfigurationError("nonconvex22 has no reference pair")
    raise ConfigurationError(
        f"unknown instance {instance_id!r}; known ids: {', '.join(INSTANCE_IDS)}")


def certificate_on_mesh(instance_id: str, k: int) -> Certificate:
    """Reference multipliers of an instance, rebuilt on k cells.

    Velocity multipliers are recovered from the sampled pair, which also
    revalidates it against the dynamics.
    """
    state, control = solution_on_mesh(instance_id, k)
    mesh = state.mesh
    if instance_id == "remark45":
        problem = _remark45_problem()
        eta = recover_eta(problem.system, state, control)
        sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                                  v_x=np.zeros((k, 1)))
        return Certificate(
            lam=1.0, p=Path(mesh=mesh, values=np.zeros((k + 1, 2))),
            q=np.zeros((k + 1, 2)), eta=eta,
            gamma=VectorMeasure(mesh=mesh, density=np.zeros((k, 1))),
            subgrad=sg, nu=Path(mesh=mesh, values=np.zeros((k + 1, 1))))
    if instance_id == "counterexample53":
        problem = _counterexample53_problem()
        eta = recover_eta(problem.system, state, control)
        sg = SubgradientSelection(w_x=np.zeros((k, 2)), w_u=np.zeros((k, 2)),
                                  v_x=np.zeros((k, 2)), v_u=np.zeros((k, 2)))
        pvals = np.tile(np.array([-1.0, -1.0, 0.0, 0.0]), (k + 1, 1))
        return Certificate(
            lam=1.0, p=Path(mesh=mesh, values=pvals), q=pvals.copy(), eta=eta,
            gamma=VectorMeasure(mesh=mesh, density=np.zeros((k, 2))),
            subgrad=sg, nu=Path(mesh=mesh, values=np.zeros((k + 1, 2))))
    if instance_id == "elastoplastic61":
        problem = _elastoplastic_problem(0.0)
        eta = recover_eta(problem.system, state, control)
        sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                                  v_x=np.zeros((k, 1)), v_u=np.ones((k, 1)))
        gamma = VectorMeasure(mesh=mesh, density=np.zeros((k, 1)),
                              atoms=((1.0, np.array([-1.0])),))
        return Certificate(
            lam=1.0, p=Path(mesh=mesh, values=np.zeros((k + 1, 2))),
            q=np.ones((k + 1, 2)), eta=eta, gamma=gamma, subgrad=sg,
            nu=Path(mesh=mesh, values=np.zeros((k + 1, 1))))
    raise ConfigurationError(
        f"no reference certificate for {instance_id!r}")


# ---------------------------------------------------------------------------
# Lookup
# ---------------------------------------------------------------------------


def instance(instance_id: str) -> NamedInstance:
    """Build a named instance; unknown ids raise."""
    if instance_id == "remark45":
        return NamedInstance(
            id="remark45", problem=_remark45_problem(),
            known_solution=solution_on_mesh("remark45", 4),
            known_certificate=certificate_on_mesh("remark45", 4),
            notes=("Scalar sweeping by the halfline x <= -u with the control "
                   "tracked to a ramp; the optimal process holds at 1.5, "
                   "slides from t = 1/2 to t = 1, then rests at 1.  Optimal "
                   "cost 0; all multipliers vanish apart from the cost one."))
    if instance_id == "counterexample53":
        return NamedInstance(
            id="counterexample53", problem=_counterexample53_problem(),
            known_solution=solution_on_mesh("counterexample53", 5),
            known_certificate=certificate_on_mesh("counterexample53", 5),
            notes=("Plane translation of the nonpositive orthant.  The "
                   "resting pair at (1,1) carries a bounded certificate "
                   "although translating the set earlier is cheaper; the "
                   "classical Hamiltonian maximization blows up to +inf at "
                   "the same data, so only the pointwise condition with the "
                   "zero coderivative element certifies the pair."))
    if instance_id == "elastoplastic61":
        return elastoplastic_instance(0.0)
    if instance_id == "nonconvex22":
        return NamedInstance(
            id="nonconvex22", problem=_nonconvex22_problem(),
            known_solution=None, known_certificate=None,
            notes=("Quadratic scalar constraint x^2 + u - 1 >= 0, a "
                   "nonconvex moving set (complement of an interval).  "
                   "Stress instance for projection and coderivative "
                   "handling on a curved boundary; quadratic cost data "
                   "chosen for convenience, no reference pair."))
    raise ConfigurationError(
        f"unknown instance {instance_id!r}; known ids: {', '.join(INSTANCE_IDS)}")


# ---------------------------------------------------------------------------
# Problem-spec export
# ---------------------------------------------------------------------------


def _drift_spec(f: AffineDrift) -> dict:
    if not (f.A.any() or f.b.any()):
        return {"kind": "zero"}
    return {"kind": "affine", "A": f.A.tolist(), "b": f.b.tolist()}


def _phi_spec(phi: QuadraticTerminalCost) -> dict:
    return {"kind": "quadratic_distance", "center": phi.center.tolist(),
            "weight": phi.weight}


def _ell_spec(ell: QuadraticStageCost) -> dict:
    if not ell.tracking:
        return {"kind": "control_energy", "weight": ell.energy}
    times, values = ell.ref
    return {"kind": "control_tracking", "weight": ell.tracking,
            "times": times.tolist(), "values": values.tolist()}


def instance_spec(instance_id: str, k: int = 50) -> dict:
    """Instance as a problem-spec dictionary (the CLI file format).

    Includes the reference pair (sampled on the reference's own breakpoint
    mesh refined to at least 8 cells) when one exists, so convergence runs
    work straight from the exported file.
    """
    inst = instance(instance_id)
    problem = inst.problem
    field = problem.system.field

    if instance_id == "remark45":
        moving_set = {
            "psi": {"kind": "affine", "Ax": [[1.0]], "Au": [[1.0]], "c": [0.0]},
            "theta": {"kind": "orthant", "s": 1},
        }
    elif instance_id == "counterexample53":
        moving_set = {
            "psi": {"kind": "affine",
                    "Ax": [[1.0, 0.0], [0.0, 1.0]],
                    "Au": [[-1.0, 0.0], [0.0, -1.0]],
                    "c": [0.0, 0.0]},
            "theta": {"kind": "orthant", "s": 2},
        }
    elif instance_id == "elastoplastic61":
        moving_set = {
            "psi": {"kind": "affine", "Ax": [[1.0]], "Au": [[1.0]], "c": [0.0]},
            "theta": {"kind": "image", "A": [[1.0]],
                      "G": [[1.0], [-1.0]], "g": [1.0, 1.0]},
        }
    elif instance_id == "nonconvex22":
        moving_set = {
            "psi": {"kind": "quadratic_scalar", "a": 1.0, "b": 1.0, "c": -1.0},
            "theta": {"kind": "box", "lower": [0.0], "upper": [None]},
        }
    else:  # pragma: no cover - instance() already validated the id
        raise ConfigurationError(f"unknown instance {instance_id!r}")

    spec = {
        "schema": 1,
        "dims": {"n": field.n, "m": field.m, "s": field.s},
        "horizon": problem.system.T,
        "dynamics": _drift_spec(problem.system.f),
        "moving_set": moving_set,
        "cost": {"phi": _phi_spec(problem.phi), "ell": _ell_spec(problem.ell)},
        "initial": {"x0": np.atleast_1d(problem.system.x0).tolist(),
                    "u0": np.atleast_1d(problem.u0).tolist()},
        "mode": {"W12xC": "w12c", "W12xW12": "w12w12"}[problem.mode],
        "solver": {"k": k},
    }
    if inst.known_solution is not None:
        ref_k = {"remark45": 8, "counterexample53": 8, "elastoplastic61": 8}[instance_id]
        state, control = solution_on_mesh(instance_id, ref_k)
        spec["reference"] = {
            "x": {"times": state.mesh.nodes.tolist(),
                  "values": state.values.tolist()},
            "u": {"times": control.mesh.nodes.tolist(),
                  "values": control.values.tolist()},
        }
    return spec
