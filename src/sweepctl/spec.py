"""Problem specs: the JSON format that names one controlled sweeping problem.

A spec is a JSON object with ``schema: 1`` and sections ``dims`` (n, m, s),
``horizon``, ``dynamics`` (kind ``zero`` or ``affine`` with A, b),
``moving_set`` (``psi``: ``affine`` with Ax, Au, c or ``quadratic_scalar``
with a, b, c meaning a x^2 + b u + c; ``theta``: ``orthant``, ``box`` with
null/"inf" entries for unbounded sides, or ``image`` with A, G, g),
``cost`` (``phi``: ``quadratic_distance``; ``ell``: ``control_tracking`` or
``control_energy``; optional ``rho``, ``anchor``), ``initial``
(x0, u0), ``mode`` ("w12w12" or "w12c"), optional ``solver`` defaults and an
optional ``reference`` pair used by ``converge``.

Every number in a spec follows one rule (:func:`_is_number`): a JSON int or
float that is finite, so booleans, numeric strings, null and the NaN and
Infinity tokens are rejected.  An array is nested lists of such numbers in
exactly the shape its section declares.  The documented exceptions are the
box sides, whose entries may be null (unbounded on that side) or "inf" and
"-inf", and optional entries, which may be absent.  Counts (``dims`` and
``solver.k``) are positive integers.  A ``cost.epsilon`` (a localization
radius) is rejected, since no solver imposes a localization tube.  Building
the problem then checks the values: each box interval [lower_i, upper_i] is
nonempty with no NaN end (so "inf" on a lower side or "-inf" on an upper
side is rejected) and ``cost.rho`` is nonnegative, each a
ConfigurationError.

:func:`build_system` and :func:`build_problem` read a spec and raise
:class:`SpecError` on anything that violates the format; the command line
reads spec files through them and the named instances of
:mod:`sweepctl.problems` are stated as specs and built by them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import Box, FieldMap, LinearImagePolyhedron, NonpositiveOrthant
from .dynamics import AffineDrift, Mesh, Path, SweepingSystem
from .ocp import OcpProblem, QuadraticStageCost, QuadraticTerminalCost

Array = np.ndarray


class SpecError(Exception):
    """The problem spec or an input file violates the documented schema."""


def _load_json(path: str):
    """The JSON value in the file at path; SpecError naming the path when the
    file cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"{path} is not valid JSON: {e}") from None


def _load_spec(path: str) -> dict:
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise SpecError("problem spec must be a JSON object")
    if _number(spec, "schema", "spec", 0) != 1:
        raise SpecError("spec must declare schema: 1")
    return spec


def _section(spec: dict, key: str) -> dict:
    value = spec.get(key)
    if not isinstance(value, dict):
        raise SpecError(f"spec needs an object section {key!r}")
    return value


def _is_number(value) -> bool:
    """The rule for a number in an input file: an int or a float (numpy
    scalars count) that is not a boolean, and that is finite."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _numbers(value, shape: tuple[int, ...], what: str) -> Array:
    """value as a float array of exactly this shape: nested lists whose
    leaves are numbers (:func:`_is_number`); shape () reads one number and
    a leading -1 takes any length.  SpecError names what and the first
    entry that breaks the rule."""
    if shape[:1] == (-1,) and isinstance(value, list):
        shape = (len(value),) + shape[1:]
    leaves = [value]
    for size in shape:
        if not all(isinstance(v, list) and len(v) == size for v in leaves):
            raise SpecError(f"{what} must be nested lists of shape {shape}")
        leaves = [leaf for v in leaves for leaf in v]
    for i, leaf in enumerate(leaves):
        if not _is_number(leaf):
            if not shape:
                raise SpecError(f"{what} must be a finite number, got {leaf!r}")
            index = [int(j) for j in np.unravel_index(i, shape)]
            raise SpecError(f"{what} must be finite numbers, got {leaf!r} at {index}")
    return np.array(leaves, dtype=float).reshape(shape)


def _number(obj: dict, key: str, where: str, default=None) -> float:
    """The number obj[key] (default when the key is absent)."""
    return float(_numbers(obj.get(key, default), (), f"{where}.{key}"))


def _array(obj: dict, key: str, shape: tuple[int, ...], where: str,
           optional: bool = False) -> Array | None:
    """The array obj[key] of this shape; an absent or null entry is None
    when optional and a SpecError otherwise."""
    value = obj.get(key)
    if value is None:
        if optional:
            return None
        raise SpecError(f"{where} is missing {key!r}")
    return _numbers(value, shape, f"{where}.{key}")


def _positive_int(value, what: str) -> int:
    """value, if it is an integer of at least 1; booleans, floats, strings
    and null are a SpecError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(f"{what} must be a positive integer")
    return value


def _dims(spec: dict) -> tuple[int, int, int]:
    d = _section(spec, "dims")
    return tuple(_positive_int(d.get(key), f"dims.{key}") for key in ("n", "m", "s"))


def _horizon(spec: dict) -> float:
    T = _number(spec, "horizon", "spec")
    if not T > 0:
        raise SpecError("'horizon' must be positive")
    return T


def _bound_entry(value, side: str, i: int) -> float:
    """Entry i of a box side: null is unbounded on that side, "inf"/"-inf"
    an infinite bound, and anything else must be a number."""
    if value is None:
        return -math.inf if side == "lower" else math.inf
    if isinstance(value, str) and value in ("inf", "+inf", "-inf"):
        return float(value)
    return float(_numbers(value, (), f"theta.{side}[{i}]"))


def _build_field(spec: dict, n: int, m: int, s: int) -> FieldMap:
    psi = _section(_section(spec, "moving_set"), "psi")
    kind = psi.get("kind")
    if kind == "affine":
        Ax = _array(psi, "Ax", (s, n), "psi")
        Au = _array(psi, "Au", (s, m), "psi")
        c = _array(psi, "c", (s,), "psi")
        return FieldMap.affine_fixed(Ax, Au, c)
    if kind == "quadratic_scalar":
        if (n, m, s) != (1, 1, 1):
            raise SpecError("quadratic_scalar psi needs n = m = s = 1")
        a, b, c = (_number(psi, key, "psi") for key in "abc")
        return FieldMap.nonlinear(
            n=1, m=1, s=1,
            psi=lambda x, u: np.array([a * x[0] ** 2 + b * u[0] + c]),
            dpsi_dx=lambda x, u: np.array([[2.0 * a * x[0]]]),
            dpsi_du=lambda x, u: np.array([[b]]),
            hess_xx=lambda x, u, p: np.array([[2.0 * a * p[0]]]),
            hess_ux=lambda x, u, p: np.array([[0.0]]),
        )
    raise SpecError(f"unknown psi kind {kind!r}")


def _build_theta(spec: dict, s: int):
    theta = _section(_section(spec, "moving_set"), "theta")
    kind = theta.get("kind")
    if kind == "orthant":
        if _number(theta, "s", "theta", s) != s:
            raise SpecError("theta.s disagrees with dims.s")
        return NonpositiveOrthant(s)
    if kind == "box":
        lower = theta.get("lower")
        upper = theta.get("upper")
        if not isinstance(lower, list) or not isinstance(upper, list) \
                or len(lower) != s or len(upper) != s:
            raise SpecError(f"box theta needs 'lower' and 'upper' lists of length {s}")
        return Box(lower=tuple(_bound_entry(v, "lower", i) for i, v in enumerate(lower)),
                   upper=tuple(_bound_entry(v, "upper", i) for i, v in enumerate(upper)))
    if kind == "image":
        A = _array(theta, "A", (s, s), "theta")
        G = _array(theta, "G", (-1, s), "theta")
        if not len(G):
            raise SpecError("image theta needs a nonempty matrix 'G'")
        g = _array(theta, "g", (len(G),), "theta")
        # Tuples of floats, as the frozen set declares, keep it hashable.
        return LinearImagePolyhedron(A=tuple(map(tuple, A.tolist())),
                                     G=tuple(map(tuple, G.tolist())),
                                     g=tuple(g.tolist()))
    raise SpecError(f"unknown theta kind {kind!r}")


def _build_drift(spec: dict, n: int) -> AffineDrift:
    dyn = _section(spec, "dynamics")
    kind = dyn.get("kind")
    if kind == "zero":
        return AffineDrift.zero(n)
    if kind == "affine":
        return AffineDrift(_array(dyn, "A", (n, n), "dynamics"),
                           _array(dyn, "b", (n,), "dynamics"))
    raise SpecError(f"unknown dynamics kind {kind!r}")


def _build_phi(spec: dict, n: int) -> QuadraticTerminalCost:
    phi = _section(_section(spec, "cost"), "phi")
    if phi.get("kind") != "quadratic_distance":
        raise SpecError(f"unknown phi kind {phi.get('kind')!r}")
    return QuadraticTerminalCost(center=_array(phi, "center", (n,), "phi"),
                                 weight=_number(phi, "weight", "phi", 1.0))


def _build_ell(spec: dict, m: int, uses_udot: bool) -> QuadraticStageCost:
    ell = _section(_section(spec, "cost"), "ell")
    kind = ell.get("kind")
    weight = _number(ell, "weight", "ell", 1.0)

    if kind == "control_energy":
        if not uses_udot:
            raise SpecError("control_energy needs mode w12w12 (it penalizes udot)")
        return QuadraticStageCost(energy=weight)

    if kind == "control_tracking":
        times = _array(ell, "times", (-1,), "ell")
        ref = (times, _array(ell, "values", (len(times), m), "ell"))
        return QuadraticStageCost(tracking=weight, ref=ref)

    raise SpecError(f"unknown ell kind {kind!r}")


def _path_from_obj(obj: dict, key: str, T: float, dim: int, what: str) -> Path:
    entry = obj.get(key)
    if not isinstance(entry, dict):
        raise SpecError(f"{what} needs an object {key!r} with times and values")
    times = _array(entry, "times", (-1,), f"{what}.{key}")
    if len(times) < 2:
        raise SpecError(f"{what}.{key}.times must list at least two node times")
    values = _array(entry, "values", (len(times), dim), f"{what}.{key}")
    return _uniform_path(times, values, T, f"{what}.{key}")


def _uniform_path(times: Array, values: Array, T: float, what: str) -> Path:
    """Validate a uniform node grid on [0, T] and wrap the values."""
    k = len(times) - 1
    expected = np.linspace(0.0, T, k + 1)
    if np.max(np.abs(times - expected)) > 1e-9 * max(1.0, T):
        raise SpecError(f"{what} must be sampled on the uniform grid over [0, {T:g}]")
    return Path(mesh=Mesh(k=k, T=T), values=values)


def _mode_name(label: str) -> str:
    table = {"w12w12": "W12xW12", "w12c": "W12xC"}
    if label not in table:
        raise SpecError("mode must be 'w12w12' or 'w12c'")
    return table[label]


def build_system(spec: dict) -> SweepingSystem:
    """Sweeping system from a problem spec (cost sections are ignored)."""
    n, m, s = _dims(spec)
    T = _horizon(spec)
    field = _build_field(spec, n, m, s)
    theta = _build_theta(spec, s)
    initial = _section(spec, "initial")
    x0 = _array(initial, "x0", (n,), "initial")
    return SweepingSystem(f=_build_drift(spec, n), field=field, theta=theta,
                          x0=x0, T=T)


def build_problem(spec: dict, mode_override: str | None = None) -> OcpProblem:
    """Optimal control problem from a problem spec."""
    n, m, s = _dims(spec)
    system = build_system(spec)
    mode = _mode_name(mode_override or spec.get("mode", ""))
    uses_udot = mode == "W12xW12"
    phi = _build_phi(spec, n)
    ell = _build_ell(spec, m, uses_udot)
    initial = _section(spec, "initial")
    u0 = _array(initial, "u0", (m,), "initial")

    cost = _section(spec, "cost")
    rho = _number(cost, "rho", "cost", 0.0)
    if "epsilon" in cost:
        raise SpecError("cost.epsilon is not supported: no solver imposes a "
                        "localization tube, so a radius for one would be ignored")
    anchor = None
    if "anchor" in cost:
        anchor_obj = cost["anchor"]
        if not isinstance(anchor_obj, dict):
            raise SpecError("cost.anchor must be an object with x and u entries")
        anchor = (_path_from_obj(anchor_obj, "x", system.T, n, "anchor"),
                  _path_from_obj(anchor_obj, "u", system.T, m, "anchor"))

    return OcpProblem(system=system, phi=phi, ell=ell, mode=mode, u0=u0,
                      anchor=anchor, rho=rho)


def _reference_pair(spec: dict, problem: OcpProblem) -> tuple[Path, Path]:
    ref = spec.get("reference")
    if not isinstance(ref, dict):
        raise SpecError("spec has no reference section (converge needs one)")
    n = problem.system.field.n
    m = problem.system.field.m
    return (_path_from_obj(ref, "x", problem.system.T, n, "reference"),
            _path_from_obj(ref, "u", problem.system.T, m, "reference"))
