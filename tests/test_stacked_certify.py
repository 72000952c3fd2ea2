"""Certification without per-cell loops: the stacked cores against the
per-cell code they replaced.

The oracles below are test-local copies of the code that checked one cell
at a time: the decomposition of ``recover_eta`` (``_decompose`` and its
loop), the loops of ``max_condition_check`` and
``conventional_sufficiency_check`` with their one-cell Hamiltonians, the
``eta`` item of ``residual_continuous_EL``, the coderivative loops of
``residual_discrete_EL`` and ``smooth_inequality_lift``, the scalar interval
case table ``_interval_coderivative`` with ``coderivative_violation``, and
the interval ``contains`` / ``normal_cone_violation``.

What must agree, and how closely:

* membership, case tables, coderivative violations, the interval
  normal-cone violation, the Hamiltonians and every pass/fail outcome:
  exactly;
* the least-squares multipliers (one stacked SVD instead of an ``lstsq``
  per cell), the cone distance of a polyhedral Theta (the least-distance
  kernel instead of an NNLS over the active rows) and the items summed in
  another order: to rounding (1e-10 relative on the multipliers, 1e-13
  relative on the cone distance, 1e-12 on the rest);
* errors: the same type at the same first failing cell, with the same
  ``cell j (t = ...)`` prefix and the same message up to the digits it
  prints.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from sweepctl import geometry
from sweepctl.certify import (
    ACT_TOL,
    TOL_POS,
    Certificate,
    DiscreteCertificate,
    SubgradientSelection,
    VectorMeasure,
    _midpoint_q,
    conventional_sufficiency_check,
    max_condition_check,
    recover_eta,
    residual_continuous_EL,
    residual_discrete_EL,
    smooth_inequality_lift,
    theta_quantities,
)
from sweepctl.dynamics import Mesh, Path, SweepingSystem, simulate
from sweepctl.geometry import (
    TOL_FEAS,
    Box,
    CoderivativeCase,
    DomainError,
    FieldMap,
    LinearImagePolyhedron,
    NonpositiveOrthant,
    NotInConeError,
    SmoothInequality,
    SurjectivityError,
    _active_sets,
    _cone_generators,
    _IntervalTheta,
    coderivative_codes,
    coderivative_theta,
    coderivative_violations,
    decompose_nodes,
    field_at_nodes,
    normal_cone_decompose,
    polyhedron_distance,
    psi_eval,
)
from sweepctl.ocp import DiscreteDecision, OcpProblem, _drift
from sweepctl.problems import certificate_on_mesh, instance, solution_on_mesh


# ---------------------------------------------------------------------------
# Oracles: the per-cell code as it was
# ---------------------------------------------------------------------------


def oracle_interval_contains(theta, z, tol):
    lo, hi = theta.bounds()
    return all(lo_i - tol <= zi <= hi_i + tol
               for zi, lo_i, hi_i in zip(z.tolist(), lo.tolist(), hi.tolist()))


def oracle_interval_violation(theta, z, eta, tol):
    lo, hi = theta.bounds()
    worst = 0.0
    for zi, ei, lo_i, hi_i in zip(z.tolist(), eta.tolist(), lo.tolist(), hi.tolist()):
        at_hi = hi_i < np.inf and zi >= hi_i - tol
        at_lo = lo_i > -np.inf and zi <= lo_i + tol
        if at_hi and at_lo:
            continue
        if at_hi:
            worst = max(worst, max(0.0, -ei))
        elif at_lo:
            worst = max(worst, max(0.0, ei))
        else:
            worst = max(worst, abs(ei))
    return worst


def oracle_contains(theta, z, tol):
    if isinstance(theta, _IntervalTheta):
        return oracle_interval_contains(theta, z, tol)
    return polyhedron_distance(*theta.halfspaces(), z) <= tol


def oracle_cone_distance(cols, v):
    """Distance from v to the cone { cols @ mu : mu >= 0 }, one NNLS."""
    from scipy.optimize import nnls

    if cols.size == 0:
        return float(np.linalg.norm(v))
    _, res = nnls(cols, v)
    return float(res)


def oracle_cone_violation(theta, z, eta, tol):
    if isinstance(theta, _IntervalTheta):
        return oracle_interval_violation(theta, z, eta, tol)
    g, Dg, d = theta.constraint(z)
    return oracle_cone_distance(Dg[g >= d - tol].T, eta)


def oracle_surjective(J):
    s, n = J.shape
    if s > n:
        return False, 0.0
    sv = np.linalg.svd(J, compute_uv=False)
    sigma_min = float(sv[-1]) if sv.size else 0.0
    sigma_max = float(sv[0]) if sv.size else 0.0
    tol = 1e-8 * sigma_max if sigma_max > 0 else 1e-8
    return sigma_min >= tol, sigma_min


def oracle_decompose(theta, z, J, v, tol=1e-8):
    if not oracle_contains(theta, z, max(TOL_FEAS, tol)):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    ok, sigma_min = oracle_surjective(J)
    if not ok:
        raise SurjectivityError(f"grad_x psi is rank deficient (sigma_min={sigma_min:.3e})")
    eta, *_ = np.linalg.lstsq(J.T, v, rcond=None)
    [active] = _active_sets(theta, z[np.newaxis])
    if isinstance(theta, NonpositiveOrthant):
        eta[[i for i in range(theta.s) if i not in active]] = 0.0
    residual = float(np.linalg.norm(J.T @ eta - v))
    if residual > tol * (1.0 + float(np.linalg.norm(v))):
        raise NotInConeError(f"v is not in range(grad_x psi^T): residual {residual:.3e}")
    violation = oracle_cone_violation(theta, z, eta, max(TOL_FEAS, tol))
    if violation > tol:
        raise NotInConeError(f"eta={eta} violates N_Theta by {violation:.3e}")
    return eta


def oracle_recover_eta(system, state, control, tol=1e-8):
    mesh = state.mesh
    k, h = mesh.k, mesh.h
    tab = field_at_nodes(system.field, state.values[:k], control.values[:k])
    vals = np.zeros((k + 1, tab.field.s))
    for j in range(k):
        t_j, x_j = float(mesh.nodes[j]), state.values[j]
        f_j = np.atleast_1d(np.asarray(system.f(t_j, x_j), dtype=float))
        v = f_j - (state.values[j + 1] - x_j) / h
        try:
            vals[j] = oracle_decompose(system.theta, tab.psi[j], tab.Jx[j], v, tol)
        except (NotInConeError, DomainError, SurjectivityError) as e:
            raise type(e)(f"cell {j} (t = {t_j:g}): {e}") from e
    vals[k] = vals[k - 1]
    return vals


def oracle_interval_coderivative(lo, hi, w, xi, udir, act_tol, pos_tol):
    cases = []
    for i, (lo_i, hi_i, wi, xii, ui) in enumerate(zip(lo, hi, w, xi, udir)):
        if wi > hi_i + act_tol or wi < lo_i - act_tol:
            raise DomainError(f"w_{i}={wi} outside [{lo_i}, {hi_i}]")
        at_hi = np.isfinite(hi_i) and wi >= hi_i - act_tol
        at_lo = np.isfinite(lo_i) and wi <= lo_i + act_tol
        if at_hi and xii >= -pos_tol:
            sign, sided = 1.0, CoderivativeCase.NONNEGATIVE
        elif at_lo and xii <= pos_tol:
            sign, sided = -1.0, CoderivativeCase.NONPOSITIVE
        elif at_hi or at_lo:
            raise DomainError(f"xi_{i}={xii} not in the interval normal cone at w_{i}={wi}")
        elif abs(xii) > pos_tol:
            raise DomainError(f"xi_{i}={xii} must vanish at an interior w_{i}={wi}")
        else:
            cases.append(CoderivativeCase.MUST_BE_ZERO)
            continue
        if abs(xii) <= pos_tol:
            cases.append(CoderivativeCase.MUST_BE_ZERO if sign * ui < -pos_tol
                         else sided)
        elif abs(ui) <= pos_tol:
            cases.append(CoderivativeCase.FREE)
        else:
            return None
    return tuple(cases)


def oracle_coderivative_violation(cases, gamma):
    if cases is None:
        return math.inf
    worst = 0.0
    for case, gi in zip(cases, gamma):
        if case is CoderivativeCase.MUST_BE_ZERO:
            worst = max(worst, abs(gi))
        elif case is CoderivativeCase.NONNEGATIVE:
            worst = max(worst, max(0.0, -gi))
        elif case is CoderivativeCase.NONPOSITIVE:
            worst = max(worst, max(0.0, gi))
    return worst


def oracle_code(lo, hi, w, xi, udir, gamma):
    """One cell of the old check loops: a DomainError counts as +inf."""
    try:
        cases = oracle_interval_coderivative(lo, hi, w, xi, udir, ACT_TOL, TOL_POS)
    except DomainError:
        return math.inf
    return oracle_coderivative_violation(cases, gamma)


def oracle_modified_hamiltonian(theta, z, Jx, p, nu):
    if not oracle_contains(theta, z, ACT_TOL):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    products = nu * (Jx @ p)
    return math.inf if np.any((z >= -ACT_TOL) & (products < -TOL_POS)) else 0.0


def oracle_conventional_hamiltonian(theta, z, Jx, p):
    if not oracle_contains(theta, z, ACT_TOL):
        raise DomainError(f"psi(x,u)={z} is not in Theta")
    cols = _cone_generators(theta, z, Jx.T, tol=ACT_TOL)
    return math.inf if np.any(p @ cols < -TOL_POS) else 0.0


def _left_table(problem, state, control, cert):
    field = problem.system.field
    k = state.mesh.k
    tab = field_at_nodes(field, state.values[:k], control.values[:k])
    r = _midpoint_q(cert, tab, state, control)[:, :field.n] - cert.lam * cert.subgrad.v_x
    return tab, r


def oracle_max_condition(problem, state, control, cert):
    theta = problem.system.theta
    tab, r = _left_table(problem, state, control, cert)
    lo, hi = theta.bounds()
    code = maxc = ham = 0.0
    for psi_j, Jx, r_j, eta_j, nu_j in zip(tab.psi, tab.Jx, r, cert.eta.values,
                                           cert.nu.values):
        code = max(code, oracle_code(lo, hi, psi_j, eta_j, Jx @ r_j, nu_j))
        try:
            ham = max(ham, oracle_modified_hamiltonian(theta, psi_j, Jx, r_j, nu_j))
        except DomainError:
            ham = math.inf
        if math.isinf(ham):
            maxc = math.inf
            continue
        active = psi_j >= -ACT_TOL
        bracket = -np.sum((active * nu_j * eta_j)[:, None] * Jx, axis=0)
        maxc = max(maxc, abs(float(bracket @ r_j)),
                   *(abs(float(g @ r_j)) for g in Jx[active & (eta_j > TOL_POS)]))
    return code, maxc, ham


def oracle_sufficiency(problem, state, control, cert):
    theta = problem.system.theta
    bounds = theta.bounds()
    k, h = state.mesh.k, state.mesh.h
    tab, r = _left_table(problem, state, control, cert)
    ham = []
    for j in range(k):
        try:
            ham.append(oracle_conventional_hamiltonian(theta, tab.psi[j], tab.Jx[j], r[j]))
        except DomainError:
            ham.append(math.inf)
    active = np.minimum(bounds[1] - tab.psi, tab.psi - bounds[0]) <= ACT_TOL
    qualifies = active.any(axis=1) & ~np.any(active & (cert.eta.values[:k] <= TOL_POS), axis=1)
    xdot_r = np.abs((np.diff(state.values, axis=0)[:, None, :] / h @ r[:, :, None])[:, 0, 0])
    identity = float(np.max(np.where(np.isinf(ham), math.inf, xdot_r)[qualifies],
                            initial=0.0))
    return identity, int(np.sum(qualifies)), max([0.0, *ham])


def oracle_eta_item(problem, state, control, cert):
    system = problem.system
    theta = system.theta
    k, h = state.mesh.k, state.mesh.h
    tab = field_at_nodes(system.field, state.values, control.values)
    eta = cert.eta.values
    dyn = (np.diff(state.values, axis=0) / h
           - _drift(system, state.mesh.nodes[:k], state.values[:k])
           + np.array([Jx.T @ e for Jx, e in zip(tab.Jx[:k], eta[:k])]))
    return max(max(float(np.linalg.norm(dyn[j])),
                   oracle_cone_violation(theta, tab.psi[j], eta[j], ACT_TOL))
               if oracle_contains(theta, tab.psi[j], ACT_TOL) else math.inf
               for j in range(k))


def oracle_lift(problem, state, control, cert):
    theta = problem.system.theta
    k = state.mesh.k
    tab, r = _left_table(problem, state, control, cert)
    mu_vals = np.zeros((k + 1, theta.l))
    res_mu = res_nu = code = maxc = 0.0
    hs, Dhs, _ = theta.constraint(tab.psi)
    lo, hi = np.full(theta.l, -np.inf), np.zeros(theta.l)
    for j, (z_j, h_j, Dh, Jx, r_j, eta_j, nu_j) in enumerate(zip(
            tab.psi, hs, Dhs, tab.Jx, r, cert.eta.values, cert.nu.values)):
        ok, sigma_min = oracle_surjective(Dh)
        if not ok:
            raise SurjectivityError(
                f"inequality Jacobian at cell {j} is rank deficient "
                f"(sigma_min={sigma_min:.3e})")
        mu_j, *_ = np.linalg.lstsq(Dh.T, eta_j, rcond=None)
        mu_vals[j] = mu_j
        res_mu = max(res_mu, float(np.linalg.norm(Dh.T @ mu_j - eta_j)))
        dir_j = Jx @ r_j
        hess_term = np.zeros(theta.s)
        if theta.hess is not None:
            hess_term = np.atleast_2d(theta.hess(z_j, mu_j)) @ dir_j
        nu_lift, *_ = np.linalg.lstsq(Dh.T, nu_j - hess_term, rcond=None)
        res_nu = max(res_nu, float(np.linalg.norm(Dh.T @ nu_lift + hess_term - nu_j)))
        code = max(code, oracle_code(lo, hi, h_j, mu_j, Dh @ dir_j, nu_lift))
        bracket = -np.where(h_j >= -ACT_TOL, nu_lift * mu_j, 0.0) @ (Dh @ Jx)
        maxc = max(maxc, abs(float(bracket @ r_j)))
    mu_vals[k] = mu_vals[k - 1]
    return mu_vals, {"lift_mu": res_mu, "lift_nu": res_nu,
                     "measured_coderivative": code, "max_condition": maxc}


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def close(got, want, rel=1e-12):
    """Equal, or both finite and within rel of each other (rounding)."""
    if got == want:
        return True
    return math.isfinite(want) and abs(got - want) <= rel * max(1.0, abs(want))


def digits_out(message):
    """A message with the figures it prints replaced (and an array's
    padding, which follows them), for comparing errors whose figures round
    differently in the last place."""
    out = re.sub(r"\s+", " ", re.sub(r"-?\d+\.?\d*(e[-+]?\d+)?", "#", message))
    return out.replace("[ ", "[").replace(" ]", "]")


def same_error(got, want):
    assert type(got) is type(want)
    got_cell = re.match(r"cell \d+ \(t = [^)]*\): ", str(got))
    want_cell = re.match(r"cell \d+ \(t = [^)]*\): ", str(want))
    assert (got_cell and got_cell.group()) == (want_cell and want_cell.group())
    assert digits_out(str(got)) == digits_out(str(want))


def outcome(fn, *args):
    """fn(*args), or the GeometryError it raises."""
    try:
        return fn(*args)
    except geometry.GeometryError as e:
        return e


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

#: Offsets from a bound: on it, weakly active (within ACT_TOL), just
#: outside the membership tolerances, and well off either side.
OFFSETS = (0.0, 0.0, 5e-8, -5e-8, 3e-9, -3e-9, 1e-6, -1e-6, 0.3, -0.3)


def random_interval_theta(rng, s):
    """An orthant or a box whose components are two-sided, degenerate
    (lo = hi), one-sided either way or the whole line."""
    if rng.random() < 0.3:
        return NonpositiveOrthant(s)
    lower, upper = [], []
    for _ in range(s):
        a, b = sorted(rng.normal(scale=2.0, size=2))
        kind = int(rng.integers(5))
        lower.append((a, a, -math.inf, a, -math.inf)[kind])
        upper.append((b, a, b, math.inf, math.inf)[kind])
    return Box(lower=tuple(lower), upper=tuple(upper))


def interval_point(rng, theta):
    """A point on, near or off the ends of an interval Theta, with a
    multiplier that lies in the normal cone when the point is on an end,
    is zero when it is weakly active, and is sometimes of the wrong sign."""
    lo, hi = theta.bounds()
    z, eta = np.empty(theta.s), np.zeros(theta.s)
    for i in range(theta.s):
        ends = [(e, sign) for e, sign in ((hi[i], 1.0), (lo[i], -1.0)) if np.isfinite(e)]
        if not ends or rng.random() < 0.15:
            z[i] = rng.normal()
            continue
        e, sign = ends[int(rng.integers(len(ends)))]
        offset = float(rng.choice(OFFSETS))
        z[i] = e + offset
        if offset == 0.0:
            eta[i] = sign * rng.choice([0.0, 1.0, 2.5, -0.7])
        elif abs(offset) < ACT_TOL and rng.random() < 0.3:
            eta[i] = sign  # weakly active, yet carrying a multiplier
    return z, eta


def random_image_theta(rng, s):
    """A linear image A Z with A SPD and non-diagonal when s = 2, so that it
    has no interval form; every row of Z is two-sided in some direction."""
    B = rng.normal(size=(s, s))
    A = B @ B.T + np.eye(s)
    G = rng.normal(size=(int(rng.integers(s + 1, s + 3)), s))
    g = rng.uniform(0.5, 2.0, size=len(G))
    return LinearImagePolyhedron(A=tuple(map(tuple, A)), G=tuple(map(tuple, G)),
                                 g=tuple(g))


def image_point(rng, theta):
    """A point on one row, at the meeting point of two rows (s = 2) or free,
    with a multiplier built from the active rows at nonnegative weights
    (sometimes of the wrong sign)."""
    H, d = theta.halfspaces()
    s = theta.s
    kind = int(rng.integers(4))
    rows = rng.choice(len(H), size=min(2, s) if kind == 0 else 1, replace=False)
    if kind == 3:
        return rng.normal(scale=0.5, size=s), np.zeros(s)
    offsets = rng.choice(OFFSETS, size=len(rows))
    if len(rows) == s:
        z = np.linalg.solve(H[rows], d[rows] + offsets)
    else:
        a = H[rows[0]]
        z = rng.normal(scale=0.5, size=s)
        z = z + (d[rows[0]] + offsets[0] - a @ z) / (a @ a) * a
    weights = rng.choice([0.0, 1.0, 0.3, -0.5], size=len(rows))
    return z, weights @ H[rows]


def decomposition_stack(rng, theta, K):
    """(Z, J, V) for K nodes of one Theta: well-conditioned Jacobians, a
    few with dependent rows (s = 2) or more rows than columns, and
    velocities in, off the range of or off the cone of the multipliers."""
    s = theta.s
    n = int(rng.integers(s, 4)) if rng.random() < 0.9 else s - 1 if s > 1 else s
    Z, J, V = np.empty((K, s)), np.empty((K, s, n)), np.empty((K, n))
    for j in range(K):
        z, eta = (interval_point if isinstance(theta, _IntervalTheta)
                  else image_point)(rng, theta)
        Jj = rng.normal(size=(s, n)) + np.eye(s, n)
        if s == 2 and rng.random() < 0.15:
            Jj[1] = rng.normal() * Jj[0]  # dependent rows
        v = Jj.T @ eta
        if rng.random() < 0.05 and n > s:
            v = v + rng.normal(size=n)  # off the range of grad_x psi^T
        Z[j], J[j], V[j] = z, Jj, v
    return Z, J, V


def random_thetas(rng):
    s = int(rng.integers(1, 3))
    if rng.random() < 0.35:
        return random_image_theta(rng, s)
    return random_interval_theta(rng, s)


# ---------------------------------------------------------------------------
# Membership, normal-cone violation and the interval case table
# ---------------------------------------------------------------------------


def test_interval_membership_and_cone_violation_match_the_loops():
    rng = np.random.default_rng(20261019)
    degenerate = 0
    for _ in range(300):
        theta = random_interval_theta(rng, int(rng.integers(1, 4)))
        lo, hi = theta.bounds()
        degenerate += int(np.any(lo == hi))
        points = [interval_point(rng, theta) for _ in range(12)]
        Z = np.array([z for z, _ in points])
        E = np.array([eta for _, eta in points]) + rng.choice(
            [0.0, 1e-9, -1e-9, 1.0, -1.0], size=(12, theta.s))
        for tol in (TOL_FEAS, 1e-8, ACT_TOL):
            want_in = [oracle_interval_contains(theta, z, tol) for z in Z]
            want_cone = [oracle_interval_violation(theta, z, e, tol) for z, e in zip(Z, E)]
            assert theta.contains_stack(Z, tol).tolist() == want_in
            assert theta.normal_cone_violation_stack(Z, E, tol).tolist() == want_cone
            assert [theta.contains(z, tol) for z in Z] == want_in
            assert [theta.normal_cone_violation(z, e, tol)
                    for z, e in zip(Z, E)] == want_cone
    assert degenerate >= 30


def test_image_membership_and_cone_distance_match_the_projection_and_nnls():
    rng = np.random.default_rng(20261020)
    seen = {0: 0, 1: 0, 2: 0}
    outside = 0
    for _ in range(150):
        theta = random_image_theta(rng, int(rng.integers(1, 3)))
        points = [image_point(rng, theta) for _ in range(16)]
        Z = np.array([z for z, _ in points])
        E = np.array([eta for _, eta in points]) + rng.choice(
            [0.0, 1e-3, -1.0], size=(16, theta.s))
        for tol in (TOL_FEAS, 1e-8, ACT_TOL):
            want_in = [oracle_contains(theta, z, tol) for z in Z]
            assert theta.contains_stack(Z, tol).tolist() == want_in
            outside += want_in.count(False)
            g, _, d = theta.constraint(Z)
            count = np.sum(g >= d - tol, axis=1)
            got = theta.normal_cone_violation_stack(Z, E, tol)
            for j, (z, e) in enumerate(zip(Z, E)):
                want = oracle_cone_violation(theta, z, e, tol)
                seen[min(int(count[j]), 2)] += 1
                assert abs(got[j] - want) <= 1e-13 * (1.0 + np.linalg.norm(e))
    assert min(seen.values()) >= 100 and outside >= 100, (seen, outside)


def test_interval_case_codes_match_the_scalar_table():
    rng = np.random.default_rng(20261021)
    kinds = {"cases": 0, "empty": 0, "domain": 0}
    for _ in range(400):
        theta = random_interval_theta(rng, int(rng.integers(1, 4)))
        lo, hi = theta.bounds()
        points = [interval_point(rng, theta) for _ in range(10)]
        W = np.array([z for z, _ in points])
        XI = np.array([eta for _, eta in points]) + rng.choice(
            [0.0, 0.0, 1e-13, -1e-9, 1.0], size=W.shape)
        U = rng.choice([0.0, 1e-13, TOL_POS, -TOL_POS, 1e-6, -1e-6, 2.0, -2.0],
                       size=W.shape)
        G = rng.choice([0.0, 0.5, -0.5, 1e-9], size=W.shape)
        codes = coderivative_codes(lo, hi, W, XI, U, ACT_TOL, TOL_POS)
        viol = coderivative_violations(codes, G)
        for j in range(len(W)):
            want = outcome(oracle_interval_coderivative, lo, hi, W[j], XI[j], U[j],
                           ACT_TOL, TOL_POS)
            got = outcome(coderivative_theta, theta, W[j], XI[j], U[j], ACT_TOL, TOL_POS)
            if isinstance(want, DomainError):
                kinds["domain"] += 1
                assert type(got) is DomainError and str(got) == str(want)
                assert viol[j] == math.inf
                continue
            assert got == want
            if want is None:
                kinds["empty"] += 1
                assert viol[j] == math.inf
            else:
                kinds["cases"] += 1
                assert tuple(geometry._CASES[c] for c in codes[j]) == want
                assert viol[j] == oracle_coderivative_violation(want, G[j])
    assert min(kinds.values()) >= 100, kinds


# ---------------------------------------------------------------------------
# The stacked decomposition and recover_eta
# ---------------------------------------------------------------------------


def test_stacked_decomposition_matches_the_per_cell_loop():
    rng = np.random.default_rng(20261022)
    errors = {DomainError: 0, SurjectivityError: 0, NotInConeError: 0}
    later_failures = passed = 0
    for _ in range(300):
        theta = random_thetas(rng)
        K = int(rng.integers(1, 9))
        Z, J, V = decomposition_stack(rng, theta, K)
        want = [outcome(oracle_decompose, theta, Z[j], J[j], V[j]) for j in range(K)]
        eta, residual, failure = decompose_nodes(theta, Z, J, V, 1e-8)
        for j, w in enumerate(want):
            if not isinstance(w, Exception):
                passed += 1
                np.testing.assert_allclose(eta[j], w, rtol=1e-10, atol=1e-12)
                assert residual[j] <= 1e-8 * (1.0 + np.linalg.norm(V[j]))
            # Each node alone, as normal_cone_decompose runs it.
            one = outcome(decompose_nodes, theta, Z[j:j + 1], J[j:j + 1], V[j:j + 1], 1e-8)
            if isinstance(w, Exception):
                assert one[2] is not None and one[2][0] == 0
                same_error(one[2][1], w)
            else:
                assert one[2] is None
        failing = [j for j, w in enumerate(want) if isinstance(w, Exception)]
        if not failing:
            assert failure is None
            continue
        j, err = failure
        assert j == failing[0]
        same_error(err, want[j])
        errors[type(err)] += 1
        later_failures += j > 0
    assert min(errors.values()) >= 15 and later_failures >= 15 and passed >= 300, \
        (errors, later_failures, passed)


def test_normal_cone_decompose_is_one_node_of_the_stack():
    rng = np.random.default_rng(20261023)
    for _ in range(60):
        s = int(rng.integers(1, 3))
        theta = random_interval_theta(rng, s)
        field = FieldMap.affine_fixed(rng.normal(size=(s, s)) + 2 * np.eye(s),
                                      np.eye(s), np.zeros(s))
        z, eta = interval_point(rng, theta)
        x = rng.normal(size=s)
        u = z - field.psi(x, np.zeros(s))
        v = field.dpsi_dx(x, u).T @ eta
        got = outcome(normal_cone_decompose, field, theta, x, u, v)
        want = outcome(oracle_decompose, theta, field.psi(x, u), field.dpsi_dx(x, u), v)
        if isinstance(want, Exception):
            same_error(got, want)
        else:
            np.testing.assert_allclose(got.eta, want, rtol=1e-10, atol=1e-12)
            assert got.active_indices == _active_sets(theta, field.psi(x, u)[None])[0]


def recovery_pairs():
    """Pairs the certifier meets: references, sampled pairs with an off-node
    kink, controls lifted off the set, and simulated perturbed controls."""
    rng = np.random.default_rng(20261024)
    out = []
    for iid, ks in (("remark45", (8, 52)), ("counterexample53", (8, 50)),
                    ("elastoplastic61", (8, 50))):
        system = instance(iid).problem.system
        for k in ks:
            state, control = solution_on_mesh(iid, k)
            out.append((f"{iid}/k{k}", system, state, control))
            lifted = control.values.copy()
            lifted[int(rng.integers(1, k))] += 10.0
            out.append((f"{iid}/k{k}/lifted", system, state,
                        Path(mesh=control.mesh, values=lifted)))
            for trial in range(3):
                u = control.values.copy()
                u[1:] += 0.1 * rng.standard_normal(u[1:].shape)
                moved = Path(mesh=control.mesh, values=u)
                out.append((f"{iid}/k{k}/perturbed{trial}", system,
                            simulate(system, moved)[0], moved))
    return out


RECOVERY = recovery_pairs()


@pytest.mark.parametrize("name,system,state,control", RECOVERY,
                         ids=[case[0] for case in RECOVERY])
def test_recover_eta_matches_the_cell_loop(name, system, state, control):
    want = outcome(oracle_recover_eta, system, state, control)
    got = outcome(recover_eta, system, state, control)
    if isinstance(want, Exception):
        same_error(got, want)
    else:
        np.testing.assert_allclose(got.values, want, rtol=1e-10, atol=1e-12)


def test_recovery_cases_reach_every_outcome():
    kinds = set()
    for _, system, state, control in RECOVERY:
        kinds.add(type(outcome(oracle_recover_eta, system, state, control)).__name__)
    assert kinds == {"ndarray", "DomainError", "NotInConeError"}


# ---------------------------------------------------------------------------
# The check functions
# ---------------------------------------------------------------------------


def random_certificate(rng, problem, state):
    """A certificate with random adjoint, measure, multipliers and nu: some
    multipliers zero, some tiny, some of the wrong sign."""
    field = problem.system.field
    mesh = state.mesh
    k, n, m, s = mesh.k, field.n, field.m, field.s
    pick = lambda shape, values: rng.choice(values, size=shape) * rng.uniform(0.5, 2.0, shape)
    sg = SubgradientSelection(
        w_x=rng.normal(size=(k, n)), w_u=rng.normal(size=(k, m)),
        v_x=pick((k, n), [0.0, 0.0, 1.0]),
        v_u=rng.normal(size=(k, m)) if problem.uses_udot else None)
    p = rng.normal(size=(k + 1, n + m))
    return Certificate(
        lam=float(rng.choice([0.0, 1.0])), p=Path(mesh=mesh, values=p),
        q=p + rng.normal(scale=1e-3, size=p.shape),
        eta=Path(mesh=mesh, values=pick((k + 1, s), [0.0, 0.0, 1e-9, 1.0, -1.0])),
        gamma=VectorMeasure(mesh=mesh, density=pick((k, s), [0.0, 0.0, 1.0]),
                            atoms=((mesh.T, rng.normal(size=s)),)),
        subgrad=sg,
        nu=Path(mesh=mesh, values=pick((k + 1, s), [0.0, 0.0, 1e-9, 1.0, -1.0])))


def check_pairs():
    """References and states moved on a few nodes: off the set, weakly
    inside, or strictly inside."""
    rng = np.random.default_rng(20261025)
    out = []
    for iid, k in (("remark45", 12), ("counterexample53", 10), ("elastoplastic61", 10)):
        problem = instance(iid).problem
        state, control = solution_on_mesh(iid, k)
        for trial in range(8):
            x = state.values.copy()
            if trial:
                rows = rng.choice(k + 1, size=3, replace=False)
                moves = [5e-8, -5e-8] if trial >= 6 else [5e-8, -5e-8, 0.3, -0.3]
                x[rows] += rng.choice(moves, size=(3, x.shape[1]))
            moved = Path(mesh=state.mesh, values=x)
            cert = (certificate_on_mesh(iid, k) if trial == 0
                    else random_certificate(rng, problem, moved))
            if trial >= 6:
                # nu of the sign of <grad_i, r>: a finite modified
                # Hamiltonian with a nonzero bracket.
                tab, r = _left_table(problem, moved, control, cert)
                nu = cert.nu.values.copy()
                # Small in one trial, so that the rows along an active
                # gradient outweigh the bracket.
                scale = 1e-3 if trial == 6 else 1.0
                nu[:k] = scale * np.abs(nu[:k]) * np.sign(tab.Jx @ r[:, :, None])[:, :, 0]
                cert = dataclasses.replace(cert, nu=Path(mesh=state.mesh, values=nu))
            out.append((f"{iid}/{trial}", problem, moved, control, cert))
    return out


CHECKS = check_pairs()


@pytest.mark.parametrize("name,problem,state,control,cert", CHECKS,
                         ids=[case[0] for case in CHECKS])
def test_stacked_checks_match_the_cell_loops(name, problem, state, control, cert):
    theta = problem.system.theta
    report = residual_continuous_EL(problem, state, control, cert)
    assert close(report.get("eta").residual,
                 oracle_eta_item(problem, state, control, cert))
    suff = conventional_sufficiency_check(problem, state, control, cert)
    identity, checked, ham = oracle_sufficiency(problem, state, control, cert)
    assert suff.get("hamilton_identity").residual == identity
    assert suff.details["cells_checked"] == checked
    assert suff.details["conventional_hamiltonian"] == ham
    if isinstance(theta, NonpositiveOrthant):
        maxrep = max_condition_check(problem, state, control, cert)
        code, maxc, ham = oracle_max_condition(problem, state, control, cert)
        assert maxrep.get("measured_coderivative").residual == code
        assert close(maxrep.get("max_condition").residual, maxc)
        assert maxrep.get("max_condition").passed == (maxc <= 1e-6)
        assert maxrep.details["modified_hamiltonian"] == ham


def test_check_cases_reach_every_branch():
    counts = {"inf_ham": 0, "finite_maxc": 0, "checked": 0, "eta_inf": 0,
              "code_finite": 0}
    for _, problem, state, control, cert in CHECKS:
        counts["eta_inf"] += math.isinf(oracle_eta_item(problem, state, control, cert))
        counts["checked"] += oracle_sufficiency(problem, state, control, cert)[1] > 0
        if isinstance(problem.system.theta, NonpositiveOrthant):
            code, maxc, ham = oracle_max_condition(problem, state, control, cert)
            counts["inf_ham"] += math.isinf(ham)
            counts["finite_maxc"] += 0.0 < maxc < math.inf
            counts["code_finite"] += code < math.inf
    assert min(counts.values()) >= 2, counts


def test_discrete_coderivative_matches_the_cell_loop():
    rng = np.random.default_rng(20261026)
    problem = instance("remark45").problem
    field, theta = problem.system.field, problem.system.theta
    state, control = solution_on_mesh("remark45", 12)
    k = 12
    eta = recover_eta(problem.system, state, control).values[:k]
    sg = SubgradientSelection(w_x=np.zeros((k, 1)), w_u=np.zeros((k, 1)),
                              v_x=np.zeros((k, 1)))
    finite = 0
    for trial in range(40):
        x = state.values.copy()
        x[rng.choice(k, size=2)] += rng.choice([5e-8, -5e-8] if trial % 2 else
                                               [5e-8, 0.3, -0.3], size=(2, 1))
        nudge = [0.0, 0.0, 1e-9] if trial % 2 else [0.0, 0.0, 1e-9, -1.0]
        z = DiscreteDecision(mesh=state.mesh, x=x, u=control.values,
                             eta=eta + rng.choice(nudge, size=eta.shape))
        # An odd trial stays on the graph of the normal-cone map and leaves
        # ufrak = 0, so that no direction empties a case.
        p = rng.normal(size=(k + 1, 2)) * (trial % 2 == 0)
        cert = DiscreteCertificate(lam=1.0, p=p,
                                   gamma=rng.choice([0.0, 0.5, -0.5], size=(k, 1)),
                                   subgrad=sg)
        got = residual_discrete_EL(problem, z, cert).get("measured_coderivative").residual
        tab = field_at_nodes(field, z.x, z.u)
        th_x, _ = theta_quantities(problem, z)
        ufrak = cert.p[1:, :1] - (sg.v_x + th_x / state.mesh.h)
        lo, hi = theta.bounds()
        want = max([0.0] + [oracle_code(lo, hi, tab.psi[j], z.eta[j], tab.Jx[j] @ ufrak[j],
                                        cert.gamma[j]) for j in range(k)])
        assert got == want
        finite += want < math.inf
    assert 5 <= finite <= 35


def ramp_problem_with(theta):
    field = FieldMap.affine_fixed([[1.0]], [[1.0]], [0.0])
    system = SweepingSystem(f=lambda t, x: np.zeros(1), field=field,
                            theta=theta, x0=[1.5], T=2.0)
    return OcpProblem(system=system, phi=lambda x: 0.5 * (x[0] - 1.0) ** 2,
                      dphi=lambda x: np.array([x[0] - 1.0]),
                      ell=lambda t, x, u, vx: 0.0,
                      dell=lambda t, x, u, vx: (np.zeros(1), np.zeros(1), np.zeros(1)),
                      mode="W12xC", u0=[-2.0])


LIFTS = {
    "identity": SmoothInequality(s=1, l=1, h=lambda z: z.copy(),
                                 jac=lambda z: np.array([[1.0]])),
    "scaled-with-hessian": SmoothInequality(
        s=1, l=1, h=lambda z: 2.0 * z + z ** 2, jac=lambda z: np.array([[2.0 + 2.0 * z[0]]]),
        hess=lambda z, mu: np.array([[2.0 * mu[0]]])),
    # Theta = [-0.5, 0], whose grad h vanishes at z = -0.25: psi passes
    # there at the second node of the reference on the k = 8 mesh.
    "vanishing-gradient": SmoothInequality(
        s=1, l=1, h=lambda z: z * (z + 0.5),
        jac=lambda z: np.array([[2.0 * z[0] + 0.5]]),
        hess=lambda z, mu: np.array([[2.0 * mu[0]]])),
}


@pytest.mark.parametrize("name", list(LIFTS))
def test_lift_matches_the_cell_loop(name):
    rng = np.random.default_rng(20261027)
    problem = ramp_problem_with(LIFTS[name])
    state, control = solution_on_mesh("remark45", 8)
    base = certificate_on_mesh("remark45", 8)
    for trial in range(10):
        cert = dataclasses.replace(
            base, p=Path(mesh=state.mesh, values=rng.normal(size=(9, 2)) * (trial % 2)),
            nu=Path(mesh=state.mesh, values=rng.choice([0.0, 0.5, -0.5], size=(9, 1))),
            eta=Path(mesh=state.mesh, values=base.eta.values
                     + rng.choice([0.0, 0.0, 1e-9, 1.0], size=(9, 1))))
        want = outcome(oracle_lift, problem, state, control, cert)
        got = outcome(smooth_inequality_lift, problem, state, control, cert)
        if isinstance(want, Exception):
            same_error(got, want)
            continue
        mu, report = got
        np.testing.assert_allclose(mu.values, want[0], rtol=1e-12, atol=1e-15)
        for item, value in want[1].items():
            assert close(report.get(item).residual, value), item


def test_the_vanishing_gradient_fails_at_its_cell():
    problem = ramp_problem_with(LIFTS["vanishing-gradient"])
    state, control = solution_on_mesh("remark45", 8)
    cert = certificate_on_mesh("remark45", 8)
    with pytest.raises(SurjectivityError, match=r"at cell 1 is rank deficient"):
        smooth_inequality_lift(problem, state, control, cert)


# ---------------------------------------------------------------------------
# No per-point NNLS on the benchmark's instances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("iid,k", [("remark45", 52), ("counterexample53", 50),
                                   ("elastoplastic61", 50)])
def test_checks_make_no_per_point_nnls(iid, k, monkeypatch):
    """Orthant and image Theta never reach the NNLS cell by cell, and neither
    does residual_continuous_EL's endpoint transversality: the two active
    rows at the end of counterexample53 take the least-distance kernel's
    closed form."""
    import scipy.optimize

    problem = instance(iid).problem
    state, control = solution_on_mesh(iid, k)
    cert = certificate_on_mesh(iid, k)

    def refuse(*args):
        raise AssertionError("per-point projection")

    calls = []
    real_nnls = scipy.optimize.nnls

    def counting(*args, **kwargs):
        calls.append(1)
        return real_nnls(*args, **kwargs)

    monkeypatch.setattr(geometry, "polyhedron_distance", refuse)
    monkeypatch.setattr(scipy.optimize, "nnls", counting)
    recover_eta(problem.system, state, control)
    assert residual_continuous_EL(problem, state, control, cert).passed
    g, _, d = problem.system.theta.constraint(psi_eval(
        problem.system.field, state.values[-1], control.values[-1]))
    assert (np.sum(g >= d - ACT_TOL) >= 2) == (iid == "counterexample53")
    conventional_sufficiency_check(problem, state, control, cert)
    if isinstance(problem.system.theta, NonpositiveOrthant):
        assert max_condition_check(problem, state, control, cert).passed
    assert not calls
