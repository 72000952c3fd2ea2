"""The sparse certificate fit against the dense bounded least-squares fit.

``_dense_fit`` keeps the dense assembly the certifier used before the
banded tail form: one row block per cell written into a dense
rows x unknowns matrix, ``matrix_rank`` for the rank test and
``lsq_linear(method="bvls")`` for the bounded regularized fit.  It is the
oracle for ``assemble_certificate``, and it evaluates the field point by
point through the FieldMap callbacks rather than through a node table.
"""

import dataclasses

import numpy as np
import pytest

from sweepctl.certify import (
    ACT_TOL,
    VectorMeasure,
    _interior_margin,
    _rank_deficient,
    _running_subgradients,
    _tail_cells,
    assemble_certificate,
    recover_eta,
    residual_continuous_EL,
)
from sweepctl.dynamics import Mesh, Path
from sweepctl.geometry import _cone_generators, psi_eval
from sweepctl.ocp import QuadraticTerminalCost, _Augmented
from sweepctl.problems import instance, solution_on_mesh

REG = 1e-6


def _grad_T(field, x, u):
    """Transposed full constraint Jacobian at one point: (n + m, s)."""
    Jx = np.atleast_2d(np.asarray(field.dpsi_dx(x, u), dtype=float))
    Ju = np.atleast_2d(np.asarray(field.dpsi_du(x, u), dtype=float))
    return np.hstack([Jx, Ju]).T


def _hess(field, x, u, w):
    """[hess_xx; hess_ux] contracted with w at one point: (n + m, n)."""
    n, m = field.n, field.m
    hxx = np.zeros((n, n)) if field.hess_xx is None else field.hess_xx(x, u, w)
    hux = np.zeros((m, n)) if field.hess_ux is None else field.hess_ux(x, u, w)
    return np.vstack([np.atleast_2d(hxx), np.atleast_2d(hux)])


def _dense_fit(problem, state, control, lam=1.0):
    """(A, b, lower bounds, fitted x, non_unique, layout) of the dense fit."""
    from scipy.optimize import lsq_linear
    system = problem.system
    field = system.field
    theta = system.theta
    mesh = state.mesh
    k, h = mesh.k, mesh.h
    n, m, s = field.n, field.m, field.s
    nodes = mesh.nodes
    eta_path = recover_eta(system, state, control)
    sg = _running_subgradients(problem, state, control)
    grads = np.stack([_grad_T(field, x, u)
                      for x, u in zip(state.values[:k], control.values[:k])])
    x_T, u_T = state.values[k], control.values[k]
    grad_T_end = _grad_T(field, x_T, u_T)
    psi_T = psi_eval(field, x_T, u_T)
    cols_T = _cone_generators(theta, psi_T, grad_T_end, tol=ACT_TOL)
    n_beta = cols_T.shape[1]
    psis = [psi_eval(field, state.values[j], control.values[j])
            for j in range(k + 1)]
    contact = [j for j in range(k)
               if min(_interior_margin(theta, psis[j]),
                      _interior_margin(theta, psis[j + 1])) <= 1e-6]
    npv = (k + 1) * (n + m)
    ndv = len(contact) * s
    i_atom = npv + ndv
    i_beta = i_atom + s
    nvars = i_beta + n_beta

    t_mid = 0.5 * (nodes[:-1] + nodes[1:])
    full, cut, length = _tail_cells(mesh, t_mid)
    weights = np.where(np.arange(k) >= full[:, np.newaxis], h, 0.0)
    at = cut >= 0
    weights[at, cut[at]] = length[at]
    weights = weights[:, contact, np.newaxis, np.newaxis]
    grads_u = grads[contact, n:, :]

    def dens_block(blocks):
        return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], ndv)

    d = n + m
    rows, rhs = [], []
    for j in range(k):
        x_j, u_j, eta_j = state.values[j], control.values[j], eta_path.values[j]
        Hmat = _hess(field, x_j, u_j, eta_j)
        M = np.zeros((d, nvars))
        M[:, j * d:(j + 1) * d] -= np.eye(d) / h
        M[:, (j + 1) * d:(j + 2) * d] += np.eye(d) / h
        M[:, j * d:j * d + n] -= 0.5 * Hmat
        M[:, (j + 1) * d:(j + 1) * d + n] -= 0.5 * Hmat
        M[:, npv:i_atom] += dens_block(
            weights[j] * (Hmat @ grads[:, :n, :])[contact])
        M[:, i_atom:i_beta] += Hmat @ grad_T_end[:n, :]
        rows.append(M)
        rhs.append(lam * np.concatenate([sg.w_x[j], sg.w_u[j]])
                   - Hmat @ (lam * sg.v_x[j]))
        M = np.zeros((m, nvars))
        M[:, j * d + n:(j + 1) * d] += 0.5 * np.eye(m)
        M[:, (j + 1) * d + n:(j + 2) * d] += 0.5 * np.eye(m)
        M[:, npv:i_atom] -= dens_block(weights[j] * grads_u)
        M[:, i_atom:i_beta] -= grad_T_end[n:, :]
        rows.append(M)
        rhs.append(lam * sg.v_u[j] if problem.uses_udot else np.zeros(m))
    M = np.zeros((d, nvars))
    M[:, k * d:(k + 1) * d] = -np.eye(d)
    for i in range(n_beta):
        M[:, i_beta + i] = -cols_T[:, i]
    gphi = np.atleast_1d(np.asarray(problem.dphi(x_T), dtype=float))
    rows.append(M)
    rhs.append(lam * np.concatenate([gphi, np.zeros(m)]))

    A = np.vstack(rows)
    b = np.concatenate(rhs)
    non_unique = int(np.linalg.matrix_rank(A)) < nvars
    lb = np.full(nvars, -np.inf)
    lb[i_beta:] = 0.0
    sol = lsq_linear(np.vstack([A, REG * np.eye(nvars)]),
                     np.concatenate([b, np.zeros(nvars)]),
                     bounds=(lb, np.full(nvars, np.inf)), method="bvls",
                     tol=1e-14)
    layout = {"contact": contact, "i_atom": i_atom, "i_beta": i_beta}
    return A, b, lb, sol.x, non_unique, layout


def _unknowns(cert, A, b, lb, layout):
    """The sparse fit's unknowns in the dense layout.

    The certificate carries neither the cone coefficients nor an atom it
    dropped as negligible.  Given the other unknowns, those two blocks are
    the unique bounded regularized minimizer, so they are solved for here.
    """
    from scipy.optimize import lsq_linear
    i_atom = layout["i_atom"]
    x = np.concatenate([cert.p.values.ravel(),
                        cert.gamma.density[layout["contact"]].ravel()])
    tail = A.shape[1] - i_atom
    sub = lsq_linear(np.vstack([A[:, i_atom:], REG * np.eye(tail)]),
                     np.concatenate([b - A[:, :i_atom] @ x, np.zeros(tail)]),
                     bounds=(lb[i_atom:], np.full(tail, np.inf)),
                     method="bvls", tol=1e-14)
    if cert.gamma.atoms:  # a kept atom is the minimizer too
        w = cert.gamma.atoms[0][1]
        assert np.max(np.abs(sub.x[:len(w)] - w)) <= 1e-10
    return np.concatenate([x, sub.x])


def _objective(A, b, x):
    return float(np.sum((A @ x - b) ** 2) + REG ** 2 * np.sum(x ** 2))


def _kkt_residual(A, b, lb, x):
    """Worst violation of the bound-constrained optimality conditions."""
    g = 2.0 * (A.T @ (A @ x - b) + REG ** 2 * x)
    at_bound = np.isfinite(lb) & (x <= lb)
    return float(np.max(np.where(at_bound, np.maximum(-g, 0.0), np.abs(g))))


def _counterexample_with_center(center):
    problem = instance("counterexample53").problem
    return dataclasses.replace(
        problem, phi=QuadraticTerminalCost(center=center), dphi=None)


def _bumped_remark45():
    state, control = solution_on_mesh("remark45", 8)
    vals = control.values.copy()
    vals[1, 0] += 0.05
    return instance("remark45").problem, state, Path(mesh=control.mesh, values=vals)


def _near_contact_remark45():
    """The remark45 reference with the control at node 1 moved to 5e-4
    inside the set: cell 0 (margins 0.5 and 5e-4) lies strictly inside by
    less than 1e-3, and cell 1 (5e-4 and 0) touches the boundary."""
    state, control = solution_on_mesh("remark45", 8)
    vals = control.values.copy()
    vals[1, 0] = -1.5005
    return instance("remark45").problem, state, Path(mesh=control.mesh, values=vals)


def _resting_inside():
    problem = dataclasses.replace(instance("counterexample53").problem,
                                  u0=np.array([2.0, 2.0]))
    mesh = Mesh(k=8, T=1.0)
    return (problem, Path(mesh=mesh, values=np.ones((9, 2))),
            Path(mesh=mesh, values=2.0 * np.ones((9, 2))))


def _reference(iid, k):
    return (instance(iid).problem,) + solution_on_mesh(iid, k)


# remark45 references need k divisible by 4, so 52 stands in for 50;
# nonconvex22 has no reference pair.
CASES = {f"{iid}/k{k}": (lambda iid=iid, k=k: _reference(iid, k), 1.0, True)
         for iid, ks in (("remark45", (8, 20, 52)),
                         ("counterexample53", (8, 20, 50)),
                         ("elastoplastic61", (8, 20, 50)))
         for k in ks}
CASES.update({
    "remark45/bumped": (_bumped_remark45, 1.0, True),
    "remark45/near-contact": (_near_contact_remark45, 1.0, True),
    "counterexample53/inside": (_resting_inside, 1.0, True),
    # The free cone columns make the fit ill conditioned (about 1.6e7), so
    # equal objectives do not pin the unknowns to 1e-8 here.
    "counterexample53/center(5,5)": (
        lambda: (_counterexample_with_center([5.0, 5.0]),)
        + solution_on_mesh("counterexample53", 8), 1.0, False),
    "counterexample53/center(5,-5)": (
        lambda: (_counterexample_with_center([5.0, -5.0]),)
        + solution_on_mesh("counterexample53", 8), 1.0, False),
    "elastoplastic61/lam0": (lambda: _reference("elastoplastic61", 8), 0.0, True),
})


@pytest.mark.parametrize("name", list(CASES))
def test_sparse_fit_matches_the_dense_fit(name):
    build, lam, compare_unknowns = CASES[name]
    problem, state, control = build()
    A, b, lb, x_dense, non_unique, layout = _dense_fit(problem, state, control, lam)
    cert = assemble_certificate(problem, state, control, lam=lam)
    x = _unknowns(cert, A, b, lb, layout)

    f_dense, f = _objective(A, b, x_dense), _objective(A, b, x)
    assert abs(f - f_dense) <= 1e-9 * max(f_dense, f, 1e-300), (f, f_dense)
    assert _kkt_residual(A, b, lb, x) <= _kkt_residual(A, b, lb, x_dense) + 1e-12
    assert cert.non_unique == non_unique
    assert cert.fit_residual == pytest.approx(
        float(np.max(np.abs(A @ x - b))), abs=1e-12)
    if compare_unknowns:
        scale = max(1.0, float(np.max(np.abs(x_dense))))
        assert np.max(np.abs(x - x_dense)) <= 1e-8 * scale


def test_cone_coefficients_take_both_bound_states():
    # The terminal centers put both generators in the interior of the
    # bound (5, 5) or one on it (5, -5); the endpoint rows must close.
    for center, clamped in (([5.0, 5.0], 0), ([5.0, -5.0], 1)):
        problem = _counterexample_with_center(center)
        state, control = solution_on_mesh("counterexample53", 8)
        A, b, lb, x_dense, _, layout = _dense_fit(problem, state, control)
        x = _unknowns(assemble_certificate(problem, state, control), A, b,
                      lb, layout)
        beta = x[layout["i_beta"]:]
        assert len(beta) == 2
        assert int(np.sum(beta == 0.0)) == clamped
        assert int(np.sum(x_dense[layout["i_beta"]:] == 0.0)) == clamped


def test_a_cell_inside_by_less_than_1e_3_carries_no_density():
    """INTERIOR_TOL (1e-6) decides which cells may carry density.  Cell 0
    sits 5e-4 inside: the fit fixes its density to zero and puts the measure
    on the contact cell 1, and density placed on cell 0 counts against
    nonatomicity while density on cell 1 does not.  At a tolerance of 1e-3
    the fit would smear the measure onto cell 0 and add an endpoint atom."""
    problem, state, control = _near_contact_remark45()
    psis = [psi_eval(problem.system.field, x, u)
            for x, u in zip(state.values, control.values)]
    margins = [_interior_margin(problem.system.theta, z) for z in psis]
    assert 1e-6 < margins[1] < 1e-3 and margins[0] > 1e-3 and margins[2] == 0.0

    cert = assemble_certificate(problem, state, control)
    assert cert.gamma.density[0, 0] == 0.0
    assert cert.gamma.density[1, 0] == pytest.approx(-0.499, abs=1e-9)
    assert np.max(np.abs(cert.gamma.density[2:])) <= 1e-9
    assert cert.gamma.atoms == ()
    items = residual_continuous_EL(problem, state, control, cert).items
    assert {i.name: i for i in items}["nonatomicity"].residual == 0.0

    dens = np.zeros_like(cert.gamma.density)
    dens[:2] = 1.0
    moved = dataclasses.replace(
        cert, gamma=VectorMeasure(mesh=state.mesh, density=dens, atoms=()))
    items = residual_continuous_EL(problem, state, control, moved).items
    nonatomicity = {i.name: i for i in items}["nonatomicity"]
    assert nonatomicity.residual == pytest.approx(state.mesh.h)
    assert not nonatomicity.passed


def test_an_exactly_singular_condition_matrix_is_rank_deficient():
    """An unknown that no condition and no tail equality touches leaves the
    augmented matrix exactly singular: splu raises, and the rank test
    counts that as dependent columns."""
    from scipy.sparse import csc_array

    A = csc_array(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 0.0],
                            [1.0, 0.0, 1.0]]))
    C = csc_array(np.array([[1.0, 0.0, -1.0]]))
    with pytest.raises(RuntimeError):
        _Augmented(A.indices, A.indptr, A.shape, C).factor(A.data)
    assert _rank_deficient(A, C, np.arange(3))


@pytest.mark.parametrize("iid", ["counterexample53", "elastoplastic61"])
def test_fit_scales_to_a_thousand_cells(iid):
    """The dense fit of counterexample53 at k = 1000 would need a 6004 x
    6006 condition matrix; the banded fit stays O(k) in time and memory."""
    problem, state, control = _reference(iid, 1000)
    cert = assemble_certificate(problem, state, control)
    assert cert.fit_residual <= 1e-8
    assert cert.non_unique
    assert residual_continuous_EL(problem, state, control, cert).passed
