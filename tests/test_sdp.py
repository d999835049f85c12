"""Conic solver, relaxation bounds, eigenvalue criteria, and witnesses."""

import inspect
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg

import gme

from gme.optimizers import OptimizerConfig
from gme.sdp import (
    Links,
    SdpProblem,
    _BlockVec,
    _reduction_links,
    _transpose_links,
    evaluate_witness,
    fidelity_root_sdp,
    lower_bound,
    lower_bound_mixed,
    lower_bound_subspace_ppt,
    lower_bound_subspace_reduction,
    ppt_min_eig,
    reduction_image,
    reduction_min_eig,
    solve_sdp,
    witness_from_pure,
)
from gme.states import (
    DensityMatrix,
    PureState,
    StateError,
    Subspace,
    _partial_trace_arr,
    _partial_transpose_arr,
    fidelity,
    permute_parties_matrix,
    total_dim,
)
from gme.variational import gme_mixed_multipartite
from gme.zoo import (
    bell_state,
    bhat_subspace,
    dicke_mixture_gme,
    dicke_mixture_state,
    ghz_state,
    horodecki_state,
    isotropic_kgme,
    isotropic_state,
    johnston_subspace,
    max_entangled,
    tiles_complement_subspace,
    two_by_d_theta_subspace,
    w_state,
    werner_state,
)

from conftest import random_density, random_pure, random_unitary

WITNESS_CFG = OptimizerConfig(restarts=4, max_iterations=500)


def _trace_constraint(d):
    return ({0: np.eye(d, dtype=complex)}, 1.0)


def test_contradictory_constraints_are_suspected_infeasible():
    """Tr X = 1 and Tr X = 2 have no common point; the solver stops before iterating."""
    sol = solve_sdp(SdpProblem([None], [3], [_trace_constraint(3), ({0: np.eye(3, dtype=complex)}, 2.0)]))
    assert sol.status == "infeasible_suspected" and sol.iterations == 0
    assert np.isnan(sol.primal_value) and np.isnan(sol.dual_value)


def test_max_eigenvalue_form():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    sol = solve_sdp(SdpProblem([h], [3], [_trace_constraint(3)], sense="max"))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 3.0) < 1e-6
    assert abs(sol.dual_value - 3.0) < 1e-6


def test_feasibility_problem():
    sol = solve_sdp(SdpProblem([None], [3], [_trace_constraint(3)], sense="min"))
    assert sol.status == "optimal"
    assert abs(sol.primal_value) < 1e-7
    rho = sol.block_values[0]
    assert abs(np.trace(rho).real - 1.0) < 1e-6
    assert np.linalg.eigvalsh(rho)[0] > -1e-9


def test_weak_duality_along_iterates(rng):
    """alpha <= beta up to the exact residual slack, at every logged iterate."""
    for trial in range(5):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (m + m.conj().T)
        sol = solve_sdp(SdpProblem([h], [4], [_trace_constraint(4)], sense="max"))
        assert sol.history
        for rec in sol.history:
            slack = (
                rec["slack_norm"] * rec["split_gap"]
                + rec["dual_eq_norm"] * rec["x_norm"]
            )
            assert rec["primal_objective"] <= rec["dual_objective"] + slack + 1e-9
        assert abs(sol.primal_value - np.linalg.eigvalsh(h)[-1]) < 1e-5


def test_duality_gap_at_optimum(rng):
    for _ in range(3):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (m + m.conj().T)
        sol = solve_sdp(SdpProblem([h], [5], [_trace_constraint(5)], sense="min"))
        assert sol.status == "optimal"
        gap = abs(sol.primal_value - sol.dual_value)
        assert gap / (1 + abs(sol.primal_value)) < 1e-6


def test_non_hermitian_data_rejected(rng):
    bad = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(StateError):
        SdpProblem([bad], [3], [_trace_constraint(3)], sense="max")


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_solver_refuses_a_tolerance_it_cannot_meet(tolerance):
    """Such a tolerance is never met, so the solver would run its whole iteration budget."""
    with pytest.raises(StateError, match="tolerance"):
        lower_bound(isotropic_state(2, 0.9), 2, tolerance=tolerance)


def test_fidelity_sdp_identity(rng):
    rho = random_density((3,), rng)
    assert abs(fidelity_root_sdp(rho, rho) - 1.0) < 1e-6


def test_fidelity_sdp_orthogonal():
    z = PureState([1, 0], (2,)).to_density_matrix()
    o = PureState([0, 1], (2,)).to_density_matrix()
    assert fidelity_root_sdp(z, o) < 1e-6


def test_fidelity_sdp_matches_closed_form(rng):
    for _ in range(3):
        r1, r2 = random_density((3,), rng), random_density((3,), rng)
        assert abs(fidelity_root_sdp(r1, r2) - np.sqrt(fidelity(r1, r2))) < 1e-6
    with pytest.raises(StateError):
        fidelity_root_sdp(random_density((2,), rng), random_density((3,), rng))


def test_ppt_min_eig_values():
    assert abs(ppt_min_eig(bell_state().to_density_matrix(), (0,)) + 0.5) < 1e-12
    for a in (0.3, 0.5, 0.7):
        assert ppt_min_eig(horodecki_state(a), (0,)) >= -1e-10


def test_reduction_min_eig_maximally_entangled():
    """The k-positive family flips sign exactly at k = d."""
    for d in (3, 4):
        rho = max_entangled(d).to_density_matrix()
        for k in range(1, d):
            assert reduction_min_eig(rho, (1,), k) < -1e-10
        assert reduction_min_eig(rho, (1,), d) >= -1e-12


def test_subspace_ppt_bounds():
    assert abs(lower_bound_subspace_ppt(two_by_d_theta_subspace(3, np.pi / 2)) - 0.25) < 1e-4
    assert abs(lower_bound_subspace_ppt(johnston_subspace()) - 0.38237) < 1e-4
    assert lower_bound_subspace_ppt(tiles_complement_subspace()) < 1e-6


def test_subspace_reduction_bounds():
    sub = johnston_subspace()
    assert abs(lower_bound_subspace_reduction(sub, 2) - 0.25) < 1e-3
    assert lower_bound_subspace_reduction(sub, 3) <= 1e-6
    with pytest.raises(StateError):
        lower_bound_subspace_reduction(sub, 1)


def test_subspace_full_space_bound_is_zero():
    states = [PureState(np.eye(4)[i], (2, 2)) for i in range(4)]
    sub = Subspace.from_states(states)
    assert abs(lower_bound_subspace_ppt(sub)) < 1e-6


def test_multipartite_ppt_bound():
    assert abs(lower_bound_subspace_ppt(bhat_subspace(2, 2, 2)) - 0.20) < 1e-3


def test_ppt_dominates_reduction():
    """The PPT relaxation is at least as tight as the reduction one at k = 2."""
    for sub in (johnston_subspace(), two_by_d_theta_subspace(3, np.pi / 3)):
        ppt = lower_bound_subspace_ppt(sub)
        red = lower_bound_subspace_reduction(sub, 2)
        assert ppt >= red - 1e-6


def test_lower_bound_mixed_separable():
    assert lower_bound_mixed(isotropic_state(4, 0.2), 2) <= 1e-6


def test_lower_bound_mixed_matches_oracle():
    for F, k in ((0.7, 2), (0.7, 3), (1.0, 2)):
        val = lower_bound_mixed(isotropic_state(4, F), k)
        assert abs(val - isotropic_kgme(4, F, k)) < 2e-3


def test_lower_bound_mixed_ppt_vs_reduction():
    rho = isotropic_state(3, 0.85)
    ppt = lower_bound_mixed(rho, 2, relaxation="ppt")
    red = lower_bound_mixed(rho, 2, relaxation="reduction")
    assert ppt >= red - 1e-6
    with pytest.raises(StateError):
        lower_bound_mixed(rho, 2, relaxation="bogus")


def test_witness_thresholds():
    ghz_wit = witness_from_pure(ghz_state(), WITNESS_CFG)
    assert abs(ghz_wit.threshold - 0.5) < 1e-6
    w_wit = witness_from_pure(w_state(), WITNESS_CFG)
    assert abs(w_wit.threshold - 4 / 9) < 1e-6
    val = evaluate_witness(ghz_wit, ghz_state().to_density_matrix())
    assert abs(val + 0.5) < 1e-6


def test_witness_rejects_product_state():
    prod = PureState([1, 0, 0, 0], (2, 2))
    with pytest.raises(StateError):
        witness_from_pure(prod, WITNESS_CFG)


def test_witness_nonnegative_on_product_states(rng):
    """Tr[W rho] >= 0 for 1000 random product states, for every witness built."""
    witnesses = [
        witness_from_pure(ghz_state(), WITNESS_CFG),
        witness_from_pure(w_state(), WITNESS_CFG),
    ]
    for _ in range(1000):
        parts = [random_pure((2,), rng).amplitudes for _ in range(3)]
        vec = np.kron(np.kron(parts[0], parts[1]), parts[2])
        for wit in witnesses:
            assert np.real(vec.conj() @ wit.matrix @ vec) >= -1e-8


def test_links_checked_at_build_and_multipliers_reported():
    """A wrong closed-form inverse is refused; y of Tr X = 1 in max Tr[hX] is lambda_max."""
    h = np.diag([1.0, 2.0, 3.0])
    ident = lambda x: x
    with pytest.raises(StateError):
        SdpProblem([h, None], [3, 3], [_trace_constraint(3)], "max", links=Links(0, 0, 3, ((1, ident, ident),), ident))
    links = Links(0, 0, 3, ((1, ident, ident),), lambda x: x / 2.0)
    sol = solve_sdp(SdpProblem([h, None], [3, 3], [_trace_constraint(3)], "max", links=links))
    assert sol.status == "optimal"
    assert abs(sol.dual_value - 3.0) < 1e-6
    assert abs(sol.dual_multipliers[0] - 3.0) < 1e-6


def test_ppt_relaxation_refused_above_k_2():
    """The PPT set misses states of Schmidt number 2, so at k = 3 it bounds nothing."""
    with pytest.raises(StateError):
        lower_bound_mixed(isotropic_state(3, 0.7), 3, relaxation="ppt")


@pytest.mark.parametrize("n,k1,r", [(n, k1, r) for n in (3, 4) for k1 in range(n) for r in (0.2, 0.5, 0.8)])
def test_multipartite_mixed_bound_brackets_dicke_mixture(n, k1, r):
    """An n-party mixed state gets a k = 2 bound under every single-party transpose.

    It meets the closed form, and the product-roof upper bound stays above it.
    """
    rho = dicke_mixture_state(n, k1, k1 + 1, r)
    lower = lower_bound_mixed(rho, 2)
    upper = gme_mixed_multipartite(rho, config=OptimizerConfig(restarts=3, max_iterations=300)).value
    assert abs(lower - dicke_mixture_gme(n, k1, k1 + 1, r)) < 1e-5
    assert lower <= upper + 1e-6


def test_multipartite_mixed_bound_below_a_loose_closed_form():
    """dicke_mixture(4, 1, 3, 0.5) has E = 0.5; the PPT relaxation certifies only part of it."""
    assert 0.0 < lower_bound_mixed(dicke_mixture_state(4, 1, 3, 0.5), 2) <= 0.5


def test_multipartite_mixed_bound_refused_above_k_2():
    with pytest.raises(StateError, match="reduction relaxation needs a bipartite layout"):
        lower_bound_mixed(dicke_mixture_state(4, 1, 2, 0.3), 3)


def test_every_bound_keeps_its_history():
    """The solver records one KKT snapshot per check; the last is the final iteration."""
    assert list(inspect.signature(solve_sdp).parameters) == ["problem", "tolerance"]
    cases = (
        (bhat_subspace(2, 2, 2), 2),
        (johnston_subspace(), 3),
        (bell_state().to_density_matrix(), 2),
        (isotropic_state(3, 0.7), 2),
        (isotropic_state(3, 0.7), 3),
        (dicke_mixture_state(3, 1, 2, 0.3), 2),
    )
    for obj, k in cases:
        _, sol = lower_bound(obj, k, full_output=True)
        assert sol.history and sol.history[-1]["iteration"] == sol.iterations


# ---------------------------------------------------------------------------
# reference: every link and fixed sub-block listed out as dense rows over a
# Hermitian basis, through the scalar constraints of the public SdpProblem


def _herm_basis(n):
    """E_ii, E_ij + E_ji and i(E_ij - E_ji): a Hermitian basis, not normalized."""
    out = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = 1j, -1j
            out.append(e)
    return out


def _embed(e, n, start):
    big = np.zeros((n, n), dtype=complex)
    big[start : start + len(e), start : start + len(e)] = e
    return big


def _fixed_rows(n, start, value):
    """X_0[start:, start:] block = value, as Tr[E X_0] = Tr[E value]."""
    return [({0: _embed(e, n, start)}, float(np.real(np.trace(e @ value)))) for e in _herm_basis(len(value))]


def _link_rows(n, start, dst, adjoint, side):
    """X_dst = L(S) for the sub-block S at `start` of block 0, as Tr[E X_dst] = Tr[L*(E) S]."""
    return [({dst: e, 0: -_embed(adjoint(e), n, start)}, 0.0) for e in _herm_basis(side)]


def _support(mat):
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > 1e-12
    return vecs[:, keep], np.diag(vals[keep])


def _dense_mixed(rho, k):
    m, dims = rho.dim, rho.dims
    if k == 2:
        adjoint = lambda e: _partial_transpose_arr(e, dims, (0,))
    else:
        adjoint = lambda e: reduction_image(e, dims, (1,), 1.0 / (k - 1.0))
    if np.linalg.eigvalsh(rho.matrix)[-1] >= 1.0 - 1e-12:
        cons = [({0: np.eye(m)}, 1.0)] + _link_rows(m, 0, 1, adjoint, m)
        sol = solve_sdp(SdpProblem([rho.matrix, None], [m, m], cons, sense="max"))
        return 1.0 - sol.dual_value, sol
    u_r, rho_c = _support(rho.matrix)
    r = len(rho_c)
    n = r + m
    a = np.zeros((n, n), dtype=complex)
    a[:r, r:] = 0.5 * u_r.conj().T
    a[r:, :r] = 0.5 * u_r
    cons = [({0: _embed(np.eye(m), n, r)}, 1.0)] + _fixed_rows(n, 0, rho_c) + _link_rows(n, r, 1, adjoint, m)
    sol = solve_sdp(SdpProblem([a, None], [n, m], cons, sense="max"))
    return 1.0 - sol.dual_value**2, sol


def _dense_subspace(sub, adjoints):
    d = total_dim(sub.dims)
    cons = [({0: np.eye(d)}, 1.0)]
    for j, adjoint in enumerate(adjoints):
        cons += _link_rows(d, 0, 1 + j, adjoint, d)
    objective = [sub.complement.matrix] + [None] * len(adjoints)
    sol = solve_sdp(SdpProblem(objective, [d] * (1 + len(adjoints)), cons, sense="min"))
    return sol.dual_value, sol


def _dense_fidelity(rho, sigma):
    u_r, rho_c = _support(rho.matrix)
    u_s, sigma_c = _support(sigma.matrix)
    r1, n = len(rho_c), len(rho_c) + len(sigma_c)
    m_ov = u_s.conj().T @ u_r
    a = np.zeros((n, n), dtype=complex)
    a[:r1, r1:] = 0.5 * m_ov.conj().T
    a[r1:, :r1] = 0.5 * m_ov
    cons = _fixed_rows(n, 0, rho_c) + _fixed_rows(n, r1, sigma_c)
    sol = solve_sdp(SdpProblem([a], [n], cons, sense="max"))
    return min(max(sol.primal_value, 0.0), 1.0), sol


def test_operator_form_matches_dense_rows(rng):
    """Same values to 1e-8 and the same iteration counts as the dense listing."""
    iso, werner = isotropic_state(3, 0.7), werner_state(3, -1.0)
    pure = random_pure((3, 3), rng).to_density_matrix()
    bhat, johnston = bhat_subspace(2, 2, 2), johnston_subspace()
    r1, r2 = random_density((3,), rng), random_density((3,), rng)
    transposes = [lambda e, p=p: _partial_transpose_arr(e, bhat.dims, (p,)) for p in range(3)]
    reduction = lambda e: reduction_image(e, johnston.dims, (1,), 1.0)
    cases = [
        (lower_bound_mixed(iso, 2, full_output=True), _dense_mixed(iso, 2)),
        (lower_bound_mixed(iso, 3, full_output=True), _dense_mixed(iso, 3)),
        (lower_bound_mixed(werner, 2, full_output=True), _dense_mixed(werner, 2)),
        (lower_bound_mixed(pure, 2, full_output=True), _dense_mixed(pure, 2)),
        (lower_bound_mixed(pure, 3, full_output=True), _dense_mixed(pure, 3)),
        (lower_bound_subspace_ppt(bhat, full_output=True), _dense_subspace(bhat, transposes)),
        (lower_bound_subspace_reduction(johnston, 2, full_output=True), _dense_subspace(johnston, [reduction])),
        (fidelity_root_sdp(r1, r2, full_output=True), _dense_fidelity(r1, r2)),
    ]
    assert len(cases[2][0][1].block_values[0]) < 9 + 9  # werner(3, -1) is rank-deficient
    for (value, sol), (ref_value, ref_sol) in cases:
        assert sol.status == ref_sol.status == "optimal"
        assert abs(value - ref_value) < 1e-8
        assert sol.iterations == ref_sol.iterations


def _real_orthogonal(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def test_real_data_takes_real_path(rng):
    """Real inputs give real blocks; a complex local unitary gives the same bound."""
    rot = np.kron(_real_orthogonal(4, rng), _real_orthogonal(4, rng))
    rho = DensityMatrix(rot @ isotropic_state(4, 0.7).matrix @ rot.T, (4, 4))
    uni = np.kron(random_unitary(4, rng), random_unitary(4, rng))
    rho_c = DensityMatrix(uni @ rho.matrix @ uni.conj().T, (4, 4))
    sub = bhat_subspace(2, 2, 2)
    local = np.kron(np.kron(random_unitary(2, rng), random_unitary(2, rng)), random_unitary(2, rng))
    sub_c = Subspace.from_states([PureState(local @ s.amplitudes, sub.dims) for s in sub.spanning_states])
    pairs = [
        (lower_bound_mixed(rho, 2, full_output=True), lower_bound_mixed(rho_c, 2, full_output=True)),
        (lower_bound_mixed(rho, 3, full_output=True), lower_bound_mixed(rho_c, 3, full_output=True)),
        (lower_bound_subspace_ppt(sub, full_output=True), lower_bound_subspace_ppt(sub_c, full_output=True)),
    ]
    for (value, sol), (value_c, sol_c) in pairs:
        assert all(b.dtype == np.float64 for b in sol.block_values)
        assert all(np.iscomplexobj(b) for b in sol_c.block_values)
        assert abs(value - value_c) < 1e-7


def test_block_values_exactly_hermitian(rng):
    """Returned blocks are exactly Hermitian on the real and the complex path.

    Each problem has a fixed sub-block (rho on its support) and links (a
    partial transpose at k = 2, the reduction map at k = 3).
    """
    rho = isotropic_state(3, 0.7)
    uni = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    rho_c = DensityMatrix(uni @ rho.matrix @ uni.conj().T, (3, 3))
    for state, dtype in ((rho, np.float64), (rho_c, np.complex128)):
        for k in (2, 3):
            _, sol = lower_bound_mixed(state, k, full_output=True)
            assert sol.status == "optimal"
            for b in sol.block_values:
                assert b.dtype == dtype and np.array_equal(b, b.conj().T)


def _kron_reduction_image(rho_mat, dims, party_set, p):
    """Reference reduction map: the partial trace embedded by np.kron, permuted back, minus p X."""
    keep, keep_dims = _partial_trace_arr(rho_mat, dims, party_set)
    party_set = tuple(sorted(party_set))
    others = [i for i in range(len(dims)) if i not in party_set]
    embedded = np.kron(keep, np.eye(total_dim([dims[i] for i in party_set])))
    big_dims = tuple(keep_dims) + tuple(dims[i] for i in party_set)
    embedded = permute_parties_matrix(embedded, big_dims, np.argsort(others + list(party_set)))
    return embedded - p * np.asarray(rho_mat)


def _random_hermitian(d, rng, real):
    x = rng.standard_normal((d, d))
    if not real:
        x = x + 1j * rng.standard_normal((d, d))
    return x + x.conj().T


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dims", [(2, 3), (2, 3, 2)])
def test_compiled_links_equal_their_formulas(rng, dims, real):
    """Link maps compiled once per problem give the formulas' bits exactly."""
    x = _random_hermitian(total_dim(dims), rng, real)
    parties = [(0,)] if len(dims) == 2 else [(0,), (1,), (2,)]
    links = _transpose_links(dims, 2)
    assert [dst for dst, _, _ in links.images] == list(range(1, 1 + len(parties)))
    for (_, forward, adjoint), party in zip(links.images, parties):
        want = _partial_transpose_arr(x, dims, party)
        assert np.array_equal(forward(x), want) and np.array_equal(adjoint(x), want)
    for party_set in [(0,), (1,)] + ([(0, 2)] if len(dims) == 3 else []):
        for p in (0.0, 0.5, 1.0):
            want = _kron_reduction_image(x, dims, party_set, p)
            assert np.array_equal(reduction_image(x, dims, party_set, p), want)
    if len(dims) == 2:
        k, p, d_b = 3, 0.5, dims[1]
        links = _reduction_links(dims, k)
        (_, forward, adjoint), = links.images
        want = _kron_reduction_image(x, dims, (1,), p)
        assert np.array_equal(forward(x), want) and np.array_equal(adjoint(x), want)
        pi_x = _kron_reduction_image(x, dims, (1,), 0.0) / d_b
        want = (x - pi_x) / (1.0 + p * p) + pi_x / (1.0 + (d_b - p) ** 2)
        assert np.array_equal(links.inverse(x), want)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_batched_psd_projection_equals_per_block_eigh(rng, real):
    """Runs of equal-size blocks share one eigh; the result equals the per-block loop exactly."""
    vec = _BlockVec([5, 3, 3, 5], real=real)
    assert vec.runs == [(0, 1, 5), (1, 2, 3), (3, 1, 5)]
    flat = vec.flatten([_random_hermitian(n, rng, real) for n in vec.blocks])
    want = np.empty_like(flat)
    for mat, dst in zip(vec.views(flat), vec.views(want)):
        vals, vecs = np.linalg.eigh(mat)
        np.matmul(vecs * np.clip(vals, 0.0, None), vecs.conj().T, out=dst)
    assert np.array_equal(vec.project_psd(flat), want)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_gram_solve_matches_scipy_cho_solve(m):
    """One scalar constraint, as in every built-in relaxation, gives scipy's bits exactly."""
    rng = np.random.default_rng(m)
    for _ in range(200):
        a = rng.standard_normal((m, m + 3)) * 10.0 ** rng.uniform(-4, 4)
        gram = a @ a.T
        w = rng.standard_normal(m)
        got = gme.sdp.sla.cho_solve(gme.sdp.sla.cho_factor(gram), w)
        want = linalg.cho_solve(linalg.cho_factor(gram, check_finite=False), w, check_finite=False)
        if m == 1:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_isotropic_10_bound_in_child_process():
    """A certified Schmidt-number bound at 10 x 10, with peak RSS below 1 GB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gme.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from gme.sdp import lower_bound_mixed; from gme.zoo import isotropic_state; "
        "value, sol = lower_bound_mixed(isotropic_state(10, 0.7), 3, full_output=True); "
        "print(repr(value), sol.status)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600, check=True
    )
    value, status = run.stdout.split()
    assert status == "optimal"
    assert abs(float(value) - isotropic_kgme(10, 0.7, 3)) < 1e-5
    # ru_maxrss is in KiB on Linux; for children it is the largest child so far
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 1024 * 1024
