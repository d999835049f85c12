"""Variational upper bounds for k-bounded geometric entanglement measures.

Objectives are rational functions of trivialized quantities (overlap ratios
and Rayleigh quotients) or sums of Schmidt tails, so their gradients are
written out analytically and validated against central finite differences in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .optimizers import GmeEstimate, Objective, OptimizerConfig, minimize
from .pure import schmidt_tail
from .states import (
    DensityMatrix,
    PureState,
    StateError,
    Subspace,
    _support,
    check_seed,
    total_dim,
)
from .trivializations import (
    BoundedRankAnsatz,
    ProductAnsatz,
    RoofAnsatz,
    Sphere,
    check_finite,
    complex_from_reals,
    polar,
    polar_vjp,
    reals_from_cograd,
)


@dataclass(frozen=True)
class _Flat:
    """Identity trivialization for plain Euclidean test objectives."""

    n: int

    @property
    def input_len(self) -> int:
        return self.n


# ---------------------------------------------------------------------------
# registered objectives
#
# Every fun_grad maps parameters (..., input_len) to values (...) and gradients
# (..., input_len), and computes each row by the same floating-point operations
# whatever shares the stack: vector products run one BLAS dot or gemv per row
# (one matrix product over the whole stack would pick its kernel by the row
# count), and sums run over the last axis.


def _inner(a, b):
    """Row-wise <a|b> = sum conj(a) b over the last axis, one BLAS dot per row."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def _apply(m, v):
    """m @ v for every row v of a stack, one BLAS gemv per row."""
    return np.matmul(m, v[..., :, None])[..., 0]


def make_quadratic(center) -> Objective:
    c = np.asarray(center, dtype=float).ravel()

    def fun_grad(theta):
        return np.sum((theta - c) ** 2, axis=-1), 2.0 * (theta - c)

    return Objective("quadratic", fun_grad, _Flat(c.size))


def make_rayleigh(h) -> Objective:
    """Sphere-trivialized Rayleigh quotient <phi|H|phi> for Hermitian H."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]

    def fun_grad(theta):
        z = complex_from_reals(theta)
        h_z = _apply(h, z)
        n = _inner(z, z).real
        f = _inner(z, h_z).real / n
        return f, reals_from_cograd((h_z - f[..., None] * z) / n[..., None])

    return Objective("rayleigh", fun_grad, Sphere(2 * d))


def make_pure_overlap(psi: PureState, k: int) -> Objective:
    """Negated squared overlap ratio with a rank-(k-1) ansatz; E = 1 + min."""
    ansatz = BoundedRankAnsatz(psi.dims, k)
    target = psi.amplitudes

    def fun_grad(theta):
        phi, pullback = ansatz.value_and_pullback(theta)
        c = _inner(phi, target)
        n = _inner(phi, phi).real
        c2 = np.abs(c) ** 2
        g_phi = (c2 / n**2)[..., None] * phi - (np.conj(c) / n)[..., None] * target
        return -c2 / n, pullback(g_phi)

    return Objective("pure_overlap", fun_grad, ansatz)


def make_subspace_bounded_rank(subspace: Subspace, k: int) -> Objective:
    """Rayleigh quotient of the complement projector over rank-(k-1) states."""
    ansatz = BoundedRankAnsatz(subspace.dims, k)
    proj = subspace.complement.matrix

    def fun_grad(theta):
        phi, pullback = ansatz.value_and_pullback(theta)
        p_phi = _apply(proj, phi)
        n = _inner(phi, phi).real
        f = _inner(phi, p_phi).real / n
        return f, pullback((p_phi - f[..., None] * phi) / n[..., None])

    return Objective("subspace_bounded_rank", fun_grad, ansatz)


def make_subspace_product(subspace: Subspace) -> Objective:
    """Complement-projector expectation over fully product states."""
    ansatz = ProductAnsatz(subspace.dims)
    proj = subspace.complement.matrix

    def fun_grad(theta):
        phi, pullback = ansatz.value_and_pullback(theta)
        p_phi = _apply(proj, phi)
        return _inner(phi, p_phi).real, pullback(p_phi)

    return Objective("subspace_product", fun_grad, ansatz)


def _rho_eigendata(rho: DensityMatrix):
    vals, vecs = _support(rho.matrix)
    lam_tilde = vecs * np.sqrt(vals)
    return lam_tilde, int(vals.size)


def _truncation_tails(lam_tilde, dims, k, x):
    """Per-entry tails of x . lam_tilde^T at a Stiefel matrix x (..., n_entries, rank).

    Row i, read as a d_A x d_B matrix M_i, is the i-th decomposition entry; its
    best closest state of Schmidt rank < k is the truncated Schmidt expansion
    T_{k-1}(M_i).  Returns the tail masses |M_i - T_{k-1}(M_i)|^2 (..., n_entries)
    and the tails M_i - T_{k-1}(M_i) themselves, flattened (..., n_entries, d_A d_B).
    """
    if len(dims) != 2:
        raise StateError(f"roof truncation needs a bipartite layout, got {dims}")
    m = (x @ lam_tilde.T).reshape(x.shape[:-1] + tuple(dims))
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    tails = (u[..., k - 1 :] * s[..., None, k - 1 :]) @ vh[..., k - 1 :, :]
    return schmidt_tail(s**2, k), tails.reshape(x.shape[:-1] + (-1,))


def make_bipartite_roof(rho: DensityMatrix, k: int, n_entries: int) -> Objective:
    """Two-party roof over the decomposition alone; E = min.

    Each entry's closest state is in closed form, so the value is the summed
    tail mass of the entries (variable projection).  By the envelope theorem
    entry i's cogradient is its tail, pulled back through the polar factor.
    The checks on k and n_entries are those of the joint roof it reduces.
    """
    lam_tilde, rank = _rho_eigendata(rho)
    stf = RoofAnsatz(n_entries, rank, BoundedRankAnsatz(rho.dims, k)).stiefel

    def fun_grad(theta):
        a = stf.matrix(check_finite(theta))
        x, gram = polar(a, return_gram=True)
        tail_mass, tails = _truncation_tails(lam_tilde, rho.dims, k, x)
        g_a = polar_vjp(a, tails @ lam_tilde.conj(), gram=gram)
        return np.sum(tail_mass, axis=-1), reals_from_cograd(g_a).reshape(theta.shape)

    return Objective("bipartite_roof", fun_grad, stf)


def make_mixed_roof(rho: DensityMatrix, inner, n_entries: int) -> Objective:
    """Joint Stiefel-decomposition / closest-state objective; E = 1 + min.

    Every decomposition entry gets its own closest state from ``inner``; the
    entries are evaluated as one batch.  Two-party ``kgme_mixed`` uses
    ``make_bipartite_roof`` instead, which solves the closest states exactly.
    """
    lam_tilde, rank = _rho_eigendata(rho)
    ansatz = RoofAnsatz(n_entries, rank, inner)
    stf = ansatz.stiefel

    def fun_grad(theta):
        th_x, th_inner = ansatz.split(theta)
        lead = th_x.shape[:-1]
        a = stf.matrix(check_finite(th_x))
        x, gram = polar(a, return_gram=True)
        psit = x @ lam_tilde.T  # row i: sum_j X_ij |lam_j~>
        phi, pullback = inner.value_and_pullback(th_inner)
        c = np.sum(phi.conj() * psit, axis=-1)
        n = np.sum(phi.conj() * phi, axis=-1).real
        ratio = np.abs(c) ** 2 / n
        g_phi = (ratio / n)[..., None] * phi - (np.conj(c) / n)[..., None] * psit
        g_x = -((c / n)[..., None] * phi) @ lam_tilde.conj()
        g_a = polar_vjp(a, g_x, gram=gram)
        grad = np.concatenate(
            [reals_from_cograd(g_a).reshape(lead + (-1,)), pullback(g_phi).reshape(lead + (-1,))],
            axis=-1,
        )
        return -np.sum(ratio, axis=-1), grad

    return Objective("mixed_roof", fun_grad, ansatz)


_REGISTRY = (
    "quadratic",
    "rayleigh",
    "pure_overlap",
    "subspace_bounded_rank",
    "subspace_product",
    "mixed_roof",
    "bipartite_roof",
)


def gradient(objective: Objective, theta) -> np.ndarray:
    """Analytic gradient of a registered objective at flat parameters theta."""
    if not isinstance(objective, Objective) or objective.name not in _REGISTRY:
        raise StateError("objective is not registered with the variational engine")
    return np.asarray(objective.grad(np.asarray(theta, dtype=float)))


# ---------------------------------------------------------------------------
# measures


def _as_gme(est: GmeEstimate, offset: float) -> GmeEstimate:
    per = np.clip(offset + est.per_restart_values, 0.0, None)
    return replace(est, value=float(per.min()), per_restart_values=per)


def kgme_pure_multipartite(
    psi: PureState, k: int, config: OptimizerConfig | None = None
) -> GmeEstimate:
    """Upper bound on the k-bounded tensor-rank geometric measure of a pure state."""
    est = minimize(make_pure_overlap(psi, k), config)
    return _as_gme(est, 1.0)


def kgme_subspace(
    subspace: Subspace, k: int, config: OptimizerConfig | None = None
) -> GmeEstimate:
    """Upper bound on the minimal k-bounded (tensor-rank) measure over a subspace."""
    est = minimize(make_subspace_bounded_rank(subspace, k), config)
    return _as_gme(est, 0.0)


def gme_subspace_multipartite(
    subspace: Subspace, config: OptimizerConfig | None = None
) -> GmeEstimate:
    """Upper bound on the fully-product geometric measure of a subspace."""
    est = minimize(make_subspace_product(subspace), config)
    return _as_gme(est, 0.0)


def default_n_entries(rho: DensityMatrix) -> int:
    _, rank = _rho_eigendata(rho)
    return rank * rank


def kgme_mixed(
    rho: DensityMatrix,
    k: int,
    n_entries: int | None = None,
    config: OptimizerConfig | None = None,
) -> GmeEstimate:
    """Convex-roof upper bound on the k-bounded (tensor-rank) measure.

    For two parties the roof is minimized over the decomposition alone, with
    each entry's closest state its truncated Schmidt expansion.
    """
    n_entries = default_n_entries(rho) if n_entries is None else int(n_entries)
    if len(rho.dims) == 2:
        return _as_gme(minimize(make_bipartite_roof(rho, k, n_entries), config), 0.0)
    inner = BoundedRankAnsatz(rho.dims, k)
    est = minimize(make_mixed_roof(rho, inner, n_entries), config)
    return _as_gme(est, 1.0)


def gme_mixed_multipartite(
    rho: DensityMatrix,
    n_entries: int | None = None,
    config: OptimizerConfig | None = None,
) -> GmeEstimate:
    """Convex-roof upper bound with fully product closest states."""
    n_entries = default_n_entries(rho) if n_entries is None else int(n_entries)
    inner = ProductAnsatz(rho.dims)
    est = minimize(make_mixed_roof(rho, inner, n_entries), config)
    return _as_gme(est, 1.0)


def range_subspace(rho: DensityMatrix) -> Subspace:
    """The span of the eigenvectors of rho with eigenvalue above the cutoff."""
    _, vecs = _support(rho.matrix)
    return Subspace.from_states(PureState(v, rho.dims) for v in vecs.T)


def range_lower_bound(
    rho: DensityMatrix, k: int, config: OptimizerConfig | None = None
) -> float:
    """Lower bound on the mixed-state measure: the k-GME of the range of rho."""
    return kgme_subspace(range_subspace(rho), k, config).value


def roof_truncation_value(rho: DensityMatrix, k: int, x: np.ndarray) -> float:
    """Roof value for a fixed Stiefel matrix, inner maximization solved exactly.

    For each decomposition entry the optimal rank-(k-1) state is the truncated
    Schmidt expansion, so the entry contributes its tail singular-value mass:
    the value of ``make_bipartite_roof`` at x itself.  Needs two parties.
    """
    lam_tilde, rank = _rho_eigendata(rho)
    x = np.asarray(x, dtype=complex)
    if x.shape[1] != rank:
        raise StateError(f"Stiefel matrix must have {rank} columns")
    return float(_truncation_tails(lam_tilde, rho.dims, k, x)[0].sum())


@dataclass(frozen=True)
class PerturbationReport:
    min_value: float
    mean_value: float
    values: np.ndarray


def perturbation_experiment(
    subspace: Subspace,
    k: int,
    norm_bound: float,
    trials: int,
    seed: int,
    config: OptimizerConfig | None = None,
) -> PerturbationReport:
    """k-GME statistics of the subspace after random unitary kicks exp(-iH).

    H is a Gaussian Hermitian matrix rescaled to the requested operator norm.
    """
    if norm_bound < 0:
        raise StateError("norm_bound must be non-negative")
    if trials < 1:
        raise StateError(f"need at least one trial, got trials={trials}")
    check_seed(seed)
    d = total_dim(subspace.dims)
    values = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        if norm_bound == 0.0:
            u = np.eye(d, dtype=complex)
        else:
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = 0.5 * (m + m.conj().T)
            h *= norm_bound / np.max(np.abs(np.linalg.eigvalsh(h)))
            vals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
        kicked = [
            PureState(u @ s.amplitudes, subspace.dims) for s in subspace.spanning_states
        ]
        values.append(kgme_subspace(Subspace.from_states(kicked), k, config).value)
    values = np.asarray(values)
    return PerturbationReport(float(values.min()), float(values.mean()), values)
