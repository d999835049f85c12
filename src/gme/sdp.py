"""Certified lower bounds: a first-order conic solver and relaxation builders.

The solver handles block-diagonal complex Hermitian semidefinite programs in
the standard form

    min/max  sum_b Tr[A_b X_b]
    s.t.     sum_b Tr[F_ib X_b] = c_i   (i = 1..m),   X_b >= 0,

by operator splitting: alternating projection onto the affine constraint set
(through one cached factorization) and onto the PSD cones (by eigenvalue
clipping), with over-relaxation.  Hermitian blocks are vectorized into real
coordinates that preserve trace inner products, so complex data needs no
realification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .optimizers import OptimizerConfig
from .states import (
    DensityMatrix,
    PureState,
    StateError,
    Subspace,
    _partial_trace_arr,
    _partial_transpose_arr,
    permute_parties_matrix,
    total_dim,
)
from .variational import kgme_pure_multipartite

HERM_ATOL = 1e-10
OVER_RELAXATION = 1.6
GAP_TOL = 1e-6
NONCERTIFYING = 1e-6   # bounds below this are reported verbatim but certify nothing


@dataclass(frozen=True)
class SdpProblem:
    """Block-PSD conic program in standard form."""

    objective: list          # Hermitian cost per block (None for zero)
    blocks: list             # block side lengths
    constraints: list        # (per-block coefficient dict {index: Hermitian}, rhs)
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise StateError(f"sense must be 'min' or 'max', got {self.sense!r}")
        for b, side in enumerate(self.blocks):
            obj = self.objective[b]
            if obj is not None:
                _check_hermitian(obj, side)
        for coeffs, _ in self.constraints:
            for b, mat in coeffs.items():
                _check_hermitian(mat, self.blocks[b])


@dataclass(frozen=True)
class SdpSolution:
    primal_value: float
    dual_value: float
    block_values: list = field(repr=False)
    dual_multipliers: np.ndarray = field(repr=False)
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    history: list | None = field(default=None, repr=False)


def _check_hermitian(mat, side):
    mat = np.asarray(mat)
    if mat.shape != (side, side):
        raise StateError(f"coefficient shape {mat.shape} does not match block side {side}")
    if np.linalg.norm(mat - mat.conj().T) > HERM_ATOL:
        raise StateError("non-Hermitian problem data")


class _BlockVec:
    """Isometry between Hermitian block lists and flat real vectors.

    With ``real=True`` (valid whenever every data matrix is real, since the
    real part of any feasible Hermitian point is then feasible with the same
    objective) the blocks are real symmetric and the imaginary off-diagonal
    coordinates are dropped, roughly halving the vector length.
    """

    def __init__(self, blocks, real=False):
        self.blocks = list(blocks)
        self.real = bool(real)
        self.iu = [np.triu_indices(n, 1) for n in self.blocks]
        if self.real:
            self.sizes = [n * (n + 1) // 2 for n in self.blocks]
        else:
            self.sizes = [n * n for n in self.blocks]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.total = int(self.offsets[-1])

    def svec_block(self, b, mat):
        iu = self.iu[b]
        off = np.sqrt(2.0) * mat[iu]
        if self.real:
            return np.concatenate([np.diag(mat).real, off.real])
        return np.concatenate([np.diag(mat).real, off.real, off.imag])

    def smat_block(self, b, vec):
        n = self.blocks[b]
        iu = self.iu[b]
        k = iu[0].size
        if self.real:
            mat = np.zeros((n, n))
            mat[np.diag_indices(n)] = vec[:n]
            off = vec[n : n + k] / np.sqrt(2.0)
            mat[iu] = off
            mat[(iu[1], iu[0])] = off
            return mat
        mat = np.zeros((n, n), dtype=complex)
        mat[np.diag_indices(n)] = vec[:n]
        off = (vec[n : n + k] + 1j * vec[n + k :]) / np.sqrt(2.0)
        mat[iu] = off
        mat[(iu[1], iu[0])] = off.conj()
        return mat

    def svec(self, mats):
        out = np.zeros(self.total)
        for b, mat in enumerate(mats):
            if mat is not None:
                out[self.offsets[b] : self.offsets[b + 1]] = self.svec_block(b, np.asarray(mat, dtype=complex))
        return out

    def smat(self, vec):
        return [
            self.smat_block(b, vec[self.offsets[b] : self.offsets[b + 1]])
            for b in range(len(self.blocks))
        ]

    def project_psd(self, vec):
        out = np.empty_like(vec)
        for b in range(len(self.blocks)):
            seg = vec[self.offsets[b] : self.offsets[b + 1]]
            mat = self.smat_block(b, seg)
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
            out[self.offsets[b] : self.offsets[b + 1]] = self.svec_block(
                b, (vecs * vals) @ vecs.conj().T
            )
        return out


def solve_sdp(
    problem: SdpProblem,
    tolerance: float = 1e-7,
    max_iterations: int = 100_000,
    keep_history: bool = False,
) -> SdpSolution:
    """Solve a block-PSD program by over-relaxed operator splitting.

    At ``optimal`` status the affine and KKT residuals are below ``tolerance``
    and the relative primal-dual gap is below 1e-6.  The dual value is a
    certificate up to the reported dual residual: the PSD dual slack is exact
    by construction, only the dual equality holds approximately.
    """
    all_real = all(
        obj is None or np.linalg.norm(np.asarray(obj).imag) < 1e-12
        for obj in problem.objective
    ) and all(
        np.linalg.norm(np.asarray(mat).imag) < 1e-12
        for coeffs, _ in problem.constraints
        for mat in coeffs.values()
    )
    vec = _BlockVec(problem.blocks, real=all_real)
    sign = 1.0 if problem.sense == "min" else -1.0
    c = sign * vec.svec(problem.objective)
    c_scale = max(np.linalg.norm(c), 1e-12)
    c = c / c_scale

    m = len(problem.constraints)
    if m == 0:
        raise StateError("problem needs at least one affine constraint")
    a_rows = np.zeros((m, vec.total))
    b_rhs = np.zeros(m)
    for i, (coeffs, rhs) in enumerate(problem.constraints):
        row = np.zeros(vec.total)
        for bidx, mat in coeffs.items():
            row[vec.offsets[bidx] : vec.offsets[bidx + 1]] = vec.svec_block(
                bidx, np.asarray(mat, dtype=complex)
            )
        scale = np.linalg.norm(row)
        if scale < 1e-14:
            raise StateError(f"constraint {i} has zero coefficients")
        a_rows[i] = row / scale
        b_rhs[i] = rhs / scale

    gram = a_rows @ a_rows.T
    gram[np.diag_indices(m)] += 1e-12
    cho = sla.cho_factor(gram, check_finite=False)

    def solve_gram(w):
        return sla.cho_solve(cho, w, check_finite=False)

    def proj_affine(v):
        return v - a_rows.T @ solve_gram(a_rows @ v - b_rhs)

    x0 = proj_affine(np.zeros(vec.total))
    if np.linalg.norm(a_rows @ x0 - b_rhs) > 1e-7 * (1.0 + np.linalg.norm(b_rhs)):
        return SdpSolution(
            math.nan, math.nan, vec.smat(x0), np.zeros(m), math.inf, math.inf, 0,
            "infeasible_suspected", [] if keep_history else None,
        )

    sigma = 1.0
    alpha = OVER_RELAXATION
    z = np.zeros(vec.total)
    u = np.zeros(vec.total)
    x = x0
    history = [] if keep_history else None
    c_norm = 1.0 + np.linalg.norm(c)
    status = "max_iterations"
    it = 0
    check_every = 25
    prim_res = dual_res = math.inf
    y = np.zeros(m)

    for it in range(1, max_iterations + 1):
        v = z - u - c / sigma
        x = proj_affine(v)
        x_relaxed = alpha * x + (1.0 - alpha) * z
        z_new = vec.project_psd(x_relaxed + u)
        u = u + x_relaxed - z_new
        shift = np.linalg.norm(z_new - z)
        z = z_new

        if it % check_every == 0 or it == max_iterations:
            nu = sigma * solve_gram(a_rows @ v - b_rhs)
            y = -nu
            s = -sigma * u
            dual_eq = np.linalg.norm(c - a_rows.T @ y - s)
            prim_res = np.linalg.norm(x - z) / (1.0 + max(np.linalg.norm(x), np.linalg.norm(z)))
            dual_res = dual_eq / c_norm
            p_obj = float(c @ x)
            d_obj = float(b_rhs @ y)
            gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
            if history is not None:
                history.append(
                    {
                        "iteration": it,
                        "primal_objective": sign * p_obj * c_scale,
                        "dual_objective": sign * d_obj * c_scale,
                        "primal_residual": prim_res,
                        "dual_residual": dual_res,
                        "dual_eq_norm": float(dual_eq) * c_scale,
                        "slack_norm": float(np.linalg.norm(s)) * c_scale,
                        "split_gap": float(np.linalg.norm(x - z)),
                        "x_norm": float(np.linalg.norm(x)),
                    }
                )
            if prim_res <= tolerance and dual_res <= tolerance and gap <= GAP_TOL:
                status = "optimal"
                break
            # residual balancing keeps the splitting well conditioned
            raw_p = np.linalg.norm(x - z)
            raw_d = sigma * shift
            if raw_p > 10.0 * raw_d and sigma < 1e6:
                u /= 2.0
                sigma *= 2.0
            elif raw_d > 10.0 * raw_p and sigma > 1e-6:
                u *= 2.0
                sigma /= 2.0

    # consistent final KKT snapshot
    v = z - u - c / sigma
    x = proj_affine(v)
    nu = sigma * solve_gram(a_rows @ v - b_rhs)
    y = -nu
    s = -sigma * u
    prim_res = np.linalg.norm(x - z) / (1.0 + max(np.linalg.norm(x), np.linalg.norm(z)))
    dual_res = np.linalg.norm(c - a_rows.T @ y - s) / c_norm
    p_obj = float(c @ x)
    d_obj = float(b_rhs @ y)
    return SdpSolution(
        primal_value=sign * p_obj * c_scale,
        dual_value=sign * d_obj * c_scale,
        block_values=vec.smat(z),
        dual_multipliers=y * c_scale,
        primal_residual=prim_res,
        dual_residual=dual_res,
        iterations=it,
        status=status,
        history=history,
    )


# ---------------------------------------------------------------------------
# eigenvalue-based criteria


def ppt_min_eig(rho: DensityMatrix, party_set=(0,)) -> float:
    """Minimum eigenvalue of the partial transpose; below -1e-10 certifies entanglement."""
    pt = _partial_transpose_arr(rho.matrix, rho.dims, party_set)
    return float(np.linalg.eigvalsh(pt)[0])


def reduction_image(rho_mat, dims, party_set, p):
    """Apply the map X -> Tr[X] I - p X on the party_set subsystem of rho."""
    keep, keep_dims = _partial_trace_arr(rho_mat, dims, party_set)
    party_set = tuple(sorted(party_set))
    n = len(dims)
    others = [i for i in range(n) if i not in party_set]
    traced_dim = total_dim([dims[i] for i in party_set])
    # embed keep (x) I at the party_set slots, parties ordered others + party_set
    embedded = np.kron(keep, np.eye(traced_dim))
    perm_back = np.argsort(others + list(party_set))
    big_dims = tuple(keep_dims) + tuple(dims[i] for i in party_set)
    embedded = permute_parties_matrix(embedded, big_dims, perm_back)
    return embedded - p * np.asarray(rho_mat)


def reduction_min_eig(rho: DensityMatrix, party_set=(1,), k: int = 1) -> float:
    """Minimum eigenvalue under the k-positive generalized reduction map.

    Uses the map Tr[X] I - X/k, which is positive on states of Schmidt number
    at most k, so a value below -1e-10 certifies Schmidt number > k.
    """
    if k < 1:
        raise StateError("k must be >= 1")
    img = reduction_image(rho.matrix, rho.dims, party_set, 1.0 / k)
    return float(np.linalg.eigvalsh(img)[0])


# ---------------------------------------------------------------------------
# relaxation builders


def _herm_basis(n):
    """Orthonormal-free Hermitian basis: E_ii, (E_ij + E_ji), i(E_ij - E_ji)."""
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
            e[i, j] = 1j
            e[j, i] = -1j
            out.append(e)
    return out


def _linked_block_constraints(blocks, src, dst, fwd_adjoint):
    """Constraints encoding  X_dst = L(X_src)  via Tr[E X_dst] = Tr[L*(E) X_src]."""
    n = blocks[dst]
    cons = []
    for e in _herm_basis(n):
        cons.append(({dst: e, src: -fwd_adjoint(e)}, 0.0))
    return cons


def _pt_adjoint(dims, party_set):
    return lambda e: _partial_transpose_arr(e, dims, party_set)


def _reduction_adjoint(dims, party_set, p):
    return lambda e: reduction_image(e, dims, party_set, p)


def _support(mat, cutoff=1e-12):
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > cutoff
    return vecs[:, keep], np.diag(vals[keep]).astype(complex)


def fidelity_root_sdp(
    rho: DensityMatrix, sigma: DensityMatrix, tolerance=1e-7, full_output=False
):
    """Square-root fidelity via the two-by-two block-matrix program.

    The program is compressed onto the supports of rho and sigma (positivity
    of the block matrix confines the off-diagonal block there), which keeps
    the problem strictly feasible for rank-deficient inputs.
    """
    if rho.dim != sigma.dim:
        raise StateError("dimension mismatch")
    u_r, rho_c = _support(rho.matrix)
    u_s, sigma_c = _support(sigma.matrix)
    r1, r2 = rho_c.shape[0], sigma_c.shape[0]
    n = r1 + r2
    # objective Re Tr[W' M] with M = U_sigma^dag U_rho recovers Tr[Y]
    m_ov = u_s.conj().T @ u_r
    a = np.zeros((n, n), dtype=complex)
    a[:r1, r1:] = 0.5 * m_ov.conj().T
    a[r1:, :r1] = 0.5 * m_ov
    cons = []
    for e in _herm_basis(r1):
        big = np.zeros((n, n), dtype=complex)
        big[:r1, :r1] = e
        cons.append(({0: big}, float(np.real(np.trace(e @ rho_c)))))
    for e in _herm_basis(r2):
        big = np.zeros((n, n), dtype=complex)
        big[r1:, r1:] = e
        cons.append(({0: big}, float(np.real(np.trace(e @ sigma_c)))))
    prob = SdpProblem([a], [n], cons, sense="max")
    sol = solve_sdp(prob, tolerance=tolerance)
    value = float(min(max(sol.primal_value, 0.0), 1.0))
    return (value, sol) if full_output else value


def _subspace_bound(subspace: Subspace, link_adjoints, tolerance) -> SdpSolution:
    """min Tr[P_perp rho] over trace-one PSD rho with linked PSD images."""
    d = total_dim(subspace.dims)
    blocks = [d] + [d] * len(link_adjoints)
    objective = [subspace.complement.matrix] + [None] * len(link_adjoints)
    cons = [({0: np.eye(d, dtype=complex)}, 1.0)]
    for j, adj in enumerate(link_adjoints):
        cons.extend(_linked_block_constraints(blocks, 0, 1 + j, adj))
    prob = SdpProblem(objective, blocks, cons, sense="min")
    return solve_sdp(prob, tolerance=tolerance)


def lower_bound_subspace_ppt(subspace: Subspace, tolerance=1e-7, full_output=False):
    """Certified lower bound on the subspace measure from the PPT relaxation.

    Bipartite layouts use one partial transpose; multipartite layouts impose
    positivity of every single-party transpose.
    """
    dims = subspace.dims
    n = len(dims)
    parties = [(0,)] if n == 2 else [(i,) for i in range(n)]
    adjs = [_pt_adjoint(dims, p) for p in parties]
    sol = _subspace_bound(subspace, adjs, tolerance)
    return (float(sol.dual_value), sol) if full_output else float(sol.dual_value)


def lower_bound_subspace_reduction(subspace: Subspace, k: int, tolerance=1e-7, full_output=False):
    """Certified lower bound on the k-bounded subspace measure via the reduction cone."""
    if k < 2:
        raise StateError("k must be >= 2")
    dims = subspace.dims
    if len(dims) != 2:
        raise StateError("reduction relaxation needs a bipartite layout")
    adj = _reduction_adjoint(dims, (1,), 1.0 / (k - 1.0))
    sol = _subspace_bound(subspace, [adj], tolerance)
    return (float(sol.dual_value), sol) if full_output else float(sol.dual_value)


def lower_bound_mixed(
    rho: DensityMatrix, k: int, relaxation: str = "auto", tolerance=1e-7, full_output=False
):
    """Certified lower bound on the k-bounded mixed-state measure.

    Maximizes the square-root fidelity over the relaxed Schmidt-number-(k-1)
    set (PPT for k = 2, the generalized reduction cone otherwise) and returns
    1 - (max sqrt F)^2.  Values below 1e-6 do not certify entanglement.
    """
    if len(rho.dims) != 2:
        raise StateError("lower_bound_mixed needs a bipartite layout")
    if k < 2:
        raise StateError("k must be >= 2")
    if relaxation == "auto":
        relaxation = "ppt" if k == 2 else "reduction"
    if relaxation not in ("ppt", "reduction"):
        raise StateError(f"unknown relaxation {relaxation!r}")
    m = rho.dim
    dims = rho.dims
    if relaxation == "ppt":
        adj = _pt_adjoint(dims, (0,))
    else:
        adj = _reduction_adjoint(dims, (1,), 1.0 / (k - 1.0))

    vals = np.linalg.eigvalsh(rho.matrix)
    if vals[-1] >= 1.0 - 1e-12:
        # rank-one rho: the fidelity is linear, F = <psi|sigma|psi>
        cons = [({0: np.eye(m, dtype=complex)}, 1.0)]
        cons.extend(_linked_block_constraints([m, m], 0, 1, adj))
        prob = SdpProblem([rho.matrix, None], [m, m], cons, sense="max")
        sol = solve_sdp(prob, tolerance=tolerance)
        value = 1.0 - float(sol.dual_value)
        return (value, sol) if full_output else value

    # block 0: fidelity block, rho compressed to its support, sigma in the
    # bottom-right corner; block 1: the linked PSD image of sigma
    u_r, rho_c = _support(rho.matrix)
    r = rho_c.shape[0]
    n = r + m

    def _tl(e):
        big = np.zeros((n, n), dtype=complex)
        big[:r, :r] = e
        return big

    def _br(e):
        big = np.zeros((n, n), dtype=complex)
        big[r:, r:] = e
        return big

    a_obj = np.zeros((n, n), dtype=complex)
    a_obj[:r, r:] = 0.5 * u_r.conj().T
    a_obj[r:, :r] = 0.5 * u_r
    cons = [({0: _br(np.eye(m, dtype=complex))}, 1.0)]
    for e in _herm_basis(r):
        cons.append(({0: _tl(e)}, float(np.real(np.trace(e @ rho_c)))))
    for e in _herm_basis(m):
        cons.append(({1: e, 0: _br(-adj(e))}, 0.0))
    prob = SdpProblem([a_obj, None], [n, m], cons, sense="max")
    sol = solve_sdp(prob, tolerance=tolerance)
    root = float(sol.dual_value)
    value = 1.0 - root * root
    return (value, sol) if full_output else value


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class Witness:
    """Hermitian observable alpha I - |psi><psi| with its overlap threshold."""

    matrix: np.ndarray = field(repr=False)
    threshold: float


def witness_from_pure(
    psi: PureState, config: OptimizerConfig | None = None
) -> Witness:
    """Optimal-style witness from a pure state's maximal product overlap.

    The threshold is the variational estimate of the squared maximal overlap;
    the construction rejects (numerically) product states.
    """
    est = kgme_pure_multipartite(psi, 2, config)
    lam_sq = 1.0 - est.value
    if lam_sq >= 1.0 - 1e-10:
        raise StateError("state is (numerically) a product state; no witness exists")
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return Witness(lam_sq * np.eye(psi.dim) - proj, lam_sq)


def evaluate_witness(witness: Witness, rho: DensityMatrix) -> float:
    """Tr[W rho]; a value below -1e-8 certifies detection."""
    if witness.matrix.shape[0] != rho.dim:
        raise StateError("dimension mismatch")
    return float(np.real(np.trace(witness.matrix @ rho.matrix)))
