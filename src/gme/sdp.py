"""Certified lower bounds: a first-order conic solver and relaxation builders.

The solver handles block-diagonal Hermitian semidefinite programs

    min/max  sum_b Tr[C_b X_b]   s.t.  X_b >= 0  and affine constraints

whose affine constraints come in three kinds, each stated in its own form:

* **links** ``X_dst = L_j(S)``: whole blocks held at linear images of one
  diagonal sub-block ``S`` of a source block.  Each map is given as the pair of
  callables ``L_j`` and ``L_j*``, together with the closed-form inverse of
  ``I + sum_j L_j* L_j`` on ``S`` (see ``Links``);
* **fixed sub-blocks** ``X_b[i:i+n, i:i+n] = F``, a coordinate overwrite;
* a few **scalar constraints** ``sum_b Tr[F_ib X_b] = c_i``.

It runs over-relaxed operator splitting: alternating projection onto the
affine set and onto the PSD cones (by eigenvalue clipping).  No link or fixed
sub-block is ever listed out as constraint rows.  With ``P_S`` the projection
onto the links and fixed sub-blocks (an overwrite plus one closed-form solve
on ``S``) and ``A x = b`` the scalar constraints, the affine projection is

    x = P_S v - P_S A^T G^-1 (A P_S v - b),    G = A P_S A^T,

where the small Gram matrix ``G = L L^T`` is factored once, and each
iteration applies ``G^-1 = L^-T L^-1`` as two products with ``L^-1``.
Memory grows with the number of block entries, and an iteration costs a few
eigendecompositions.

The iterates are flat float64 vectors, and block b is a writable (n, n) view
of its segment: n^2 floats for real data, or 2n^2 floats read as complex.  The
plain dot product of two such vectors is the sum of the blocks' trace inner
products, so the splitting runs on the flat vectors while every projection
acts on the block matrices in place.  When every data matrix is real the
blocks are real symmetric and the vector halves in length.  Link maps must
send real matrices to real ones, as partial transposes and the reduction map
do.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
INVERSE_RTOL = 1e-9    # build-time check of a closed-form link inverse


@dataclass(frozen=True)
class Links:
    """Blocks held at linear images of one diagonal sub-block of a source block.

    Imposes ``X_dst = forward(S)`` for every ``(dst, forward, adjoint)`` in
    ``images``, where ``S = X_block[start:start+side, start:start+side]``.
    ``inverse`` applies ``(I + sum_j adjoint_j(forward_j(.)))^-1`` to a
    side x side Hermitian matrix.
    """

    block: int
    start: int
    side: int
    images: tuple
    inverse: Callable


@dataclass(frozen=True)
class SdpProblem:
    """Block-PSD conic program; the module docstring describes the constraint kinds."""

    objective: list          # Hermitian cost per block (None for zero)
    blocks: list             # block side lengths
    constraints: list        # scalar constraints: (per-block coefficient dict {index: Hermitian}, rhs)
    sense: str = "min"
    fixed: tuple = ()        # fixed sub-blocks: (block, start, Hermitian value)
    links: Links | None = None

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
        if not self.constraints and not self.fixed and self.links is None:
            raise StateError("problem needs at least one affine constraint")
        claimed = [set() for _ in self.blocks]

        def claim(b, start, side):
            rows = set(range(start, start + side))
            if start < 0 or start + side > self.blocks[b] or claimed[b] & rows:
                raise StateError("fixed sub-blocks and links need disjoint diagonal sub-blocks")
            claimed[b] |= rows

        for b, start, value in self.fixed:
            side = np.shape(value)[0]
            claim(b, start, side)
            _check_hermitian(value, side)
        if self.links is not None:
            claim(self.links.block, self.links.start, self.links.side)
            for dst, _, _ in self.links.images:
                claim(dst, 0, self.blocks[dst])
            _check_links(self.links, self.blocks)


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.  ``dual_multipliers`` holds the multipliers y_i of the
    scalar ``constraints`` as stated, so that sign * (C - sum_i y_i F_i) is PSD
    up to the terms of the links and fixed sub-blocks (sign = -1 for 'max')."""

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


def _check_links(links, blocks):
    """Check image shapes and the closed-form inverse: M(M^-1 X) = X on a random Hermitian X."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((links.side, links.side)) + 1j * rng.standard_normal((links.side, links.side))
    x = x + x.conj().T
    y = links.inverse(x)
    m_y = y
    for dst, forward, adjoint in links.images:
        image = forward(y)
        if image.shape != (blocks[dst], blocks[dst]):
            raise StateError(f"link image shape {image.shape} does not match block side {blocks[dst]}")
        m_y = m_y + adjoint(image)
    if np.linalg.norm(m_y - x) > INVERSE_RTOL * np.linalg.norm(x):
        raise StateError("links.inverse is not the inverse of I + sum_j L_j* L_j")


class _BlockVec:
    """Block-diagonal Hermitian matrices stored as one flat float64 vector.

    ``views(flat)`` gives each block as a writable (n, n) view of its segment
    of ``flat``, so that ``x @ y`` over flat vectors is ``sum_b Tr[X_b Y_b]``.
    With ``real=True`` (valid whenever every data matrix is real, since the
    real part of any feasible Hermitian point is then feasible with the same
    objective) the blocks are real symmetric and hold n^2 floats instead of
    2n^2.
    """

    def __init__(self, blocks, real=False):
        self.blocks = list(blocks)
        self.real = bool(real)
        floats = 1 if self.real else 2
        self.offsets = np.concatenate([[0], np.cumsum([floats * n * n for n in self.blocks])])
        self.total = int(self.offsets[-1])

    def views(self, flat):
        out = []
        for b, n in enumerate(self.blocks):
            seg = flat[self.offsets[b] : self.offsets[b + 1]]
            out.append((seg if self.real else seg.view(complex)).reshape(n, n))
        return out

    def hermitian(self, flat):
        """The blocks of ``flat`` as exactly Hermitian copies."""
        return [(mat + mat.conj().T) / 2.0 for mat in self.views(flat)]

    def flatten(self, mats):
        out = np.zeros(self.total)
        for view, mat in zip(self.views(out), mats):
            if mat is not None:
                view[...] = np.asarray(mat).real if self.real else mat
        return out

    def project_psd(self, vec):
        out = np.empty_like(vec)
        for mat, dst in zip(self.views(vec), self.views(out)):
            vals, vecs = np.linalg.eigh(mat)
            np.matmul(vecs * np.clip(vals, 0.0, None), vecs.conj().T, out=dst)
        return out


def _structure_projection(problem: SdpProblem, vec: _BlockVec):
    """P_S: the projection onto the links and fixed sub-blocks, as project(v, shift).

    With ``shift=False`` the fixed sub-blocks are set to zero instead of their
    values, which projects onto the linear subspace parallel to the set.
    """
    fixed = [
        (b, slice(start, start + np.shape(value)[0]), np.asarray(value).real if vec.real else np.asarray(value))
        for b, start, value in problem.fixed
    ]
    links = problem.links
    if links is not None:
        src = slice(links.start, links.start + links.side)

    def project(v, shift=True):
        out = v.copy()
        mats = vec.views(out)
        for b, sub, value in fixed:
            mats[b][sub, sub] = value if shift else 0.0
        if links is not None:
            # argmin over S of |S - V_S|^2 + sum_j |L_j(S) - V_j|^2
            s = links.inverse(
                mats[links.block][src, src] + sum(adjoint(mats[dst]) for dst, _, adjoint in links.images)
            )
            mats[links.block][src, src] = s
            for dst, forward, _ in links.images:
                mats[dst][...] = forward(s)
        return out

    return project


def _cho_factor(gram):
    """The inverse L^-1 of the Cholesky factor of gram = L L^T."""
    return np.linalg.inv(np.linalg.cholesky(gram))


def _cho_solve(inverse_factor, w):
    """gram^-1 w = L^-T (L^-1 w), from the inverse factor of _cho_factor."""
    return inverse_factor.T @ (inverse_factor @ w)


# The Gram factorization keeps the names and the path, `sla.cho_factor` and
# `sla.cho_solve`, that it had when it came from scipy.linalg: bench/tracing.py
# times the factorization through that module global.  ROADMAP item 8, which
# takes those figures from the solver's own records, frees the name.
sla = types.SimpleNamespace(cho_factor=_cho_factor, cho_solve=_cho_solve)


def _is_real(mat):
    return mat is None or np.linalg.norm(np.asarray(mat).imag) < 1e-12


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
    data = list(problem.objective) + [value for _, _, value in problem.fixed]
    data += [mat for coeffs, _ in problem.constraints for mat in coeffs.values()]
    vec = _BlockVec(problem.blocks, real=all(_is_real(mat) for mat in data))
    sign = 1.0 if problem.sense == "min" else -1.0
    c = sign * vec.flatten(problem.objective)
    c_scale = max(np.linalg.norm(c), 1e-12)
    c = c / c_scale
    c_norm = 1.0 + np.linalg.norm(c)
    project = _structure_projection(problem, vec)

    m = len(problem.constraints)
    a_rows = np.array(
        [vec.flatten([coeffs.get(b) for b in range(len(vec.blocks))]) for coeffs, _ in problem.constraints]
    ).reshape(m, vec.total)
    row_scale = np.linalg.norm(a_rows, axis=1)
    if np.any(row_scale < 1e-14):
        raise StateError(f"constraint {np.argmax(row_scale < 1e-14)} has zero coefficients")
    a_rows /= row_scale[:, None]
    b_rhs = np.array([rhs for _, rhs in problem.constraints], dtype=float) / row_scale

    # the scalar constraints restricted to the structure: rows P_S a_i, Gram A P_S A^T
    pa_rows = np.array([project(row, shift=False) for row in a_rows]).reshape(m, vec.total)
    if m:
        gram = pa_rows @ pa_rows.T
        gram[np.diag_indices(m)] += 1e-12
        inverse_factor = sla.cho_factor(gram)

    def proj_affine(v):
        """The affine projection of v and the Gram solve G^-1 (A P_S v - b)."""
        p = project(v)
        w = a_rows @ p - b_rhs
        lam = sla.cho_solve(inverse_factor, w) if m else w
        return p - pa_rows.T @ lam, lam

    def kkt(x, v, z, u, sigma):
        """Objectives and residuals at one iterate, in reported units, and the relative gap.

        A* y of every affine constraint is sigma (x - v); with A x = b, b^T y = <x, A* y>.
        """
        a_adj_y = sigma * (x - v)
        s = -sigma * u
        p_obj, d_obj = float(c @ x), float(x @ a_adj_y)
        dual_eq = float(np.linalg.norm(c - a_adj_y - s))
        x_norm, split = float(np.linalg.norm(x)), float(np.linalg.norm(x - z))
        record = {
            "primal_objective": sign * p_obj * c_scale,
            "dual_objective": sign * d_obj * c_scale,
            "primal_residual": split / (1.0 + max(x_norm, float(np.linalg.norm(z)))),
            "dual_residual": dual_eq / c_norm,
            "dual_eq_norm": dual_eq * c_scale,
            "slack_norm": float(np.linalg.norm(s)) * c_scale,
            "split_gap": split,
            "x_norm": x_norm,
        }
        return record, abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))

    x0, _ = proj_affine(np.zeros(vec.total))
    if np.linalg.norm(a_rows @ x0 - b_rhs) > 1e-7 * (1.0 + np.linalg.norm(b_rhs)):
        return SdpSolution(
            math.nan, math.nan, vec.hermitian(x0), np.zeros(m), math.inf, math.inf, 0,
            "infeasible_suspected", [] if keep_history else None,
        )

    sigma = 1.0
    alpha = OVER_RELAXATION
    z = np.zeros(vec.total)
    u = np.zeros(vec.total)
    x = x0
    history = [] if keep_history else None
    status = "max_iterations"
    it = 0
    check_every = 25

    for it in range(1, max_iterations + 1):
        v = z - u - c / sigma
        x, _ = proj_affine(v)
        x_relaxed = alpha * x + (1.0 - alpha) * z
        z_new = vec.project_psd(x_relaxed + u)
        u = u + x_relaxed - z_new
        shift = np.linalg.norm(z_new - z)
        z = z_new

        if it % check_every == 0 or it == max_iterations:
            record, gap = kkt(x, v, z, u, sigma)
            if history is not None:
                history.append({"iteration": it, **record})
            if record["primal_residual"] <= tolerance and record["dual_residual"] <= tolerance and gap <= GAP_TOL:
                status = "optimal"
                break
            # residual balancing keeps the splitting well conditioned
            raw_p = record["split_gap"]
            raw_d = sigma * shift
            if raw_p > 10.0 * raw_d and sigma < 1e6:
                u /= 2.0
                sigma *= 2.0
            elif raw_d > 10.0 * raw_p and sigma > 1e-6:
                u *= 2.0
                sigma /= 2.0

    # consistent final KKT snapshot
    v = z - u - c / sigma
    x, lam = proj_affine(v)
    record, _ = kkt(x, v, z, u, sigma)
    return SdpSolution(
        primal_value=record["primal_objective"],
        dual_value=record["dual_objective"],
        block_values=vec.hermitian(z),
        dual_multipliers=-sign * c_scale * sigma * lam / row_scale,
        primal_residual=record["primal_residual"],
        dual_residual=record["dual_residual"],
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


def _transpose_links(dims, k, start=0) -> Links:
    """Blocks 1..n held at the partial transposes T_j of the sub-block at `start` of block 0.

    Two parties use the transpose of party 0; more parties use every
    single-party transpose.  A partial transpose permutes matrix entries, so
    T_j* T_j = I and (I + sum_j T_j* T_j)^-1 = 1 / (1 + n).
    """
    parties = [(0,)] if len(dims) == 2 else [(i,) for i in range(len(dims))]
    maps = [lambda x, p=p: _partial_transpose_arr(x, dims, p) for p in parties]
    images = tuple((1 + j, pt, pt) for j, pt in enumerate(maps))
    return Links(0, start, total_dim(dims), images, lambda x: x / (1.0 + len(maps)))


def _reduction_links(dims, k, start=0) -> Links:
    """Block 1 held at R(S) = Tr_B S (x) I - p S, p = 1/(k-1), for the sub-block S at `start` of block 0.

    R = d_B Pi - p I with the orthogonal projector Pi(X) = Tr_B X (x) I / d_B,
    so (I + R* R)^-1 = (I - Pi) / (1 + p^2) + Pi / (1 + (d_B - p)^2).
    """
    if len(dims) != 2:
        raise StateError("the reduction relaxation needs a bipartite layout")
    p = 1.0 / (k - 1.0)
    d_b = dims[1]

    def reduce(x):
        return reduction_image(x, dims, (1,), p)

    def inverse(x):
        pi_x = reduction_image(x, dims, (1,), 0.0) / d_b
        return (x - pi_x) / (1.0 + p * p) + pi_x / (1.0 + (d_b - p) ** 2)

    return Links(0, start, total_dim(dims), ((1, reduce, reduce),), inverse)


# Relaxations of the Schmidt-number-(k-1) set: name -> (largest k it bounds,
# Links builder for (dims, k, start)).  Once k >= 3 the PPT set misses states
# of Schmidt number k-1 (a Bell state), so it bounds only k = 2.
RELAXATIONS = {
    "ppt": (2, _transpose_links),
    "reduction": (math.inf, _reduction_links),
}


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
    prob = SdpProblem([a], [n], [], sense="max", fixed=((0, 0, rho_c), (0, r1, sigma_c)))
    sol = solve_sdp(prob, tolerance=tolerance)
    value = float(min(max(sol.primal_value, 0.0), 1.0))
    return (value, sol) if full_output else value


def resolve_relaxation(k: int, relaxation: str = "auto") -> str:
    """The row of ``RELAXATIONS`` a k-bounded bound uses; 'auto' is the first that bounds k."""
    if k < 2:
        raise StateError("k must be >= 2")
    if relaxation == "auto":
        return next(name for name, (k_max, _) in RELAXATIONS.items() if k <= k_max)
    if relaxation not in RELAXATIONS:
        raise StateError(f"unknown relaxation {relaxation!r}")
    if k > RELAXATIONS[relaxation][0]:
        raise StateError(f"the {relaxation} relaxation bounds only k <= {RELAXATIONS[relaxation][0]}")
    return relaxation


def lower_bound(obj, k: int, relaxation: str = "auto", tolerance=1e-7, full_output=False):
    """Certified lower bound on the k-bounded measure of a subspace or a bipartite mixed state.

    Over the relaxed Schmidt-number-(k-1) set (see ``RELAXATIONS``) it
    minimizes Tr[P_perp sigma] for a subspace, and for a mixed state it
    maximizes the square-root fidelity and returns 1 - (max sqrt F)^2.
    Values below ``NONCERTIFYING`` do not certify entanglement.
    """
    name = resolve_relaxation(k, relaxation)
    r, fixed = 0, ()
    if isinstance(obj, Subspace):
        # block 0 is sigma
        objective, sense, finish = obj.complement.matrix, "min", lambda v: v
    elif not isinstance(obj, DensityMatrix):
        raise StateError("lower bounds need a subspace or a density matrix")
    elif len(obj.dims) != 2:
        raise StateError("mixed-state bounds need a bipartite layout")
    elif np.linalg.eigvalsh(obj.matrix)[-1] >= 1.0 - 1e-12:
        # the fidelity is linear, F = <psi|sigma|psi>: block 0 is sigma
        objective, sense, finish = obj.matrix, "max", lambda v: 1.0 - v
    else:
        # block 0: rho compressed to its support (fixed, top left) and sigma
        # (bottom right) in the fidelity block matrix
        u_r, rho_c = _support(obj.matrix)
        r, fixed = rho_c.shape[0], ((0, 0, rho_c),)
        objective = np.zeros((r + obj.dim, r + obj.dim), dtype=complex)
        objective[:r, r:] = 0.5 * u_r.conj().T
        objective[r:, :r] = 0.5 * u_r
        sense, finish = "max", lambda v: 1.0 - v * v
    links = RELAXATIONS[name][1](obj.dims, k, start=r)
    m, n = links.side, len(links.images)
    trace_sigma = np.zeros((r + m, r + m))
    trace_sigma[r:, r:] = np.eye(m)
    prob = SdpProblem(
        [objective] + [None] * n, [r + m] + [m] * n, [({0: trace_sigma}, 1.0)],
        sense=sense, fixed=fixed, links=links,
    )
    sol = solve_sdp(prob, tolerance=tolerance)
    value = finish(float(sol.dual_value))
    return (value, sol) if full_output else value


def lower_bound_subspace_ppt(subspace: Subspace, tolerance=1e-7, full_output=False):
    """``lower_bound`` of a subspace at k = 2 under the PPT relaxation."""
    return lower_bound(subspace, 2, "ppt", tolerance, full_output)


def lower_bound_subspace_reduction(subspace: Subspace, k: int, tolerance=1e-7, full_output=False):
    """``lower_bound`` of a bipartite subspace under the reduction relaxation."""
    return lower_bound(subspace, k, "reduction", tolerance, full_output)


def lower_bound_mixed(
    rho: DensityMatrix, k: int, relaxation: str = "auto", tolerance=1e-7, full_output=False
):
    """``lower_bound`` of a bipartite mixed state."""
    return lower_bound(rho, k, relaxation, tolerance, full_output)


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
