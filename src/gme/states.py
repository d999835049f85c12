"""Multipartite quantum state algebra: core types and linear-algebra primitives.

All objects carry a party-dimension layout ``dims = (d_1, ..., d_n)`` with the
first party slowest-varying (row-major), so a flat index decomposes as
``i = i_1 * (d_2 * ... * d_n) + ... + i_n``.  This matches both ``np.kron``
and ``np.reshape(dims)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

NORM_ATOL = 1e-12        # norm / trace / hermiticity tolerance for valid states
PSD_ATOL = 1e-10         # smallest admissible eigenvalue of a density matrix
RANK_CUTOFF = 1e-12      # singular values / residual norms below this are zero
EIG_CUTOFF = 1e-10       # eigenvalues of a density matrix below this are dropped


class StateError(ValueError):
    """Raised when an object violates a quantum-state invariant."""


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise StateError(f"party dimensions must be >= 1, got {dims}")
    return dims


def total_dim(dims) -> int:
    return int(math.prod(dims))


def check_int(value, what):
    """An integer (NumPy integers too) as an ``int``; anything else, such as 1.5, raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise StateError(f"{what} must be an integer, got {value!r}") from None


def check_seed(seed):
    """Pass an integer seed through; a negative one, which ``default_rng`` refuses, raises."""
    seed = check_int(seed, "seed")
    if seed < 0:
        raise StateError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_parties(dims, parties) -> tuple[int, ...]:
    parties = tuple(sorted(set(int(p) for p in parties)))
    if not parties:
        raise StateError("party set must be non-empty")
    if any(p < 0 or p >= len(dims) for p in parties):
        raise StateError(f"invalid party index in {parties} for {len(dims)} parties")
    return parties


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector with a party layout."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        dims = _as_dims(self.dims)
        if amps.size != total_dim(dims):
            raise StateError(
                f"amplitude length {amps.size} does not match layout {dims}"
            )
        nrm = np.linalg.norm(amps)
        if not (abs(nrm - 1.0) <= NORM_ATOL):  # NaN-safe: a NaN norm fails too
            raise StateError(f"state norm {float(nrm)!r} is not 1 within {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with a party layout."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dims = _as_dims(self.dims)
        d = total_dim(dims)
        if mat.shape != (d, d):
            raise StateError(f"matrix shape {mat.shape} does not match layout {dims}")
        asym = np.linalg.norm(mat - mat.conj().T)
        if not (asym < PSD_ATOL):
            raise StateError(f"matrix asymmetry {asym:.3e} exceeds {PSD_ATOL}")
        mat = 0.5 * (mat + mat.conj().T)
        tr = np.trace(mat).real
        if not (abs(tr - 1.0) <= NORM_ATOL):
            raise StateError(f"trace {float(tr)!r} is not 1 within {NORM_ATOL}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_ATOL:
            raise StateError(f"minimum eigenvalue {min_eig:.3e} below -{PSD_ATOL}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Non-increasing Schmidt coefficients with column-orthonormal local bases."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> np.ndarray:
        """Amplitudes in (left side, right side) index order."""
        mat = (self.left_basis * self.coefficients) @ self.right_basis.T
        return mat.ravel()


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent with its rank."""

    matrix: np.ndarray
    rank: int


@dataclass(frozen=True)
class Subspace:
    """A subspace of a multipartite Hilbert space.

    Carries the spanning states, an orthonormal basis of the span (columns),
    and the projector onto the orthogonal complement.
    """

    spanning_states: tuple[PureState, ...]
    basis: np.ndarray = field(repr=False)
    complement: Projector = field(repr=False)
    dims: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def from_states(states) -> "Subspace":
        states = tuple(states)
        if not states:
            raise StateError("subspace needs at least one spanning state")
        dims = states[0].dims
        if any(s.dims != dims for s in states):
            raise StateError("spanning states must share one layout")
        basis = orthonormal_basis([s.amplitudes for s in states])
        return Subspace(states, basis, _complement_of(basis), dims)


# ---------------------------------------------------------------------------
# tensor manipulation


def tensor_product(a, b):
    """Kronecker product of two vectors or two matrices, row-major party order."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise StateError("operands must be both vectors or both matrices")
    return np.kron(a, b)


def permute_parties_vector(vec, dims, perm):
    """Reorder the parties of an amplitude vector; perm[k] = old index of new party k."""
    vec = np.asarray(vec)
    tensor = vec.reshape(tuple(dims))
    return tensor.transpose(perm).ravel()


def permute_parties_matrix(mat, dims, perm):
    """Reorder the parties of an operator; perm[k] = old index of new party k."""
    n = len(dims)
    mat = np.asarray(mat)
    tensor = mat.reshape(tuple(dims) + tuple(dims))
    axes = tuple(perm) + tuple(p + n for p in perm)
    new_dims = tuple(dims[p] for p in perm)
    d = total_dim(new_dims)
    return tensor.transpose(axes).reshape(d, d)


def _partial_trace_arr(mat, dims, parties):
    """Partial trace of a square array over the given parties (array level)."""
    parties = _check_parties(dims, parties)
    keep = [i for i in range(len(dims)) if i not in parties]
    tensor = np.asarray(mat).reshape(tuple(dims) + tuple(dims))
    # trace out parties one at a time, highest axis first
    for p in sorted(parties, reverse=True):
        tensor = np.trace(tensor, axis1=p, axis2=p + tensor.ndim // 2)
    d_keep = total_dim([dims[i] for i in keep])
    return tensor.reshape(d_keep, d_keep), tuple(dims[i] for i in keep)


def partial_trace(rho: DensityMatrix, parties) -> DensityMatrix:
    """Trace out the given parties; the result acts on the remaining ones."""
    reduced, keep_dims = _partial_trace_arr(rho.matrix, rho.dims, parties)
    return DensityMatrix(reduced, keep_dims)


def _partial_transpose_arr(mat, dims, party_set):
    party_set = _check_parties(dims, party_set)
    n = len(dims)
    tensor = np.asarray(mat).reshape(tuple(dims) + tuple(dims))
    axes = list(range(2 * n))
    for p in party_set:
        axes[p], axes[p + n] = axes[p + n], axes[p]
    d = total_dim(dims)
    return tensor.transpose(axes).reshape(d, d)


def partial_transpose(rho: DensityMatrix, party_set) -> np.ndarray:
    """Transpose the given parties; Hermitian and trace-preserving, not PSD in general."""
    return _partial_transpose_arr(rho.matrix, rho.dims, party_set)


def _bipartition(dims, left):
    """The cut (left | rest), rest non-empty: the party order, left first, and the two side dimensions."""
    left = _check_parties(dims, left)
    right = tuple(i for i in range(len(dims)) if i not in left)
    if not right:
        raise StateError("bipartition must leave a non-empty complement")
    return left + right, (total_dim([dims[i] for i in left]), total_dim([dims[i] for i in right]))


def _regroup(mat, dims, left):
    """An operator regrouped into the two-party layout of the cut (left | rest), and that layout."""
    order, sides = _bipartition(dims, left)
    return permute_parties_matrix(mat, dims, order), sides


def _schmidt_matrix(psi: PureState, bipartition):
    """The amplitudes as a (K, complement) matrix; the complement must be non-empty."""
    order, sides = _bipartition(psi.dims, bipartition)
    return permute_parties_vector(psi.amplitudes, psi.dims, order).reshape(sides)


def schmidt_decompose(psi: PureState, bipartition) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure state across the bipartition (K | complement)."""
    mat = _schmidt_matrix(psi, bipartition)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    r = max(1, int(np.count_nonzero(s > RANK_CUTOFF)))
    return SchmidtDecomposition(s[:r].copy(), u[:, :r].copy(), vh[:r, :].T.copy())


def schmidt_spectrum(psi: PureState, bipartition) -> np.ndarray:
    """Eigenvalues (squared Schmidt coefficients) in non-increasing order, full length."""
    mat = _schmidt_matrix(psi, bipartition)
    return np.linalg.svd(mat, compute_uv=False) ** 2


# ---------------------------------------------------------------------------
# orthonormalization and projectors


def orthonormal_basis(vectors) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Returns the orthonormal basis of the span as matrix columns; vectors whose
    residual norm falls below the rank cutoff are dropped.
    """
    cols = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).ravel().copy()
        for _ in range(2):
            for q in cols:
                w -= q * np.vdot(q, w)
        nrm = np.linalg.norm(w)
        if nrm > RANK_CUTOFF:
            cols.append(w / nrm)
    if not cols:
        raise StateError("spanning set is numerically zero")
    return np.column_stack(cols)


def complement_projector(states) -> Projector:
    """Projector onto the orthogonal complement of the span of the given states."""
    return Subspace.from_states(states).complement


def _complement_of(basis) -> Projector:
    """Projector onto the orthogonal complement of the span of orthonormal columns."""
    d = basis.shape[0]
    proj = np.eye(d, dtype=complex) - basis @ basis.conj().T
    proj = 0.5 * (proj + proj.conj().T)
    return Projector(proj, d - basis.shape[1])


# ---------------------------------------------------------------------------
# fidelity, sampling, noise


def _clipped_sqrt_eigs(vals):
    # square roots amplify eigenvalue noise; drop entries at rounding level
    vals = np.clip(vals, 0.0, None)
    vals[vals < 1e-14 * max(vals.max(), 1e-300)] = 0.0
    return np.sqrt(vals)


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * _clipped_sqrt_eigs(vals)) @ vecs.conj().T


def _support(mat):
    """Eigenvalues of a PSD matrix above ``EIG_CUTOFF``, ascending, and their eigenvectors as columns."""
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > EIG_CUTOFF
    return vals[keep], vecs[:, keep]


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise StateError("fidelity requires equal dimensions")
    root = _psd_sqrt(rho.matrix)
    inner = root @ sigma.matrix @ root
    inner = 0.5 * (inner + inner.conj().T)
    val = float(np.sum(_clipped_sqrt_eigs(np.linalg.eigvalsh(inner))) ** 2)
    return min(max(val, 0.0), 1.0)


def sample_haar_pure(dims, seed: int) -> PureState:
    """Haar-random pure state: normalized i.i.d. standard complex Gaussian amplitudes.

    The amplitudes come from ``default_rng(seed)``, real parts first, so one
    non-negative integer seed fixes the state.
    """
    dims = _as_dims(dims)
    rng = np.random.default_rng(check_seed(seed))
    d = total_dim(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


def apply_depolarizing(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Mix with white noise: (1 - p) rho + p I / dim."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"noise level p={p} outside [0, 1]")
    d = rho.dim
    mat = (1.0 - p) * rho.matrix + p * np.eye(d) / d
    return DensityMatrix(mat, rho.dims)
