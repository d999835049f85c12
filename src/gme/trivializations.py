"""Trivialization maps: flat real parameters onto constraint sets.

Each map turns an unconstrained real vector into a member of its target set
(positive numbers, the probability simplex, unit vectors, Hermitian and
unitary matrices, the Stiefel manifold, and the composite ansatz families
built from them).  The ``*_vjp`` helpers propagate gradients back through a
map; complex cogradients follow the convention

    df = 2 Re[ sum_k conj(g_k) dz_k ],

so for interleaved real parameters x with z_k = x_{2k} + i x_{2k+1} the real
gradient is ``interleave(2 Re g, 2 Im g)``.  Vector helpers act on the last
axis, so they apply row by row to batches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .optimizers import scipy_extension
from .states import StateError

# scipy.special.expit itself, taken from its extension file without the scipy.special package
expit = scipy_extension("special", "_special_ufuncs").expit

POLAR_EPS = 1e-12  # regularization of the polar projection near rank deficiency


def check_finite(theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.isfinite(theta).all():
        raise StateError("parameters must be finite")
    return theta


# ---------------------------------------------------------------------------
# scalar / vector building blocks


def softplus(t):
    return np.logaddexp(0.0, t)


def softplus_vjp(t, g):
    return g * expit(t)


def complex_from_reals(theta):
    """Interleaved real pairs to a complex vector, z_k = x_{2k} + i x_{2k+1}."""
    return np.array(theta, dtype=float, order="C").view(complex)


def reals_from_cograd(g):
    """Real-parameter gradient from a complex cogradient: interleaved 2 Re g, 2 Im g."""
    return 2.0 * np.ascontiguousarray(g, dtype=complex).view(float)


def normalize(z):
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# matrix building blocks


def hermitian_from_reals(theta, n):
    """Column-filled real square matrix, then (A + A^T) + i (A - A^T)."""
    a = np.asarray(theta, dtype=float).reshape(n, n, order="F")
    return (a + a.T) + 1j * (a - a.T)


def unitary_from_reals(theta, n):
    h = hermitian_from_reals(theta, n)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _adjoint(a):
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _gram_eigh(a):
    """Eigenvectors, square-rooted eigenvalues and inverse square root of A^dag A + POLAR_EPS I."""
    b = _adjoint(a) @ a + POLAR_EPS * np.eye(a.shape[-1])
    vals, vecs = np.linalg.eigh(b)
    sq = np.sqrt(vals)
    return vecs, sq, (vecs / sq[..., None, :]) @ _adjoint(vecs)


def polar(a, return_gram=False):
    """Regularized polar factor A (A^dag A + POLAR_EPS I)^(-1/2), over the last two axes.

    With ``return_gram`` the Gram eigendata come back too, for ``polar_vjp``
    at the same point to reuse instead of a second eigendecomposition.
    """
    gram = _gram_eigh(a)
    x = a @ gram[2]
    return (x, gram) if return_gram else x


def polar_vjp(a, g, gram=None):
    """Cogradient through the regularized polar factor, over the last two axes.

    Uses the Daleckii-Krein divided differences of t -> t^(-1/2) on the
    Gram-matrix eigenbasis; ``gram`` is what ``polar(a, return_gram=True)`` returned.
    """
    vecs, sq, inv_sqrt = _gram_eigh(a) if gram is None else gram
    # divided differences of t^(-1/2): -1 / (sqrt(di dj) (sqrt(di) + sqrt(dj)))
    si, sj = sq[..., :, None], sq[..., None, :]
    w = -1.0 / (si * sj * (si + sj))
    p = _adjoint(a) @ g
    t = vecs @ (w * (_adjoint(vecs) @ p @ vecs)) @ _adjoint(vecs)
    return g @ inv_sqrt + a @ (t + _adjoint(t))


# ---------------------------------------------------------------------------
# trivialization kinds


@dataclass(frozen=True)
class Positive:
    n: int = 1

    @property
    def input_len(self) -> int:
        return self.n

    def value(self, theta):
        return softplus(check_finite(theta))


@dataclass(frozen=True)
class Simplex:
    """The probability simplex through the softmax map, exp(theta) / sum exp(theta)."""

    n: int

    @property
    def input_len(self) -> int:
        return self.n

    def value(self, theta):
        theta = check_finite(theta)
        shifted = np.exp(theta - theta.max())
        return shifted / shifted.sum()


@dataclass(frozen=True)
class Sphere:
    n: int

    @property
    def input_len(self) -> int:
        return self.n

    def value(self, theta):
        return normalize(check_finite(theta))


@dataclass(frozen=True)
class Hermitian:
    n: int

    @property
    def input_len(self) -> int:
        return self.n * self.n

    def value(self, theta):
        return hermitian_from_reals(check_finite(theta), self.n)


@dataclass(frozen=True)
class Unitary:
    n: int

    @property
    def input_len(self) -> int:
        return self.n * self.n

    def value(self, theta):
        return unitary_from_reals(check_finite(theta), self.n)


@dataclass(frozen=True)
class Stiefel:
    n: int
    r: int

    @property
    def input_len(self) -> int:
        return 2 * self.n * self.r

    def matrix(self, theta):
        """The n x r complex matrix of the parameters, unchecked (``value`` checks them)."""
        z = complex_from_reals(theta)
        return z.reshape(z.shape[:-1] + (self.n, self.r))

    def value(self, theta):
        return polar(self.matrix(check_finite(theta)))


# every letter but t, the term axis: one einsum axis per party
_PARTY_AXES = "abcdefghijklmnopqrsuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@functools.lru_cache(maxsize=None)
def _einsum_specs(n):
    """Subscripts over n parties: the weighted sum of the terms, and for each
    party j, g contracted with the factors of every party but j.  The first
    operand of each, over the term axis t, keeps t present even where no other
    factor does (n = 1)."""
    axes = _PARTY_AXES[:n]
    factors = [f"...t{a}" for a in axes]
    value = ",".join(["...t"] + factors) + "->..." + axes
    cog = tuple(
        ",".join(["...t"] + factors[:j] + factors[j + 1 :] + ["..." + axes]) + f"->...t{axes[j]}"
        for j in range(n)
    )
    return value, cog


class _ProductTerms:
    """Batched engine of the product-sum families: sum_t w_t f_t1 (x) ... (x) f_tn.

    Parameters have shape (..., input_len) with any leading batch axes.  Each
    term's block holds its raw weight (weighted families only; w = softplus)
    followed by the interleaved real pairs of every party's factor, which is
    normalized.  Values have shape (..., prod(dims)).
    """

    weighted = False

    @property
    def terms(self) -> int:
        return 1

    @property
    def term_len(self) -> int:
        return int(self.weighted) + 2 * sum(self.dims)

    @property
    def input_len(self) -> int:
        return self.terms * self.term_len

    @property
    def _starts(self) -> list[int]:
        """Offset of each party's factor among a term's side-by-side factors."""
        return [sum(self.dims[:j]) for j in range(len(self.dims))]

    def _parts(self, theta):
        """Term blocks (..., terms, term_len), weights (..., terms), and the party
        factors side by side (..., terms, sum(dims)): unit factors and their norms."""
        blocks = theta.reshape(theta.shape[:-1] + (self.terms, self.term_len))
        w = softplus(blocks[..., 0]) if self.weighted else np.ones(blocks.shape[:-1])
        x = blocks[..., int(self.weighted) :]
        norms = np.sqrt(np.add.reduceat(x * x, [2 * a for a in self._starts], axis=-1))
        norms = np.repeat(norms, self.dims, axis=-1)
        return blocks, w, complex_from_reals(x) / norms, norms

    def _split_parties(self, units):
        return [units[..., a : a + d] for a, d in zip(self._starts, self.dims)]

    def value_and_pullback(self, theta, checked=False):
        """The summed vector at theta, and the map from its cogradient g to the
        real-parameter gradient; both share one pass over the parameters.

        ``checked`` says theta is a float array already known to be finite (a
        caller that checked a larger parameter vector it belongs to).
        """
        blocks, w, units, norms = self._parts(theta if checked else check_finite(theta))
        value_spec, cog_specs = _einsum_specs(len(self.dims))
        vec = np.einsum(value_spec, w, *self._split_parties(units))
        vec = vec.reshape(vec.shape[: vec.ndim - len(self.dims)] + (-1,))

        def pullback(g):
            conj = units.conj()
            factors = self._split_parties(conj)
            g = np.asarray(g).reshape(np.shape(g)[:-1] + tuple(self.dims))
            # party j's block of c: g contracted with the conjugate factors of every other party
            ones = np.ones_like(w)
            c = np.concatenate(
                [np.einsum(spec, ones, *factors[:j], *factors[j + 1 :], g) for j, spec in enumerate(cog_specs)],
                axis=-1,
            )
            # every party's column of `overlap` is Re <term_t, g>
            overlap = np.add.reduceat(np.real(conj * c), self._starts, axis=-1)
            # through each party's normalization f = z / ||z||
            cog = w[..., None] * (c - units * np.repeat(overlap, self.dims, axis=-1)) / norms
            grad = reals_from_cograd(cog)
            if self.weighted:
                # d(vec) = term_t d(w_t): real derivative 2 Re <term_t, g>
                grad = np.concatenate([softplus_vjp(blocks[..., :1], 2.0 * overlap[..., :1]), grad], axis=-1)
            return grad.reshape(blocks.shape[:-2] + (-1,))

        return vec, pullback

    def value(self, theta):
        return self.value_and_pullback(theta)[0]

    def vjp(self, theta, g):
        """Real-parameter gradient from the cogradient g of the summed vector."""
        return self.value_and_pullback(theta)[1](g)


@dataclass(frozen=True)
class ProductAnsatz(_ProductTerms):
    """A fully product state: one normalized complex factor per party."""

    dims: tuple[int, ...]


@dataclass(frozen=True)
class BoundedRankAnsatz(_ProductTerms):
    """Unnormalized sum of k-1 product terms with positive weights.

    For two parties this parameterizes states of Schmidt rank < k; in the
    multipartite case, tensor rank < k.
    """

    dims: tuple[int, ...]
    k: int
    weighted = True

    def __post_init__(self):
        if self.k < 2:
            raise StateError(f"bounded-rank ansatz needs k >= 2, got {self.k}")

    @property
    def terms(self) -> int:
        return self.k - 1


@dataclass(frozen=True)
class RoofAnsatz:
    """Stiefel matrix plus one closest-state ansatz per decomposition entry."""

    n_entries: int
    rank: int
    inner: object  # ProductAnsatz or BoundedRankAnsatz

    def __post_init__(self):
        if self.n_entries < self.rank:
            raise StateError(
                f"need n_entries >= rank, got {self.n_entries} < {self.rank}"
            )

    @property
    def stiefel(self) -> Stiefel:
        return Stiefel(self.n_entries, self.rank)

    @property
    def input_len(self) -> int:
        return self.stiefel.input_len + self.n_entries * self.inner.input_len

    def split(self, theta):
        """Stiefel parameters (..., 2 n r) and per-entry inner parameters (..., n, inner_len)."""
        theta = check_finite(theta)
        ns = self.stiefel.input_len
        return theta[..., :ns], theta[..., ns:].reshape(theta.shape[:-1] + (self.n_entries, self.inner.input_len))

    def value(self, theta):
        th_x, th_inner = self.split(theta)
        return self.stiefel.value(th_x), self.inner.value(th_inner)


def trivialize(t, theta):
    """Evaluate a trivialization map at flat parameters theta."""
    return t.value(np.asarray(theta, dtype=float))


def make_trivialization(kind: str, **kwargs):
    table = {
        "positive": Positive,
        "simplex": Simplex,
        "sphere": Sphere,
        "hermitian": Hermitian,
        "unitary": Unitary,
        "stiefel": Stiefel,
        "product_ansatz": ProductAnsatz,
        "bounded_rank_ansatz": BoundedRankAnsatz,
        "roof_ansatz": RoofAnsatz,
    }
    if kind not in table:
        raise StateError(f"unknown trivialization kind {kind!r}")
    return table[kind](**kwargs)
