"""References computed apart from gme, and the checks that compare outputs with them.

Nothing here imports gme: the closed forms are written out again from the
formulas, the inputs are built with plain numpy, and the reference spectra come
from numpy's own SVD and eigensolver.  A check returns ``None`` when the value
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# ---------------------------------------------------------------------------
# closed forms

UPB_SHIFTS_GME = 1.0 - 3.0 * math.sqrt(6.0) / 8.0
GHZ_GME = 0.5

# (variational, PPT) columns of the tripartite completely entangled subspace table
BHAT_TABLE = {
    (2, 2, 2): (2.50e-1, 2.00e-1),
    (2, 2, 6): (1.23e-2, 1.23e-2),
    (2, 3, 4): (1.41e-2, 1.41e-2),
    (2, 3, 6): (2.86e-3, 2.86e-3),
}


def dicke_gme(n: int, m: int) -> float:
    """1 - C(n, m) (m/n)^m ((n-m)/n)^(n-m): the k = 2 measure of Dicke(n, m)."""
    return 1.0 - math.comb(n, m) * (m / n) ** m * ((n - m) / n) ** (n - m)


def isotropic_kgme(d: int, F: float, k: int) -> float:
    """k-bounded measure of the isotropic state with fidelity F."""
    if F <= (k - 1.0) / d:
        return 0.0
    root = math.sqrt(F * (k - 1.0)) + math.sqrt((1.0 - F) * (d - k + 1.0))
    return 1.0 - root * root / d


def werner_gme(d: int, alpha: float) -> float:
    """k = 2 measure of the Werner state (I - alpha SWAP) / (d^2 - d alpha)."""
    if alpha <= 1.0 / d:
        return 0.0
    t = (d * alpha - 1.0) / (alpha - d)
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - t * t)))


def egd_survival(d: int, x):
    """Pr[E_d >= x] = (1 - d x)^(d^2 - 1) for a Haar-random d x d pure state."""
    return np.clip(1.0 - d * np.asarray(x, dtype=float), 0.0, 1.0) ** (d * d - 1)


# ---------------------------------------------------------------------------
# inputs


def dicke_vector(n: int, m: int) -> np.ndarray:
    amps = np.array([1.0 if bin(i).count("1") == m else 0.0 for i in range(2**n)])
    return amps / np.linalg.norm(amps)


def ghz_vector() -> np.ndarray:
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return amps


def isotropic_matrix(d: int, F: float) -> np.ndarray:
    phi = np.eye(d).ravel() / math.sqrt(d)
    proj = np.outer(phi, phi)
    return (1.0 - F) / (d * d - 1.0) * (np.eye(d * d) - proj) + F * proj


def werner_matrix(d: int, alpha: float) -> np.ndarray:
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return (np.eye(d * d) - alpha * swap) / (d * d - d * alpha)


def local_orthogonal(dims, rng) -> np.ndarray:
    """Kronecker product of one Haar-random real orthogonal matrix per party.

    Local rotations leave every measure here unchanged and keep real data real,
    so a seed changes the inputs without changing their reference values or
    the solver's real arithmetic.
    """
    out = np.ones((1, 1))
    for d in dims:
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        out = np.kron(out, q * np.sign(np.diag(r)))
    return out


# ---------------------------------------------------------------------------
# reference spectra


def max_schmidt_tail(vec, dims, k: int) -> float:
    """Largest tail sum_{i >= k} s_i^2 over all bipartitions (numpy SVD)."""
    n = len(dims)
    tensor = np.asarray(vec).reshape(dims)
    best = 0.0
    for size in range(1, n // 2 + 1):
        for left in itertools.combinations(range(n), size):
            right = [i for i in range(n) if i not in left]
            d_l = int(np.prod([dims[i] for i in left]))
            mat = tensor.transpose(list(left) + right).reshape(d_l, -1)
            s = np.linalg.svd(mat, compute_uv=False)
            best = max(best, float(np.sum(s[k - 1 :] ** 2)))
    return best


def reduced_spectrum(vec, d_a: int, d_b: int) -> np.ndarray:
    """Eigenvalues of Tr_B |psi><psi|, non-increasing (numpy eigvalsh)."""
    m = np.asarray(vec).reshape(d_a, d_b)
    return np.linalg.eigvalsh(m @ m.conj().T)[::-1]


def schmidt_tail(lam, k: int) -> float:
    return 1.0 if k == 1 else max(0.0, float(np.sum(lam[k - 1 :])))


def distill_reference(lam, m: int) -> float:
    """min(1, min_n (m/n) sum_{i >= m-n} lam_i), with E^(1) = 1."""
    best = min((m / n) * schmidt_tail(lam, m - n + 1) for n in range(1, m + 1))
    return min(1.0, best)


def ks_distance(samples, d: int) -> float:
    """Kolmogorov-Smirnov distance of samples of E_d to the closed-form law."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = 1.0 - egd_survival(d, x)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n)))


# ---------------------------------------------------------------------------
# checks


def near(value, ref, tol):
    if not abs(value - ref) <= tol:
        return f"{value!r} differs from {ref!r} by more than {tol:g}"
    return None


def relative(value, ref, rel):
    if not abs(value - ref) <= rel * abs(ref):
        return f"{value!r} differs from {ref!r} by more than {rel:.0%}"
    return None


def at_least(value, floor, tol=0.0):
    if not value >= floor - tol:
        return f"{value!r} is below {floor!r} - {tol:g}"
    return None


def at_most(value, ceil, tol=0.0):
    if not value <= ceil + tol:
        return f"{value!r} exceeds {ceil!r} + {tol:g}"
    return None


def is_optimal(status):
    if status != "optimal":
        return f"solver status {status!r}, not 'optimal'"
    return None


def equal(value, ref):
    if value != ref:
        return f"{value!r} differs from {ref!r}"
    return None


def mean_within_se(mean, std, n, ref, n_se=3.0):
    se = std / math.sqrt(n)
    if not abs(mean - ref) < n_se * se:
        return f"mean {mean!r} is {n_se:g} SE or more from {ref!r}"
    return None


def first(*reasons):
    """The first failed check among several, or None when all pass."""
    return next((r for r in reasons if r is not None), None)
