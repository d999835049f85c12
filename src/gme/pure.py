"""Closed-form bipartite pure-state measures and LOCC transformation laws.

Everything here follows exactly from the Schmidt spectrum, so these routines
double as oracles for the variational machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, StateError, schmidt_rank, schmidt_spectrum

_SUM_ATOL = 1e-12
_DETERMINISTIC_ATOL = 1e-10  # a conversion probability this close to 1 counts as deterministic


@dataclass(frozen=True)
class MajorizationVerdict:
    majorizes: bool
    weakly_majorizes: bool
    partial_sums: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TransformReport:
    deterministic_possible: bool
    optimal_probability: float
    binding_index: int


def schmidt_tail(lam: np.ndarray, k: int) -> np.ndarray:
    """E^(k): the sum of the non-increasing spectra ``lam`` from position k on, over the last axis."""
    return np.clip(lam[..., k - 1 :].sum(axis=-1), 0.0, None)


def k_gme_pure(psi: PureState, bipartition=(0,), k: int = 2) -> float:
    """Geometric measure of k-bounded Schmidt rank: the tail eigenvalue sum.

    k = 1 returns 1 by convention; k beyond the Schmidt rank returns 0.
    """
    if k < 1:
        raise StateError(f"k must be >= 1, got {k}")
    if k == 1:
        return 1.0
    return float(schmidt_tail(schmidt_spectrum(psi, bipartition), k))


def entanglement_entropy(psi: PureState, bipartition=(0,)) -> float:
    """Entropy (base 2) of the reduced spectrum, with 0 log 0 = 0."""
    lam = schmidt_spectrum(psi, bipartition)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


def linear_entropy(psi: PureState, bipartition=(0,)) -> float:
    """1 - purity of the reduced state."""
    lam = schmidt_spectrum(psi, bipartition)
    return float(max(0.0, 1.0 - (lam**2).sum()))


def concurrence_pure(psi: PureState, bipartition=(0,)) -> float:
    """sqrt(2 (1 - Tr rho_A^2))."""
    return float(np.sqrt(2.0 * linear_entropy(psi, bipartition)))


_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flipped state."""
    if rho.dims != (2, 2):
        raise StateError(f"concurrence_2q needs a 2x2 layout, got {rho.dims}")
    flipped = _SIGMA_YY @ rho.matrix.conj() @ _SIGMA_YY
    vals = np.linalg.eigvals(rho.matrix @ flipped)
    mu = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def eof_2q(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation from the concurrence."""
    c = concurrence_2q(rho)
    return _binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c))))


def majorization(x, y) -> MajorizationVerdict:
    """Does x majorize y?  Vectors are zero-padded to a common length."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = max(x.size, y.size)
    xs = np.sort(np.pad(x, (0, n - x.size)))[::-1].cumsum()
    ys = np.sort(np.pad(y, (0, n - y.size)))[::-1].cumsum()
    weak = bool(np.all(xs >= ys - _SUM_ATOL))
    equal_totals = abs(float(xs[-1] - ys[-1])) <= 1e-10
    return MajorizationVerdict(weak and equal_totals, weak, (xs, ys))


def nielsen_transformable(psi: PureState, phi: PureState, bipartition=(0,)) -> bool:
    """Deterministic LOCC convertibility: target spectrum majorizes the source."""
    if psi.dims != phi.dims:
        raise StateError("states must share one layout")
    lam_psi = schmidt_spectrum(psi, bipartition)
    lam_phi = schmidt_spectrum(phi, bipartition)
    return majorization(lam_phi, lam_psi).majorizes


def vidal_probability(psi: PureState, phi: PureState, bipartition=(0,)) -> TransformReport:
    """Optimal LOCC conversion probability: min over k of tail-sum ratios."""
    if psi.dims != phi.dims:
        raise StateError("states must share one layout")
    lam_psi = schmidt_spectrum(psi, bipartition)
    lam_phi = schmidt_spectrum(phi, bipartition)
    ratios = [schmidt_tail(lam_psi, k) / schmidt_tail(lam_phi, k) for k in range(2, schmidt_rank(lam_phi) + 1)]
    return _least_ratio([1.0] + ratios)  # E^(1) = 1 on both sides by convention


def distill_probability(psi: PureState, m: int, bipartition=(0,)) -> TransformReport:
    """Optimal probability of distilling the m-dimensional maximally entangled state."""
    lam = schmidt_spectrum(psi, bipartition)
    _check_distill_target(m, lam.size)
    curve = distill_curve(lam, m)
    curve[-1] = 1.0  # E^(1) = 1
    return _least_ratio(curve)


def _least_ratio(ratios) -> TransformReport:
    """The first smallest ratio, capped at 1, as a probability with its 1-based position."""
    best = int(np.argmin(ratios))
    p = float(min(1.0, ratios[best]))
    return TransformReport(p >= 1.0 - _DETERMINISTIC_ATOL, p, best + 1)


def _check_distill_target(m: int, d: int) -> None:
    """Refuse a distillation target dimension m outside 1..d, the local dimension."""
    if m < 1:
        raise StateError(f"target dimension m={m} must be at least 1")
    if m > d:
        raise StateError(f"target dimension m={m} exceeds the local dimension {d}")


def distill_curve(lam: np.ndarray, m: int) -> np.ndarray:
    """The sequence B_n = (m/n) * tail_(m-n+1) for n = 1..m over the last axis of spectra."""
    lam = -np.sort(-np.asarray(lam, dtype=float), axis=-1)
    return np.stack([(m / n) * schmidt_tail(lam, m - n + 1) for n in range(1, m + 1)], axis=-1)
