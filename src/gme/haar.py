"""Monte Carlo harness for Haar-random bipartite state statistics.

Samples reduced-spectrum data, derives the k-bounded measures and the
distillation success probabilities per sample, and emits CSV files: one row
per sample plus histograms with analytic densities where closed forms exist.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .pure import distill_curve
from .states import StateError, sample_haar_pure
from .zoo import haar_eg2_density_d4, haar_egd_density, haar_psucc_full_density


@dataclass(frozen=True)
class ExperimentConfig:
    n_samples: int
    dims: tuple[int, ...] = (4, 4)
    seed: int = 0
    k_values: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    n_bins: int = 50
    out_dir: str = "."

    def __post_init__(self):
        if self.n_samples < 1:
            raise StateError("need at least one sample")
        if len(self.dims) != 2:
            raise StateError("the Haar experiment is defined for bipartite layouts")


def haar_sample_spectra(dims, n_samples: int, seed: int) -> np.ndarray:
    """Reduced spectra (rows sorted non-increasing) of seeded Haar samples.

    Sample i reproduces ``sample_haar_pure(dims, seed + i)`` exactly, so the
    rows are independent of batching and execution order.
    """
    d_a, d_b = dims
    batch = np.empty((n_samples, d_a, d_b), dtype=complex)
    for i in range(n_samples):
        batch[i] = sample_haar_pure(dims, seed + i).amplitudes.reshape(d_a, d_b)
    svals = np.linalg.svd(batch, compute_uv=False)
    lam = np.zeros((n_samples, min(d_a, d_b)))
    lam[:, : svals.shape[1]] = svals**2
    return lam


def tail_measures(lam: np.ndarray, k_values) -> dict[int, np.ndarray]:
    """E^(k) = sum of the eigenvalues from position k on, per sample."""
    out = {}
    for k in k_values:
        out[k] = np.clip(lam[:, k - 1 :].sum(axis=1), 0.0, None)
    return out


def distill_success(lam: np.ndarray, m: int) -> np.ndarray:
    """Optimal distillation probability of the m-dimensional target, per sample."""
    d = lam.shape[-1]
    if m < 1 or m > d:
        raise StateError(f"target dimension m={m} exceeds the local dimension {d}")
    return np.clip(distill_curve(lam, m).min(axis=-1), 0.0, 1.0)


def _histogram_rows(name, samples, n_bins, lo, hi, analytic):
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    width = edges[1] - edges[0]
    dens = counts / (samples.size * width)
    rows = []
    for j in range(n_bins):
        mid = 0.5 * (edges[j] + edges[j + 1])
        a = analytic(mid) if analytic is not None else ""
        rows.append([name, repr(float(edges[j])), repr(float(edges[j + 1])), repr(float(dens[j])), repr(float(a)) if a != "" else ""])
    return rows


def haar_experiment(config: ExperimentConfig) -> tuple[str, str]:
    """Run the sampling experiment; returns (samples_csv, histogram_csv) paths."""
    dims = tuple(config.dims)
    d = min(dims)
    k_values = tuple(config.k_values) or tuple(range(2, d + 1))
    m_values = tuple(config.m_values)
    lam = haar_sample_spectra(dims, config.n_samples, config.seed)
    measures = tail_measures(lam, k_values)
    psucc = {m: distill_success(lam, m) for m in m_values}

    os.makedirs(config.out_dir, exist_ok=True)
    samples_path = os.path.join(config.out_dir, "samples.csv")
    hist_path = os.path.join(config.out_dir, "histogram.csv")

    header = ["sample_index"] + [f"E{k}" for k in k_values] + [f"psucc_{m}" for m in m_values]
    with open(samples_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(config.n_samples):
            row = [i]
            row += [repr(float(measures[k][i])) for k in k_values]
            row += [repr(float(psucc[m][i])) for m in m_values]
            writer.writerow(row)

    square = dims[0] == dims[1]
    with open(hist_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "bin_left", "bin_right", "empirical_density", "analytic_density"])
        for k in k_values:
            analytic = None
            if square and k == d:
                analytic = lambda x: float(haar_egd_density(d, x))  # noqa: E731
            elif square and k == 2 and d == 4:
                analytic = lambda x: float(haar_eg2_density_d4(x))  # noqa: E731
            hi = 1.0 / d if k == d and square else 1.0 - (k - 1.0) / d
            for row in _histogram_rows(f"E{k}", measures[k], config.n_bins, 0.0, hi, analytic):
                writer.writerow(row)
        for m in m_values:
            analytic = None
            if square and m == d:
                analytic = lambda x: float(haar_psucc_full_density(d, x))  # noqa: E731
            for row in _histogram_rows(f"psucc_{m}", psucc[m], config.n_bins, 0.0, 1.0, analytic):
                writer.writerow(row)
    return samples_path, hist_path
