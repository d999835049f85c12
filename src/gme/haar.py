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
from .states import NORM_ATOL, StateError, _as_dims
from .zoo import haar_eg2_density_d4, haar_egd_density, haar_psucc_full_density


CHUNK = 8192  # samples held in memory at once; the outputs do not depend on it


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
        dims = _as_dims(self.dims)
        if len(dims) != 2:
            raise StateError("the Haar experiment is defined for bipartite layouts")
        d = min(dims)
        for name, values in (("k", self.k_values), ("m", self.m_values)):
            for v in values:
                if not 1 <= v <= d:
                    raise StateError(f"{name}={v} outside [1, {d}] for local dimensions {dims}")
        if self.n_bins < 1:
            raise StateError(f"need at least one histogram bin, got {self.n_bins}")


def haar_sample_spectra(dims, n_samples: int, seed: int) -> np.ndarray:
    """Reduced spectra (rows sorted non-increasing) of seeded Haar samples.

    Row i is the spectrum of ``sample_haar_pure(dims, seed + i)`` bit for bit:
    one draw of 2d normals equals that function's two draws of d, and each row
    is normalized by its own 1-D norm.  So the rows do not depend on batching
    and a run may be split into chunks at any sample.
    """
    d_a, d_b = _as_dims(dims)
    raw = np.empty((n_samples, 2, d_a * d_b))
    for i in range(n_samples):
        np.random.default_rng(seed + i).standard_normal(out=raw[i])
    z = raw[:, 0] + 1j * raw[:, 1]
    for row in z:
        row /= np.linalg.norm(row)
    err = np.abs(np.linalg.norm(z, axis=1) - 1.0)
    if np.any(err > NORM_ATOL):
        raise StateError(f"state norm off 1 by {err.max()!r}, above {NORM_ATOL}")
    return np.linalg.svd(z.reshape(n_samples, d_a, d_b), compute_uv=False) ** 2


def tail_measures(lam: np.ndarray, k_values) -> dict[int, np.ndarray]:
    """E^(k) = sum of the eigenvalues from position k on, per sample."""
    out = {}
    for k in k_values:
        out[k] = np.clip(lam[:, k - 1 :].sum(axis=1), 0.0, None)
    return out


def distill_success(lam: np.ndarray, m: int) -> np.ndarray:
    """Optimal distillation probability of the m-dimensional target, per sample."""
    d = lam.shape[-1]
    if m < 1:
        raise StateError(f"target dimension m={m} must be at least 1")
    if m > d:
        raise StateError(f"target dimension m={m} exceeds the local dimension {d}")
    return np.clip(distill_curve(lam, m).min(axis=-1), 0.0, 1.0)


def _histogram_specs(dims, k_values, m_values):
    """(quantity, upper edge, analytic density or None) per histogram; all start at 0."""
    d = min(dims)
    square = dims[0] == dims[1]
    specs = []
    for k in k_values:
        analytic = None
        if square and k == d:
            analytic = lambda x: float(haar_egd_density(d, x))  # noqa: E731
        elif square and k == 2 and d == 4:
            analytic = lambda x: float(haar_eg2_density_d4(x))  # noqa: E731
        hi = 1.0 / d if k == d and square else 1.0 - (k - 1.0) / d
        specs.append((f"E{k}", hi, analytic))
    for m in m_values:
        analytic = None
        if square and m == d:
            analytic = lambda x: float(haar_psucc_full_density(d, x))  # noqa: E731
        specs.append((f"psucc_{m}", 1.0, analytic))
    return specs


def _histogram_rows(name, counts, n_samples, edges, analytic):
    width = edges[1] - edges[0]
    dens = counts / (n_samples * width)
    rows = []
    for j in range(len(counts)):
        mid = 0.5 * (edges[j] + edges[j + 1])
        a = "" if analytic is None else repr(analytic(mid))
        rows.append([name, repr(float(edges[j])), repr(float(edges[j + 1])), repr(float(dens[j])), a])
    return rows


def haar_experiment(config: ExperimentConfig) -> tuple[str, str]:
    """Run the sampling experiment; returns (samples_csv, histogram_csv) paths.

    Samples stream through chunks of ``CHUNK``: each chunk's rows are written
    and its values binned before the next is drawn, so memory does not grow
    with ``n_samples``.
    """
    dims = tuple(config.dims)
    k_values = tuple(config.k_values) or tuple(range(2, min(dims) + 1))
    m_values = tuple(config.m_values)
    specs = _histogram_specs(dims, k_values, m_values)
    edges = [np.linspace(0.0, hi, config.n_bins + 1) for _, hi, _ in specs]
    counts = [np.zeros(config.n_bins, dtype=np.int64) for _ in specs]

    os.makedirs(config.out_dir, exist_ok=True)
    samples_path = os.path.join(config.out_dir, "samples.csv")
    hist_path = os.path.join(config.out_dir, "histogram.csv")

    header = ["sample_index"] + [name for name, _, _ in specs]
    with open(samples_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, config.n_samples, CHUNK):
            stop = min(start + CHUNK, config.n_samples)
            lam = haar_sample_spectra(dims, stop - start, config.seed + start)
            measures = tail_measures(lam, k_values)
            columns = [measures[k] for k in k_values] + [distill_success(lam, m) for m in m_values]
            for col, e, c in zip(columns, edges, counts):
                c += np.histogram(col, bins=e)[0]
            text = map(",".join, zip(map(str, range(start, stop)), *(map(repr, col.tolist()) for col in columns)))
            fh.write("\n".join(text) + "\n")

    with open(hist_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "bin_left", "bin_right", "empirical_density", "analytic_density"])
        for (name, _, analytic), e, c in zip(specs, edges, counts):
            writer.writerows(_histogram_rows(name, c, config.n_samples, e, analytic))
    return samples_path, hist_path
