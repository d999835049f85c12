"""Haar Monte Carlo harness: chunked streaming against the whole-array writer."""

import csv

import numpy as np
import pytest

from gme.haar import CHUNK, ExperimentConfig, distill_success, haar_experiment, haar_sample_spectra, tail_measures
from gme.states import StateError, sample_haar_pure
from gme.zoo import haar_eg2_density_d4, haar_egd_density, haar_psucc_full_density


@pytest.mark.parametrize("dims", [(4, 4), (2, 3), (3, 2)])
def test_sample_spectra_match_single_samples(dims):
    """Row i is the spectrum of sample_haar_pure(dims, seed + i), bit for bit, across chunks."""
    seed, n = 17, CHUNK + 5
    lam = haar_sample_spectra(dims, n, seed)
    assert lam.shape == (n, min(dims))
    tail = haar_sample_spectra(dims, n - CHUNK, seed + CHUNK)
    np.testing.assert_array_equal(tail, lam[CHUNK:])
    for i in (0, CHUNK - 1, CHUNK, n - 1):
        amps = sample_haar_pure(dims, seed + i).amplitudes.reshape(dims)
        np.testing.assert_array_equal(lam[i], np.linalg.svd(amps, compute_uv=False) ** 2)


def _reference_experiment(config):
    """The whole-array writer: every sample in memory, one csv.writer row per sample."""
    dims = tuple(config.dims)
    d_a, d_b = dims
    d = min(dims)
    k_values = tuple(config.k_values) or tuple(range(2, d + 1))
    m_values = tuple(config.m_values)
    batch = np.empty((config.n_samples, d_a, d_b), dtype=complex)
    for i in range(config.n_samples):
        batch[i] = sample_haar_pure(dims, config.seed + i).amplitudes.reshape(d_a, d_b)
    lam = np.linalg.svd(batch, compute_uv=False) ** 2
    measures = tail_measures(lam, k_values)
    psucc = {m: distill_success(lam, m) for m in m_values}

    def histogram_rows(name, samples, hi, analytic):
        edges = np.linspace(0.0, hi, config.n_bins + 1)
        counts, _ = np.histogram(samples, bins=edges)
        dens = counts / (samples.size * (edges[1] - edges[0]))
        rows = []
        for j in range(config.n_bins):
            mid = 0.5 * (edges[j] + edges[j + 1])
            a = "" if analytic is None else repr(float(analytic(mid)))
            rows.append([name, repr(float(edges[j])), repr(float(edges[j + 1])), repr(float(dens[j])), a])
        return rows

    samples_path = config.out_dir + "/samples.csv"
    with open(samples_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_index"] + [f"E{k}" for k in k_values] + [f"psucc_{m}" for m in m_values])
        for i in range(config.n_samples):
            writer.writerow(
                [i] + [repr(float(measures[k][i])) for k in k_values] + [repr(float(psucc[m][i])) for m in m_values]
            )
    square = d_a == d_b
    hist_path = config.out_dir + "/histogram.csv"
    with open(hist_path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "bin_left", "bin_right", "empirical_density", "analytic_density"])
        for k in k_values:
            analytic = None
            if square and k == d:
                analytic = lambda x: haar_egd_density(d, x)  # noqa: E731
            elif square and k == 2 and d == 4:
                analytic = haar_eg2_density_d4
            hi = 1.0 / d if k == d and square else 1.0 - (k - 1.0) / d
            writer.writerows(histogram_rows(f"E{k}", measures[k], hi, analytic))
        for m in m_values:
            analytic = (lambda x: haar_psucc_full_density(d, x)) if square and m == d else None
            writer.writerows(histogram_rows(f"psucc_{m}", psucc[m], 1.0, analytic))
    return samples_path, hist_path


@pytest.mark.parametrize(
    "dims, k_values, m_values, n_bins",
    [((4, 4), (1, 2, 3, 4), (1, 2, 3, 4), 50), ((2, 3), (1, 2), (1, 2), 7), ((4, 4), (), (), 50)],
)
def test_experiment_matches_whole_array_writer(tmp_path, dims, k_values, m_values, n_bins):
    """Streaming through chunks writes the same bytes as the whole-array writer."""
    common = dict(n_samples=CHUNK + 37, dims=dims, seed=5, k_values=k_values, m_values=m_values, n_bins=n_bins)
    (tmp_path / "ref").mkdir()
    ref = _reference_experiment(ExperimentConfig(out_dir=str(tmp_path / "ref"), **common))
    got = haar_experiment(ExperimentConfig(out_dir=str(tmp_path / "new"), **common))
    for ref_path, got_path in zip(ref, got):
        with open(ref_path, "rb") as a, open(got_path, "rb") as b:
            assert a.read() == b.read()


def test_distill_success_names_each_bad_target():
    lam = haar_sample_spectra((3, 3), 4, 0)
    with pytest.raises(StateError, match="at least 1"):
        distill_success(lam, 0)
    with pytest.raises(StateError, match="exceeds the local dimension 3"):
        distill_success(lam, 4)
