"""Haar Monte Carlo harness: chunked streaming and the worker pool against the whole-array writer."""

import csv
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from gme import haar
from gme.cli import main
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


@pytest.mark.parametrize("seed0", [0, 2**32 - 3, 2**64 - 3, 2**128 - 3])
def test_seeding_across_word_boundaries(seed0):
    """The derived PCG64 states are NumPy's, and the rows stay bit-identical, where seeds gain a 32-bit word."""
    n = 6
    for i, (state, inc) in enumerate(haar._pcg64_seed_states(seed0, n)):
        assert np.random.PCG64(seed0 + i).state["state"] == {"state": state, "inc": inc}
    lam = haar_sample_spectra((4, 4), n, seed0)
    for i in range(n):
        amps = sample_haar_pure((4, 4), seed0 + i).amplitudes.reshape(4, 4)
        np.testing.assert_array_equal(lam[i], np.linalg.svd(amps, compute_uv=False) ** 2)


def test_seeding_self_check_raises_on_a_wrong_state(monkeypatch):
    monkeypatch.setattr(haar, "_PCG64_MULT", haar._PCG64_MULT + 2)
    with pytest.raises(RuntimeError, match="differs from NumPy's seeding"):
        haar_sample_spectra((2, 2), 3, 5)


def test_negative_seed_refused():
    with pytest.raises(StateError, match="seed"):
        haar_sample_spectra((2, 2), 3, -1)
    with pytest.raises(StateError, match="seed"):
        sample_haar_pure((2, 2), -1)


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


def _same_bytes(paths_a, paths_b):
    for path_a, path_b in zip(paths_a, paths_b):
        with open(path_a, "rb") as a, open(path_b, "rb") as b:
            assert a.read() == b.read()


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
    _same_bytes(ref, got)


def _watch_chunks(monkeypatch, check):
    """Call ``check(in_parent)`` from every chunk's ``tail_measures``, in whichever process runs it."""
    parent, real = os.getpid(), haar.tail_measures

    def tail_measures(*args):
        check(os.getpid() == parent)
        return real(*args)

    monkeypatch.setattr(haar, "tail_measures", tail_measures)


POOL_RUN = dict(n_samples=3 * CHUNK + 37, dims=(4, 4), seed=3, k_values=(2, 3, 4), m_values=(2, 4), n_bins=20)


@pytest.fixture(scope="module")
def pool_reference(tmp_path_factory):
    return _reference_experiment(ExperimentConfig(out_dir=str(tmp_path_factory.mktemp("ref")), **POOL_RUN))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_writes_the_same_bytes(tmp_path, monkeypatch, pool_reference, workers):
    """Any number of workers writes the whole-array writer's bytes."""
    monkeypatch.setattr(haar, "_available_cpus", lambda: workers)
    got = haar_experiment(ExperimentConfig(out_dir=str(tmp_path), **POOL_RUN))
    _same_bytes(pool_reference, got)
    assert sorted(os.listdir(tmp_path)) == ["histogram.csv", "samples.csv"]


def test_pool_leaves_no_child(tmp_path, monkeypatch):
    """With two CPUs every chunk runs in a worker, and every worker is joined on return."""

    def check(in_parent):
        assert not in_parent, "a chunk ran in the parent process"

    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    _watch_chunks(monkeypatch, check)
    haar_experiment(ExperimentConfig(n_samples=2 * CHUNK + 1, out_dir=str(tmp_path)))
    assert multiprocessing.active_children() == []


def test_worker_error_exits_2_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    """A StateError raised in a worker reaches the CLI with its type, and the pool and the parts are gone.

    The last chunk fails, after the earlier ones have written their part files.
    """
    parent, real = os.getpid(), haar.haar_sample_spectra

    def haar_sample_spectra(dims, n_samples, seed):
        if os.getpid() != parent and seed == 4 * CHUNK:
            raise StateError("refused in a worker")
        return real(dims, n_samples, seed)

    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    monkeypatch.setattr(haar, "haar_sample_spectra", haar_sample_spectra)
    code = main(["haar", "--dims", "4,4", "--samples", str(5 * CHUNK), "--out", str(tmp_path)])
    assert code == 2
    assert "refused in a worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert set(os.listdir(tmp_path)) <= {"samples.csv", "histogram.csv"}


def test_failed_run_leaves_the_earlier_outputs_whole(tmp_path, monkeypatch, capsys):
    """A run whose last chunk fails in a worker exits 2 and leaves both CSVs of the earlier run as they were."""
    monkeypatch.setattr(haar, "_available_cpus", lambda: 2)
    argv = ["haar", "--dims", "4,4", "--samples", str(3 * CHUNK), "--out", str(tmp_path)]
    assert main([*argv, "--seed", "0"]) == 0
    before = {name: (tmp_path / name).read_bytes() for name in ("samples.csv", "histogram.csv")}
    parent, real = os.getpid(), haar.haar_sample_spectra

    def haar_sample_spectra(dims, n_samples, seed):
        if os.getpid() != parent and seed == 7 + 2 * CHUNK:
            raise StateError("refused in a worker")
        return real(dims, n_samples, seed)

    monkeypatch.setattr(haar, "haar_sample_spectra", haar_sample_spectra)
    assert main([*argv, "--seed", "7"]) == 2
    assert "refused in a worker" in capsys.readouterr().err
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_unwritable_out_exits_2_and_creates_nothing(tmp_path, capsys):
    """An --out that is a regular file is a usage error: no output, no part directory, no child."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = main(["haar", "--samples", "5", "--out", str(taken)])
    assert code == 2
    assert capsys.readouterr().err.startswith("gme: cannot write outputs")
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "kept\n"


def test_import_loads_no_pool():
    """Importing gme and its CLI leaves the process-pool machinery unimported."""
    probe = (
        "import sys, gme, gme.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=os.environ)
    assert out.stdout.strip() == "[]"


def test_distill_success_names_each_bad_target():
    lam = haar_sample_spectra((3, 3), 4, 0)
    with pytest.raises(StateError, match="at least 1"):
        distill_success(lam, 0)
    with pytest.raises(StateError, match="exceeds the local dimension 3"):
        distill_success(lam, 4)
