"""Monte Carlo harness for Haar-random bipartite state statistics.

Samples reduced-spectrum data, derives the k-bounded measures and the
distillation success probabilities per sample, and emits CSV files: one row
per sample plus histograms with analytic densities where closed forms exist.

Sample i of a run seeded with ``seed`` is ``sample_haar_pure(dims, seed + i)``
bit for bit, drawn without building a generator per sample.  NumPy fixes
(NEP 19) how ``default_rng(s)`` seeds its PCG64: ``SeedSequence(s)`` hashes
the 32-bit words of s into a four-word pool and hashes the pool into four
64-bit words, which ``pcg_setseq_128_srandom_r`` turns into the 128-bit
(state, inc) pair.  ``_pcg64_seed_states`` runs the hashes for a whole run of
seeds as uint32 array arithmetic and the last step on Python integers; each
sample's normals are then drawn from one reused generator whose state is
assigned.  Every call compares its first derived state with
``np.random.PCG64(seed).state``, so a change in NumPy's seeding raises instead
of drawing different samples.

``haar_experiment`` runs its chunks on the CPUs in the process's affinity
mask, one forked worker per CPU.  Each chunk writes its own CSV rows to a part
file and hands back only the part's path and its histogram counts; the parent
appends the parts in chunk order and sums the counts as integers, so the
outputs do not depend on how many CPUs run them and no sample text passes
through the parent.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .pure import _check_distill_target, distill_curve, schmidt_tail
from .states import NORM_ATOL, StateError, _as_dims, check_int, check_seed
from .zoo import haar_eg2_density_d4, haar_egd_density, haar_psucc_full_density


# samples per chunk: a worker holds one chunk's spectra and CSV text at a time,
# and the outputs do not depend on it
CHUNK = 8192

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


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
        if check_int(self.n_samples, "n_samples") < 1:
            raise StateError("need at least one sample")
        check_seed(self.seed)
        dims = _as_dims(self.dims)
        if len(dims) != 2:
            raise StateError("the Haar experiment is defined for bipartite layouts")
        d = min(dims)
        for k in self.k_values:
            if not 1 <= k <= d:
                raise StateError(f"k={k} outside [1, {d}] for local dimensions {dims}")
        for m in self.m_values:
            _check_distill_target(m, d)
        if check_int(self.n_bins, "n_bins") < 1:
            raise StateError(f"need at least one histogram bin, got {self.n_bins}")


def _entropy_words(first: int, n: int, width: int) -> np.ndarray:
    """32-bit little-endian words (n, width) of the integers first, ..., first + n - 1."""
    low = np.uint64(first & _MASK32) + np.arange(n, dtype=np.uint64)
    words = np.empty((n, width), dtype=np.uint32)
    words[:, 0] = low  # keeps the low 32 bits
    carry = low >> np.uint64(32)
    for c in range(int(carry[-1]) + 1):
        high = (first >> 32) + c
        words[carry == c, 1:] = [(high >> (32 * j)) & _MASK32 for j in range(width - 1)]
    return words


def _seed_sequence_words(words: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per row of entropy words.

    Returns the four uint64 output words as four arrays over the rows.  A row
    shorter than the pool is zero-padded, which hashes exactly as SeedSequence
    hashes a short entropy; words past the pool are mixed in afterwards.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(words[:, i]) for i in range(_POOL_WORDS)]
        for i_src in range(_POOL_WORDS):
            for i_dst in range(_POOL_WORDS):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for i_src in range(_POOL_WORDS, words.shape[1]):
            for i_dst in range(_POOL_WORDS):
                pool[i_dst] = mix(pool[i_dst], hashmix(words[:, i_src]))
        hash_const = _INIT_B
        out = []
        for i in range(2 * 4):  # four uint64 words, low 32 bits first
            value = pool[i % _POOL_WORDS] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * np.uint32(hash_const)
            out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [lo | (hi << np.uint64(32)) for lo, hi in zip(out[0::2], out[1::2])]


def _pcg64_seed_states(first: int, n: int):
    """Yield the (state, inc) of ``np.random.PCG64(first + i)`` for i < n.

    Seeds of one entropy length (four words for every seed below 2^128) are
    hashed as one array; the first state of each such run is checked against
    NumPy's own seeding.
    """
    stop = first + n
    while first < stop:
        width = max(_POOL_WORDS, -(-first.bit_length() // 32))
        run_stop = min(stop, 1 << (32 * width))
        s0, s1, i0, i1 = (w.tolist() for w in _seed_sequence_words(_entropy_words(first, run_stop - first, width)))
        for j, (a, b, c, d) in enumerate(zip(s0, s1, i0, i1)):
            # pcg_setseq_128_srandom_r: inc = 2 seq + 1, then two LCG steps around adding the seed
            inc = (((c << 64) | d) << 1 | 1) & _MASK128
            state = ((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _MASK128
            if j == 0 and np.random.PCG64(first).state["state"] != {"state": state, "inc": inc}:
                raise RuntimeError(f"derived PCG64 state for seed {first} differs from NumPy's seeding")
            yield state, inc
        first = run_stop


def haar_sample_spectra(dims, n_samples: int, seed: int) -> np.ndarray:
    """Reduced spectra (rows sorted non-increasing) of seeded Haar samples.

    Row i is the spectrum of ``sample_haar_pure(dims, seed + i)`` bit for bit,
    so the rows do not depend on batching and a run may be split into chunks
    at any sample:

    * the row's 2d normals come from a generator in the state that
      ``default_rng(seed + i)`` starts in (see the module docstring), and one
      draw of 2d normals equals that function's two draws of d;
    * each row is divided by the square root of its squared norm, computed by
      ``np.matmul`` over the stacked 1 x d by d x 1 products of the real and
      imaginary parts: per row, the same strided BLAS dot that
      ``np.linalg.norm`` runs on a complex vector.
    """
    d_a, d_b = _as_dims(dims)
    seed = check_seed(seed)
    raw = np.empty((n_samples, 2, d_a * d_b))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    # one generator for every row, set to the state default_rng(seed + i) starts in
    pcg = {"state": 0, "inc": 0}
    start = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, (pcg["state"], pcg["inc"]) in zip(raw, _pcg64_seed_states(seed, n_samples)):
        bits.state = start
        gen.standard_normal(out=row)
    z = raw[:, 0] + 1j * raw[:, 1]
    re, im = z.real, z.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    z /= np.sqrt(sq[:, :, 0])
    err = np.abs(np.linalg.norm(z, axis=1) - 1.0)
    if np.any(err > NORM_ATOL):
        raise StateError(f"state norm off 1 by {float(err.max())!r}, above {NORM_ATOL}")
    return np.linalg.svd(z.reshape(n_samples, d_a, d_b), compute_uv=False) ** 2


def tail_measures(lam: np.ndarray, k_values) -> dict[int, np.ndarray]:
    """E^(k) = sum of the eigenvalues from position k on, per sample."""
    return {k: schmidt_tail(lam, k) for k in k_values}


def distill_success(lam: np.ndarray, m: int) -> np.ndarray:
    """Optimal distillation probability of the m-dimensional target, per sample."""
    _check_distill_target(m, lam.shape[-1])
    return np.clip(distill_curve(lam, m).min(axis=-1), 0.0, 1.0)


def _histogram_specs(dims, k_values, m_values):
    """(quantity, upper edge, analytic density or None) per histogram; all start at 0."""
    d = min(dims)
    square = dims[0] == dims[1]
    specs = []
    for k in k_values:
        analytic = None
        if square and k == d:
            analytic = functools.partial(haar_egd_density, d)
        elif square and k == 2 and d == 4:
            analytic = haar_eg2_density_d4
        hi = 1.0 / d if k == d and square else 1.0 - (k - 1.0) / d
        specs.append((f"E{k}", hi, analytic))
    for m in m_values:
        analytic = None
        if square and m == d:
            analytic = functools.partial(haar_psucc_full_density, d)
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


def _available_cpus() -> int:
    """The number of CPUs in this process's affinity mask (all CPUs where there are no masks)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunk_rows(parts_dir, dims, seed, k_values, m_values, edges, start, stop):
    """Write the CSV rows of samples start, ..., stop - 1 to a part file under ``parts_dir``.

    Returns the part's path and the samples' histogram counts, one array per column.
    """
    lam = haar_sample_spectra(dims, stop - start, seed + start)
    measures = tail_measures(lam, k_values)
    columns = [measures[k] for k in k_values] + [distill_success(lam, m) for m in m_values]
    counts = [np.histogram(col, bins=e)[0] for col, e in zip(columns, edges)]
    text = map(",".join, zip(map(str, range(start, stop)), *(map(repr, col.tolist()) for col in columns)))
    path = os.path.join(parts_dir, f"{start}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(text) + "\n")
    return path, counts


def _map_chunks(work, starts, stops):
    """Yield ``work(start, stop)`` per chunk, in chunk order, over a pool of forked workers.

    One worker per available CPU, never more than there are chunks.  Each result
    passes through the pool's result thread, so ``work`` should return little:
    ``haar_experiment``'s workers return a part file's path and a few counts,
    not rows.  With one worker, or where the platform cannot fork, the chunks
    run in this process.  ``Executor.map`` keeps the chunk order and raises a
    worker's exception here with its own type; when it raises or the generator
    is closed, the chunks that have not started are cancelled and every worker
    is joined.
    """
    workers = min(_available_cpus(), len(starts))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        yield from map(work, starts, stops)
        return
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and gme again
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(work, starts, stops)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def haar_experiment(config: ExperimentConfig) -> tuple[str, str]:
    """Run the sampling experiment; returns (samples_csv, histogram_csv) paths.

    Samples stream through chunks of ``CHUNK``, which run on the CPUs in the
    process's affinity mask (see ``_map_chunks``).  Each chunk writes its own
    rows to a part file in a temporary directory under ``out_dir``; this
    process writes the header, appends the parts in chunk order and sums the
    histogram counts as integers.  So the outputs do not depend on how many
    CPUs run the chunks, no sample text passes through this process, and
    memory does not grow with ``n_samples``.  Both CSVs are written in the
    part directory and moved into ``out_dir`` only once the histogram is
    written, so a run that fails leaves any earlier outputs there as they
    were.  The part directory is removed on every exit, errors included.
    """
    dims = tuple(config.dims)
    k_values = tuple(config.k_values) or tuple(range(2, min(dims) + 1))
    m_values = tuple(config.m_values)
    specs = _histogram_specs(dims, k_values, m_values)
    edges = [np.linspace(0.0, hi, config.n_bins + 1) for _, hi, _ in specs]
    counts = [np.zeros(config.n_bins, dtype=np.int64) for _ in specs]
    starts = range(0, config.n_samples, CHUNK)
    stops = [min(start + CHUNK, config.n_samples) for start in starts]

    os.makedirs(config.out_dir, exist_ok=True)
    names = ("samples.csv", "histogram.csv")

    header = ["sample_index"] + [name for name, _, _ in specs]
    with tempfile.TemporaryDirectory(prefix=".parts-", dir=config.out_dir) as parts_dir:
        samples_part, hist_part = (os.path.join(parts_dir, name) for name in names)
        work = functools.partial(_chunk_rows, parts_dir, dims, config.seed, k_values, m_values, edges)
        # closing the chunks joins every worker before the part directory is removed
        with open(samples_part, "wb") as fh, contextlib.closing(_map_chunks(work, starts, stops)) as chunks:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for part_path, chunk_counts in chunks:
                with open(part_path, "rb") as part:
                    shutil.copyfileobj(part, fh)
                for c, chunk_c in zip(counts, chunk_counts):
                    c += chunk_c

        with open(hist_part, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["quantity", "bin_left", "bin_right", "empirical_density", "analytic_density"])
            for (name, _, analytic), e, c in zip(specs, edges, counts):
                writer.writerows(_histogram_rows(name, c, config.n_samples, e, analytic))
        for name in names:
            os.replace(os.path.join(parts_dir, name), os.path.join(config.out_dir, name))
    return tuple(os.path.join(config.out_dir, name) for name in names)
