"""Core state algebra: construction, decomposition, reduction, sampling."""

import numpy as np
import pytest

from gme.haar import ExperimentConfig, haar_sample_spectra
from gme.optimizers import OptimizerConfig
from gme.pure import entanglement_entropy, k_gme_pure
from gme.states import (
    DensityMatrix,
    PureState,
    StateError,
    apply_depolarizing,
    complement_projector,
    fidelity,
    partial_trace,
    partial_transpose,
    permute_parties_vector,
    sample_haar_pure,
    schmidt_decompose,
    schmidt_spectrum,
    tensor_product,
)
from gme.variational import perturbation_experiment
from gme.zoo import bell_state, max_entangled, tiles_upb, two_by_d_theta_subspace

from conftest import random_density, random_pure


def test_tensor_product_kets():
    """|0> (x) |1> = (0, 1, 0, 0)."""
    out = tensor_product([1, 0], [0, 1])
    np.testing.assert_allclose(out, [0, 1, 0, 0])


def test_tensor_product_identity():
    np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_product_block_structure(rng):
    """Each 2x2 block of rho_A (x) rho_B is (rho_A)_ij * rho_B."""
    a = random_density((2,), rng).matrix
    b = random_density((2,), rng).matrix
    out = tensor_product(a, b)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2], a[i, j] * b)


def test_tensor_product_mixed_operands_rejected():
    with pytest.raises(StateError):
        tensor_product([1, 0], np.eye(2))


def test_partial_trace_bell():
    rho = bell_state().to_density_matrix()
    red = partial_trace(rho, (1,))
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_factor(rng):
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    joint = DensityMatrix(tensor_product(a.matrix, b.matrix), (2, 3))
    np.testing.assert_allclose(partial_trace(joint, (1,)).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (0,)).matrix, b.matrix, atol=1e-12)


def test_partial_trace_diagonal():
    rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), (2, 2))
    np.testing.assert_allclose(partial_trace(rho, (1,)).matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_invalid_party():
    rho = bell_state().to_density_matrix()
    with pytest.raises(StateError):
        partial_trace(rho, (2,))


def test_partial_transpose_bell_min_eig():
    """Eigensolve of the explicit 4x4 partial transpose gives -1/2."""
    rho = bell_state().to_density_matrix()
    pt = partial_transpose(rho, (0,))
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12


def test_partial_transpose_product_psd(rng):
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    joint = DensityMatrix(tensor_product(a.matrix, b.matrix), (2, 3))
    pt = partial_transpose(joint, (0,))
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_partial_transpose_involution_trace_hermiticity(rng):
    from gme.states import _partial_transpose_arr

    rho = random_density((2, 3), rng)
    pt = partial_transpose(rho, (0,))
    np.testing.assert_allclose(pt, pt.conj().T)
    assert abs(np.trace(pt).real - 1.0) < 1e-14
    twice = _partial_transpose_arr(pt, rho.dims, (0,))
    np.testing.assert_array_equal(twice, rho.matrix)


def test_schmidt_bell():
    sd = schmidt_decompose(bell_state(), (0,))
    np.testing.assert_allclose(sd.coefficients, [2**-0.5, 2**-0.5], atol=1e-14)


def test_schmidt_product_state(rng):
    psi = random_pure((3,), rng)
    phi = random_pure((4,), rng)
    joint = PureState(tensor_product(psi.amplitudes, phi.amplitudes), (3, 4))
    sd = schmidt_decompose(joint, (0,))
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients, [1.0], atol=1e-12)


def test_schmidt_known_spectrum():
    """The 4x4 example state has reduced spectrum (2/5, 2/5, 1/10, 1/10)."""
    amps = np.zeros(16, dtype=complex)
    amps[[0, 5, 10, 15]] = np.sqrt([2 / 5, 2 / 5, 1 / 10, 1 / 10])
    psi = PureState(amps, (4, 4))
    sd = schmidt_decompose(psi, (0,))
    np.testing.assert_allclose(sd.coefficients**2, [2 / 5, 2 / 5, 1 / 10, 1 / 10], atol=1e-14)


def test_schmidt_reconstruction_random_layouts(rng):
    """Reconstruction error below 1e-10 on 100 random states of random layouts."""
    layouts = [(2, 2), (2, 3), (4, 4), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2), (8, 8), (3, 3, 5)]
    for trial in range(100):
        dims = layouts[trial % len(layouts)]
        psi = random_pure(dims, rng)
        n = len(dims)
        size = max(1, int(rng.integers(1, n)))
        left = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        if len(left) == n:
            left = left[:-1]
        sd = schmidt_decompose(psi, left)
        assert np.all(np.diff(sd.coefficients) <= 1e-14)
        right = tuple(i for i in range(n) if i not in left)
        rebuilt = sd.reconstruct()
        reference = permute_parties_vector(psi.amplitudes, dims, left + right)
        assert np.linalg.norm(rebuilt - reference) < 1e-10
        b = sd.right_basis
        np.testing.assert_allclose(b.conj().T @ b, np.eye(sd.rank), atol=1e-10)


@pytest.mark.parametrize("measure", [schmidt_decompose, schmidt_spectrum,
                                     lambda psi, parts: k_gme_pure(psi, parts, 2),
                                     entanglement_entropy],
                         ids=["schmidt_decompose", "schmidt_spectrum", "k_gme_pure",
                              "entanglement_entropy"])
def test_bipartition_of_every_party_refused(measure):
    """A "bipartition" that names every party has no complement to cut against."""
    with pytest.raises(StateError, match="non-empty complement"):
        measure(bell_state(), (0, 1))


def test_schmidt_zero_vector_rejected():
    with pytest.raises(StateError):
        PureState(np.zeros(4), (2, 2))


def test_complement_projector_single_vector():
    ket00 = PureState([1, 0, 0, 0], (2, 2))
    proj = complement_projector([ket00])
    assert proj.rank == 3
    assert np.linalg.norm(proj.matrix @ ket00.amplitudes) < 1e-12
    np.testing.assert_allclose(proj.matrix @ proj.matrix, proj.matrix, atol=1e-10)
    np.testing.assert_allclose(proj.matrix, proj.matrix.conj().T, atol=1e-12)


def test_complement_projector_tiles_upb():
    """The five-state tiles basis leaves a rank-4 complement in 3x3."""
    proj = complement_projector(tiles_upb())
    assert proj.rank == 4
    assert abs(np.trace(proj.matrix).real - 4) < 1e-8


def test_complement_projector_duplicate_invariance(rng):
    states = [random_pure((2, 2), rng) for _ in range(2)]
    p1 = complement_projector(states)
    p2 = complement_projector(states + states)
    np.testing.assert_allclose(p1.matrix, p2.matrix, atol=1e-10)
    assert p1.rank == p2.rank


def test_fidelity_self(rng):
    rho = random_density((2, 2), rng)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_orthogonal_pure():
    z = PureState([1, 0], (2,)).to_density_matrix()
    o = PureState([0, 1], (2,)).to_density_matrix()
    assert fidelity(z, o) < 1e-12


def test_fidelity_pure_vs_mixed():
    z = PureState([1, 0], (2,)).to_density_matrix()
    mixed = DensityMatrix(np.eye(2) / 2, (2,))
    assert abs(fidelity(z, mixed) - 0.5) < 1e-12


def test_fidelity_symmetry_and_pure_overlap(rng):
    r1, r2 = random_density((3,), rng), random_density((3,), rng)
    assert abs(fidelity(r1, r2) - fidelity(r2, r1)) < 1e-10
    psi, phi = random_pure((4,), rng), random_pure((4,), rng)
    f = fidelity(psi.to_density_matrix(), phi.to_density_matrix())
    assert abs(f - abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2) < 1e-10


def test_fidelity_dimension_mismatch(rng):
    with pytest.raises(StateError):
        fidelity(random_density((2,), rng), random_density((3,), rng))


def test_haar_sample_norm_and_determinism():
    s1 = sample_haar_pure((3, 3), 42)
    s2 = sample_haar_pure((3, 3), 42)
    assert abs(np.linalg.norm(s1.amplitudes) - 1.0) < 1e-12
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    s3 = sample_haar_pure((3, 3), 43)
    assert not np.array_equal(s1.amplitudes, s3.amplitudes)


def test_haar_overlap_mean():
    """Mean |<0|psi>|^2 over Haar samples is 1/d within three standard errors."""
    d, n = 4, 100_000
    rng = np.random.default_rng(7)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    overlaps = np.abs(z[:, 0]) ** 2
    se = overlaps.std() / np.sqrt(n)
    assert abs(overlaps.mean() - 1.0 / d) < 3 * se


def test_depolarizing_endpoints(rng):
    rho = random_density((2, 2), rng)
    np.testing.assert_allclose(apply_depolarizing(rho, 0.0).matrix, rho.matrix, atol=1e-15)
    np.testing.assert_allclose(apply_depolarizing(rho, 1.0).matrix, np.eye(4) / 4, atol=1e-15)
    assert abs(np.trace(apply_depolarizing(rho, 0.37).matrix).real - 1.0) < 1e-12
    with pytest.raises(StateError):
        apply_depolarizing(rho, 1.5)


def test_density_matrix_invariants(rng):
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = 1e-11  # below the symmetrization threshold
    dm = DensityMatrix(mat, (2,))
    np.testing.assert_allclose(dm.matrix, dm.matrix.conj().T)
    bad = np.eye(2, dtype=complex) / 2
    bad[0, 1] = 1e-3
    with pytest.raises(StateError):
        DensityMatrix(bad, (2,))
    with pytest.raises(StateError):
        DensityMatrix(np.diag([0.9, 0.2]), (2,))
    with pytest.raises(StateError):
        DensityMatrix(np.diag([1.5, -0.5]), (2,))


def test_partial_trace_composes_with_tensor_product(rng):
    """Tracing a random k-party product recovers each factor."""
    for _ in range(10):
        a = random_density((2,), rng)
        b = random_density((2,), rng)
        c = random_density((3,), rng)
        joint = DensityMatrix(
            tensor_product(tensor_product(a.matrix, b.matrix), c.matrix), (2, 2, 3)
        )
        np.testing.assert_allclose(partial_trace(joint, (1, 2)).matrix, a.matrix, atol=1e-10)
        np.testing.assert_allclose(partial_trace(joint, (0, 2)).matrix, b.matrix, atol=1e-10)
        np.testing.assert_allclose(partial_trace(joint, (0, 1)).matrix, c.matrix, atol=1e-10)


def test_max_entangled_spectrum():
    lam = schmidt_spectrum(max_entangled(5), (0,))
    np.testing.assert_allclose(lam, np.full(5, 0.2), atol=1e-14)


@pytest.mark.parametrize("make, number", [
    (lambda: PureState(np.array([1.0, 0.1]), (2,)), "state norm 1.004987562112089 "),
    (lambda: DensityMatrix(np.diag([0.6, 0.5]), (2,)), "trace 1.1 "),
], ids=["pure-norm", "mixed-trace"])
def test_refusals_print_plain_numbers(make, number):
    with pytest.raises(StateError) as info:
        make()
    assert number in str(info.value) and "np." not in str(info.value)


def test_nan_states_refused():
    """A NaN entry fails the norm, trace or asymmetry check, not a later routine."""
    amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    amps[1] = np.nan
    with pytest.raises(StateError):
        PureState(amps, (2, 2))
    for entry in ((0, 0), (0, 1)):
        mat = np.eye(2, dtype=complex) / 2
        mat[entry] = np.nan
        with pytest.raises(StateError):
            DensityMatrix(mat, (2,))


@pytest.mark.parametrize("make", [
    lambda: OptimizerConfig(seed=1.5),
    lambda: ExperimentConfig(n_samples=10, seed=1.5),
    lambda: sample_haar_pure((2, 2), 1.5),
    lambda: haar_sample_spectra((2, 2), 3, 1.5),
    lambda: perturbation_experiment(two_by_d_theta_subspace(3, 1.0), 2, 0.1, trials=1, seed=0.5),
    lambda: OptimizerConfig(restarts=2.5),
    lambda: OptimizerConfig(max_iterations=10.5),
    lambda: ExperimentConfig(n_samples=2.5),
    lambda: ExperimentConfig(n_samples=10, n_bins=2.5),
    lambda: perturbation_experiment(two_by_d_theta_subspace(3, 1.0), 2, 0.1, trials=1.5, seed=0),
], ids=["optimizer-seed", "experiment-seed", "haar-pure-seed", "haar-spectra-seed", "perturbation-seed",
        "restarts", "max-iterations", "n-samples", "n-bins", "trials"])
def test_seeds_and_counts_must_be_integers(make):
    """A non-integer seed or count is refused where it arrives, not by NumPy later on."""
    with pytest.raises(StateError, match="must be an integer"):
        make()


def test_numpy_integer_seeds_and_counts_pass():
    cfg = OptimizerConfig(restarts=np.int64(2), max_iterations=np.int32(5), seed=np.int64(3))
    assert cfg.restarts == 2 and cfg.seed == 3
    assert ExperimentConfig(n_samples=np.int64(4), seed=np.uint8(1), n_bins=np.int16(3)).n_samples == 4
    np.testing.assert_array_equal(sample_haar_pure((2, 2), np.int64(7)).amplitudes,
                                  sample_haar_pure((2, 2), 7).amplitudes)
