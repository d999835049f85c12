"""Exact pure-state measures and LOCC transformation laws."""

import numpy as np
import pytest
from scipy import optimize as sopt

from gme.pure import (
    concurrence_2q,
    concurrence_pure,
    distill_curve,
    distill_probability,
    entanglement_entropy,
    eof_2q,
    k_gme_pure,
    linear_entropy,
    majorization,
    nielsen_transformable,
    vidal_probability,
)
from gme.haar import distill_success, haar_sample_spectra, tail_measures
from gme.states import RANK_CUTOFF, PureState, StateError, schmidt_spectrum, tensor_product
from gme.trivializations import complex_from_reals, polar
from gme.zoo import bell_state, max_entangled, werner_state

from conftest import random_pure, random_unitary


def _vec(entries, dims):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    for idx, val in entries.items():
        amps[idx] = val
    return PureState(amps / np.linalg.norm(amps), dims)


def example_pair_332():
    """The 4x4 pair with spectra (2/5, 2/5, 1/10, 1/10) and (1/2, 1/4, 1/4)."""
    psi = _vec(
        {0: np.sqrt(2 / 5), 5: np.sqrt(2 / 5), 10: np.sqrt(1 / 10), 15: np.sqrt(1 / 10)},
        (4, 4),
    )
    phi = _vec({0: np.sqrt(1 / 2), 5: np.sqrt(1 / 4), 10: np.sqrt(1 / 4)}, (4, 4))
    return psi, phi


def catalyst_22():
    return _vec({0: np.sqrt(3 / 5), 3: np.sqrt(2 / 5)}, (2, 2))


def test_k_gme_bell():
    assert abs(k_gme_pure(bell_state(), (0,), 2) - 0.5) < 1e-14


def test_k_gme_k1_convention(rng):
    psi = random_pure((3, 3), rng)
    assert k_gme_pure(psi, (0,), 1) == 1.0


def test_k_gme_known_tail():
    psi, _ = example_pair_332()
    assert abs(k_gme_pure(psi, (0,), 3) - 1 / 5) < 1e-12
    assert k_gme_pure(psi, (0,), 5) == 0.0


def test_k_gme_is_the_one_schmidt_tail(rng):
    """k_gme_pure and the Haar tail read E^(k) from one formula: equal bits, a tiny tail kept."""
    states = [random_pure((4, 4), rng) for _ in range(1000)] + [_vec({0: 1.0, 3: 1e-10}, (2, 2))]
    for psi in states:
        lam = schmidt_spectrum(psi, (0,))
        for k in range(2, lam.size + 1):
            assert k_gme_pure(psi, (0,), k) == tail_measures(lam[None], [k])[k][0]
    assert k_gme_pure(states[-1], (0,), 2) == pytest.approx(1e-20, rel=1e-12)


def test_k_gme_monotone_in_k(rng):
    for _ in range(20):
        psi = random_pure((4, 4), rng)
        vals = [k_gme_pure(psi, (0,), k) for k in range(1, 6)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_entropy_values():
    assert abs(entanglement_entropy(bell_state(), (0,)) - 1.0) < 1e-12
    prod = PureState([1, 0, 0, 0], (2, 2))
    assert entanglement_entropy(prod, (0,)) == 0.0
    for d in (3, 5):
        assert abs(entanglement_entropy(max_entangled(d), (0,)) - np.log2(d)) < 1e-12


def test_concurrence_pure_values(rng):
    assert abs(concurrence_pure(bell_state(), (0,)) - 1.0) < 1e-12
    prod = PureState([0, 1, 0, 0], (2, 2))
    assert concurrence_pure(prod, (0,)) < 1e-12
    psi = random_pure((2, 3), rng)
    assert abs(linear_entropy(psi, (0,)) - concurrence_pure(psi, (0,)) ** 2 / 2) < 1e-12


def test_two_qubit_geometric_measure_from_concurrence(rng):
    """E_G = (1 - sqrt(1 - C^2)) / 2 for two-qubit pure states."""
    for _ in range(25):
        psi = random_pure((2, 2), rng)
        c = concurrence_pure(psi, (0,))
        expected = 0.5 * (1.0 - np.sqrt(max(0.0, 1.0 - c * c)))
        assert abs(k_gme_pure(psi, (0,), 2) - expected) < 1e-10


def test_concurrence_2q_bell_and_separable():
    rho = bell_state().to_density_matrix()
    assert abs(concurrence_2q(rho) - 1.0) < 1e-12
    assert abs(eof_2q(rho) - 1.0) < 1e-12
    from gme.states import DensityMatrix

    diag = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
    assert concurrence_2q(diag) == 0.0
    assert eof_2q(diag) == 0.0
    with pytest.raises(StateError):
        concurrence_2q(DensityMatrix(np.eye(9) / 9, (3, 3)))


def _eof_roof_search(rho, restarts=8, seed=0):
    """Independent convex-roof minimization over Stiefel decompositions.

    Randomized restarts with local descent over decomposition sizes 2..6;
    never touches the spin-flip formula.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-12
    lam_tilde = vecs[:, keep] * np.sqrt(vals[keep])
    r = lam_tilde.shape[1]

    def avg_eof(theta, n):
        x = polar(complex_from_reals(theta).reshape(n, r))
        psit = lam_tilde @ x.T
        total = 0.0
        for i in range(n):
            p = np.real(np.vdot(psit[:, i], psit[:, i]))
            if p < 1e-14:
                continue
            lam = np.linalg.svd(psit[:, i].reshape(rho.dims) / np.sqrt(p), compute_uv=False) ** 2
            lam = lam[lam > 1e-15]
            total += p * float(-(lam * np.log2(lam)).sum())
        return total

    best = np.inf
    for t in range(restarts):
        rng = np.random.default_rng(seed + t)
        n = int(rng.integers(max(2, r), 7))
        res = sopt.minimize(
            avg_eof, rng.standard_normal(2 * n * r), args=(n,), method="L-BFGS-B",
            options={"maxiter": 300},
        )
        best = min(best, res.fun)
    return best


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0])
def test_eof_2q_matches_roof_search(alpha):
    """Closed form agrees with an independent decomposition search."""
    rho = werner_state(2, alpha)
    closed = eof_2q(rho)
    searched = _eof_roof_search(rho)
    assert searched >= closed - 1e-8
    assert searched - closed < 1e-4


def test_majorization_basic():
    assert majorization([1, 0], [0.5, 0.5]).majorizes
    assert majorization([0.3, 0.7], [0.7, 0.3]).majorizes  # order-free
    assert not majorization([0.5, 0.5], [1, 0]).majorizes
    v = majorization([0.6, 0.4], [0.6, 0.4])
    assert v.majorizes and v.weakly_majorizes


def test_majorization_example_pair():
    psi, phi = example_pair_332()
    lam_psi = schmidt_spectrum(psi, (0,))
    lam_phi = schmidt_spectrum(phi, (0,))
    assert not majorization(lam_phi, lam_psi).majorizes


def test_nielsen_example_and_catalyst():
    psi, phi = example_pair_332()
    assert not nielsen_transformable(psi, phi)
    assert nielsen_transformable(psi, psi)
    omega = catalyst_22()
    src = PureState(tensor_product(psi.amplitudes, omega.amplitudes), (4, 4, 2, 2))
    dst = PureState(tensor_product(phi.amplitudes, omega.amplitudes), (4, 4, 2, 2))
    assert nielsen_transformable(src, dst, (0, 2))


def test_vidal_example_pair():
    psi, phi = example_pair_332()
    report = vidal_probability(psi, phi)
    assert abs(report.optimal_probability - 0.8) < 1e-12
    assert not report.deterministic_possible
    assert report.binding_index == 3


def test_vidal_trivial_cases(rng):
    rep = vidal_probability(bell_state(), bell_state())
    assert rep.optimal_probability == 1.0 and rep.deterministic_possible
    psi = random_pure((3, 3), rng)
    target = PureState([1, 0, 0, 0, 0, 0, 0, 0, 0], (3, 3))
    assert vidal_probability(psi, target).optimal_probability == 1.0


def _rotated_schmidt_state(lam, rng):
    """The 4 x 4 state with squared Schmidt coefficients lam (zero-padded), under random local unitaries."""
    c = np.sqrt(np.pad(lam, (0, 4 - len(lam))))
    mat = (random_unitary(4, rng) * c) @ random_unitary(4, rng).T
    return PureState(mat.ravel(), (4, 4))


def test_zero_schmidt_coefficients_stay_below_the_rank_cutoff(rng):
    """Vanishing coefficients of a rotated state square to far below RANK_CUTOFF^2.

    A reduced-Gram eigensolver leaves them near 4e-16; the rank rule then
    counts them, and Vidal's law divides rounding by rounding past rank 2.
    """
    for _ in range(200):
        a, b = np.sort(rng.uniform(0.05, 1.0, (2, 2)), axis=1)[:, ::-1]
        lam_psi, lam_phi = a / a.sum(), b / b.sum()
        psi, phi = _rotated_schmidt_state(lam_psi, rng), _rotated_schmidt_state(lam_phi, rng)
        expected = min(1.0, lam_psi[1] / lam_phi[1])
        assert abs(vidal_probability(psi, phi).optimal_probability - expected) <= 1e-12
    for r in (1, 2, 3):
        for _ in range(20):
            lam = rng.uniform(0.05, 1.0, r)
            psi = _rotated_schmidt_state(lam / lam.sum(), rng)
            assert k_gme_pure(psi, (0,), r + 1) <= RANK_CUTOFF**2


def test_distill_examples(rng):
    rep = distill_probability(bell_state(), 2)
    assert abs(rep.optimal_probability - 1.0) < 1e-12 and rep.deterministic_possible
    psi = _vec({0: np.sqrt(0.8), 3: np.sqrt(0.2)}, (2, 2))
    rep = distill_probability(psi, 2)
    assert abs(rep.optimal_probability - 0.4) < 1e-12
    for _ in range(10):
        state = random_pure((4, 4), rng)
        lam = schmidt_spectrum(state, (0,))
        rep = distill_probability(state, 4)
        assert abs(rep.optimal_probability - 4 * lam[-1]) < 1e-12
    with pytest.raises(StateError):
        distill_probability(psi, 3)


def test_distill_target_below_one_named_as_such():
    """The message of ``haar.distill_success``, which shares the rule."""
    with pytest.raises(StateError, match="m=0 must be at least 1"):
        distill_probability(bell_state(), 0)


def test_distill_monotone_in_m(rng):
    for _ in range(20):
        psi = random_pure((4, 4), rng)
        probs = [distill_probability(psi, m).optimal_probability for m in range(1, 5)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))


def test_distill_curve_single_turning_point(rng):
    """Once B_n starts increasing it keeps increasing, on 1000 random spectra."""
    for _ in range(1000):
        lam = rng.dirichlet(np.ones(4))
        b = distill_curve(lam, 4)
        rising = False
        for x, y in zip(b, b[1:]):
            if rising:
                assert y >= x - 1e-12
            elif y > x + 1e-12:
                rising = True


def test_distill_matches_tail_sum_loop(rng):
    """Both distillation callers equal the per-n tail-sum loop bit for bit."""
    lam = haar_sample_spectra((4, 4), 200, 0)
    lam = np.vstack([lam, [[0.25] * 4, [1.0, 0, 0, 0], [0.4, 0.4, 0.1, 0.1]]])
    for m in range(1, 5):
        best = np.full(lam.shape[0], np.inf)
        for n in range(1, m + 1):
            best = np.minimum(best, (m / n) * lam[:, m - n :].sum(axis=1))
        np.testing.assert_array_equal(distill_success(lam, m), np.clip(best, 0.0, 1.0))
    for state in [bell_state(), max_entangled(3)] + [random_pure((4, 4), rng) for _ in range(50)]:
        spec = schmidt_spectrum(state, (0,))
        for m in range(1, spec.size + 1):
            best, best_n = np.inf, 1
            for n in range(1, m + 1):
                val = (m / n) * (1.0 if n == m else max(0.0, spec[m - n :].sum()))  # E^(1) = 1
                if val < best:
                    best, best_n = val, n
            rep = distill_probability(state, m)
            assert (rep.optimal_probability, rep.binding_index) == (float(min(1.0, best)), best_n)


def test_local_unitary_invariance(rng):
    """All Schmidt-derived measures are invariant under U_A (x) U_B."""
    for _ in range(10):
        psi = random_pure((3, 4), rng)
        u = np.kron(random_unitary(3, rng), random_unitary(4, rng))
        rotated = PureState(u @ psi.amplitudes, (3, 4))
        for k in (2, 3):
            assert abs(k_gme_pure(psi, (0,), k) - k_gme_pure(rotated, (0,), k)) < 1e-10
        assert abs(entanglement_entropy(psi, (0,)) - entanglement_entropy(rotated, (0,))) < 1e-10
        assert abs(concurrence_pure(psi, (0,)) - concurrence_pure(rotated, (0,))) < 1e-10


def test_vidal_deterministic_iff_nielsen(rng):
    """p = 1 exactly when the majorization condition holds, over 200 random pairs."""
    agree = 0
    for _ in range(200):
        psi, phi = random_pure((3, 3), rng), random_pure((3, 3), rng)
        p = vidal_probability(psi, phi).optimal_probability
        det = nielsen_transformable(psi, phi)
        assert (p >= 1.0 - 1e-10) == det
        agree += 1
    assert agree == 200
