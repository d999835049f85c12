"""Variational k-GME estimates against exact oracles on fast instances."""

import numpy as np
import pytest

from gme.optimizers import OptimizerConfig
from gme.pure import k_gme_pure
from gme.states import DensityMatrix, PureState, StateError, Subspace
from gme.variational import (
    default_n_entries,
    gme_mixed_multipartite,
    gme_subspace_multipartite,
    kgme_mixed,
    kgme_pure_multipartite,
    kgme_subspace,
    perturbation_experiment,
    range_lower_bound,
    range_subspace,
    roof_truncation_value,
)
from gme.trivializations import BoundedRankAnsatz, RoofAnsatz, Stiefel, polar
from gme.zoo import (
    dicke_state,
    ghz_state,
    isotropic_kgme,
    isotropic_state,
    shifts_complement_subspace,
    tiles_complement_subspace,
    two_by_d_theta_gme,
    two_by_d_theta_subspace,
    upb_shifts_state,
    upb_tiles_state,
    w_state,
)

from conftest import random_pure, random_unitary

FAST = OptimizerConfig(restarts=4, max_iterations=500)


def test_ghz_and_w():
    assert abs(kgme_pure_multipartite(ghz_state(), 2, FAST).value - 0.5) < 1e-6
    assert abs(kgme_pure_multipartite(w_state(), 2, FAST).value - 5 / 9) < 1e-6


def test_bipartite_matches_schmidt_oracle(rng):
    """The multipartite optimizer reproduces the closed Schmidt tail."""
    for _ in range(4):
        psi = random_pure((3, 3), rng)
        for k in (2, 3):
            exact = k_gme_pure(psi, (0,), k)
            est = kgme_pure_multipartite(psi, k, FAST)
            assert abs(est.value - exact) < 1e-8


def test_estimate_fields():
    est = kgme_pure_multipartite(ghz_state(), 2, FAST)
    assert est.value == est.per_restart_values.min()
    assert 0.0 <= est.value <= 1.0 + 1e-10
    with pytest.raises(StateError):
        kgme_pure_multipartite(ghz_state(), 1, FAST)


def test_subspace_theta_family():
    for theta in (np.pi / 2, np.pi / 4):
        sub = two_by_d_theta_subspace(3, theta)
        est = kgme_subspace(sub, 2, FAST)
        assert abs(est.value - two_by_d_theta_gme(3, theta)) < 1e-6


def test_subspace_full_space_is_zero(rng):
    states = [PureState(np.eye(4)[i], (2, 2)) for i in range(4)]
    sub = Subspace.from_states(states)
    assert kgme_subspace(sub, 2, FAST).value < 1e-10


def test_mixed_pure_input_matches_pure_measure(rng):
    """A rank-one roof reduces to the pure-state tail."""
    psi = random_pure((3, 3), rng)
    rho = psi.to_density_matrix()
    for k in (2, 3):
        est = kgme_mixed(rho, k, n_entries=3, config=FAST)
        assert abs(est.value - k_gme_pure(psi, (0,), k)) < 1e-6


def test_mixed_more_entries_never_raise(rng):
    rho = isotropic_state(3, 0.75)
    small = kgme_mixed(rho, 2, n_entries=12, config=FAST.with_(restarts=2)).value
    large = kgme_mixed(rho, 2, n_entries=18, config=FAST.with_(restarts=2)).value
    assert large <= small + 1e-6


def test_mixed_matches_isotropic_oracle():
    rho = isotropic_state(3, 0.8)
    est = kgme_mixed(rho, 2, n_entries=12, config=FAST.with_(restarts=2))
    assert abs(est.value - isotropic_kgme(3, 0.8, 2)) < 1e-5


def test_mixed_monotone_in_k():
    rho = isotropic_state(3, 0.9)
    vals = [kgme_mixed(rho, k, n_entries=12, config=FAST.with_(restarts=2)).value for k in (2, 3)]
    assert vals[0] >= vals[1] - 1e-6


def test_mixed_convexity(rng):
    from conftest import random_density

    cfg = FAST.with_(restarts=2)
    r1 = random_density((2, 2), rng, rank=2)
    r2 = random_density((2, 2), rng, rank=2)
    mix = DensityMatrix(0.5 * r1.matrix + 0.5 * r2.matrix, (2, 2))
    e1 = kgme_mixed(r1, 2, n_entries=8, config=cfg).value
    e2 = kgme_mixed(r2, 2, n_entries=8, config=cfg).value
    em = kgme_mixed(mix, 2, n_entries=8, config=cfg).value
    assert em <= 0.5 * e1 + 0.5 * e2 + 1e-5


def test_mixed_local_unitary_stability(rng):
    rho = isotropic_state(2, 0.85)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
    cfg = FAST.with_(restarts=3)
    a = kgme_mixed(rho, 2, n_entries=8, config=cfg).value
    b = kgme_mixed(rotated, 2, n_entries=8, config=cfg).value
    assert abs(a - b) < 1e-5


def test_mixed_requires_enough_entries():
    rho = isotropic_state(3, 0.8)
    with pytest.raises(StateError):
        kgme_mixed(rho, 2, n_entries=3, config=FAST)


def test_default_n_entries_formula():
    rho = isotropic_state(2, 0.5)  # full rank 4 on a 4-dimensional space
    assert default_n_entries(rho) == 16


def test_roof_truncation_cross_check():
    """At the optimized Stiefel point the exact inner maximization agrees."""
    rho = isotropic_state(2, 0.9)
    est = kgme_mixed(rho, 2, n_entries=8, config=FAST.with_(restarts=3))
    ansatz = RoofAnsatz(8, 4, BoundedRankAnsatz((2, 2), 2))
    th_x, _ = ansatz.split(est.best_params)
    x = polar(Stiefel(8, 4).matrix(th_x))
    truncated = roof_truncation_value(rho, 2, x)
    assert truncated <= est.value + 1e-8
    assert abs(truncated - est.value) < 1e-5


@pytest.mark.parametrize("k", [2, 3])
def test_roof_truncation_matches_the_per_entry_loop(rng, k):
    """The batched SVD gives the per-entry sum of tail singular-value mass."""
    from conftest import random_density

    from gme.variational import _rho_eigendata

    rho = random_density((3, 4), rng, rank=5)
    lam_tilde, rank = _rho_eigendata(rho)
    x = random_unitary(9, rng)[:, :rank]  # a random point of the Stiefel manifold, 9 entries
    psit = lam_tilde @ x.T
    loop = 0.0
    for i in range(x.shape[0]):
        s = np.linalg.svd(psit[:, i].reshape(3, 4), compute_uv=False)
        loop += float((s[k - 1 :] ** 2).sum())
    assert abs(roof_truncation_value(rho, k, x) - loop) <= 1e-14


def test_multipartite_mixed_separable(rng):
    from conftest import random_density

    a = random_density((2,), rng)
    b = random_density((2,), rng)
    joint = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2))
    est = gme_mixed_multipartite(joint, n_entries=6, config=FAST.with_(restarts=2))
    assert est.value < 1e-8


# n-party k-bounded measures: tensor rank below k, as for pure states
MULTI = OptimizerConfig(restarts=3, max_iterations=400)
MULTI_STATES = {"ghz": ghz_state, "w": w_state, "dicke42": lambda: dicke_state(4, 2)}


@pytest.mark.parametrize("name, k", [("ghz", 2), ("ghz", 3), ("dicke42", 2), ("dicke42", 3), ("dicke42", 4)])
def test_multipartite_one_state_subspace_matches_pure_measure(name, k):
    psi = MULTI_STATES[name]()
    sub = kgme_subspace(Subspace.from_states([psi]), k, MULTI).value
    assert abs(sub - kgme_pure_multipartite(psi, k, MULTI).value) < 1e-10


def test_multipartite_border_rank_transitions():
    """W has border rank 2, so k = 3 tends to 0; D(4,2) keeps 0.25 at k = 3 (border rank 3)."""
    w = w_state()
    assert kgme_subspace(Subspace.from_states([w]), 3, MULTI).value <= 1e-8
    assert kgme_pure_multipartite(w, 3, MULTI).value <= 1e-8
    assert kgme_subspace(Subspace.from_states([dicke_state(4, 2)]), 3, MULTI).value > 0.2


def test_multipartite_bounded_rank_at_k_2_is_the_product_measure():
    shifts = shifts_complement_subspace()
    assert abs(kgme_subspace(shifts, 2, MULTI).value - gme_subspace_multipartite(shifts, MULTI).value) < 1e-6
    rho, cfg = upb_shifts_state(), MULTI.with_(max_iterations=300)
    roof = kgme_mixed(rho, 2, n_entries=10, config=cfg).value
    assert abs(roof - gme_mixed_multipartite(rho, n_entries=10, config=cfg).value) < 1e-6


def test_range_lower_bound_cases(rng):
    psi = random_pure((3, 3), rng)
    rho = psi.to_density_matrix()
    assert abs(range_lower_bound(rho, 2, FAST) - k_gme_pure(psi, (0,), 2)) < 1e-6
    full = isotropic_state(2, 0.6)
    assert range_lower_bound(full, 2, FAST) < 1e-10
    tiles_rho = upb_tiles_state()
    sub_value = kgme_subspace(tiles_complement_subspace(), 2, FAST).value
    assert abs(range_lower_bound(tiles_rho, 2, FAST) - sub_value) < 1e-6


def test_range_subspace_matches_eigensupport():
    rho = upb_tiles_state()
    assert range_subspace(rho).dimension == 4


def test_perturbation_zero_norm():
    sub = two_by_d_theta_subspace(3, np.pi / 2)
    base = kgme_subspace(sub, 2, FAST).value
    rep = perturbation_experiment(sub, 2, 0.0, trials=2, seed=0, config=FAST)
    assert abs(rep.min_value - base) < 1e-8


def test_perturbation_below_threshold_stays_entangled():
    sub = two_by_d_theta_subspace(3, np.pi / 2)
    bound = 0.8 * np.sqrt(two_by_d_theta_gme(3, np.pi / 2))
    rep = perturbation_experiment(sub, 2, bound, trials=4, seed=1, config=FAST)
    assert rep.min_value > 1e-10
    assert rep.mean_value >= rep.min_value


def test_perturbation_robustness_ordering():
    """Subspaces with larger measures keep larger minima under equal kicks."""
    minima = []
    for theta in (np.pi / 2, np.pi / 4, np.pi / 6):
        sub = two_by_d_theta_subspace(3, theta)
        rep = perturbation_experiment(sub, 2, 0.25, trials=4, seed=7, config=FAST)
        minima.append(rep.min_value)
    assert minima[0] > minima[1] > minima[2] > 0.0


@pytest.mark.parametrize("trials, seed", [(0, 0), (-2, 0), (1, -1)], ids=["no-trials", "negative-trials", "negative-seed"])
def test_perturbation_refuses_bad_trials_and_seed(trials, seed):
    sub = two_by_d_theta_subspace(3, np.pi / 2)
    with pytest.raises(StateError):
        perturbation_experiment(sub, 2, 0.1, trials=trials, seed=seed, config=FAST)
