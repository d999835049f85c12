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
    make_bipartite_roof,
    make_mixed_roof,
    perturbation_experiment,
    range_lower_bound,
    range_subspace,
)
from gme.trivializations import BoundedRankAnsatz
from gme.zoo import (
    dicke_mixture_state,
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
    werner_gme,
    werner_state,
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mixed_multipartite_roof_at_k_3(seed):
    """The n-party k = 3 roof of dicke_mixture(4, 1, 2, 0.3) is seed-independent
    and below the k = 2 product roof."""
    rho = dicke_mixture_state(4, 1, 2, 0.3)
    cfg = OptimizerConfig(restarts=3, max_iterations=300, seed=seed)
    est = kgme_mixed(rho, 3, config=cfg)
    assert abs(est.value - 0.0522153220) < 1e-8
    assert np.ptp(est.per_restart_values) < 1e-8
    assert est.value < gme_mixed_multipartite(rho, config=cfg).value


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


def _roof_share(rho, k, x):
    """The two-party roof's value at the Stiefel point x: its parameters are x's entries as interleaved reals."""
    return make_bipartite_roof(rho, k, x.shape[0]).fun(np.ascontiguousarray(x).view(float).ravel())


def test_roof_truncation_cross_check():
    """The two-party roof's optimized value is its tail share at its best point."""
    rho = isotropic_state(2, 0.9)
    est = kgme_mixed(rho, 2, n_entries=8, config=FAST.with_(restarts=3))
    assert make_bipartite_roof(rho, 2, 8).fun(est.best_params) == est.value


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_two_party_roof_reaches_the_isotropic_closed_form(seed):
    """At k = 4 on isotropic(4, 0.9) the closest states in closed form leave no gap."""
    cfg = OptimizerConfig(restarts=2, max_iterations=300, seed=seed)
    est = kgme_mixed(isotropic_state(4, 0.9), 4, n_entries=20, config=cfg)
    assert abs(est.value - isotropic_kgme(4, 0.9, 4)) < 1e-12


def test_roof_truncation_refuses_more_than_two_parties():
    """Three parties have no single Schmidt cut; the W state's 5/9 is not a tail of 2 x 2 slices."""
    with pytest.raises(StateError, match="bipartite"):
        make_bipartite_roof(w_state().to_density_matrix(), 2, 4)


@pytest.mark.parametrize("k, dims", [(2, (3, 4)), (3, (3, 4)), (2, (4, 3)), (3, (4, 3))],
                         ids=["2", "3", "2-4x3", "3-4x3"])
def test_roof_truncation_matches_the_per_entry_loop(rng, k, dims):
    """The reduced Gram eigenvectors give the tail share of the per-entry SVDs."""
    from conftest import random_density

    from gme.variational import _rho_eigendata

    rho = random_density(dims, rng, rank=5)
    lam_tilde, rank = _rho_eigendata(rho)
    x = random_unitary(9, rng)[:, :rank]  # a random point of the Stiefel manifold, 9 entries
    psit = lam_tilde @ x.T
    tail = weight = 0.0
    for i in range(x.shape[0]):
        s = np.linalg.svd(psit[:, i].reshape(dims), compute_uv=False)
        tail += float((s[k - 1 :] ** 2).sum())
        weight += float((s**2).sum())
    assert abs(_roof_share(rho, k, x) - tail / weight) <= 1e-14


@pytest.mark.parametrize("dims", [(3, 4), (4, 3)], ids=["3x4", "4x3"])
@pytest.mark.parametrize("k", [4, 5])
def test_roof_tail_vanishes_past_the_smaller_dimension(rng, k, dims):
    """Every entry has Schmidt rank <= 3 < k, so value and gradient are exactly 0."""
    from conftest import random_density

    rho = random_density(dims, rng, rank=5)
    assert _roof_share(rho, k, random_unitary(9, rng)[:, :5]) == 0.0
    obj = make_bipartite_roof(rho, k, 9)
    value, grad = obj.fun_grad(rng.standard_normal((2, obj.input_len)))
    assert not value.any() and not grad.any()


@pytest.mark.parametrize("k", [0, 1, -1])
def test_roof_truncation_refuses_k_below_2(k):
    """Negative indices would wrap k = 0 and -1 around to the k = 3 and k = 2 tails."""
    with pytest.raises(StateError, match="k >= 2"):
        make_bipartite_roof(isotropic_state(3, 0.7), k, 9)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_roof_refuses_non_finite_parameters(bad):
    """A StateError, not the LinAlgError of a NaN in the polar factor."""
    obj = make_bipartite_roof(isotropic_state(3, 0.7), 2, 9)
    theta = np.zeros(obj.input_len)
    theta[5] = bad
    with pytest.raises(StateError, match="finite"):
        obj.fun(theta)


def test_counts_and_ranks_must_be_integers():
    """A fractional entry count or k is refused, not truncated or left to fail inside NumPy."""
    cfg = OptimizerConfig(restarts=1, max_iterations=5)
    with pytest.raises(StateError, match="n_entries must be an integer"):
        kgme_mixed(isotropic_state(2, 0.8), 2, 4.7, cfg)
    with pytest.raises(StateError, match="k must be an integer"):
        kgme_pure_multipartite(ghz_state(), 2.5, cfg)
    with pytest.raises(StateError, match="n_entries must be an integer"):
        gme_mixed_multipartite(upb_shifts_state(), 8.5, cfg)
    est = kgme_mixed(isotropic_state(2, 0.8), np.int64(2), np.int32(5), cfg)
    assert est.best_params.size == 2 * 5 * 4


def test_joint_roof_refuses_closest_states_of_another_layout():
    """Caught when the objective is built, not as a broadcasting error at its first evaluation."""
    with pytest.raises(StateError, match="layout"):
        make_mixed_roof(upb_shifts_state(), BoundedRankAnsatz((2, 2), 2), 5)


@pytest.mark.parametrize("rho, k, exact, seed", [
    (isotropic_state(4, 1.0), 2, isotropic_kgme(4, 1.0, 2), 0),
    (isotropic_state(4, 1.0), 3, isotropic_kgme(4, 1.0, 3), 0),
    (isotropic_state(4, 1.0), 4, isotropic_kgme(4, 1.0, 4), 0),
    (werner_state(4, 1.0), 2, werner_gme(4, 1.0), 4),
], ids=["isotropic-k2", "isotropic-k3", "isotropic-k4", "werner-k2"])
def test_two_party_roof_is_not_below_the_closed_form(rho, k, exact, seed):
    """The regularized polar factor is a contraction; the tail share does not shrink with it."""
    cfg = OptimizerConfig(restarts=2, max_iterations=300, seed=seed)
    assert kgme_mixed(rho, k, n_entries=20, config=cfg).value >= exact - 1e-15


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
    assert kgme_subspace(shifts, 2, MULTI).value == gme_subspace_multipartite(shifts, MULTI).value
    rho, cfg = upb_shifts_state(), MULTI.with_(max_iterations=300)
    roof = kgme_mixed(rho, 2, n_entries=10, config=cfg).value
    assert roof == gme_mixed_multipartite(rho, n_entries=10, config=cfg).value


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


@pytest.mark.parametrize("norm_bound", [np.nan, np.inf], ids=["nan", "inf"])
def test_perturbation_refuses_a_non_finite_norm_bound(norm_bound):
    sub = two_by_d_theta_subspace(3, np.pi / 2)
    with pytest.raises(StateError, match="norm_bound"):
        perturbation_experiment(sub, 2, norm_bound, trials=1, seed=0, config=FAST)


@pytest.mark.parametrize("trials, seed", [(0, 0), (-2, 0), (1, -1)], ids=["no-trials", "negative-trials", "negative-seed"])
def test_perturbation_refuses_bad_trials_and_seed(trials, seed):
    sub = two_by_d_theta_subspace(3, np.pi / 2)
    with pytest.raises(StateError):
        perturbation_experiment(sub, 2, 0.1, trials=trials, seed=seed, config=FAST)
