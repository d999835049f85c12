"""Trivialization maps land on their target sets."""

import numpy as np
import pytest

from gme.states import StateError
from gme.trivializations import (
    BoundedRankAnsatz,
    Hermitian,
    Positive,
    ProductAnsatz,
    RoofAnsatz,
    Simplex,
    Sphere,
    Stiefel,
    Unitary,
    complex_from_reals,
    make_trivialization,
    polar,
    polar_vjp,
    trivialize,
)


def test_positive_at_zero():
    assert abs(Positive(1).value(np.zeros(1))[0] - np.log(2.0)) < 1e-14
    assert abs(trivialize(Positive(1), np.zeros(1))[0] - np.log(2.0)) < 1e-14


def test_sphere_example():
    np.testing.assert_allclose(Sphere(2).value(np.array([3.0, 4.0])), [0.6, 0.8])


def test_simplex_exp_at_zero():
    np.testing.assert_allclose(Simplex(2).value(np.zeros(2)), [0.5, 0.5])


def test_unitary_at_zero():
    np.testing.assert_allclose(Unitary(3).value(np.zeros(9)), np.eye(3), atol=1e-14)


def test_stiefel_polar_of_scaled_identity():
    theta = np.zeros(2 * 3 * 3)
    theta[0::2] = (2.0 * np.eye(3)).ravel()
    np.testing.assert_allclose(Stiefel(3, 3).value(theta), np.eye(3), atol=1e-10)


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("positive", {"n": 4}),
        ("simplex", {"n": 5}),
        ("sphere", {"n": 6}),
        ("hermitian", {"n": 3}),
        ("unitary", {"n": 3}),
        ("stiefel", {"n": 5, "r": 3}),
    ],
)
def test_constraints_at_random_points(kind, kwargs):
    """Every output satisfies the target-set constraints at 1000 random points."""
    t = make_trivialization(kind, **kwargs)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        theta = rng.standard_normal(t.input_len) * rng.uniform(0.2, 5.0)
        out = t.value(theta)
        if kind == "positive":
            assert np.all(out > 0)
        elif kind == "simplex":
            assert np.all(out > 0) and abs(out.sum() - 1.0) < 1e-10
        elif kind == "sphere":
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        elif kind == "hermitian":
            assert np.linalg.norm(out - out.conj().T) < 1e-10
        elif kind == "unitary":
            assert np.linalg.norm(out.conj().T @ out - np.eye(kwargs["n"])) < 1e-10
        elif kind == "stiefel":
            assert np.linalg.norm(out.conj().T @ out - np.eye(kwargs["r"])) < 1e-10


def test_ansatz_kinds_land_on_their_sets():
    rng = np.random.default_rng(3)
    prod = ProductAnsatz((2, 3, 2))
    for _ in range(100):
        vec = prod.value(rng.standard_normal(prod.input_len))
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
    bounded = BoundedRankAnsatz((3, 4), 3)
    for _ in range(100):
        vec = bounded.value(rng.standard_normal(bounded.input_len))
        s = np.linalg.svd(vec.reshape(3, 4), compute_uv=False)
        assert np.count_nonzero(s > 1e-12) <= 2
    roof = RoofAnsatz(6, 4, BoundedRankAnsatz((2, 2), 2))
    x, states = roof.value(rng.standard_normal(roof.input_len))
    assert np.linalg.norm(x.conj().T @ x - np.eye(4)) < 1e-10
    assert len(states) == 6


def test_polar_minimality_vector_case():
    """For n x 1 input the polar factor is the normalized vector."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
    np.testing.assert_allclose(polar(a), a / np.linalg.norm(a), atol=1e-9)


def test_polar_and_its_vjp_act_on_stacks():
    """Leading axes are a batch: each matrix of a stack gets its own result, exactly."""
    rng = np.random.default_rng(13)
    a, g = (rng.standard_normal((2, 3, 5, 4)) + 1j * rng.standard_normal((2, 3, 5, 4)) for _ in range(2))
    x, gram = polar(a, return_gram=True)
    cog = polar_vjp(a, g, gram=gram)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(x[idx], polar(a[idx]))
        np.testing.assert_array_equal(cog[idx], polar_vjp(a[idx], g[idx]))


def test_polar_minimality_sampling():
    """No random Stiefel point beats the polar factor in Frobenius distance."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x_star = polar(a)
    base = np.linalg.norm(x_star - a)
    for _ in range(10_000):
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = polar(b)
        assert np.linalg.norm(x - a) >= base - 1e-9


def test_hermitian_parameter_layout():
    """Column-major fill: theta_1..theta_n is the first column."""
    theta = np.arange(1.0, 5.0)
    h = Hermitian(2).value(theta)
    a = theta.reshape(2, 2, order="F")
    np.testing.assert_allclose(h, (a + a.T) + 1j * (a - a.T))


def test_non_finite_parameters_rejected():
    with pytest.raises(StateError):
        Sphere(3).value(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(StateError):
        make_trivialization("no_such_kind")


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3)])
def test_bounded_rank_at_k_2_is_the_product_ansatz(dims):
    """One product term carries no weight, so k = 2 is the product ansatz bit for bit."""
    bounded, product = BoundedRankAnsatz(dims, 2), ProductAnsatz(dims)
    assert bounded.input_len == product.input_len
    rng = np.random.default_rng(5)
    n = int(np.prod(dims))
    theta = rng.standard_normal((6, product.input_len))
    g = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    vec_b, pullback_b = bounded.value_and_pullback(theta)
    vec_p, pullback_p = product.value_and_pullback(theta)
    np.testing.assert_array_equal(vec_b, vec_p)
    np.testing.assert_array_equal(pullback_b(g), pullback_p(g))


@pytest.mark.parametrize("n, r", [(2, 4), (3, 0)], ids=["more-columns-than-rows", "no-columns"])
def test_stiefel_refuses_a_shape_with_no_isometry(n, r):
    """An n x r isometry needs 0 < r <= n; past n the polar factor is no isometry."""
    with pytest.raises(StateError, match="Stiefel"):
        make_trivialization("stiefel", n=n, r=r)


def test_roof_requires_enough_entries():
    with pytest.raises(StateError):
        RoofAnsatz(3, 4, BoundedRankAnsatz((2, 2), 2))


@pytest.mark.parametrize("make, what", [
    (lambda: make_trivialization("stiefel", n=4.5, r=2), "n"),
    (lambda: make_trivialization("stiefel", n=4, r=1.5), "r"),
    (lambda: BoundedRankAnsatz((2, 2), 2.5), "k"),
    (lambda: RoofAnsatz(4.5, 4, BoundedRankAnsatz((2, 2), 2)), "n_entries"),
], ids=["stiefel-n", "stiefel-r", "bounded-rank-k", "roof-n_entries"])
def test_counts_and_ranks_must_be_integers(make, what):
    """A fractional size is refused where it arrives, not carried into a float input_len."""
    with pytest.raises(StateError, match=f"^{what} must be an integer"):
        make()


def test_complex_from_reals_interleaving():
    z = complex_from_reals(np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(z, [1 + 2j, 3 + 4j])


def _kron_sum_reference(dims, weights, factor_reals):
    """sum_t w_t kron(f_t1, ..., f_tn) with unit factors, one np.kron at a time."""
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    for w, reals in zip(weights, factor_reals):
        term, pos = np.ones(1, dtype=complex), 0
        for d in dims:
            f = complex_from_reals(reals[pos : pos + 2 * d])
            term = np.kron(term, f / np.linalg.norm(f))
            pos += 2 * d
        vec += w * term
    return vec


def _reference_value(ansatz, theta):
    """A single term carries no weight; more than one carry softplus weights."""
    if ansatz.terms == 1:
        return _kron_sum_reference(ansatz.dims, [1.0], [theta])
    blocks = theta.reshape(ansatz.terms, -1)
    return _kron_sum_reference(ansatz.dims, np.logaddexp(0.0, blocks[:, 0]), blocks[:, 1:])


@pytest.mark.parametrize("ansatz", [
    BoundedRankAnsatz((2, 3, 4), 3), ProductAnsatz((2, 3, 4)), BoundedRankAnsatz((2, 3, 4), 2),
])
def test_batched_ansatz_matches_kron_reference(ansatz):
    """Value against a kron sum, VJP against finite differences of 2 Re<g, value>."""
    rng = np.random.default_rng(21)
    n = int(np.prod(ansatz.dims))
    theta = rng.standard_normal((5, ansatz.input_len))
    g = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    values, grads = ansatz.value(theta), ansatz.vjp(theta, g)
    assert values.shape == (5, n) and grads.shape == theta.shape
    h = 1e-6
    for i in range(5):
        np.testing.assert_allclose(ansatz.value(theta[i]), _reference_value(ansatz, theta[i]), atol=1e-14)
        np.testing.assert_allclose(values[i], ansatz.value(theta[i]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(grads[i], ansatz.vjp(theta[i], g[i]), rtol=0, atol=1e-13)
        fd = np.empty(ansatz.input_len)
        for j in range(ansatz.input_len):
            step = np.zeros(ansatz.input_len)
            step[j] = h
            up = 2.0 * np.real(np.vdot(g[i], _reference_value(ansatz, theta[i] + step)))
            down = 2.0 * np.real(np.vdot(g[i], _reference_value(ansatz, theta[i] - step)))
            fd[j] = (up - down) / (2 * h)
        np.testing.assert_allclose(grads[i], fd, rtol=0, atol=1e-7 * np.linalg.norm(fd))
