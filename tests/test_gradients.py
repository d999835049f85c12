"""Analytic gradients against central finite differences."""

import numpy as np
import pytest

from gme.optimizers import Objective
from gme.states import StateError
from gme.variational import (
    gradient,
    make_bipartite_roof,
    make_mixed_roof,
    make_pure_overlap,
    make_quadratic,
    make_rayleigh,
    make_subspace_bounded_rank,
    make_subspace_product,
)
from gme.trivializations import BoundedRankAnsatz, ProductAnsatz
from gme.zoo import ghz_state, isotropic_state, johnston_subspace, shifts_complement_subspace, upb_shifts_state

from conftest import random_pure

FD_STEP = 1e-5
REL_TOL = 1e-6


def central_difference(fun, theta, h=FD_STEP):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2 * h)
    return grad


def check_points(obj, n_points, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        theta = rng.standard_normal(obj.input_len)
        g = gradient(obj, theta)
        g_fd = central_difference(obj.fun, theta)
        denom = max(np.linalg.norm(g_fd), 1e-8)
        assert np.linalg.norm(g - g_fd) / denom < REL_TOL


def test_quadratic_gradient():
    c = np.array([1.0, -2.0, 0.5])
    obj = make_quadratic(c)
    theta = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(gradient(obj, theta), 2 * (theta - c))
    check_points(obj, 10)


def test_rayleigh_gradient_and_stationarity(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (m + m.conj().T)
    obj = make_rayleigh(h)
    check_points(obj, 25)
    vals, vecs = np.linalg.eigh(h)
    theta = np.empty(12)
    theta[0::2] = vecs[:, 0].real
    theta[1::2] = vecs[:, 0].imag
    assert np.linalg.norm(gradient(obj, theta)) < 1e-8


def test_pure_overlap_gradient(rng):
    obj = make_pure_overlap(ghz_state(), 2)
    check_points(obj, 25, seed=1)
    obj3 = make_pure_overlap(random_pure((3, 3), rng), 3)
    check_points(obj3, 10, seed=2)


def test_subspace_gradients():
    obj = make_subspace_bounded_rank(johnston_subspace(), 2)
    check_points(obj, 15, seed=3)
    obj3 = make_subspace_bounded_rank(johnston_subspace(), 3)
    check_points(obj3, 10, seed=4)
    obj_multi = make_subspace_product(shifts_complement_subspace())
    check_points(obj_multi, 15, seed=5)


def test_mixed_roof_gradients():
    rho = isotropic_state(3, 0.7)
    obj = make_mixed_roof(rho, BoundedRankAnsatz(rho.dims, 2), 10)
    check_points(obj, 10, seed=6)
    obj3 = make_mixed_roof(rho, BoundedRankAnsatz(rho.dims, 3), 10)
    check_points(obj3, 5, seed=7)
    upb = upb_shifts_state()
    obj_multi = make_mixed_roof(upb, ProductAnsatz(upb.dims), 5)
    check_points(obj_multi, 10, seed=8)
    obj_multi3 = make_mixed_roof(upb, BoundedRankAnsatz(upb.dims, 3), 5)
    check_points(obj_multi3, 5, seed=9)


def test_bipartite_roof_gradients(rng):
    from conftest import random_density

    rho = isotropic_state(3, 0.7)
    check_points(make_bipartite_roof(rho, 2, 10), 10, seed=10)
    check_points(make_bipartite_roof(rho, 3, 10), 10, seed=11)
    check_points(make_bipartite_roof(random_density((3, 4), rng, rank=5), 2, 7), 10, seed=12)
    # d_A > d_B takes the tails from the Gram matrix of the transposed entries
    wide = random_density((4, 3), rng, rank=5)
    check_points(make_bipartite_roof(wide, 2, 7), 10, seed=13)
    check_points(make_bipartite_roof(wide, 3, 7), 10, seed=14)


def _objectives():
    rho = isotropic_state(3, 0.7)
    upb = upb_shifts_state()
    h = np.diag(np.arange(4.0)) + 0.5j * np.eye(4, k=1) - 0.5j * np.eye(4, k=-1)
    return {
        "quadratic": make_quadratic([1.0, -2.0]),
        "rayleigh": make_rayleigh(h),
        "pure_overlap": make_pure_overlap(ghz_state(), 2),
        "subspace_bounded_rank": make_subspace_bounded_rank(johnston_subspace(), 2),
        "subspace_product": make_subspace_product(shifts_complement_subspace()),
        # the joint roof on two parties, beside the closed-form one that two-party kgme_mixed runs
        "roof_bipartite": make_mixed_roof(rho, BoundedRankAnsatz(rho.dims, 2), 10),
        "bipartite_roof": make_bipartite_roof(rho, 2, 10),
        "roof_product": make_mixed_roof(upb, ProductAnsatz(upb.dims), 5),
    }


@pytest.mark.parametrize("name", sorted(_objectives()))
def test_fun_grad_acts_on_stacks(name):
    """fun_grad maps (..., input_len) to values (...) and gradients (..., input_len);
    each row equals the one-point fun and grad exactly."""
    obj = _objectives()[name]
    theta = np.random.default_rng(10).standard_normal((2, 3, obj.input_len))
    values, grads = obj.fun_grad(theta)
    assert values.shape == (2, 3) and grads.shape == theta.shape
    for idx in np.ndindex(2, 3):
        assert values[idx] == obj.fun(theta[idx])
        np.testing.assert_array_equal(grads[idx], obj.grad(theta[idx]))


def test_unregistered_objective_rejected():
    fake = Objective("mystery", lambda t: (np.zeros(np.shape(t)[:-1]), t), None)
    with pytest.raises(StateError):
        gradient(fake, np.zeros(3))
    with pytest.raises(StateError):
        gradient(lambda t: 0.0, np.zeros(3))
