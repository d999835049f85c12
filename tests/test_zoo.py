"""Named states, subspaces, and closed-form oracles."""

import math
import pathlib
import re

import numpy as np
import pytest
from scipy import integrate

from gme.optimizers import OptimizerConfig
from gme.serialize import parse_spec_string
from gme.states import DensityMatrix, PureState, StateError, Subspace, partial_transpose
from gme.variational import gme_mixed_multipartite
from gme.zoo import (
    _D4_MARGINAL_NORMS,
    FAMILIES,
    StateSpec,
    SubspaceSpec,
    _haar_eigmarginal_d4_raw,
    _mixed_state_upb,
    bell_state,
    bhat_subspace,
    canonical_mixed,
    canonical_pure,
    canonical_subspace,
    dicke_gme,
    dicke_mixture_gme,
    dicke_mixture_pure_gme,
    dicke_mixture_state,
    dicke_state,
    family_signature,
    ghz_state,
    haar_eg2_density_d4,
    haar_egd_cdf,
    haar_egd_density,
    haar_eigmarginal_d4,
    haar_psucc_full_density,
    horodecki_state,
    huber_ppt_state,
    isotropic_kgme,
    isotropic_state,
    johnston_subspace,
    max_entangled,
    oracle_gme,
    shifts_upb,
    swap_operator,
    tiles_upb,
    two_by_d_theta_gme,
    two_by_d_theta_subspace,
    upb_tiles_state,
    w_state,
    werner_gme,
    werner_state,
)


def test_ghz_amplitudes():
    ghz = ghz_state()
    expected = np.zeros(8)
    expected[0] = expected[7] = 2**-0.5
    np.testing.assert_allclose(ghz.amplitudes, expected)


def test_dicke_31_is_w():
    np.testing.assert_allclose(dicke_state(3, 1).amplitudes, w_state().amplitudes)


def test_max_entangled_2_is_bell():
    np.testing.assert_allclose(max_entangled(2).amplitudes, bell_state().amplitudes)


def test_canonical_pure_dispatch():
    spec = StateSpec("dicke", {"n": 4, "m": 2})
    assert canonical_pure(spec).dims == (2, 2, 2, 2)
    with pytest.raises(StateError):
        canonical_pure(StateSpec("dicke", {"n": 3, "m": 5}))


def test_isotropic_endpoint_is_maximally_mixed():
    d = 3
    rho = isotropic_state(d, 1.0 / d**2)
    np.testing.assert_allclose(rho.matrix, np.eye(d * d) / d**2, atol=1e-12)


def test_werner_uses_swap_operator():
    """The construction must carry the swap term, not a diagonal one."""
    d, alpha = 3, 0.7
    rho = werner_state(d, alpha)
    expected = (np.eye(d * d) - alpha * swap_operator(d)) / (d * d - d * alpha)
    np.testing.assert_allclose(rho.matrix, expected)
    assert abs(rho.matrix[1, d] - (-alpha / (d * d - d * alpha))) < 1e-14


def test_horodecki_is_ppt():
    for a in (0.3, 0.5, 0.7):
        rho = horodecki_state(a)
        pt = partial_transpose(rho, (0,))
        assert np.linalg.eigvalsh(pt)[0] >= -1e-10


def test_upb_families_pairwise_orthogonal():
    for upb in (tiles_upb(), shifts_upb(), _mixed_state_upb()):
        mat = np.array([s.amplitudes for s in upb])
        gram = mat.conj() @ mat.T
        np.testing.assert_allclose(gram, np.eye(len(upb)), atol=1e-10)


def test_upb_tiles_state_is_normalized_complement():
    rho = upb_tiles_state()
    from gme.states import complement_projector

    proj = complement_projector(tiles_upb())
    np.testing.assert_allclose(rho.matrix, proj.matrix / 4.0, atol=1e-12)


def test_huber_ppt_positivity_across_cut():
    """The even-d family stays PPT across the merged bipartition."""
    for d in (4, 6):
        rho = huber_ppt_state(d)
        pt = partial_transpose(rho, (0,))
        assert np.linalg.eigvalsh(pt)[0] >= -1e-8
    with pytest.raises(StateError):
        huber_ppt_state(5)


def test_canonical_mixed_dispatch():
    rho = canonical_mixed(StateSpec("dicke_mixture", {"n": 4, "k1": 1, "k2": 2, "r": 0.5}))
    assert rho.dims == (2, 2, 2, 2)
    with pytest.raises(StateError):
        canonical_mixed(StateSpec("isotropic", {"d": 4, "F": 1.5}))


def test_two_by_d_theta_dimension():
    sub = two_by_d_theta_subspace(3, math.pi / 2)
    assert sub.dimension == 2
    assert sub.dims == (2, 3)
    with pytest.raises(StateError):
        two_by_d_theta_subspace(3, 0.0)


def test_bhat_dimension():
    assert bhat_subspace(2, 2, 2).dimension == 4
    assert bhat_subspace(2, 3, 4).dimension == 2 * 3 * 4 - 2 - 3 - 4 + 2


def test_johnston_spanning_orthonormal():
    """Pairwise inner products of the three spanning vectors vanish."""
    sub = johnston_subspace()
    mat = np.array([s.amplitudes for s in sub.spanning_states])
    gram = mat.conj() @ mat.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
    assert sub.dimension == 3


def test_complement_subspaces():
    assert canonical_subspace(SubspaceSpec("tiles_complement")).dimension == 4
    assert canonical_subspace(SubspaceSpec("shifts_complement")).dimension == 4


# valid parameters for each family that takes any; the others are named bare
FAMILY_EXAMPLES = {
    "max_entangled": "max_entangled:d=3",
    "dicke": "dicke:n=4,m=2",
    "isotropic": "isotropic:d=3,F=0.7",
    "werner": "werner:d=3,alpha=0.5",
    "horodecki": "horodecki:a=0.3",
    "huber_ppt": "huber_ppt:d=4",
    "dicke_mixture": "dicke_mixture:n=4,k1=1,k2=2,r=0.3",
    "two_by_d_theta": "two_by_d_theta:d=3,theta=1.2,xi=0.5",
    "bhat": "bhat:d1=2,d2=2,d3=3",
}

BUILDERS = {"pure": canonical_pure, "mixed": canonical_mixed, "subspace": canonical_subspace}
KINDS = {"pure": PureState, "mixed": DensityMatrix, "subspace": Subspace}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_agrees_with_the_table(name):
    """A spec parses, builds an object of the kind family_signature names, and only that builder accepts it."""
    spec = parse_spec_string(FAMILY_EXAMPLES.get(name, name))
    kind = family_signature(spec.name)[2]
    assert isinstance(BUILDERS[kind](spec), KINDS[kind])
    assert isinstance(spec, SubspaceSpec) == (kind == "subspace")
    for other in set(BUILDERS) - {kind}:
        with pytest.raises(StateError):
            BUILDERS[other](spec)


def test_readme_command_line_specs_name_real_families():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    specs = re.findall(r'--(?:state|subspace)\s+"?([^\s"]+)', block)
    assert specs
    for text in specs:
        if not text.endswith(".json"):
            parse_spec_string(text)


def test_oracle_values():
    assert abs(oracle_gme(StateSpec("isotropic", {"d": 4, "F": 1.0}), 2) - 0.75) < 1e-14
    assert abs(oracle_gme(StateSpec("werner", {"d": 4, "alpha": 1.0}), 2) - 0.5) < 1e-14
    assert abs(oracle_gme(StateSpec("dicke", {"n": 4, "m": 2}), 2) - 5 / 8) < 1e-14
    assert (
        abs(oracle_gme(SubspaceSpec("two_by_d_theta", {"d": 3, "theta": math.pi / 2}), 2) - 0.25)
        < 1e-14
    )
    assert oracle_gme(StateSpec("isotropic", {"d": 4, "F": 0.2}), 2) == 0.0
    assert abs(oracle_gme(StateSpec("ghz"), 2) - 0.5) < 1e-14
    assert abs(oracle_gme(StateSpec("w"), 2) - 5 / 9) < 1e-14
    with pytest.raises(StateError):
        oracle_gme(StateSpec("horodecki", {"a": 0.5}), 2)
    with pytest.raises(StateError):
        oracle_gme(StateSpec("w"), 3)


@pytest.mark.parametrize("spec", [
    StateSpec("isotropic", {"d": 4}),
    StateSpec("werner", {"d": 4, "alpha": 0.5, "typo": 3}),
], ids=["missing-key", "unknown-key"])
def test_programmatic_specs_follow_the_grammar(spec):
    """A spec built in code is held to the keys its family takes, as a parsed one is."""
    with pytest.raises(StateError):
        canonical_mixed(spec)
    with pytest.raises(StateError):
        oracle_gme(spec, 2)


def test_spec_value_that_is_not_a_number_names_its_key():
    """A programmatic spec is refused with the message a parsed one gets."""
    spec = StateSpec("isotropic", {"d": 4, "F": "x"})
    for build in (canonical_mixed, lambda s: oracle_gme(s, 2)):
        with pytest.raises(StateError, match="value for 'F' is not a number: 'x'"):
            build(spec)


def test_oracle_checks_parameters_without_building(monkeypatch):
    """The oracle applies the family's parameter rule without constructing the d^2 x d^2 state."""

    def refuse(self):
        raise AssertionError("oracle_gme constructed a DensityMatrix")

    monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
    assert oracle_gme(parse_spec_string("isotropic:d=30,F=0.5"), 3) == isotropic_kgme(30, 0.5, 3)
    with pytest.raises(StateError, match="outside"):
        oracle_gme(parse_spec_string("isotropic:d=30,F=1.5"), 3)


@pytest.mark.parametrize("closed_form, args", [
    (werner_gme, (4, 2.0)),
    (two_by_d_theta_gme, (3, 4.0)),
    (isotropic_kgme, (3, 1.5, 2)),
], ids=["werner", "two_by_d_theta", "isotropic"])
def test_closed_forms_refuse_what_their_families_refuse(closed_form, args):
    with pytest.raises(StateError, match="outside"):
        closed_form(*args)


def test_isotropic_oracle_monotone_and_continuous():
    d = 4
    for F in np.linspace(0.0, 1.0, 21):
        vals = [isotropic_kgme(d, F, k) for k in range(2, d + 1)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    for k in range(2, d + 1):
        edge = (k - 1) / d
        assert isotropic_kgme(d, edge + 1e-9, k) < 1e-6


def test_dicke_mixture_endpoints():
    n, k1, k2 = 5, 1, 2
    assert abs(dicke_mixture_gme(n, k1, k2, 1.0) - dicke_gme(n, k1)) < 1e-9
    assert abs(dicke_mixture_gme(n, k1, k2, 0.0) - dicke_gme(n, k2)) < 1e-9


def test_dicke_mixture_convexity():
    n, k1, k2 = 6, 1, 3
    e1, e2 = dicke_gme(n, k1), dicke_gme(n, k2)
    for r in (0.25, 0.5, 0.75):
        val = dicke_mixture_gme(n, k1, k2, r)
        assert val <= r * e1 + (1 - r) * e2 + 1e-10
        assert val <= dicke_mixture_pure_gme(n, k1, k2, r) + 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dicke_mixture_envelope_leaves_a_concave_curve(n):
    """The mixture of |0...0> and |1...1> is separable, yet its pure-state curve
    min(r, 1 - r) is concave: the envelope drops every inner grid point and is 0
    inside, and the curve's own value at the two ends."""
    for r in (0.2, 0.5, 0.8):
        assert dicke_mixture_pure_gme(n, 0, n, r) > 0.0
        assert dicke_mixture_gme(n, 0, n, r) == 0.0
    for r in (0.0, 1.0):
        assert dicke_mixture_gme(n, 0, n, r) == dicke_mixture_pure_gme(n, 0, n, r)


@pytest.mark.parametrize("n, r", [(3, 0.2), (3, 0.8), (4, 0.2), (4, 0.8)])
def test_dicke_mixture_never_above_the_product_roof(n, r):
    """On a convex stretch of the pure-state curve the chord between grid
    vertices lies above the curve; the closed form must not exceed a roof
    upper bound there."""
    upper = gme_mixed_multipartite(
        dicke_mixture_state(n, 0, 1, r), config=OptimizerConfig(restarts=3, max_iterations=300)
    ).value
    assert upper >= dicke_mixture_gme(n, 0, 1, r) - 1e-9


def test_haar_egd_density_and_cdf():
    d = 4
    assert haar_egd_cdf(d, 0.0) == 1.0
    assert haar_egd_cdf(d, 1.0) == 0.0
    total, _ = integrate.quad(lambda x: haar_egd_density(d, x), 0, 1 / d)
    assert abs(total - 1.0) < 1e-8
    mean, _ = integrate.quad(lambda x: x * haar_egd_density(d, x), 0, 1 / d)
    assert abs(mean - 1.0 / d**3) < 1e-8
    assert haar_egd_density(d, 0.3) == 0.0


def test_haar_marginals_d4():
    assert haar_eigmarginal_d4(4, 0.3) == 0.0
    for i in (1, 2, 3, 4):
        total, _ = integrate.quad(lambda x: haar_eigmarginal_d4(i, x), 0, 1, limit=400)
        assert abs(total - 1.0) < 1e-6
    mean_sum = sum(
        integrate.quad(lambda x: x * haar_eigmarginal_d4(i, x), 0, 1, limit=400)[0]
        for i in (1, 2, 3, 4)
    )
    assert abs(mean_sum - 1.0) < 1e-6
    with pytest.raises(StateError):
        haar_eigmarginal_d4(5, 0.1)


def test_haar_densities_refuse_d_below_2():
    for density in (haar_egd_density, haar_egd_cdf, haar_psucc_full_density):
        with pytest.raises(StateError, match="need d >= 2"):
            density(1, 1.0)


def test_haar_psucc_density():
    x = 0.37
    assert abs(haar_psucc_full_density(2, x) - 3 * (1 - x) ** 2) < 1e-14
    total, _ = integrate.quad(lambda t: haar_psucc_full_density(3, t), 0, 1)
    assert abs(total - 1.0) < 1e-10
    d = 4
    for t in (0.1, 0.5, 0.9):
        assert abs(haar_psucc_full_density(d, t) - haar_egd_density(d, t / d) / d) < 1e-10


def test_eg2_density_support():
    assert haar_eg2_density_d4(0.8) == 0.0
    total, _ = integrate.quad(lambda x: haar_eg2_density_d4(x), 0, 0.75, limit=400)
    assert abs(total - 1.0) < 1e-6


def test_huber_regrouping_matches_manual():
    """The (A1 B1 A2 B2) -> (A1 A2 | B1 B2) merge is the advertised layout."""
    d = 4
    rho = huber_ppt_state(d)
    assert rho.dims == (d, d)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    # reduced state on the A = (A1 A2) side is maximally mixed by symmetry
    from gme.states import partial_trace

    red = partial_trace(rho, (1,))
    np.testing.assert_allclose(red.matrix, np.eye(d) / d, atol=1e-10)


def test_d4_marginal_norms_are_the_quadrature_values():
    """The stored masses are exactly what the quadrature they replace returns."""
    for i, norm in _D4_MARGINAL_NORMS.items():
        assert norm == integrate.quad(lambda t: float(_haar_eigmarginal_d4_raw(i, t)), 0.0, 1.0, limit=400)[0]
