"""Named states, subspaces, and closed-form entanglement oracles.

Every constructor here is ground truth for validating the variational and
SDP machinery: canonical pure/mixed states, unextendible product bases and
their complements, one-parameter families with known k-GME values, and the
eigenvalue statistics of Haar-random bipartite states.

``FAMILIES`` maps each spec name to its constructor; the constructor's
annotated signature is the family's parameter list and kind.  A constructor
whose parameters have a rule runs its ``check`` before building anything, and
keeps it as ``constructor.check`` so that the rule can be tested without the
cost of building the state.
"""

from __future__ import annotations

import functools
import inspect
import math
import typing
from dataclasses import dataclass, field

import numpy as np

from .states import (
    DensityMatrix,
    PureState,
    StateError,
    Subspace,
    complement_projector,
    permute_parties_matrix,
    tensor_product,
)


@dataclass(frozen=True)
class StateSpec:
    """A named state family with its parameters."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubspaceSpec:
    """A named subspace family with its parameters."""

    name: str
    params: dict = field(default_factory=dict)


def _basis_vec(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _ket(*indices, dims):
    v = np.ones(1, dtype=complex)
    for i, d in zip(indices, dims):
        v = np.kron(v, _basis_vec(d, i))
    return v


def _checked_by(check):
    """Run ``check`` on a constructor's arguments before the constructor builds anything.

    ``check`` takes the constructor's parameters and raises ``StateError`` for
    values the family refuses; the constructor keeps it as ``.check``.
    """

    def decorate(constructor):
        @functools.wraps(constructor)
        def construct(*args, **kwargs):
            check(*args, **kwargs)
            return constructor(*args, **kwargs)

        construct.check = check
        return construct

    return decorate


# ---------------------------------------------------------------------------
# canonical pure states


def _check_max_entangled(d):
    if d < 2:
        raise StateError("maximally entangled state needs d >= 2")


@_checked_by(_check_max_entangled)
def max_entangled(d: int) -> PureState:
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(amps, (d, d))


def bell_state() -> PureState:
    return max_entangled(2)


def ghz_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2)
    return PureState(amps, (2, 2, 2))


def w_state() -> PureState:
    return dicke_state(3, 1)


def w_tilde_state() -> PureState:
    return dicke_state(3, 2)


def _check_dicke(n, m):
    if not 0 <= m <= n:
        raise StateError(f"need 0 <= m <= n, got n={n}, m={m}")


@_checked_by(_check_dicke)
def dicke_state(n: int, m: int) -> PureState:
    """Equal superposition of all n-qubit basis states with m excitations."""
    amps = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        if bin(idx).count("1") == m:
            amps[idx] = 1.0
    amps /= np.linalg.norm(amps)
    return PureState(amps, (2,) * n)


# ---------------------------------------------------------------------------
# canonical mixed states


def _check_isotropic(d, F):
    if d < 2:
        raise StateError("isotropic state needs d >= 2")
    if not 0.0 <= F <= 1.0:
        raise StateError(f"fidelity parameter F={F} outside [0, 1]")


@_checked_by(_check_isotropic)
def isotropic_state(d: int, F: float) -> DensityMatrix:
    phi = max_entangled(d)
    proj = np.outer(phi.amplitudes, phi.amplitudes.conj())
    mat = (1.0 - F) / (d * d - 1.0) * (np.eye(d * d) - proj) + F * proj
    return DensityMatrix(mat, (d, d))


def swap_operator(d: int) -> np.ndarray:
    v = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return v


def _check_werner(d, alpha):
    if d < 2:
        raise StateError("Werner state needs d >= 2")
    if not -1.0 <= alpha <= 1.0:
        raise StateError(f"alpha={alpha} outside [-1, 1]")


@_checked_by(_check_werner)
def werner_state(d: int, alpha: float) -> DensityMatrix:
    """Werner family built on the swap operator sum_ij |i,j><j,i|."""
    denom = d * d - d * alpha
    mat = (np.eye(d * d) - alpha * swap_operator(d)) / denom
    return DensityMatrix(mat, (d, d))


def _check_horodecki(a):
    if not 0.0 <= a <= 1.0:
        raise StateError(f"parameter a={a} outside [0, 1]")


@_checked_by(_check_horodecki)
def horodecki_state(a: float) -> DensityMatrix:
    """The 3x3 PPT-entangled one-parameter family, a in [0, 1]."""
    b = (1.0 + a) / 2.0
    c = math.sqrt(max(0.0, 1.0 - a * a)) / 2.0
    m = np.zeros((9, 9))
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            m[i, j] = a
    for i in (1, 2, 3, 5, 7):
        m[i, i] = a
    m[6, 6] = b
    m[8, 8] = b
    m[6, 8] = m[8, 6] = c
    return DensityMatrix(m / (8.0 * a + 1.0), (3, 3))


def tiles_upb() -> list[PureState]:
    """Five-state tiles UPB in 3x3."""
    d = (3, 3)
    e = [_basis_vec(3, i) for i in range(3)]
    s2 = 1.0 / math.sqrt(2)
    vecs = [
        s2 * np.kron(e[0], e[0] - e[1]),
        s2 * np.kron(e[2], e[1] - e[2]),
        s2 * np.kron(e[0] - e[1], e[2]),
        s2 * np.kron(e[1] - e[2], e[0]),
        np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]
    return [PureState(v, d) for v in vecs]


def shifts_upb() -> list[PureState]:
    """Four-state three-qubit UPB {|000>, |1+->, |-1+>, |+-1>}."""
    zero, one = _basis_vec(2, 0), _basis_vec(2, 1)
    plus = (zero + one) / math.sqrt(2)
    minus = (zero - one) / math.sqrt(2)
    d = (2, 2, 2)
    vecs = [
        np.kron(np.kron(zero, zero), zero),
        np.kron(np.kron(one, plus), minus),
        np.kron(np.kron(minus, one), plus),
        np.kron(np.kron(plus, minus), one),
    ]
    return [PureState(v, d) for v in vecs]


def _mixed_state_upb() -> list[PureState]:
    """Three-qubit UPB behind the biseparable-but-not-fully-separable mixture."""
    zero, one = _basis_vec(2, 0), _basis_vec(2, 1)
    plus = (zero + one) / math.sqrt(2)
    minus = (zero - one) / math.sqrt(2)
    d = (2, 2, 2)
    vecs = [
        np.kron(np.kron(zero, one), plus),
        np.kron(np.kron(one, plus), zero),
        np.kron(np.kron(plus, zero), one),
        np.kron(np.kron(minus, minus), minus),
    ]
    return [PureState(v, d) for v in vecs]


def upb_complement_state(upb: list[PureState]) -> DensityMatrix:
    """Normalized projector onto the orthocomplement of a UPB span."""
    proj = complement_projector(upb)
    return DensityMatrix(proj.matrix / proj.rank, upb[0].dims)


def upb_tiles_state() -> DensityMatrix:
    return upb_complement_state(tiles_upb())


def upb_shifts_state() -> DensityMatrix:
    return upb_complement_state(_mixed_state_upb())


def _check_huber_ppt(d):
    if d < 4 or d % 2:
        raise StateError("huber_ppt needs even d >= 4")


@_checked_by(_check_huber_ppt)
def huber_ppt_state(d: int) -> DensityMatrix:
    """PPT family on d (x) d, d even >= 4, with Schmidt number >= ceil(d/4).

    Built from maximally entangled projectors on the 2x2 and (d/2)x(d/2)
    layers; the (A1 A2)|(B1 B2) regrouping makes it a d (x) d bipartite state.
    """
    k = d // 2
    p2 = max_entangled(2)
    pk = max_entangled(k)
    proj2 = np.outer(p2.amplitudes, p2.amplitudes.conj())
    projk = np.outer(pk.amplitudes, pk.amplitudes.conj())
    r = tensor_product(np.eye(4) - proj2, np.eye(k * k) - projk)
    r = r + (k + 1.0) * tensor_product(proj2, projk)
    # party order (A1, B1, A2, B2) -> (A1, A2, B1, B2), then merge to (d, d)
    r = permute_parties_matrix(r, (2, 2, k, k), (0, 2, 1, 3))
    return DensityMatrix(r / np.trace(r).real, (d, d))


def _check_dicke_mixture(n, k1, k2, r):
    if k1 == k2:
        raise StateError("dicke_mixture needs k1 != k2")
    if not 0.0 <= r <= 1.0:
        raise StateError(f"mixing weight r={r} outside [0, 1]")
    _check_dicke(n, k1)
    _check_dicke(n, k2)


@_checked_by(_check_dicke_mixture)
def dicke_mixture_state(n: int, k1: int, k2: int, r: float) -> DensityMatrix:
    a = dicke_state(n, k1).amplitudes
    b = dicke_state(n, k2).amplitudes
    mat = r * np.outer(a, a.conj()) + (1.0 - r) * np.outer(b, b.conj())
    return DensityMatrix(mat, (2,) * n)


# ---------------------------------------------------------------------------
# canonical subspaces


def _check_two_by_d_theta(d, theta, xi=0.0):
    if d < 2:
        raise StateError("two_by_d_theta needs d >= 2")
    if not 0.0 < theta < math.pi:
        raise StateError(f"theta={theta} outside (0, pi)")
    if not 0.0 <= xi < 2 * math.pi:
        raise StateError(f"xi={xi} outside [0, 2*pi)")


@_checked_by(_check_two_by_d_theta)
def two_by_d_theta_subspace(d: int, theta: float, xi: float = 0.0) -> Subspace:
    """The (d-1)-dimensional entangled subspace of a 2 (x) d system."""
    a = math.cos(theta / 2.0)
    b = np.exp(1j * xi) * math.sin(theta / 2.0)
    dims = (2, d)
    states = []
    for i in range(d - 1):
        amps = a * _ket(0, i, dims=dims) + b * _ket(1, i + 1, dims=dims)
        states.append(PureState(amps, dims))
    return Subspace.from_states(states)


def johnston_subspace() -> Subspace:
    """The rank-3 entangled subspace of a 4 (x) 4 system (minimal rank 3)."""
    dims = (4, 4)
    k = lambda i, j: _ket(i, j, dims=dims)  # noqa: E731
    v1 = 0.5 * (k(0, 0) + k(1, 1) + k(2, 2) + k(3, 3))
    v2 = 0.5 * (k(0, 1) + k(1, 2) + k(2, 3) + k(3, 0))
    v3 = 0.5 * (k(0, 2) + k(1, 3) + k(2, 0) - k(3, 1))
    return Subspace.from_states([PureState(v, dims) for v in (v1, v2, v3)])


def _check_bhat(d1, d2, d3):
    if min(d1, d2, d3) < 2:
        raise StateError("bhat subspace needs all local dimensions >= 2")


@_checked_by(_check_bhat)
def bhat_subspace(d1: int, d2: int, d3: int) -> Subspace:
    """Maximal completely entangled subspace of d1 (x) d2 (x) d3.

    Spanned by differences of equal-weight basis states; its dimension is
    d1 d2 d3 - d1 - d2 - d3 + 2.
    """
    dims = (d1, d2, d3)
    by_weight: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                by_weight.setdefault(i + j + k, []).append((i, j, k))
    states = []
    s2 = 1.0 / math.sqrt(2)
    for _, group in sorted(by_weight.items()):
        for a, b in zip(group, group[1:]):
            amps = s2 * (_ket(*a, dims=dims) - _ket(*b, dims=dims))
            states.append(PureState(amps, dims))
    return Subspace.from_states(states)


def _upb_complement_subspace(upb: list[PureState]) -> Subspace:
    proj = complement_projector(upb)
    vals, vecs = np.linalg.eigh(proj.matrix)
    cols = [vecs[:, i] for i in range(vecs.shape[1]) if vals[i] > 0.5]
    dims = upb[0].dims
    return Subspace.from_states([PureState(c, dims) for c in cols])


def tiles_complement_subspace() -> Subspace:
    return _upb_complement_subspace(tiles_upb())


def shifts_complement_subspace() -> Subspace:
    return _upb_complement_subspace(shifts_upb())


# ---------------------------------------------------------------------------
# the family table: spec names, parameters and kinds come from the constructors


FAMILIES = {
    "bell": bell_state,
    "ghz": ghz_state,
    "w": w_state,
    "w_tilde": w_tilde_state,
    "max_entangled": max_entangled,
    "dicke": dicke_state,
    "isotropic": isotropic_state,
    "werner": werner_state,
    "horodecki": horodecki_state,
    "upb_tiles_state": upb_tiles_state,
    "upb_shifts_state": upb_shifts_state,
    "huber_ppt": huber_ppt_state,
    "dicke_mixture": dicke_mixture_state,
    "two_by_d_theta": two_by_d_theta_subspace,
    "johnston_4x4": johnston_subspace,
    "bhat": bhat_subspace,
    "tiles_complement": tiles_complement_subspace,
    "shifts_complement": shifts_complement_subspace,
}

_KINDS = {PureState: "pure", DensityMatrix: "mixed", Subspace: "subspace"}
_KIND_NOUNS = {None: "family", "pure": "pure state", "mixed": "mixed state", "subspace": "subspace"}


@functools.cache
def family_signature(name: str) -> tuple[dict, frozenset, str]:
    """(parameter types, required keys, kind) of a family, read off its constructor.

    Parameters with a default are optional; the return annotation gives the
    kind, one of "pure", "mixed" and "subspace".
    """
    constructor = FAMILIES[name]
    types = typing.get_type_hints(constructor)
    kind = _KINDS[types.pop("return")]
    params = inspect.signature(constructor).parameters.values()
    required = frozenset(p.name for p in params if p.default is p.empty)
    return types, required, kind


def _family_args(spec, kind: str | None = None) -> dict:
    """The spec's parameters cast to its constructor's types.

    As in the spec grammar, a key the constructor does not take and a missing
    key without a default are refused.
    """
    if spec.name not in FAMILIES or kind not in (None, family_signature(spec.name)[2]):
        raise StateError(f"unknown {_KIND_NOUNS[kind]} {spec.name!r}")
    types, required, _ = family_signature(spec.name)
    unknown = sorted(set(spec.params) - set(types))
    if unknown:
        raise StateError(f"unknown keys {unknown} for family {spec.name!r}")
    missing = sorted(required - set(spec.params))
    if missing:
        raise StateError(f"family {spec.name!r} is missing parameters {missing}")
    return {key: types[key](value) for key, value in spec.params.items()}


def build_family(spec, kind: str | None = None):
    """Construct the state or subspace a spec names; with ``kind``, refuse other kinds."""
    return FAMILIES[spec.name](**_family_args(spec, kind))


def canonical_pure(spec: StateSpec) -> PureState:
    return build_family(spec, "pure")


def canonical_mixed(spec: StateSpec) -> DensityMatrix:
    return build_family(spec, "mixed")


def canonical_subspace(spec: SubspaceSpec) -> Subspace:
    return build_family(spec, "subspace")


# ---------------------------------------------------------------------------
# closed-form oracles


def isotropic_kgme(d: int, F: float, k: int) -> float:
    if not 2 <= k <= d:
        raise StateError(f"isotropic k-GME needs 2 <= k <= d, got k={k}")
    if F <= (k - 1.0) / d:
        return 0.0
    s = math.sqrt(F * (k - 1.0)) + math.sqrt((1.0 - F) * (d - k + 1.0))
    return 1.0 - s * s / d


def werner_gme(d: int, alpha: float) -> float:
    if alpha <= 1.0 / d:
        return 0.0
    t = (d * alpha - 1.0) / (alpha - d)
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - t * t)))


def dicke_gme(n: int, m: int) -> float:
    _check_dicke(n, m)
    if m in (0, n):
        return 0.0
    return 1.0 - math.comb(n, m) * (m / n) ** m * ((n - m) / n) ** (n - m)


def two_by_d_theta_gme(d: int, theta: float) -> float:
    s = math.sin(theta) * math.sin(math.pi / d)
    return 0.5 * (1.0 - math.sqrt(1.0 - s * s))


def oracle_gme(spec, k: int) -> float:
    """Closed-form k-GME for the supported (family, k) pairs.

    The parameters go through the family's ``check`` first, the rule its
    constructor applies, without building the state.
    """
    name, p = spec.name, _family_args(spec)
    check = getattr(FAMILIES[name], "check", None)
    if check is not None:
        check(**p)
    if name == "isotropic":
        return isotropic_kgme(p["d"], p["F"], k)
    if k != 2:
        raise StateError(f"no closed form for {name!r} with k={k}")
    if name == "werner":
        return werner_gme(p["d"], p["alpha"])
    if name == "dicke":
        return dicke_gme(p["n"], p["m"])
    if name == "two_by_d_theta":
        return two_by_d_theta_gme(p["d"], p["theta"])
    if name == "dicke_mixture":
        return dicke_mixture_gme(p["n"], p["k1"], p["k2"], p["r"])
    if name == "ghz":
        return 0.5
    if name in ("w", "w_tilde"):
        return 5.0 / 9.0
    if name in ("bell", "max_entangled"):
        return 1.0 - 1.0 / p.get("d", 2)
    raise StateError(f"no closed-form oracle for {name!r}")


# ---------------------------------------------------------------------------
# Dicke mixtures: scalar maximization plus lower convex envelope


def _dicke_mix_overlap(n, k1, k2, w):
    """max over theta of the product-state overlap with sqrt(w)|D^k1> + sqrt(1-w)|D^k2>."""
    c1 = math.sqrt(math.comb(n, k1))
    c2 = math.sqrt(math.comb(n, k2))
    a = math.sqrt(w)
    b = math.sqrt(1.0 - w)

    def g(theta):
        ct, st = math.cos(theta), math.sin(theta)
        return a * c1 * ct ** (n - k1) * st**k1 + b * c2 * ct ** (n - k2) * st**k2

    # coarse scan, then golden-section refinement around every local maximum
    grid = np.linspace(0.0, math.pi / 2.0, 257)
    vals = np.array([g(t) for t in grid])
    best = float(vals.max())
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in range(1, len(grid) - 1):
        if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]:
            lo, hi = grid[i - 1], grid[i + 1]
            while hi - lo > 1e-12:
                m1 = hi - invphi * (hi - lo)
                m2 = lo + invphi * (hi - lo)
                if g(m1) < g(m2):
                    lo = m1
                else:
                    hi = m2
            best = max(best, g(0.5 * (lo + hi)))
    return best


def dicke_mixture_pure_gme(n: int, k1: int, k2: int, w: float) -> float:
    """GME of the pure superposition sqrt(w)|D_n^k1> + sqrt(1-w)|D_n^k2>."""
    return 1.0 - _dicke_mix_overlap(n, k1, k2, w) ** 2


def _lower_convex_envelope(xs, ys):
    """Lower convex hull of the graph points, via the monotone chain."""
    hull: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def dicke_mixture_gme(n: int, k1: int, k2: int, r: float, grid_size: int = 513) -> float:
    """Convex-roof GME of the rank-2 Dicke mixture at weight r.

    Evaluates the pure-state curve on a uniform weight grid and returns the
    lower convex envelope at r.
    """
    _check_dicke_mixture(n, k1, k2, r)
    ws = np.linspace(0.0, 1.0, grid_size)
    es = np.array([dicke_mixture_pure_gme(n, k1, k2, w) for w in ws])
    hull = _lower_convex_envelope(ws, es)
    xs = [pt[0] for pt in hull]
    idx = int(np.searchsorted(xs, r))
    if idx == 0:
        return hull[0][1]
    if idx >= len(hull):
        return hull[-1][1]
    (x1, y1), (x2, y2) = hull[idx - 1], hull[idx]
    t = 0.0 if x2 == x1 else (r - x1) / (x2 - x1)
    return float(y1 + t * (y2 - y1))


# ---------------------------------------------------------------------------
# Haar-random eigenvalue statistics


def haar_egd_density(d: int, x) -> np.ndarray | float:
    """Density of the d-bounded measure for d (x) d Haar states: d(d^2-1)(1-dx)^(d^2-2)."""
    if d < 2:
        raise StateError("need d >= 2")
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0 / d)
    out = np.where(inside, d * (d * d - 1.0) * np.clip(1.0 - d * x, 0.0, 1.0) ** (d * d - 2), 0.0)
    return out if out.ndim else float(out)


def haar_egd_cdf(d: int, x) -> np.ndarray | float:
    """Upper-tail probability Pr[E >= x] = (1 - dx)^(d^2-1), clamped to the support."""
    if d < 2:
        raise StateError("need d >= 2")
    x = np.asarray(x, dtype=float)
    out = np.clip(1.0 - d * x, 0.0, 1.0) ** (d * d - 1)
    out = np.where(x <= 0.0, 1.0, out)
    return out if out.ndim else float(out)


def haar_psucc_full_density(d: int, x) -> np.ndarray | float:
    """Density of the success probability for distilling the full d-dimensional target."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    out = np.where(inside, (d * d - 1.0) * np.clip(1.0 - x, 0.0, 1.0) ** (d * d - 2), 0.0)
    return out if out.ndim else float(out)


def _a_poly_44(j: int, x):
    """The degree-14 polynomial factors entering the 4x4 eigenvalue marginals."""
    x = np.asarray(x, dtype=float)
    if j == 4:
        return 60.0 * (1.0 - 4.0 * x) ** 14
    if j == 3:
        coeffs = [67812.0, -70160.0, 29818.0, -6128.0, 1308.0, -96.0, 3.0]
        return 60.0 * (1.0 - 3.0 * x) ** 8 * np.polyval(coeffs, x)
    if j == 2:
        coeffs = [5517256.0, -5570528.0, 2706592.0, -859040.0, 229936.0, -45920.0, 5208.0, -264.0, 6.0]
        return 30.0 * (1.0 - 2.0 * x) ** 6 * np.polyval(coeffs, x)
    if j == 1:
        coeffs = [73116.0, -94128.0, 44934.0, -9904.0, 1044.0, -48.0, 1.0]
        return 60.0 * (1.0 - x) ** 8 * np.polyval(coeffs, x)
    raise StateError(f"invalid polynomial index {j}")


def _step(cond):
    return np.where(cond, 1.0, 0.0)


# integrate.quad(lambda t: _haar_eigmarginal_d4_raw(i, t), 0, 1, limit=400)[0] for each i
_D4_MARGINAL_NORMS = {1: 0.9999999999794192, 2: 1.000000000041167,
                      3: 1.0000000000000446, 4: 1.0000000000000004}


def _haar_eigmarginal_d4_raw(i: int, x):
    x = np.asarray(x, dtype=float)
    a = {j: _a_poly_44(j, x) for j in (1, 2, 3, 4)}
    t = {j: _step((x >= 0.0) & (j * x <= 1.0)) for j in (1, 2, 3, 4)}
    if i == 1:
        val = -a[4] * t[4] + a[3] * t[3] - a[2] * t[2] + a[1] * t[1]
    elif i == 2:
        val = 3.0 * a[4] * t[4] - 2.0 * a[3] * t[3] + a[2] * t[2]
    elif i == 3:
        val = -3.0 * a[4] * t[4] + a[3] * t[3]
    elif i == 4:
        val = a[4] * t[4]
    else:
        raise StateError(f"eigenvalue index i={i} outside 1..4")
    return np.clip(val, 0.0, None)


def haar_eigmarginal_d4(i: int, x) -> np.ndarray | float:
    """Marginal density of the i-th largest reduced eigenvalue for 4x4 Haar states.

    The printed polynomial prefactors are fixed to unit mass by dividing by the
    raw marginal's mass on [0, 1].  Those four masses are stored as the values
    adaptive quadrature gives (all within 5e-11 of 1), so that no integration
    runs at call time.
    """
    if i not in (1, 2, 3, 4):
        raise StateError(f"eigenvalue index i={i} outside 1..4")
    out = _haar_eigmarginal_d4_raw(i, x) / _D4_MARGINAL_NORMS[i]
    out = np.asarray(out)
    return out if out.ndim else float(out)


def haar_eg2_density_d4(x) -> np.ndarray | float:
    """Density of the 2-bounded measure for 4x4 Haar states, P(E2 = x) = P(lambda1 = 1-x)."""
    x = np.asarray(x, dtype=float)
    out = haar_eigmarginal_d4(1, 1.0 - x)
    out = np.where((x >= 0.0) & (x <= 0.75), out, 0.0)
    return out if out.ndim else float(out)
