"""The four workloads: checked operations on inputs generated from the seed.

An operation is one checked call of a public gme function or one CLI
invocation.  Every round of a workload runs the same operations on the same
inputs, so the share of failed operations is the same in every run.

Inputs depend on the seed through random local real rotations (every measure
used here is invariant under them, and real data stays real) and through the
optimizer's restart seed.  The Haar experiment keeps a fixed sampling seed: a
3-SE test on the mean fails on 0.27% of seeds by design, and a benchmark must
not fail on some seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gme import cli, pure, sdp, serialize, variational, zoo
from gme.optimizers import OptimizerConfig
from gme.states import DensityMatrix, PureState, Subspace

import checks as C

HAAR_SEED = 0
HAAR_SAMPLES = 100_000
NEAR_ZERO = 1e-3     # Dicke at k = m + 2: border rank, so the value only tends to 0
# One restart of the k = m + 2 Dicke and UPB-roof problems ends in a local
# minimum on 1-11% of seeds; four and three restarts make a miss negligible.


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: bool = False


def _pure(vec, dims, rng) -> PureState:
    return PureState(C.local_orthogonal(dims, rng) @ vec, dims)


def _mixed(mat, dims, rng) -> DensityMatrix:
    rot = C.local_orthogonal(dims, rng)
    return DensityMatrix(rot @ mat @ rot.T, dims)


def _subspace(sub: Subspace, rng) -> Subspace:
    rot = C.local_orthogonal(sub.dims, rng)
    return Subspace.from_states([PureState(rot @ s.amplitudes, sub.dims) for s in sub.spanning_states])


def _value_status(result):
    value, sol = result
    return float(value), sol.status


# ---------------------------------------------------------------------------
# multipartite-variational


def multipartite_variational(rng, workdir) -> list[Op]:
    seed = int(rng.integers(2**31))

    def cfg(restarts, iterations):
        return OptimizerConfig(restarts=restarts, max_iterations=iterations, seed=seed)

    ops = []

    def pure_op(label, vec, n, k, config, check):
        dims = (2,) * n
        psi = _pure(vec, dims, rng)
        floor = C.max_schmidt_tail(psi.amplitudes, dims, k)
        ops.append(Op(
            label,
            lambda: variational.kgme_pure_multipartite(psi, k, config).value,
            lambda v: C.first(C.at_least(v, floor, 1e-9), check(v)),
        ))

    pure_op("ghz k=2", C.ghz_vector(), 3, 2, cfg(2, 400), lambda v: C.near(v, C.GHZ_GME, 1e-6))
    for n, m in ((3, 1), (4, 1), (5, 2), (6, 2)):
        ref = C.dicke_gme(n, m)
        pure_op(f"dicke({n},{m}) k=2", C.dicke_vector(n, m), n, 2, cfg(2, 400),
                lambda v, ref=ref: C.first(C.near(v, ref, 1e-6), C.at_least(v, 1e-3)))
    for n, m in ((5, 2), (6, 2)):
        pure_op(f"dicke({n},{m}) k={m + 1}", C.dicke_vector(n, m), n, m + 1, cfg(1, 200),
                lambda v: C.at_least(v, 1e-3))
    for n, m in ((4, 1), (5, 2), (6, 2)):
        pure_op(f"dicke({n},{m}) k={m + 2}", C.dicke_vector(n, m), n, m + 2, cfg(4, 100),
                lambda v: C.at_most(v, NEAR_ZERO))

    shifts = _subspace(zoo.shifts_complement_subspace(), rng)
    ops.append(Op(
        "shifts subspace",
        lambda: variational.gme_subspace_multipartite(shifts, cfg(2, 200)).value,
        lambda v: C.near(v, C.UPB_SHIFTS_GME, 1e-6),
    ))
    for dims, (gd_ref, _) in C.BHAT_TABLE.items():
        sub = _subspace(zoo.bhat_subspace(*dims), rng)
        ops.append(Op(
            f"bhat{dims} variational",
            lambda sub=sub: variational.gme_subspace_multipartite(sub, cfg(2, 200)).value,
            lambda v, gd_ref=gd_ref: C.relative(v, gd_ref, 0.05),
        ))
    upb = _mixed(zoo.upb_shifts_state().matrix, (2, 2, 2), rng)
    ops.append(Op(
        "upb shifts roof",
        lambda: variational.gme_mixed_multipartite(upb, n_entries=10, config=cfg(3, 100)).value,
        lambda v: C.first(C.at_least(v, C.UPB_SHIFTS_GME, 1e-9), C.at_most(v, C.UPB_SHIFTS_GME, 1e-4)),
    ))
    return ops


# ---------------------------------------------------------------------------
# mixed-sandwich

# lower_bound_mixed returns a value above the closed form on these fixed
# inputs while reporting 'optimal'; they are checked strictly and fail.
OVER_CERTIFIED = ((3, 0.7, 3), (3, 0.5, 2), (4, 0.7, 2))


def mixed_sandwich(rng, workdir) -> list[Op]:
    seed = int(rng.integers(2**31))
    # with 300 iterations, isotropic(4, 0.9) at k = 4 missed the closed form by
    # more than 1e-3 on 2% of seeds; with 600 the worst of 100 seeds was 1.7e-4
    config = OptimizerConfig(restarts=2, max_iterations=600, seed=seed)
    grid = [("isotropic", d, F, k, C.isotropic_matrix(d, F), C.isotropic_kgme(d, F, k))
            for d in (3, 4) for F in (0.6, 0.9) for k in range(2, d + 1)]
    grid += [("werner", d, a, 2, C.werner_matrix(d, a), C.werner_gme(d, a))
             for d in (3, 4) for a in (-1.0, 0.5)]
    ops = []
    for family, d, param, k, mat, exact in grid:
        rho = _mixed(mat, (d, d), rng)
        label = f"{family}(d={d}, {param}) k={k}"
        ops.append(Op(
            label + " upper",
            lambda rho=rho, k=k, d=d: variational.kgme_mixed(rho, k, n_entries=d * d + 4, config=config).value,
            lambda v, exact=exact: C.first(C.at_least(v, exact, 1e-9), C.at_most(v, exact, 1e-3)),
        ))
        ops.append(Op(
            label + " lower",
            lambda rho=rho, k=k: _value_status(sdp.lower_bound_mixed(rho, k, full_output=True)),
            lambda out, exact=exact: C.first(
                C.is_optimal(out[1]), C.at_most(out[0], exact, 2e-3), C.at_least(out[0], exact, 2e-3)),
        ))
    for d, F, k in OVER_CERTIFIED:
        rho = DensityMatrix(C.isotropic_matrix(d, F), (d, d))
        exact = C.isotropic_kgme(d, F, k)
        ops.append(Op(
            f"isotropic(d={d}, {F}) k={k} strict lower",
            lambda rho=rho, k=k: _value_status(sdp.lower_bound_mixed(rho, k, full_output=True)),
            lambda out, exact=exact: C.first(C.is_optimal(out[1]), C.at_most(out[0], exact, 1e-12)),
            known_fault=True,
        ))
    return ops


# ---------------------------------------------------------------------------
# sdp-large


def sdp_large(rng, workdir) -> list[Op]:
    iso = _mixed(C.isotropic_matrix(6, 0.7), (6, 6), rng)
    exact = C.isotropic_kgme(6, 0.7, 3)
    ops = [Op(
        "isotropic(d=6, 0.7) k=3 lower",
        lambda: _value_status(sdp.lower_bound_mixed(iso, 3, full_output=True)),
        lambda out: C.first(C.is_optimal(out[1]), C.near(out[0], exact, 1e-5)),
    )]
    for dims in ((2, 2, 2), (2, 2, 6)):
        gd_ref, ppt_ref = C.BHAT_TABLE[dims]
        sub = _subspace(zoo.bhat_subspace(*dims), rng)
        ops.append(Op(
            f"bhat{dims} ppt",
            lambda sub=sub: _value_status(sdp.lower_bound_subspace_ppt(sub, tolerance=1e-6, full_output=True)),
            lambda out, gd_ref=gd_ref, ppt_ref=ppt_ref: C.first(
                C.is_optimal(out[1]), C.relative(out[0], ppt_ref, 0.05), C.at_most(out[0], gd_ref * 1.05)),
        ))
    return ops


# ---------------------------------------------------------------------------
# exact-cli


def run_cli(argv) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _record(stdout):
    return json.loads(stdout.splitlines()[-1])


def _write_pure(path, vec, dims):
    doc = {"type": "pure", "dims": list(dims),
           "amplitudes": [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_pure(path):
    with open(path, encoding="utf-8") as fh:
        pairs = np.asarray(json.load(fh)["amplitudes"], dtype=float)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _local_unitary(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _haar_op(workdir):
    out_dir = os.path.join(workdir, "haar")
    argv = ["haar", "--dims", "4,4", "--samples", HAAR_SAMPLES, "--seed", HAAR_SEED,
            "--k", 2, 3, 4, "--m", 2, 3, 4, "--out", out_dir]

    def run():
        code, stdout = run_cli(argv)
        if code != 0:
            return code, float("nan"), float("nan"), 0, float("nan")
        path = _record(stdout)["samples_csv"]
        with open(path, encoding="utf-8") as fh:
            col = fh.readline().strip().split(",").index("E4")
        e4 = np.loadtxt(path, delimiter=",", skiprows=1, usecols=col)
        return code, float(e4.mean()), float(e4.std()), int(e4.size), C.ks_distance(e4, 4)

    def check(out):
        code, mean, std, n, ks = out
        return C.first(C.equal(code, 0), C.equal(n, HAAR_SAMPLES),
                       C.mean_within_se(mean, std, n, 1.0 / 64.0), C.at_most(ks, 0.01))

    return Op("cli haar N=1e5", run, check)


def exact_cli(rng, workdir) -> list[Op]:
    ops = [_haar_op(workdir)]

    # Vidal's 4/5 example under random local unitaries, through files rewritten by convert
    psi = np.zeros(16, dtype=complex)
    psi[[0, 5, 10, 15]] = np.sqrt([2 / 5, 2 / 5, 1 / 10, 1 / 10])
    phi = np.zeros(16, dtype=complex)
    phi[[0, 5, 10]] = np.sqrt([1 / 2, 1 / 4, 1 / 4])
    converted = {}
    for name, vec in (("psi", psi), ("phi", phi)):
        vec = np.kron(_local_unitary(4, rng), _local_unitary(4, rng)) @ vec
        src = os.path.join(workdir, f"{name}.json")
        dst = os.path.join(workdir, f"{name}_converted.json")
        _write_pure(src, vec, (4, 4))
        converted[name] = dst

        def run(src=src, dst=dst):
            code, _ = run_cli(["convert", "--state", src, "--out", dst])
            return code, float(np.max(np.abs(_read_pure(dst) - _read_pure(src))))

        ops.append(Op(f"cli convert {name}", run,
                      lambda out: C.first(C.equal(out[0], 0), C.at_most(out[1], 1e-15))))
    vidal_argv = ["transform", "--from", converted["psi"], "--to", converted["phi"]]
    ops.append(Op(
        "cli transform vidal",
        lambda: run_cli(vidal_argv),
        lambda out: C.first(C.equal(out[0], 0), C.near(_record(out[1])["value"], 0.8, 1e-12),
                            C.equal(_record(out[1])["deterministic"], False)),
    ))

    # distillation of a random 4x4 state against numpy's eigvalsh
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    rand_path = os.path.join(workdir, "random.json")
    _write_pure(rand_path, amps, (4, 4))
    lam = C.reduced_spectrum(amps, 4, 4)
    first_stdout = {}
    for m in (2, 3, 4):
        ref = C.distill_reference(lam, m)

        def run(m=m):
            code, stdout = run_cli(["transform", "--from", rand_path, "--distill", m])
            first_stdout.setdefault(m, stdout)
            return code, stdout

        ops.append(Op(f"cli transform distill m={m}", run,
                      lambda out, ref=ref: C.first(C.equal(out[0], 0),
                                                   C.near(_record(out[1])["value"], ref, 1e-12))))
    ops.append(Op(
        "cli transform distill m=3 repeated",
        lambda: run_cli(["transform", "--from", rand_path, "--distill", 3]),
        lambda out: C.first(C.equal(out[0], 0), C.equal(out[1], first_stdout.get(3))),
    ))

    # closed forms through the oracle subcommand
    F = round(float(rng.uniform(0.35, 0.95)), 3)
    alpha = round(float(rng.uniform(0.3, 1.0)), 3)
    for argv, ref in (
        (["oracle", "--state", f"isotropic:d=4,F={F}", "--k", 3], C.isotropic_kgme(4, F, 3)),
        (["oracle", "--state", f"werner:d=4,alpha={alpha}"], C.werner_gme(4, alpha)),
        (["oracle", "--state", "dicke:n=5,m=2"], C.dicke_gme(5, 2)),
    ):
        ops.append(Op(f"cli {' '.join(map(str, argv[:3]))}", lambda argv=argv: run_cli(argv),
                      lambda out, ref=ref: C.first(C.equal(out[0], 0),
                                                   C.near(_record(out[1])["value"], ref, 1e-12))))

    # a named family written by convert and read back by load_state
    iso_path = os.path.join(workdir, "isotropic.json")
    iso_ref = C.isotropic_matrix(3, F)
    ops.append(Op("cli convert isotropic", lambda: run_cli(["convert", "--state", f"isotropic:d=3,F={F}",
                                                           "--out", iso_path])[0],
                  lambda code: C.equal(code, 0)))
    ops.append(Op("load_state isotropic",
                  lambda: float(np.max(np.abs(serialize.load_state(iso_path).matrix - iso_ref))),
                  lambda diff: C.at_most(diff, 1e-14)))

    # exact Schmidt tails against numpy's eigvalsh
    for i in range(100):
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = PureState(amps / np.linalg.norm(amps), (4, 4))
        lam = C.reduced_spectrum(state.amplitudes, 4, 4)
        for k in (2, 3, 4):
            ops.append(Op(f"k_gme_pure #{i} k={k}",
                          lambda state=state, k=k: pure.k_gme_pure(state, (0,), k),
                          lambda v, ref=C.schmidt_tail(lam, k): C.near(v, ref, 1e-12)))
    return ops


WORKLOADS = {
    "multipartite-variational": multipartite_variational,
    "mixed-sandwich": mixed_sandwich,
    "sdp-large": sdp_large,
    "exact-cli": exact_cli,
}


def build(name, seed, workdir) -> list[Op]:
    return WORKLOADS[name](np.random.default_rng(seed), workdir)


# ---------------------------------------------------------------------------
# the probe pass: one small call into every layer


def probe_pass(workdir):
    """Touch every layer's entry points once at a small size.

    Runs as the warm-up of every workload, so lazy set-up (the first L-BFGS-B
    call, scipy's lazy imports) ends before timing, and once in every traced
    round, so that each layer's traced figures exist on every workload.
    """
    small = OptimizerConfig(restarts=1, max_iterations=10, seed=0)
    variational.kgme_pure_multipartite(PureState(C.dicke_vector(4, 1), (2,) * 4), 3, small)
    variational.gme_subspace_multipartite(zoo.bhat_subspace(2, 2, 2), small)
    rho = DensityMatrix(C.isotropic_matrix(3, 0.7), (3, 3))
    variational.kgme_mixed(rho, 2, n_entries=9, config=small)
    variational.gme_mixed_multipartite(zoo.upb_shifts_state(), n_entries=5, config=small)
    sdp.lower_bound_mixed(DensityMatrix(C.isotropic_matrix(2, 0.9), (2, 2)), 2)
    out_dir = os.path.join(workdir, "probe")
    os.makedirs(out_dir, exist_ok=True)
    run_cli(["haar", "--dims", "3,3", "--samples", 200, "--seed", 0, "--out", out_dir])
    path = os.path.join(out_dir, "bell.json")
    run_cli(["convert", "--state", "bell", "--out", path])
    run_cli(["transform", "--from", path, "--distill", 2])
    run_cli(["oracle", "--state", "isotropic:d=3,F=0.7", "--k", 2])
    serialize.load_state(path)
    pure.k_gme_pure(PureState(C.dicke_vector(2, 1), (2, 2)), (0,), 2)
