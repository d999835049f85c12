"""End-to-end command-line behavior: records, exit codes, determinism."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from gme import sdp, variational
from gme.cli import _optimizer_config, _parse_partition, build_parser, main
from gme.optimizers import OptimizerConfig
from gme.pure import k_gme_pure
from gme.serialize import save_state
from gme.states import PureState, StateError
from gme.zoo import (
    FAMILIES,
    bell_state,
    bhat_subspace,
    dicke_mixture_gme,
    isotropic_kgme,
    isotropic_state,
    max_entangled,
    two_by_d_theta_subspace,
    upb_shifts_state,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _record(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_pure_ghz(capsys):
    code, out, _ = run_cli(capsys, "pure", "--state", "ghz", "--k", "2", "--restarts", "3")
    assert code == 0
    rec = _record(out)
    assert abs(rec["value"] - 0.5) < 1e-6
    assert rec["method"] == "variational" and rec["k"] == 2


def test_oracle_isotropic(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--state", "isotropic:d=4,F=1", "--k", "2")
    assert code == 0
    assert abs(_record(out)["value"] - 0.75) < 1e-12


def test_oracle_dicke_mixture_honours_k(capsys):
    """The Dicke-mixture closed form is the k = 2 measure; k = 3 is refused, not answered with it."""
    state = "dicke_mixture:n=4,k1=1,k2=2,r=0.3"
    code, out, _ = run_cli(capsys, "oracle", "--state", state, "--k", "2")
    assert code == 0 and _record(out)["value"] == dicke_mixture_gme(4, 1, 2, 0.3)
    code, out, err = run_cli(capsys, "oracle", "--state", state, "--k", "3")
    assert code == 2 and out == "" and err.startswith("gme:")


@pytest.mark.parametrize(
    "state",
    [
        "isotropic:d=4,F=1.5",
        "werner:d=4,alpha=3",
        "two_by_d_theta:d=3,theta=7",
        "max_entangled:d=1",
        "werner:d=1,alpha=0.5",
        "two_by_d_theta:d=3,theta=1.0,xi=7",
        "dicke:n=2,m=3",
        "dicke_mixture:n=3,k1=1,k2=1,r=0.5",
    ],
)
def test_oracle_refuses_parameters_its_family_refuses(capsys, state):
    code, out, err = run_cli(capsys, "oracle", "--state", state)
    assert code == 2 and out == "" and err.startswith("gme:")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_oracle_answers_max_entangled_at_every_k_up_to_d(capsys, d):
    """max_entangled(d) is isotropic(d, F = 1), so the oracle answers it at every k its closed form covers."""
    psi = max_entangled(d)
    for k in range(2, d + 1):
        code, out, _ = run_cli(capsys, "oracle", "--state", f"max_entangled:d={d}", "--k", str(k))
        value = _record(out)["value"]
        assert code == 0 and value == isotropic_kgme(d, 1.0, k)
        assert abs(value - k_gme_pure(psi, (0,), k)) <= 1e-15
    code, out, err = run_cli(capsys, "oracle", "--state", f"max_entangled:d={d}", "--k", str(d + 1))
    assert code == 2 and out == "" and err.startswith("gme:")


# one valid spec per family
ORACLE_SPECS = {
    "bell": "bell",
    "ghz": "ghz",
    "w": "w",
    "w_tilde": "w_tilde",
    "max_entangled": "max_entangled:d=4",
    "dicke": "dicke:n=4,m=2",
    "isotropic": "isotropic:d=4,F=0.7",
    "werner": "werner:d=3,alpha=0.5",
    "horodecki": "horodecki:a=0.3",
    "upb_tiles_state": "upb_tiles_state",
    "upb_shifts_state": "upb_shifts_state",
    "huber_ppt": "huber_ppt:d=4",
    "dicke_mixture": "dicke_mixture:n=3,k1=1,k2=2,r=0.3",
    "two_by_d_theta": "two_by_d_theta:d=3,theta=1.2,xi=0.5",
    "johnston_4x4": "johnston_4x4",
    "bhat": "bhat:d1=2,d2=2,d3=3",
    "tiles_complement": "tiles_complement",
    "shifts_complement": "shifts_complement",
}


def test_oracle_specs_name_every_family():
    assert set(ORACLE_SPECS) == set(FAMILIES)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_oracle_answers_or_refuses_every_family(capsys, name, k):
    """Each family gets a value in [0, 1] or a usage error; nothing raises out of main."""
    code, out, err = run_cli(capsys, "oracle", "--state", ORACLE_SPECS[name], "--k", str(k))
    if code == 0:
        assert 0.0 <= _record(out)["value"] <= 1.0
    else:
        assert code == 2 and out == "" and err.startswith("gme:")


def test_transform_example_pair(capsys, tmp_path):
    amps = np.zeros(16, dtype=complex)
    amps[[0, 5, 10, 15]] = np.sqrt([2 / 5, 2 / 5, 1 / 10, 1 / 10])
    psi = PureState(amps, (4, 4))
    amps2 = np.zeros(16, dtype=complex)
    amps2[[0, 5, 10]] = np.sqrt([1 / 2, 1 / 4, 1 / 4])
    phi = PureState(amps2, (4, 4))
    f1, f2 = tmp_path / "psi.json", tmp_path / "phi.json"
    save_state(psi, f1)
    save_state(phi, f2)
    code, out, _ = run_cli(capsys, "transform", "--from", str(f1), "--to", str(f2))
    assert code == 0
    rec = _record(out)
    assert abs(rec["value"] - 0.8) < 1e-12
    assert rec["deterministic"] is False


def test_bound_subspace(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--subspace", "two_by_d_theta:d=3,theta=1.5707963267948966", "--k", "2"
    )
    assert code == 0
    rec = _record(out)
    assert abs(rec["value"] - 0.25) < 1e-3
    assert rec["certifying"] is True


def test_bound_reports_solver_status(capsys, monkeypatch):
    """`converged` follows the status of the SDP solve."""
    args = ("bound", "--state", "isotropic:d=2,F=0.9", "--k", "2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and _record(out)["converged"] is True
    solve = sdp.solve_sdp
    monkeypatch.setattr(
        sdp, "solve_sdp", lambda *a, **kw: dataclasses.replace(solve(*a, **kw), status="max_iterations")
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and _record(out)["converged"] is False


def test_bound_refuses_requests_it_cannot_certify(capsys):
    """k >= 3 on a multipartite subspace, the reduction cone there, and PPT at k >= 3."""
    for args in (
        ("--subspace", "bhat:d1=2,d2=2,d3=2", "--k", "3"),
        ("--subspace", "bhat:d1=2,d2=2,d3=2", "--k", "2", "--relaxation", "reduction"),
        ("--subspace", "johnston_4x4", "--k", "3", "--relaxation", "ppt"),
        ("--state", "isotropic:d=3,F=0.7", "--k", "3", "--relaxation", "ppt"),
        ("--state", "dicke_mixture:n=4,k1=1,k2=2,r=0.3", "--k", "3"),
    ):
        code, out, _ = run_cli(capsys, "bound", *args)
        assert code == 2 and not out


def test_bound_certifies_a_multipartite_mixed_state(capsys):
    state = "dicke_mixture:n=4,k1=1,k2=2,r=0.3"
    code, out, _ = run_cli(capsys, "bound", "--state", state, "--k", "2")
    rec = _record(out)
    assert code == 0 and rec["certifying"] is True and rec["method"] == "sdp-ppt"
    assert abs(rec["value"] - dicke_mixture_gme(4, 1, 2, 0.3)) < 1e-5


def test_transform_refuses_a_distill_target_below_one(capsys):
    code, out, err = run_cli(capsys, "transform", "--from", "bell", "--distill", "0")
    assert code == 2 and out == "" and "m=0 must be at least 1" in err


def test_bound_names_the_relaxation_used(capsys):
    for k, method in (("2", "sdp-ppt"), ("3", "sdp-reduction")):
        code, out, _ = run_cli(capsys, "bound", "--state", "isotropic:d=3,F=0.7", "--k", k)
        assert code == 0 and _record(out)["method"] == method


def test_bound_needs_a_state_or_subspace(capsys):
    code, out, err = run_cli(capsys, "bound", "--k", "2")
    assert code == 2 and out == "" and err.startswith("gme:")


def test_bound_refuses_a_state_and_a_subspace_together(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--state", "isotropic:d=2,F=0.9", "--subspace", "bhat:d1=2,d2=2,d3=2"
    )
    assert code == 2 and out == "" and err.startswith("gme:")


def test_criteria_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "criteria", "--state", "ghz", "--witness-from", "ghz", "--restarts", "3"
    )
    assert code == 0
    rec = _record(out)
    assert abs(rec["witness_threshold"] - 0.5) < 1e-6
    assert rec["witness_detects"] is True


def test_bad_arguments_exit_2(capsys):
    code, _, _ = run_cli(capsys, "pure", "--state", "ghz", "--k", "not-an-int")
    assert code == 2
    code, _, err = run_cli(capsys, "mixed", "--state", "ghz", "--k", "2")
    assert code == 2 and "density" in err


@pytest.mark.parametrize("argv", [
    ("pure", "--state", "isotropic:d=2,F=0.5"),
    ("subspace", "--subspace", "bell"),
    ("bound", "--state", "bell"),
    ("criteria", "--state", "bhat:d1=2,d2=2,d3=2"),
    ("criteria", "--state", "bell", "--witness-from", "isotropic:d=2,F=0.5"),
    ("transform", "--from", "isotropic:d=2,F=0.5", "--distill", "2"),
    ("transform", "--from", "bell"),
    ("transform", "--from", "bell", "--to", "isotropic:d=2,F=0.5"),
    ("transform", "--from", "bell", "--to", "ghz"),
    ("mixed", "--state", "isotropic:d=2,F=0.5", "--ansatz-terms", "x"),
    ("mixed", "--state", "upb_shifts_state", "--partition", "012"),
    ("mixed", "--state", "upb_shifts_state", "--partition", "0,x|1,2"),
    ("convert", "--state", "bell", "--out", "{missing}/x.json"),
])
def test_refused_input_exits_2_with_one_message(capsys, tmp_path, argv):
    """An input of the wrong kind, a missing or malformed flag, or an unwritable
    output is refused before anything is printed on stdout."""
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("gme:")


def test_transform_refuses_to_together_with_distill(capsys):
    code, out, err = run_cli(capsys, "transform", "--from", "bell", "--to", "bell", "--distill", "2")
    assert code == 2 and out == "" and "exactly one of --to and --distill" in err


@pytest.mark.parametrize("m", [0, 3])
def test_oracle_dicke_without_excitations_to_spread_is_zero(capsys, m):
    """|000> and |111> are product states."""
    code, out, _ = run_cli(capsys, "oracle", "--state", f"dicke:n=3,m={m}")
    assert code == 0 and _record(out)["value"] == 0.0


def test_trace_drift_beyond_the_load_tolerance_exits_3(capsys, tmp_path):
    rho = isotropic_state(2, 0.5)
    doc = {"type": "mixed", "dims": [2, 2],
           "matrix": [[[float(x.real * (1 + 5e-9)), float(x.imag)] for x in row] for row in rho.matrix]}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "convert", "--state", str(path), "--out", str(tmp_path / "out.json"))
    assert code == 3 and out == "" and "matrix trace 1.00000000" in err and "np." not in err


@pytest.mark.parametrize("flags", [("--max-iterations", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")])
def test_bad_optimizer_budget_or_tolerance_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "pure", "--state", "ghz", "--k", "2", "--restarts", "1", *flags)
    assert code == 2 and out == "" and err.startswith("gme:")


@pytest.mark.parametrize("flags", [("--seed", "-1"), ("--restarts", "-5"), ("--max-iterations", "0"), ("--tol", "nan")])
def test_criteria_validates_optimizer_flags_like_pure(capsys, flags):
    """``criteria`` refuses a bad optimizer flag with or without --witness-from, as ``pure`` does."""
    _, _, pure_err = run_cli(capsys, "pure", "--state", "ghz", "--k", "2", *flags)
    code, out, err = run_cli(capsys, "criteria", "--state", "bell", *flags)
    assert code == 2 and out == "" and err == pure_err and err.startswith("gme:")


def test_two_party_roof_refuses_k_below_2(capsys):
    """The closest states are solved in closed form, yet k < 2 is still refused, not answered."""
    for k in (1, 0):
        with pytest.raises(StateError, match="k >= 2"):
            variational.kgme_mixed(isotropic_state(3, 0.7), k)
    code, out, err = run_cli(capsys, "mixed", "--state", "isotropic:d=3,F=0.7", "--k", "1")
    assert code == 2 and out == "" and err.startswith("gme:")


@pytest.mark.parametrize("argv", [("pure", "--state", "ghz"), ("subspace", "--subspace", "ghz"),
                                  ("criteria", "--state", "bell")], ids=["pure", "subspace", "criteria"])
def test_ansatz_terms_is_refused_where_nothing_reads_it(capsys, argv):
    """Only ``mixed`` has a roof decomposition; elsewhere the flag is a usage error, not ignored."""
    code, out, err = run_cli(capsys, *argv, "--ansatz-terms", "8")
    assert code == 2 and out == "" and "--ansatz-terms" in err


@pytest.mark.parametrize("argv", [("bound", "--state", "isotropic:d=2,F=0.9"), ("oracle", "--state", "bell"),
                                  ("transform", "--from", "bell", "--distill", "2")],
                         ids=["bound", "oracle", "transform"])
def test_seed_is_refused_where_nothing_reads_it(capsys, argv):
    """Deterministic subcommands take no --seed; their records print seed 0."""
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 2 and out == "" and "unrecognized arguments: --seed 1" in err
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and _record(out)["seed"] == 0


def test_ansatz_terms_below_the_rank_exits_2(capsys):
    code, out, err = run_cli(capsys, "mixed", "--state", "isotropic:d=3,F=0.7", "--k", "2", "--ansatz-terms", "2")
    assert code == 2 and out == "" and err.startswith("gme:") and "n_entries >= rank" in err


@pytest.mark.parametrize("argv", [("pure", "--state", "ghz"), ("subspace", "--subspace", "ghz"),
                                  ("mixed", "--state", "bell"), ("criteria", "--state", "bell")],
                         ids=["pure", "subspace", "mixed", "criteria"])
def test_optimizer_flag_defaults_are_optimizer_config_defaults(argv):
    assert _optimizer_config(build_parser().parse_args(argv)) == OptimizerConfig()


def _bell_file(tmp_path, kind, where, value):
    """A Bell state file of the given kind with the field at key path ``where`` set to ``value``."""
    pure = kind == "pure"
    data = bell_state().amplitudes if pure else bell_state().to_density_matrix().matrix
    doc = {"type": kind, "dims": [2, 2], "amplitudes" if pure else "matrix": np.stack([data.real, data.imag], -1).tolist()}
    *outer, last = where
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind,where,value", [
    ("pure", ("amplitudes", 0, 0), float("nan")),
    ("mixed", ("matrix", 1, 1, 0), float("nan")),
    ("mixed", ("matrix", 0, 3, 0), float("nan")),
    ("pure", ("dims",), [True, 4]),
], ids=["nan-amplitude", "nan-diagonal", "nan-off-diagonal", "bool-dims"])
def test_convert_refuses_nan_entries_and_bool_dims(capsys, tmp_path, kind, where, value):
    """Exit 3 (unreadable state file), where NaN files used to convert and [true, 4] load as (1, 4)."""
    out_file = tmp_path / "out.json"
    state = _bell_file(tmp_path, kind, where, value)
    code, out, err = run_cli(capsys, "convert", "--state", state, "--out", str(out_file))
    assert code == 3 and out == "" and err.startswith("gme:")
    assert not out_file.exists()


def _write_directory(path):
    path.mkdir()


def _write_latin1(path):
    path.write_bytes('{"type": "pure", "dims": [2], "amplitudes": [[1, 0], [0, 0]], "note": "\u00e9"}'.encode("latin-1"))


def _write_ragged_matrix(path):
    path.write_text('{"type":"mixed","dims":[2],"matrix":[[[1,0],[0,0]],[[0,0]]]}')


@pytest.mark.parametrize("write", [_write_directory, _write_latin1, _write_ragged_matrix],
                         ids=["directory", "not-utf8", "ragged-matrix"])
def test_convert_unreadable_state_exits_3(capsys, tmp_path, write):
    """A path that cannot be read, bytes that are not UTF-8, and matrix rows of unequal
    length are parse failures (exit 3), not tracebacks."""
    state, out_file = tmp_path / "d.json", tmp_path / "o.json"
    write(state)
    code, out, err = run_cli(capsys, "convert", "--state", str(state), "--out", str(out_file))
    assert code == 3 and out == "" and err.startswith("gme:")
    assert not out_file.exists()


def test_parse_failure_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "pure", "--state", "no_such_family:x=1")
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "pure", "--state", str(bad))
    assert code == 3 and err


def test_mixed_partition(capsys):
    code, out, _ = run_cli(
        capsys,
        "mixed", "--state", "upb_shifts_state", "--partition", "0|12",
        "--k", "2", "--restarts", "2", "--ansatz-terms", "8", "--max-iterations", "300",
    )
    assert code == 0
    assert _record(out)["value"] < 1e-6


@pytest.mark.parametrize("argv", [
    ("subspace", "--subspace", "shifts_complement", "--k", "3"),
    ("mixed", "--state", "upb_shifts_state", "--k", "3", "--ansatz-terms", "10"),
], ids=["subspace", "mixed"])
def test_multipartite_k_3_prints_a_record(capsys, argv):
    """Three-party inputs at k = 3 have tensor rank <= 2 closest states, and both are 0 there."""
    code, out, _ = run_cli(capsys, *argv, "--restarts", "2", "--max-iterations", "300")
    assert code == 0
    rec = _record(out)
    assert rec["k"] == 3 and rec["method"] == "variational" and rec["value"] < 1e-8


K2_CFG = OptimizerConfig(restarts=2, max_iterations=200)


@pytest.mark.parametrize("argv, expected", [
    (("subspace", "--subspace", "bhat:d1=2,d2=2,d3=3"),
     lambda: variational.kgme_subspace(bhat_subspace(2, 2, 3), 2, K2_CFG)),
    (("mixed", "--state", "upb_shifts_state", "--ansatz-terms", "10"),
     lambda: variational.kgme_mixed(upb_shifts_state(), 2, 10, K2_CFG)),
    (("subspace", "--subspace", "two_by_d_theta:d=3,theta=1.0"),
     lambda: variational.kgme_subspace(two_by_d_theta_subspace(3, 1.0), 2, K2_CFG)),
    (("mixed", "--state", "isotropic:d=2,F=0.8", "--ansatz-terms", "4"),
     lambda: variational.kgme_mixed(isotropic_state(2, 0.8), 2, 4, K2_CFG)),
], ids=["subspace-3-party", "mixed-3-party", "subspace-2-party", "mixed-2-party"])
def test_k_2_is_the_kgme_measure_on_every_party_count(capsys, argv, expected):
    """At k = 2 the CLI runs kgme_subspace and kgme_mixed, on two parties as on three."""
    code, out, _ = run_cli(capsys, *argv, "--k", "2", "--restarts", "2", "--max-iterations", "200")
    assert code == 0 and _record(out)["value"] == expected().value


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "pure", "--state", "w", "--k", "2", "--restarts", "2", "--seed", "5")
    _, out2, _ = run_cli(capsys, "pure", "--state", "w", "--k", "2", "--restarts", "2", "--seed", "5")
    assert out1 == out2


def test_haar_single_sample(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "haar", "--dims", "4,4", "--samples", "1", "--seed", "3",
        "--m", "2", "--out", str(tmp_path),
    )
    assert code == 0
    rec = _record(out)
    with open(rec["samples_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "E2", "E3", "E4", "psucc_2"]
    assert len(rows) == 2
    with open(rec["histogram_csv"], newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["quantity", "bin_left", "bin_right", "empirical_density", "analytic_density"]


def test_haar_determinism(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "haar", "--samples", "50", "--seed", "9", "--out", str(out_a))
    run_cli(capsys, "haar", "--samples", "50", "--seed", "9", "--out", str(out_b))
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    assert (out_a / "histogram.csv").read_bytes() == (out_b / "histogram.csv").read_bytes()


def test_haar_refuses_k_below_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, "haar", "--samples", "5", "--k", "0", "--out", str(tmp_path))
    assert code == 2 and out == "" and "k=0" in err
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("dims, k", [("4,4", "5"), ("2,3", "3")])
def test_haar_refuses_k_above_local_dimension(capsys, tmp_path, dims, k):
    code, out, err = run_cli(capsys, "haar", "--dims", dims, "--samples", "5", "--k", k, "--out", str(tmp_path))
    assert code == 2 and out == "" and f"k={k}" in err
    assert not (tmp_path / "samples.csv").exists()


def test_haar_refuses_a_distill_target_as_transform_does(capsys, tmp_path):
    """Both commands check a target dimension m with the same rule and message."""
    code_h, out_h, err_h = run_cli(
        capsys, "haar", "--dims", "4,4", "--samples", "10", "--m", "0", "--out", str(tmp_path)
    )
    code_t, out_t, err_t = run_cli(capsys, "transform", "--from", "bell", "--distill", "0")
    assert code_h == code_t == 2 and out_h == out_t == ""
    assert err_h == err_t == "gme: target dimension m=0 must be at least 1\n"
    assert not (tmp_path / "samples.csv").exists()


def test_haar_refuses_zero_bins(capsys, tmp_path):
    code, out, err = run_cli(capsys, "haar", "--samples", "5", "--bins", "0", "--out", str(tmp_path))
    assert code == 2 and out == "" and "bin" in err
    assert not (tmp_path / "samples.csv").exists()


def test_haar_refuses_non_integer_dims(capsys, tmp_path):
    code, out, err = run_cli(capsys, "haar", "--dims", "4,x", "--samples", "10", "--out", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("gme:")
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize(
    "argv", [("haar", "--samples", "10", "--seed", "-1"), ("pure", "--state", "ghz", "--k", "2", "--seed", "-1")]
)
def test_negative_seed_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "seed" in err
    assert not any(tmp_path.iterdir())


def test_convert_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "bell.json"
    code, out, _ = run_cli(capsys, "convert", "--state", "bell", "--out", str(out_file))
    assert code == 0
    from gme.serialize import load_state

    np.testing.assert_array_equal(load_state(out_file).amplitudes, bell_state().amplitudes)


@pytest.mark.parametrize("partition", ["00|12", "|012", "012|", "0|112"])
def test_malformed_partition_exits_2(capsys, partition):
    """A repeated party index or an empty side is a usage error, not a traceback or a value."""
    code, out, err = run_cli(
        capsys, "mixed", "--state", "upb_shifts_state", "--partition", partition,
        "--k", "2", "--restarts", "1", "--ansatz-terms", "8", "--max-iterations", "5",
    )
    assert code == 2 and out == "" and err.startswith("gme:")


@pytest.mark.parametrize("partition, left", [
    ("0,1,2,3,4,5,6,7,8,9|10", tuple(range(10))),
    ("10|0,1,2,3,4,5,6,7,8,9", (10,)),
])
def test_partition_with_commas_names_multi_digit_parties(partition, left):
    """A partition with a comma lists comma-separated indices, so party 10 of 11 can be named."""
    assert _parse_partition(partition, 11) == left


FIVE_KEYS = {"value", "k", "method", "converged", "seed"}
FAST_FLAGS = ("--restarts", "1", "--max-iterations", "5")


@pytest.mark.parametrize("argv, extra", [
    (("pure", "--state", "ghz", *FAST_FLAGS), set()),
    (("subspace", "--subspace", "two_by_d_theta:d=3,theta=1.2", *FAST_FLAGS), set()),
    (("mixed", "--state", "isotropic:d=2,F=0.9", *FAST_FLAGS), set()),
    (("oracle", "--state", "bell"), set()),
    (("bound", "--state", "isotropic:d=2,F=0.9"), {"certifying"}),
    (("transform", "--from", "max_entangled:d=2", "--to", "bell"), {"deterministic"}),
    (("transform", "--from", "max_entangled:d=3", "--distill", "2"), {"deterministic"}),
    (("haar", "--samples", "3", "--out", "{tmp}"), {"samples_csv", "histogram_csv"}),
    (("convert", "--state", "bell", "--out", "{tmp}/bell.json"), {"path"}),
], ids=["pure", "subspace", "mixed", "oracle", "bound", "transform-to", "transform-distill", "haar", "convert"])
def test_record_keys(capsys, tmp_path, argv, extra):
    """Each subcommand's record has the five shared keys plus exactly its own."""
    code, out, _ = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 0
    assert set(_record(out)) == FIVE_KEYS | extra
