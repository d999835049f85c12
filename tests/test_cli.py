"""End-to-end command-line behavior: records, exit codes, determinism."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from gme import sdp
from gme.cli import _parse_partition, main
from gme.serialize import save_state
from gme.states import PureState
from gme.zoo import bell_state, dicke_mixture_gme


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
    ],
)
def test_oracle_refuses_parameters_its_family_refuses(capsys, state):
    code, out, err = run_cli(capsys, "oracle", "--state", state)
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
    ):
        code, out, _ = run_cli(capsys, "bound", *args)
        assert code == 2 and not out


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


@pytest.mark.parametrize("flags", [("--max-iterations", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")])
def test_bad_optimizer_budget_or_tolerance_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "pure", "--state", "ghz", "--k", "2", "--restarts", "1", *flags)
    assert code == 2 and out == "" and err.startswith("gme:")


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
