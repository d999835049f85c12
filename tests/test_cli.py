"""End-to-end command-line behavior: records, exit codes, determinism."""

import csv
import dataclasses
import json

import numpy as np

from gme import sdp
from gme.cli import main
from gme.serialize import save_state
from gme.states import PureState
from gme.zoo import bell_state


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


def test_convert_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "bell.json"
    code, out, _ = run_cli(capsys, "convert", "--state", "bell", "--out", str(out_file))
    assert code == 0
    from gme.serialize import load_state

    np.testing.assert_array_equal(load_state(out_file).amplitudes, bell_state().amplitudes)
