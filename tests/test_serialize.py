"""State files round-trip exactly; malformed documents fail with diagnostics."""

import json

import numpy as np
import pytest

from gme.serialize import StateFileError, load_state, parse_spec_string, save_state
from gme.states import PureState, Subspace
from gme.zoo import StateSpec, SubspaceSpec, bell_state, family_signature, isotropic_state

from conftest import random_pure


def test_pure_roundtrip_exact(tmp_path):
    path = tmp_path / "bell.json"
    save_state(bell_state(), path)
    loaded = load_state(path)
    assert isinstance(loaded, PureState)
    np.testing.assert_array_equal(loaded.amplitudes, bell_state().amplitudes)
    assert loaded.dims == (2, 2)


def test_mixed_roundtrip_exact(tmp_path, rng):
    rho = isotropic_state(3, 0.7)
    path = tmp_path / "iso.json"
    save_state(rho, path)
    loaded = load_state(path)
    np.testing.assert_array_equal(loaded.matrix, rho.matrix)


def test_subspace_roundtrip(tmp_path, rng):
    sub = Subspace.from_states([random_pure((2, 2), rng) for _ in range(3)])
    path = tmp_path / "sub.json"
    save_state(sub, path)
    loaded = load_state(path)
    assert isinstance(loaded, Subspace)
    assert loaded.dimension <= 3
    np.testing.assert_allclose(loaded.complement.matrix, sub.complement.matrix, atol=1e-12)


def test_trace_violation_rejected(tmp_path):
    rho = isotropic_state(2, 0.5)
    doc = {
        "type": "mixed",
        "dims": [2, 2],
        "matrix": [[[float(x.real * 1.001), float(x.imag)] for x in row] for row in rho.matrix],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError):
        load_state(path)


def test_mild_norm_drift_renormalized(tmp_path):
    amps = bell_state().amplitudes * (1.0 + 2e-10)
    doc = {"type": "pure", "dims": [2, 2], "amplitudes": [[z.real, z.imag] for z in amps]}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    loaded = load_state(path)
    assert abs(np.linalg.norm(loaded.amplitudes) - 1.0) < 1e-12


def test_mild_trace_drift_renormalized(tmp_path):
    rho = isotropic_state(2, 0.5)
    doc = {"type": "mixed", "dims": [2, 2],
           "matrix": [[[float(x.real * (1 + 5e-10)), float(x.imag)] for x in row] for row in rho.matrix]}
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc))
    loaded = load_state(path)
    assert abs(np.trace(loaded.matrix).real - 1.0) < 1e-15
    np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)


def test_schema_diagnostics(tmp_path):
    cases = [
        ("{not json", "line"),
        (json.dumps([1, 2]), "top level"),
        (json.dumps({"type": "funky", "dims": [2]}), "type"),
        (json.dumps({"type": "pure", "dims": "x"}), "dims"),
        (json.dumps({"type": "pure", "dims": [2]}), "amplitudes"),
        (json.dumps({"type": "mixed", "dims": [2], "matrix": [[1, 2]]}), "matrix"),
        (json.dumps({"type": "subspace", "dims": [2], "spanning": []}), "spanning"),
    ]
    for text, needle in cases:
        path = tmp_path / "case.json"
        path.write_text(text)
        with pytest.raises(StateFileError) as err:
            load_state(path)
        assert needle in str(err.value)


def test_spec_string_grammar():
    spec = parse_spec_string("isotropic:d=4,F=0.6")
    assert spec == StateSpec("isotropic", {"d": 4, "F": 0.6})
    assert family_signature(spec.name)[2] == "mixed"
    sub = parse_spec_string("two_by_d_theta:d=3,theta=1.57")
    assert isinstance(sub, SubspaceSpec)
    assert family_signature(sub.name)[2] == "subspace"
    assert parse_spec_string("ghz") == StateSpec("ghz", {})
    with pytest.raises(StateFileError):
        parse_spec_string("isotropic:d=4,volume=2")
    with pytest.raises(StateFileError):
        parse_spec_string("nonsense:d=2")
    with pytest.raises(StateFileError):
        parse_spec_string("isotropic:d=4")  # missing F
    with pytest.raises(StateFileError):
        parse_spec_string("isotropic:d=four,F=1")
    with pytest.raises(StateFileError):
        parse_spec_string("isotropic:d=4,F=0.6,F=0.9")  # repeated key
