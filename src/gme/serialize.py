"""JSON state files and the spec-string grammar for named families.

The file schema is

    {"type": "pure" | "mixed" | "subspace",
     "dims": [d1, ...],
     "amplitudes" | "matrix" | "spanning": nested [re, im] pairs}

and round-trips finite doubles exactly.  Spec strings look like
``isotropic:d=4,F=0.6`` (or a bare name); unknown names and keys are
rejected.
"""

from __future__ import annotations

import json

import numpy as np

from .states import DensityMatrix, PureState, StateError, Subspace
from .zoo import FAMILIES, StateSpec, SubspaceSpec, family_signature

LOAD_ATOL = 1e-9   # files off by more than this fail to parse


class StateFileError(ValueError):
    """Raised on schema violations with a field-level diagnostic."""


def _pairs_from_vector(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def _pairs_from_matrix(mat):
    return [_pairs_from_vector(row) for row in np.asarray(mat, dtype=complex)]


def _vector_from_pairs(data, where):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{where}: entries must be [re, im] number pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise StateFileError(f"{where}: expected a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def save_state(obj, path) -> None:
    """Serialize a PureState, DensityMatrix, or Subspace to a JSON file."""
    if isinstance(obj, PureState):
        doc = {
            "type": "pure",
            "dims": list(obj.dims),
            "amplitudes": _pairs_from_vector(obj.amplitudes),
        }
    elif isinstance(obj, DensityMatrix):
        doc = {
            "type": "mixed",
            "dims": list(obj.dims),
            "matrix": _pairs_from_matrix(obj.matrix),
        }
    elif isinstance(obj, Subspace):
        doc = {
            "type": "subspace",
            "dims": list(obj.dims),
            "spanning": [_pairs_from_vector(s.amplitudes) for s in obj.spanning_states],
        }
    else:
        raise StateFileError(f"cannot serialize object of type {type(obj).__name__}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _normalized_pure(amps, dims, where):
    nrm = np.linalg.norm(amps)
    if not (abs(nrm - 1.0) <= LOAD_ATOL):  # NaN-safe: a NaN norm fails too
        raise StateFileError(f"{where}: norm {nrm!r} violates normalization by more than {LOAD_ATOL}")
    if abs(nrm - 1.0) > 1e-12:
        amps = amps / nrm
    return PureState(amps, dims)


def load_state(path):
    """Parse a state file back into its core object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFileError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise StateFileError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    kind = doc.get("type")
    if kind not in ("pure", "mixed", "subspace"):
        raise StateFileError(f"{path}: field 'type' must be pure, mixed, or subspace")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        raise StateFileError(f"{path}: field 'dims' must be a list of positive integers")
    dims = tuple(dims)

    if kind == "pure":
        if "amplitudes" not in doc:
            raise StateFileError(f"{path}: pure state needs field 'amplitudes'")
        amps = _vector_from_pairs(doc["amplitudes"], "amplitudes")
        try:
            return _normalized_pure(amps, dims, "amplitudes")
        except StateError as exc:
            raise StateFileError(f"{path}: {exc}") from exc

    if kind == "mixed":
        if "matrix" not in doc:
            raise StateFileError(f"{path}: mixed state needs field 'matrix'")
        rows = doc["matrix"]
        if not isinstance(rows, list):
            raise StateFileError(f"{path}: field 'matrix' must be a list of rows")
        vecs = [_vector_from_pairs(r, f"matrix row {i}") for i, r in enumerate(rows)]
        if not vecs or any(v.size != len(vecs) for v in vecs):
            raise StateFileError(f"{path}: field 'matrix' must be square")
        mat = np.asarray(vecs)
        tr = np.trace(mat).real
        if not (abs(tr - 1.0) <= LOAD_ATOL):
            raise StateFileError(f"{path}: matrix trace {tr!r} violates unit trace by more than {LOAD_ATOL}")
        if abs(tr - 1.0) > 1e-12:
            mat = mat / tr
        try:
            return DensityMatrix(mat, dims)
        except StateError as exc:
            raise StateFileError(f"{path}: {exc}") from exc

    if "spanning" not in doc:
        raise StateFileError(f"{path}: subspace needs field 'spanning'")
    entries = doc["spanning"]
    if not isinstance(entries, list) or not entries:
        raise StateFileError(f"{path}: field 'spanning' must be a non-empty list")
    states = []
    for i, entry in enumerate(entries):
        amps = _vector_from_pairs(entry, f"spanning[{i}]")
        try:
            states.append(_normalized_pure(amps, dims, f"spanning[{i}]"))
        except StateError as exc:
            raise StateFileError(f"{path}: spanning[{i}]: {exc}") from exc
    return Subspace.from_states(states)


# ---------------------------------------------------------------------------
# spec strings


def parse_spec_string(text: str):
    """Parse ``name`` or ``name:key=value,key=value`` into a typed spec.

    The family table in ``gme.zoo`` decides the names, the keys, their types
    and which keys may be left out.
    """
    text = text.strip()
    name, _, tail = text.partition(":")
    name = name.strip()
    if name not in FAMILIES:
        raise StateFileError(f"unknown family {name!r}")
    types, required, kind = family_signature(name)
    params = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise StateFileError(f"malformed parameter {item!r} (expected key=value)")
            if key not in types:
                raise StateFileError(f"unknown key {key!r} for family {name!r}")
            if key in params:
                raise StateFileError(f"key {key!r} given twice for family {name!r}")
            try:
                params[key] = types[key](value.strip())
            except ValueError as exc:
                raise StateFileError(f"value for {key!r} is not a number: {value!r}") from exc
    missing = required - set(params)
    if missing:
        raise StateFileError(f"family {name!r} is missing parameters {sorted(missing)}")
    return (SubspaceSpec if kind == "subspace" else StateSpec)(name, params)


def spec_kind(spec) -> str:
    if spec.name not in FAMILIES:
        raise StateFileError(f"unknown family {spec.name!r}")
    return family_signature(spec.name)[2]
