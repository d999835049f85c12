"""Each check of the benchmark reports a deliberately wrong value as failed.

    python3 -m pytest bench/test_checks.py

The per-workload tests run every operation once (under a minute in all),
require its check to pass on the real output (and to fail on the known
over-certified bounds), then require it to fail on corrupted outputs.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks as C  # noqa: E402


def test_closed_forms():
    assert C.dicke_gme(3, 1) == pytest.approx(5 / 9, abs=1e-15)
    assert C.isotropic_kgme(4, 1.0, 2) == pytest.approx(0.75, abs=1e-15)
    assert C.isotropic_kgme(4, 0.25, 2) == 0.0
    assert C.werner_gme(4, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert C.egd_survival(4, 0.0) == 1.0 and C.egd_survival(4, 0.25) == 0.0


def test_reference_spectra():
    amps = np.zeros(16)
    amps[[0, 5, 10, 15]] = np.sqrt([0.4, 0.3, 0.2, 0.1])
    assert C.reduced_spectrum(amps, 4, 4) == pytest.approx([0.4, 0.3, 0.2, 0.1], abs=1e-15)
    assert C.max_schmidt_tail(amps, (4, 4), 3) == pytest.approx(0.3, abs=1e-15)
    assert C.max_schmidt_tail(C.ghz_vector(), (2, 2, 2), 2) == pytest.approx(0.5, abs=1e-15)
    # distillation of a 2x2 target from (0.4, 0.3, 0.2, 0.1): min(1, 2 * 0.1 + ..., ...)
    assert C.distill_reference([0.4, 0.3, 0.2, 0.1], 2) == pytest.approx(1.0)
    assert C.distill_reference([0.7, 0.2, 0.1, 0.0], 4) == pytest.approx(0.0)


@pytest.mark.parametrize("check, good, wrong", [
    (C.near, (1.0, 1.0 + 1e-7, 1e-6), (1.0, 1.0 + 1e-5, 1e-6)),
    (C.relative, (0.0123, 0.0125, 0.05), (0.0123, 0.0140, 0.05)),
    (C.at_least, (0.5, 0.4), (0.3, 0.4)),
    (C.at_most, (0.001283953, 0.001283953, 1e-12), (0.0012847620593, 0.001283953439476, 1e-12)),
    (C.is_optimal, ("optimal",), ("max_iterations",)),
    (C.equal, ("a", "a"), ("a", "b")),
    (C.mean_within_se, (1 / 64 + 1e-5, 0.015, 100_000, 1 / 64), (1 / 64 + 2e-4, 0.015, 100_000, 1 / 64)),
])
def test_check_rejects_wrong_value(check, good, wrong):
    assert check(*good) is None
    assert isinstance(check(*wrong), str)


def test_check_rejects_nan():
    for check, args in ((C.near, (math.nan, 0.5, 1e-6)), (C.at_least, (math.nan, 0.0)),
                        (C.at_most, (math.nan, 1.0)), (C.relative, (math.nan, 1.0, 0.05))):
        assert isinstance(check(*args), str)


def test_ks_distance_separates_laws():
    rng = np.random.default_rng(0)
    # inverse-CDF draws from the closed-form law, and from a wrong one
    u = rng.random(100_000)
    right = (1.0 - u ** (1.0 / 15.0)) / 4.0
    wrong = (1.0 - u ** (1.0 / 12.0)) / 4.0
    assert C.ks_distance(right, 4) < 0.01
    assert C.ks_distance(wrong, 4) > 0.01


def test_first_reports_the_first_failure():
    assert C.first(None, None) is None
    assert C.first(None, "a", "b") == "a"


def _corrupt(out):
    if isinstance(out, tuple):
        return tuple(_corrupt(x) for x in out)
    if isinstance(out, bool):
        return not out
    if isinstance(out, int):
        return out + 1
    if isinstance(out, float):
        return math.nan
    if isinstance(out, str):
        return out + " "
    raise TypeError(type(out))


def _shift(out, delta):
    if isinstance(out, tuple):
        return tuple(_shift(x, delta) for x in out)
    return out + delta if isinstance(out, float) else out


def _rejects(op, out):
    # the benchmark counts a check that raises as a failed operation
    try:
        return op.check(out) is not None
    except Exception:
        return True


@pytest.mark.parametrize("workload", ["multipartite-variational", "mixed-sandwich", "sdp-large", "exact-cli"])
def test_every_operation_check(workload, tmp_path):
    import workloads

    workloads.probe_pass(str(tmp_path))
    for op in workloads.build(workload, 7, str(tmp_path)):
        out = op.run()
        verdict = op.check(out)
        assert (verdict is not None) == op.known_fault, (op.name, verdict)
        assert _rejects(op, _corrupt(out)), op.name
        if isinstance(out, float) or (isinstance(out, tuple) and isinstance(out[0], float)):
            assert _rejects(op, _shift(out, 1.0)) or _rejects(op, _shift(out, -1.0)), op.name
