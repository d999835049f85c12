"""Multi-restart L-BFGS-B minimization: accuracy, determinism, independent restart rows."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize as sopt
from scipy import special

import gme
from gme.optimizers import MEMORY, OptimizerConfig, minimize
from gme.states import StateError
from gme.trivializations import BoundedRankAnsatz, ProductAnsatz
from gme.variational import (
    kgme_pure_multipartite,
    make_mixed_roof,
    make_pure_overlap,
    make_quadratic,
    make_rayleigh,
    make_subspace_product,
)
from gme.zoo import dicke_state, ghz_state, isotropic_state, shifts_complement_subspace, upb_shifts_state


def test_quadratic_minimum():
    est = minimize(make_quadratic([3.0]), OptimizerConfig(restarts=2))
    assert abs(est.value) < 1e-8
    assert abs(est.best_params[0] - 3.0) < 1e-8


def test_rayleigh_reaches_smallest_eigenvalue(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = 0.5 * (m + m.conj().T)
    est = minimize(make_rayleigh(h), OptimizerConfig(restarts=4))
    assert abs(est.value - np.linalg.eigvalsh(h)[0]) < 1e-8
    assert est.converged


def test_seeded_determinism(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (m + m.conj().T)
    cfg = OptimizerConfig(restarts=3, seed=17)
    a = minimize(make_rayleigh(h), cfg)
    b = minimize(make_rayleigh(h), cfg)
    np.testing.assert_array_equal(a.per_restart_values, b.per_restart_values)
    np.testing.assert_array_equal(a.best_params, b.best_params)
    c = minimize(make_rayleigh(h), cfg.with_(seed=18))
    assert not np.array_equal(a.best_params, c.best_params)


def test_value_is_min_of_restarts(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.5 * (m + m.conj().T)
    est = minimize(make_rayleigh(h), OptimizerConfig(restarts=5))
    assert est.value == est.per_restart_values.min()
    assert est.iterations_used > 0


def test_config_validation():
    with pytest.raises(StateError):
        OptimizerConfig(restarts=0)
    # no iterations would report an infinite value; a NaN tolerance would never stop a run
    for bad in ({"max_iterations": 0}, {"max_iterations": -3}, {"gradient_tolerance": -1.0},
                {"gradient_tolerance": float("nan")}, {"gradient_tolerance": float("inf")}):
        with pytest.raises(StateError):
            OptimizerConfig(**bad)


# ---------------------------------------------------------------------------
# lock-step restarts


def _scipy_restarts(obj, config):
    """Per-restart values, iterations and final points from scipy's public L-BFGS-B.

    The reference the lock-step driver must reproduce: one
    ``scipy.optimize.minimize`` loop per restart on the one-point ``fun``/``grad``,
    restarted from its final point while iterations are left and it progresses.
    """
    values, iterations, points = [], [], []
    for i in range(config.restarts):
        x = np.random.default_rng(config.seed + i).standard_normal(obj.input_len)
        used, fun_val = 0, np.inf
        while used < config.max_iterations:
            res = sopt.minimize(
                obj.fun, x, jac=obj.grad, method="L-BFGS-B",
                options={"maxiter": config.max_iterations - used, "maxcor": MEMORY,
                         "ftol": 1e-18, "gtol": config.gradient_tolerance, "maxls": 60},
            )
            used += max(int(res.nit), 1)
            progress, fun_val, x = fun_val - float(res.fun), float(res.fun), res.x
            if np.max(np.abs(res.jac)) <= config.gradient_tolerance or progress <= 1e-16:
                break
        values.append(fun_val)
        iterations.append(used)
        points.append(x)
    return np.array(values), np.array(iterations), points


def _lockstep_problems():
    iso = isotropic_state(3, 0.7)
    upb = upb_shifts_state()
    m = np.random.default_rng(3).standard_normal((6, 6)) * (1 + 1j)
    return {
        "roof_bipartite": (make_mixed_roof(iso, BoundedRankAnsatz(iso.dims, 2), 10),
                           OptimizerConfig(restarts=3, max_iterations=60, seed=2)),
        "roof_upb": (make_mixed_roof(upb, ProductAnsatz(upb.dims), 5),
                     OptimizerConfig(restarts=3, max_iterations=60, seed=4)),
        "pure_overlap": (make_pure_overlap(dicke_state(4, 1), 3),
                         OptimizerConfig(restarts=2, max_iterations=300, seed=0)),
        "subspace_product": (make_subspace_product(shifts_complement_subspace()),
                             OptimizerConfig(restarts=3, max_iterations=200, seed=6)),
        # every restart's first run stops early and is restarted from its final point
        "rayleigh": (make_rayleigh(m + m.conj().T), OptimizerConfig(restarts=4, seed=8)),
    }


@pytest.mark.parametrize("name", sorted(_lockstep_problems()))
def test_lockstep_matches_scipy_minimize(name):
    """Lock-step L-BFGS-B equals scipy.optimize.minimize restart by restart, exactly.

    Tolerance 0: the driver runs the setulb routine scipy's minimize runs, with
    the same options and stopping rules, on the same evaluations.  A change to
    that private interface fails here instead of changing results silently.
    """
    obj, config = _lockstep_problems()[name]
    values, iterations, points = _scipy_restarts(obj, config)
    est = minimize(obj, config)
    np.testing.assert_array_equal(est.per_restart_values, values)
    np.testing.assert_array_equal(est.per_restart_iterations, iterations)
    np.testing.assert_array_equal(est.best_params, points[int(np.argmin(values))])


def _assert_rows_independent(obj, config):
    """Row i of a run equals a one-restart run at seed + i, exactly."""
    est = minimize(obj, config)
    alone = [minimize(obj, config.with_(restarts=1, seed=config.seed + i)) for i in range(config.restarts)]
    np.testing.assert_array_equal(est.per_restart_values, [a.value for a in alone])
    np.testing.assert_array_equal(est.per_restart_iterations, [a.iterations_used for a in alone])
    np.testing.assert_array_equal(est.best_params, alone[int(np.argmin(est.per_restart_values))].best_params)


@pytest.mark.parametrize("name", ["roof_bipartite", "pure_overlap"])
def test_restart_rows_are_independent_lbfgs(name):
    """Tolerance 0: a row's evaluations do not depend on the rows beside it."""
    obj, config = _lockstep_problems()[name]
    _assert_rows_independent(obj, config.with_(restarts=3))


def test_per_restart_iterations_sum_to_total():
    est = kgme_pure_multipartite(ghz_state(), 2, OptimizerConfig(restarts=3, max_iterations=100))
    assert est.per_restart_iterations.shape == (3,)
    assert int(est.per_restart_iterations.sum()) == est.iterations_used


# ---------------------------------------------------------------------------
# loading L-BFGS-B without the scipy.optimize package


def _fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports gme from this source tree; its stdout as JSON."""
    src = os.path.dirname(os.path.dirname(gme.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_runs_without_scipy_optimize_or_integrate(tmp_path):
    """No SciPy package is imported: only the two extension files gme loads itself."""
    code = """if True:
        import contextlib, io, json, sys
        import gme, gme.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [gme.cli.main(["pure", "--state", "ghz", "--k", "2", "--restarts", "2"]),
                     gme.cli.main(["bound", "--state", "isotropic:d=3,F=0.7", "--k", "2"]),
                     gme.cli.main(["haar", "--dims", "4,4", "--k", "2", "--samples", "20"])]
        print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
    """
    out = _fresh_python(code, tmp_path)
    assert out["codes"] == [0, 0, 0]
    loaded = {m for m in out["modules"] if m.split(".")[0] == "scipy"}
    assert loaded <= {"scipy.optimize._lbfgsb", "scipy.special._special_ufuncs"}


_ROSEN = """if True:
    import json
    {first}
    from scipy.optimize import minimize, rosen, rosen_der
    res = minimize(rosen, [1.3, 0.7, 0.8, 1.9, 1.2], jac=rosen_der, method="L-BFGS-B")
    print(json.dumps({{"x": [repr(v) for v in res.x], "fun": repr(res.fun), "nit": res.nit, "nfev": res.nfev}}))
"""


def test_scipy_minimize_unchanged_by_importing_gme(tmp_path):
    alone = _fresh_python(_ROSEN.format(first=""), tmp_path)
    after_gme = _fresh_python(_ROSEN.format(first="import gme"), tmp_path)
    assert after_gme == alone


def test_lbfgsb_is_scipys_extension_module(tmp_path):
    """gme loaded its module before scipy.optimize here; in a fresh process scipy goes first."""
    assert gme.optimizers._lbfgsb.__file__ == sopt._lbfgsb.__file__
    out = _fresh_python("""if True:
        import json, scipy.optimize._lbfgsb as scipys, gme.optimizers
        print(json.dumps(gme.optimizers._lbfgsb is scipys))
    """, tmp_path)
    assert out is True


def test_expit_is_scipys_ufunc(tmp_path):
    """As for L-BFGS-B: in a fresh process scipy.special goes first, and gme takes its ufunc."""
    x = np.array([-np.inf, -800.0, -37.5, -1e-300, 0.0, 0.3, 36.0, 800.0, np.inf, np.nan])
    np.testing.assert_array_equal(gme.trivializations.expit(x), special.expit(x))
    out = _fresh_python("""if True:
        import json, scipy.special, gme.trivializations
        print(json.dumps(gme.trivializations.expit is scipy.special.expit))
    """, tmp_path)
    assert out is True


_EXPIT = """if True:
    import hashlib, json
    import numpy as np
    {first}
    from scipy.special import expit
    x = np.concatenate([np.random.default_rng(0).standard_normal(10000) * 20, [-np.inf, 0.0, np.inf, np.nan]])
    print(json.dumps(hashlib.sha256(expit(x).tobytes()).hexdigest()))
"""


def test_scipy_expit_unchanged_by_importing_gme(tmp_path):
    alone = _fresh_python(_EXPIT.format(first=""), tmp_path)
    after_gme = _fresh_python(_EXPIT.format(first="import gme"), tmp_path)
    assert after_gme == alone
