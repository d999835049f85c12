"""Multi-restart local minimization over trivialized parameter spaces.

Restart i starts from ``default_rng(seed + i)``.  The restarts run in
lock-step: each round advances every unfinished restart to its next request
for a value and gradient, and one ``fun_grad`` call evaluates all of those
points as one stacked ``(rows, input_len)`` block.  Every registered objective
computes a row by the same floating-point operations whatever else shares the
stack, so restart i follows exactly the iterates it would follow alone: the
results do not depend on how many restarts run, nor on which of them are still
running.

Each restart runs scipy's L-BFGS-B, driven through the reverse-communication
loop of its ``setulb`` routine with a workspace of its own, and with the
options and stopping rules that ``scipy.optimize.minimize`` applies for
L-BFGS-B.  ``setulb`` comes from SciPy's compiled extension file; the
``scipy.optimize`` package itself is not imported.  An inner run that stops
with iterations left and progress made is started afresh from its final point
(new curvature memory), which keeps descending on ill-scaled objectives after
a failed line search.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .states import StateError, check_seed


def scipy_extension(subpackage, module):
    """One of SciPy's compiled modules, ``scipy.<subpackage>.<module>``, loaded from its file.

    Importing it by name would first run the whole ``scipy.<subpackage>``
    package (for ``optimize``: linprog, HiGHS, trust-region code, ...); this
    loads the one extension file instead.  A module already loaded is reused.
    """
    name = f"scipy.{subpackage}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    for directory in spec.submodule_search_locations if spec else ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, subpackage, module + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(name, path)
                loaded = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(loaded)
                # a single-phase extension registers itself in sys.modules; take it out,
                # so that a later `import scipy.<subpackage>` loads and binds its own copy
                if sys.modules.get(name) is loaded:
                    del sys.modules[name]
                return loaded
    raise ImportError(f"gme needs SciPy >= 1.17: its compiled module "
                      f"scipy/{subpackage}/{module} was not found")


_lbfgsb = scipy_extension("optimize", "_lbfgsb")

# setulb's options, as scipy.optimize.minimize passes them to L-BFGS-B
# for ftol=1e-18 and maxls=60; MEMORY (maxcor) and MAXFUN are scipy's defaults
FACTR = 1e-18 / np.finfo(float).eps
MAXLS = 60
MAXFUN = 15000
MEMORY = 10
# setulb task codes: it needs f and g at x; it has taken a new iterate
_FG, _NEW_X = 3, 1


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 10
    max_iterations: int = 1000
    gradient_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise StateError("need at least one restart")
        if self.max_iterations < 1:
            raise StateError("need at least one iteration")
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance >= 0):
            raise StateError(f"gradient tolerance must be finite and >= 0, got {self.gradient_tolerance}")
        check_seed(self.seed)

    def with_(self, **kwargs) -> "OptimizerConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GmeEstimate:
    value: float
    best_params: np.ndarray = field(repr=False)
    per_restart_values: np.ndarray
    converged: bool
    iterations_used: int
    per_restart_iterations: np.ndarray  # sums to iterations_used


@dataclass(frozen=True)
class Objective:
    """A registered objective: value and analytic gradient over flat parameters.

    ``fun_grad`` maps parameters of shape (..., input_len) to values (...) and
    gradients (..., input_len).  ``fun`` and ``grad`` evaluate one point as a
    stack of one row, so they return exactly what the optimizer sees for it.
    """

    name: str
    fun_grad: callable
    trivialization: object

    @property
    def input_len(self) -> int:
        return self.trivialization.input_len

    def fun(self, theta) -> float:
        return float(self.fun_grad(np.asarray(theta, dtype=float)[None])[0][0])

    def grad(self, theta) -> np.ndarray:
        return self.fun_grad(np.asarray(theta, dtype=float)[None])[1][0]


class _LbfgsbRun:
    """One L-BFGS-B run of one restart, driven through setulb's reverse communication.

    This is the loop of scipy's ``_minimize_lbfgsb`` without bounds, cut where it
    calls the objective: ``advance`` returns True when setulb needs f and g at
    ``x`` (handed back through ``tell``) and False once the run has stopped.
    Evaluations are counted as scipy's ``ScalarFunction`` counts them.
    """

    def __init__(self, x0, maxiter: int, config: OptimizerConfig):
        n, m = x0.size, MEMORY
        self.x = np.array(x0, dtype=float)
        self.f = np.array(0.0)
        self.g = np.zeros(n)
        self.maxiter, self.pgtol = maxiter, config.gradient_tolerance
        self.free = np.zeros(n)  # bounds, unused: nbd = 0 marks every variable free
        self.nbd = np.zeros(n, np.int32)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.nit = self.nfev = 0
        self.last = None  # (x, f, g) of the latest evaluation

    def advance(self) -> bool:
        while True:
            # a fresh copy each call, as scipy passes it: setulb may write into g
            self.g = self.g.astype(np.float64)
            _lbfgsb.setulb(MEMORY, self.x, self.free, self.free, self.nbd, self.f, self.g,
                           FACTR, self.pgtol, self.wa, self.iwa, self.task, self.lsave,
                           self.isave, self.dsave, MAXLS, self.ln_task)
            if self.task[0] == _FG:
                if self.last is None or not np.array_equal(self.x, self.last[0]):
                    return True
                _, self.f, self.g = self.last
            elif self.task[0] == _NEW_X:
                self.nit += 1
                if self.nit >= self.maxiter:
                    self.task[:] = 5, 504  # STOP: iteration limit
                elif self.nfev > MAXFUN:
                    self.task[:] = 5, 502  # STOP: evaluation limit
            else:
                return False

    def tell(self, f, g):
        self.nfev += 1
        self.f, self.g = float(f), g
        self.last = (self.x.copy(), self.f, g)


class _LbfgsRestart:
    """One restart: L-BFGS-B runs from its start, each new one from the last's final point."""

    def __init__(self, x0, config: OptimizerConfig):
        self.config = config
        self.x, self.value, self.grad_norm, self.used = x0, np.inf, np.inf, 0
        self._next_run()

    def _next_run(self):
        left = self.config.max_iterations - self.used
        self.run = _LbfgsbRun(self.x, left, self.config) if left > 0 else None

    @property
    def point(self):
        return self.run.x

    @property
    def converged(self) -> bool:
        return self.grad_norm <= max(self.config.gradient_tolerance, 1e-8)

    def wants_evaluation(self) -> bool:
        """Advance to the next point that needs f and g; False once this restart is done."""
        while self.run is not None:
            if self.run.advance():
                return True
            run = self.run
            self.used += max(run.nit, 1)
            progress = self.value - float(run.f)
            self.value, self.x = float(run.f), run.x
            self.grad_norm = float(np.max(np.abs(run.g)))
            if self.grad_norm <= self.config.gradient_tolerance or progress <= 1e-16:
                self.run = None
            else:
                self._next_run()
        return False

    def tell(self, f, g):
        self.run.tell(f, g)


def minimize(obj: Objective, config: OptimizerConfig | None = None) -> GmeEstimate:
    """Minimize a registered objective with seeded multi-restart local search.

    Restart i draws its start from ``default_rng(seed + i)``; ties are broken
    by the lowest restart index, so the outcome does not depend on scheduling.
    """
    config = config or OptimizerConfig()
    restarts = [_LbfgsRestart(np.random.default_rng(config.seed + i).standard_normal(obj.input_len),
                              config)
                for i in range(config.restarts)]
    # lock-step: one stacked evaluation per round for every restart still running
    active = restarts
    while active := [r for r in active if r.wants_evaluation()]:
        values, grads = obj.fun_grad(np.stack([r.point for r in active]))
        for r, f, g in zip(active, values, grads):
            r.tell(f, g)
    values = np.array([r.value for r in restarts])
    iterations = np.array([r.used for r in restarts])
    best = int(np.argmin(values))
    return GmeEstimate(
        value=float(values[best]),
        best_params=restarts[best].x,
        per_restart_values=values,
        converged=bool(restarts[best].converged),
        iterations_used=int(iterations.sum()),
        per_restart_iterations=iterations,
    )
