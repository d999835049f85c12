"""Multi-restart local minimization over trivialized parameter spaces.

The default method is the limited-memory quasi-Newton optimizer; a plain
momentum descent is available as a fallback.  Restarts are seeded as
``seed + index`` so results are reproducible and independent of execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize as sopt

from .states import StateError


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "lbfgs"
    restarts: int = 10
    max_iterations: int = 1000
    gradient_tolerance: float = 1e-10
    seed: int = 0
    memory_size: int = 10
    step_size: float = 0.05
    momentum: float = 0.9

    def __post_init__(self):
        if self.restarts < 1:
            raise StateError("need at least one restart")
        if self.method not in ("lbfgs", "momentum"):
            raise StateError(f"unknown optimizer method {self.method!r}")

    def with_(self, **kwargs) -> "OptimizerConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GmeEstimate:
    value: float
    best_params: np.ndarray = field(repr=False)
    per_restart_values: np.ndarray
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class Objective:
    """A registered objective: value and analytic gradient over flat parameters."""

    name: str
    fun: callable
    grad: callable
    trivialization: object

    @property
    def input_len(self) -> int:
        return self.trivialization.input_len

    @classmethod
    def from_fun_grad(cls, name: str, fun_grad, trivialization) -> "Objective":
        """An objective whose value and gradient come from one joint evaluation."""
        fun, grad = _cached(fun_grad)
        return cls(name, fun, grad, trivialization)


def _cached(fun_grad):
    """Split a joint evaluator into (fun, grad) sharing one last-point memo."""
    cache = {"theta": None, "out": None}

    def lookup(theta):
        theta = np.asarray(theta, dtype=float)
        if cache["theta"] is None or not np.array_equal(cache["theta"], theta):
            cache["theta"] = theta.copy()
            cache["out"] = fun_grad(theta)
        return cache["out"]

    return (lambda t: lookup(t)[0]), (lambda t: lookup(t)[1])


def _run_lbfgs(obj: Objective, x0, config: OptimizerConfig):
    # The solver may abandon a run on a failed line search long before the
    # iteration budget is spent; restarting from the final point (with fresh
    # curvature memory) keeps descending on ill-scaled objectives.
    x = np.asarray(x0, dtype=float)
    used = 0
    fun_val = np.inf
    grad_norm = np.inf
    while used < config.max_iterations:
        res = sopt.minimize(
            obj.fun,
            x,
            jac=obj.grad,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iterations - used,
                "maxcor": config.memory_size,
                "ftol": 1e-18,
                "gtol": config.gradient_tolerance,
                "maxls": 60,
            },
        )
        used += max(int(res.nit), 1)
        progress = fun_val - float(res.fun)
        fun_val = float(res.fun)
        x = np.asarray(res.x)
        grad_norm = float(np.max(np.abs(res.jac))) if res.jac is not None else np.inf
        if grad_norm <= config.gradient_tolerance or progress <= 1e-16:
            break
    converged = grad_norm <= max(config.gradient_tolerance, 1e-8)
    return fun_val, x, converged, used


def _run_momentum(obj: Objective, x0, config: OptimizerConfig):
    x = np.asarray(x0, dtype=float).copy()
    v = np.zeros_like(x)
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        g = obj.grad(x)
        if np.max(np.abs(g)) <= config.gradient_tolerance:
            converged = True
            break
        v = config.momentum * v + config.step_size * g
        x = x - v
    return float(obj.fun(x)), x, converged, it


def minimize(obj: Objective, config: OptimizerConfig | None = None) -> GmeEstimate:
    """Minimize a registered objective with seeded multi-restart local search.

    Restart i draws its start from ``default_rng(seed + i)``; ties are broken
    by the lowest restart index, so the outcome does not depend on scheduling.
    """
    config = config or OptimizerConfig()
    runner = _run_lbfgs if config.method == "lbfgs" else _run_momentum
    values, params, convs = [], [], []
    total_iter = 0
    for i in range(config.restarts):
        rng = np.random.default_rng(config.seed + i)
        x0 = rng.standard_normal(obj.input_len)
        val, x, conv, nit = runner(obj, x0, config)
        values.append(val)
        params.append(x)
        convs.append(conv)
        total_iter += nit
    values = np.asarray(values)
    best = int(np.argmin(values))
    return GmeEstimate(
        value=float(values[best]),
        best_params=params[best],
        per_restart_values=values,
        converged=bool(convs[best]),
        iterations_used=total_iter,
    )
