"""Spans around the calls into each gme layer, and fixed-point microbenchmarks.

Tracing replaces the entry points named in ``HOOKS`` with wrappers that record
a span (name, start, end, parent, counts) and call the original.  The wrappers
are installed only for traced rounds and removed afterwards, so untraced rounds
run the program untouched.  An entry point that no longer exists is skipped and
the metrics that need it are reported as absent.

A layer's self time is the duration of its spans minus the time their direct
child spans cover.  The layer of a span is the part of its name before the
first dot; ``bench`` is the benchmark's own code (input handling and checks).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import os
import statistics
import time

import numpy as np

import checks as C

# (module, attribute path, span name); the span name's prefix is the layer
HOOKS = [
    ("gme.variational", "kgme_pure_multipartite", "variational.kgme_pure_multipartite"),
    ("gme.variational", "kgme_subspace", "variational.kgme_subspace"),
    ("gme.variational", "gme_subspace_multipartite", "variational.gme_subspace_multipartite"),
    ("gme.variational", "kgme_mixed", "variational.kgme_mixed"),
    ("gme.variational", "gme_mixed_multipartite", "variational.gme_mixed_multipartite"),
    ("gme.variational", "minimize", "optimizers.minimize"),
    ("gme.variational", "polar", "trivializations.polar"),
    ("gme.variational", "polar_vjp", "trivializations.polar_vjp"),
    ("gme.trivializations", "BoundedRankAnsatz.value", "trivializations.bounded_rank_value"),
    ("gme.trivializations", "BoundedRankAnsatz.vjp", "trivializations.bounded_rank_vjp"),
    ("gme.trivializations", "ProductAnsatz.value", "trivializations.product_value"),
    ("gme.trivializations", "ProductAnsatz.vjp", "trivializations.product_vjp"),
    ("gme.sdp", "lower_bound_mixed", "sdp.lower_bound_mixed"),
    ("gme.sdp", "lower_bound_subspace_ppt", "sdp.lower_bound_subspace_ppt"),
    ("gme.sdp", "lower_bound_subspace_reduction", "sdp.lower_bound_subspace_reduction"),
    ("gme.sdp", "fidelity_root_sdp", "sdp.fidelity_root_sdp"),
    ("gme.sdp", "solve_sdp", "sdp.solve_sdp"),
    ("gme.sdp", "sla.cho_factor", "sdp.cho_factor"),
    ("gme.sdp", "_BlockVec.project_psd", "sdp.project_psd"),
    ("gme.cli", "main", "cli"),
    ("gme.cli", "haar_experiment", "haar.haar_experiment"),
    ("gme.haar", "haar_sample_spectra", "haar.haar_sample_spectra"),
    ("gme.cli", "vidal_probability", "pure.vidal_probability"),
    ("gme.cli", "nielsen_transformable", "pure.nielsen_transformable"),
    ("gme.cli", "distill_probability", "pure.distill_probability"),
    ("gme.pure", "k_gme_pure", "pure.k_gme_pure"),
    ("gme.cli", "load_state", "serialize.load_state"),
    ("gme.cli", "save_state", "serialize.save_state"),
    ("gme.cli", "parse_spec_string", "serialize.parse_spec_string"),
    ("gme.serialize", "load_state", "serialize.load_state"),
    ("gme.cli", "canonical_pure", "zoo.canonical_pure"),
    ("gme.cli", "canonical_mixed", "zoo.canonical_mixed"),
    ("gme.cli", "canonical_subspace", "zoo.canonical_subspace"),
    ("gme.cli", "oracle_gme", "zoo.oracle_gme"),
]

CLI_SUBCOMMANDS = ("haar", "transform", "oracle", "convert")

# span names each span-derived metric needs; a metric is absent when one is missing
SPAN_METRICS = {
    "optimizers.self_s": ("optimizers.minimize",),
    "optimizers.iterations": ("optimizers.minimize",),
    "optimizers.evaluations": ("optimizers.minimize",),
    "variational.objective_s": ("optimizers.minimize",),
    "trivializations.ansatz_s": tuple(n for _, _, n in HOOKS if n.startswith("trivializations.")),
    "sdp.build_s": ("sdp.solve_sdp", "sdp.cho_factor"),
    "sdp.factor_s": ("sdp.solve_sdp", "sdp.cho_factor"),
    "sdp.solve_s": ("sdp.solve_sdp", "sdp.cho_factor"),
    "sdp.iteration_ms": ("sdp.solve_sdp", "sdp.cho_factor"),
    "sdp.iterations": ("sdp.solve_sdp",),
    "sdp.constraints": ("sdp.solve_sdp",),
    "sdp.rows_mb": ("sdp.solve_sdp",),
    "haar.sample_spectra_s": ("haar.haar_sample_spectra",),
    "haar.csv_s": ("haar.haar_experiment", "haar.haar_sample_spectra"),
    **{f"cli.{sub}_ms": ("cli",) for sub in CLI_SUBCOMMANDS},
}


# every per-layer metric and its unit, in report order
UNITS = {
    "setup.import_s": "s", "setup.warmup_s": "s",
    "optimizers.self_s": "s", "optimizers.iteration_us": "us",
    "optimizers.iterations": "count", "optimizers.evaluations": "count",
    "variational.objective_s": "s",
    "variational.fun_grad_us.pure_overlap": "us", "variational.fun_grad_us.roof_product": "us",
    "variational.fun_grad_us.subspace_product": "us", "variational.fun_grad_us.roof_bipartite": "us",
    "trivializations.ansatz_s": "s", "trivializations.polar_vjp_us": "us",
    "trivializations.value_us.bounded_rank": "us", "trivializations.vjp_us.bounded_rank": "us",
    "trivializations.value_us.product": "us", "trivializations.vjp_us.product": "us",
    "sdp.build_s": "s", "sdp.factor_s": "s", "sdp.solve_s": "s",
    "sdp.iteration_ms": "ms", "sdp.psd_projection_ms": "ms",
    "sdp.iterations": "count", "sdp.constraints": "count", "sdp.rows_mb": "MB",
    "haar.sample_spectra_s": "s", "haar.csv_s": "s",
    "states.sample_haar_pure_us": "us", "pure.k_gme_pure_us": "us",
    **{f"cli.{sub}_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "serialize.roundtrip_ms": "ms",
    "trace.overhead_s": "s",
}


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._installed = []
        self.absent = set()

    def begin(self, name) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result

        return traced

    def _wrapper(self, name, original):
        if name == "optimizers.minimize":
            def minimize(obj, *args, **kwargs):
                fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
                wrapped = {f: self.wrap(f"variational.{f}", getattr(obj, f)) for f in ("fun", "grad") if f in fields}
                return original(dataclasses.replace(obj, **wrapped), *args, **kwargs)

            return self.wrap(name, minimize, lambda a, k, r: {"iterations": r.iterations_used})
        if name == "sdp.solve_sdp":
            return self.wrap(name, original, _solve_counts)
        if name == "cli":
            def main(argv=None, *args, **kwargs):
                sub = argv[0] if argv else "none"
                return self.wrap(f"cli.{sub}", original)(argv, *args, **kwargs)

            return main
        return self.wrap(name, original)

    def install(self):
        """Replace every hooked entry point that exists; note the ones that do not."""
        for module_name, path, name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                if parents == ["sla"]:
                    sla = owner.sla
                    proxy = _Proxy(sla, **{attr: self.wrap(name, getattr(sla, attr))})
                    self._installed.append((owner, "sla", sla))
                    owner.sla = proxy
                    continue
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _solve_counts(args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    # real blocks are stored as n(n+1)/2 coordinates, complex ones as n^2
    length = sum(b.shape[0] * (b.shape[0] + 1) // 2 if not np.iscomplexobj(b) else b.shape[0] ** 2
                 for b in sol.block_values)
    return {"iterations": sol.iterations, "constraints": len(problem.constraints), "length": length}


def self_times(spans, lo, hi):
    """Self time per span index in spans[lo:hi]; parents outside the slice are ignored."""
    child = [0.0] * (hi - lo)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans[lo:hi], child)]


def layer_self_times(spans, lo, hi) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def round_metrics(spans, lo, hi) -> dict[str, float]:
    """Span-derived per-layer figures of one traced round, spans[lo:hi]."""
    own = self_times(spans, lo, hi)
    layers = layer_self_times(spans, lo, hi)
    names = [s[0] for s in spans[lo:hi]]
    sdp_build = sdp_factor = sdp_solve = 0.0
    sdp_iter = sdp_cons = 0
    rows_mb = 0.0
    opt_iter = 0
    for i, span in enumerate(spans[lo:hi]):
        name, start, end, _, counts = span
        if name.startswith("sdp.") and name not in ("sdp.solve_sdp", "sdp.cho_factor", "sdp.project_psd"):
            sdp_build += own[i]
        elif name == "sdp.solve_sdp":
            factors = [s for s in spans[lo + i + 1:hi] if s[0] == "sdp.cho_factor" and s[3] == lo + i][:1]
            if factors:
                sdp_build += factors[0][1] - start
                sdp_factor += factors[0][2] - factors[0][1]
                sdp_solve += end - factors[0][2]
            sdp_iter += counts["iterations"]
            sdp_cons += counts["constraints"]
            rows_mb = max(rows_mb, counts["constraints"] * counts["length"] * 8 / 1e6)
        elif name == "optimizers.minimize":
            opt_iter += counts["iterations"]
    out = {
        "optimizers.self_s": layers.get("optimizers", 0.0),
        "optimizers.iterations": opt_iter,
        "optimizers.evaluations": names.count("variational.fun"),
        "variational.objective_s": layers.get("variational", 0.0),
        "trivializations.ansatz_s": layers.get("trivializations", 0.0),
        "sdp.build_s": sdp_build,
        "sdp.factor_s": sdp_factor,
        "sdp.solve_s": sdp_solve,
        "sdp.iteration_ms": 1e3 * sdp_solve / sdp_iter if sdp_iter else 0.0,
        "sdp.iterations": sdp_iter,
        "sdp.constraints": sdp_cons,
        "sdp.rows_mb": rows_mb,
        "haar.sample_spectra_s": sum(o for n, o in zip(names, own) if n == "haar.haar_sample_spectra"),
        "haar.csv_s": sum(o for n, o in zip(names, own) if n == "haar.haar_experiment"),
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = 1e3 * sum(s[2] - s[1] for s in spans[lo:hi] if s[0] == f"cli.{sub}")
    return out


# ---------------------------------------------------------------------------
# microbenchmarks at fixed points, run untraced


def _median_call(fn, min_calls=20, budget_s=0.2, max_calls=5000):
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_calls or (time.perf_counter() < stop and len(times) < max_calls):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _fun_grad(obj):
    # two alternating points, so a value cached by the objective is never reused
    rng = np.random.default_rng(0)
    points = itertools.cycle([rng.standard_normal(obj.input_len) for _ in range(2)])

    def call():
        theta = next(points)
        obj.fun(theta)
        obj.grad(theta)

    return call


def _ansatz(ansatz, method):
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(ansatz.input_len)
    if method == "value":
        return lambda: ansatz.value(theta)
    n = int(np.prod(ansatz.dims))
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return lambda: ansatz.vjp(theta, g)


def _iteration_us():
    from gme import optimizers, variational
    from gme.states import PureState

    obj = variational.make_pure_overlap(PureState(C.dicke_vector(5, 2), (2,) * 5), 4)
    config = optimizers.OptimizerConfig(restarts=1, max_iterations=40, seed=0)
    per_iter = []
    for _ in range(5):
        t = time.perf_counter()
        est = optimizers.minimize(obj, config)
        per_iter.append((time.perf_counter() - t) / est.iterations_used)
    return 1e6 * statistics.median(per_iter)


def microbenchmarks(workdir) -> tuple[dict[str, float], set[str]]:
    from gme import pure, sdp, serialize, states, trivializations as T, variational as V, zoo
    from gme.states import DensityMatrix, PureState

    rng = np.random.default_rng(0)
    iso4 = DensityMatrix(C.isotropic_matrix(4, 0.7), (4, 4))
    psi44 = states.sample_haar_pure((4, 4), 0)
    path = os.path.join(workdir, "roundtrip.json")
    a, g = (rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16)) for _ in range(2))
    seeds = itertools.count()

    def psd():
        vec = sdp._BlockVec([32, 16], real=True)
        v = np.random.default_rng(0).standard_normal(vec.total)
        return lambda: vec.project_psd(v)

    def roundtrip():
        serialize.save_state(iso4, path)
        serialize.load_state(path)

    # name: (scale to the metric's unit, factory of the timed call)
    table = {
        "variational.fun_grad_us.pure_overlap": (1e6, lambda: _fun_grad(
            V.make_pure_overlap(PureState(C.dicke_vector(5, 2), (2,) * 5), 4))),
        "variational.fun_grad_us.roof_product": (1e6, lambda: _fun_grad(
            V.make_mixed_roof(zoo.upb_shifts_state(), T.ProductAnsatz((2, 2, 2)), 10))),
        "variational.fun_grad_us.subspace_product": (1e6, lambda: _fun_grad(
            V.make_subspace_product(zoo.bhat_subspace(2, 3, 4)))),
        "variational.fun_grad_us.roof_bipartite": (1e6, lambda: _fun_grad(
            V.make_mixed_roof(iso4, T.BoundedRankAnsatz((4, 4), 2), 20))),
        "trivializations.polar_vjp_us": (1e6, lambda: (lambda: T.polar_vjp(a, g))),
        "trivializations.value_us.bounded_rank": (1e6, lambda: _ansatz(T.BoundedRankAnsatz((2,) * 5, 4), "value")),
        "trivializations.vjp_us.bounded_rank": (1e6, lambda: _ansatz(T.BoundedRankAnsatz((2,) * 5, 4), "vjp")),
        "trivializations.value_us.product": (1e6, lambda: _ansatz(T.ProductAnsatz((2, 3, 4)), "value")),
        "trivializations.vjp_us.product": (1e6, lambda: _ansatz(T.ProductAnsatz((2, 3, 4)), "vjp")),
        "states.sample_haar_pure_us": (1e6, lambda: (lambda: states.sample_haar_pure((4, 4), next(seeds)))),
        "pure.k_gme_pure_us": (1e6, lambda: (lambda: pure.k_gme_pure(psi44, (0,), 2))),
        "serialize.roundtrip_ms": (1e3, lambda: roundtrip),
        "sdp.psd_projection_ms": (1e3, psd),
    }
    out, absent = {}, set()
    for name, (scale, factory) in table.items():
        try:
            out[name] = scale * _median_call(factory())
        except (AttributeError, TypeError, ImportError):
            absent.add(name)
    try:
        out["optimizers.iteration_us"] = _iteration_us()
    except (AttributeError, TypeError, ImportError):
        absent.add("optimizers.iteration_us")
    return out, absent
