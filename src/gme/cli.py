"""Command-line frontend.

Subcommands dispatch to the compute modules and print one JSON record per
result: {"value": ..., "k": ..., "method": ..., "converged": ..., "seed": ...}.
Exit codes: 0 success, 2 bad arguments, 3 parse failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import sdp, variational
from .haar import ExperimentConfig, haar_experiment
from .optimizers import OptimizerConfig
from .pure import distill_probability, nielsen_transformable, vidal_probability
from .serialize import StateFileError, load_state, parse_spec_string, save_state
from .states import DensityMatrix, PureState, StateError, Subspace
from .zoo import build_family, oracle_gme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(record):
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _emit_result(value, k, method, converged, seed, **extra):
    """One result record: the five keys every subcommand but ``criteria`` prints, plus ``extra``."""
    _emit({"value": value, "k": k, "method": method, "converged": converged, "seed": seed, **extra})


def _emit_estimate(est, args):
    """The record of a variational subcommand."""
    _emit_result(est.value, args.k, "variational", est.converged, args.seed)


def _load_any(text):
    """Resolve --state/--subspace arguments: spec string or @file / *.json path."""
    if text.startswith("@") or text.endswith(".json"):
        path = text[1:] if text.startswith("@") else text
        try:
            return load_state(path)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    return build_family(parse_spec_string(text))


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        gradient_tolerance=args.tol,
        seed=args.seed,
        max_iterations=args.max_iterations,
    )


def _add_optimizer_flags(parser):
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=1000)
    parser.add_argument(
        "--ansatz-terms",
        default="auto",
        help="decomposition entries for mixed-state roofs (auto = rank-based default)",
    )


def _ansatz_terms(args, rho):
    if args.ansatz_terms == "auto":
        return variational.default_n_entries(rho)
    try:
        return int(args.ansatz_terms)
    except ValueError as exc:
        raise CliError("--ansatz-terms must be an integer or 'auto'", EXIT_USAGE) from exc


def _parse_partition(text, n_parties):
    """'0|12' or '0,1|2' style bipartition; returns the left party tuple.

    A partition with a comma lists comma-separated indices on each side, so
    '0,1,2,3,4,5,6,7,8,9|10' names party 10; one without reads one digit per
    party.
    """
    left, sep, right = text.partition("|")
    if not sep:
        raise CliError(f"partition {text!r} needs a '|'", EXIT_USAGE)
    commas = "," in text

    def side(chunk):
        try:
            return tuple(sorted(int(p) for p in (chunk.split(",") if commas else chunk)))
        except ValueError as exc:
            raise CliError(f"bad partition {text!r}", EXIT_USAGE) from exc

    lt, rt = side(left), side(right)
    # each party exactly once, and on each side at least one
    if sorted(lt + rt) != list(range(n_parties)) or not (lt and rt):
        raise CliError(f"partition {text!r} must split parties 0..{n_parties - 1} "
                       "into two non-empty sides", EXIT_USAGE)
    return lt


def _merge_bipartition(rho: DensityMatrix, left) -> DensityMatrix:
    """Regroup a multipartite state into the (left | rest) bipartite layout."""
    from .states import permute_parties_matrix, total_dim

    right = tuple(i for i in range(len(rho.dims)) if i not in left)
    mat = permute_parties_matrix(rho.matrix, rho.dims, left + right)
    d_l = total_dim([rho.dims[i] for i in left])
    d_r = total_dim([rho.dims[i] for i in right])
    return DensityMatrix(mat, (d_l, d_r))


def cmd_pure(args):
    state = _load_any(args.state)
    if not isinstance(state, PureState):
        raise CliError("subcommand 'pure' needs a pure state", EXIT_USAGE)
    cfg = _optimizer_config(args)
    est = variational.kgme_pure_multipartite(state, args.k, cfg)
    _emit_estimate(est, args)


def cmd_subspace(args):
    sub = _load_any(args.subspace)
    if not isinstance(sub, Subspace):
        raise CliError("subcommand 'subspace' needs a subspace", EXIT_USAGE)
    cfg = _optimizer_config(args)
    if len(sub.dims) > 2 and args.k == 2:
        est = variational.gme_subspace_multipartite(sub, cfg)
    else:
        est = variational.kgme_subspace(sub, args.k, cfg)
    _emit_estimate(est, args)


def cmd_mixed(args):
    rho = _load_any(args.state)
    if not isinstance(rho, DensityMatrix):
        raise CliError("subcommand 'mixed' needs a density matrix", EXIT_USAGE)
    cfg = _optimizer_config(args)
    if args.partition is not None:
        left = _parse_partition(args.partition, len(rho.dims))
        rho = _merge_bipartition(rho, left)
    n_entries = _ansatz_terms(args, rho)
    if len(rho.dims) > 2 and args.k == 2:
        est = variational.gme_mixed_multipartite(rho, n_entries, cfg)
    else:
        est = variational.kgme_mixed(rho, args.k, n_entries, cfg)
    _emit_estimate(est, args)


def cmd_bound(args):
    if (args.state is None) == (args.subspace is None):
        raise CliError("bound needs exactly one of --state and --subspace", EXIT_USAGE)
    obj = _load_any(args.state if args.state is not None else args.subspace)
    if not isinstance(obj, (Subspace, DensityMatrix)):
        raise CliError("subcommand 'bound' needs a mixed state or subspace", EXIT_USAGE)
    relaxation = sdp.resolve_relaxation(args.k, args.relaxation)
    value, sol = sdp.lower_bound(obj, args.k, relaxation, full_output=True)
    if not np.isfinite(value):
        raise CliError("solver failed to produce a finite bound", EXIT_NUMERIC)
    _emit_result(value, args.k, f"sdp-{relaxation}", sol.status == "optimal", args.seed,
                 certifying=bool(value > sdp.NONCERTIFYING))


def cmd_criteria(args):
    obj = _load_any(args.state)
    if isinstance(obj, PureState):
        obj = obj.to_density_matrix()
    if not isinstance(obj, DensityMatrix):
        raise CliError("subcommand 'criteria' needs a state", EXIT_USAGE)
    ppt = sdp.ppt_min_eig(obj, (0,))
    red = sdp.reduction_min_eig(obj, (1,), args.k)
    record = {
        "ppt_min_eig": ppt,
        "reduction_min_eig": red,
        "k": args.k,
        "ppt_entangled": bool(ppt < -1e-10),
        "schmidt_number_above_k": bool(red < -1e-10),
        "seed": args.seed,
        "method": "criteria",
    }
    if args.witness_from is not None:
        ref = _load_any(args.witness_from)
        if not isinstance(ref, PureState):
            raise CliError("--witness-from needs a pure state", EXIT_USAGE)
        try:
            wit = sdp.witness_from_pure(ref, _optimizer_config(args))
        except StateError as exc:
            raise CliError(str(exc), EXIT_NUMERIC) from exc
        record["witness_threshold"] = wit.threshold
        record["witness_value"] = sdp.evaluate_witness(wit, obj)
        record["witness_detects"] = bool(record["witness_value"] < -1e-8)
    _emit(record)


def cmd_transform(args):
    src = _load_any(args.src)
    if not isinstance(src, PureState):
        raise CliError("subcommand 'transform' needs pure states", EXIT_USAGE)
    if args.distill is not None:
        report = distill_probability(src, args.distill)
        _emit_result(report.optimal_probability, report.binding_index, "distill", True, args.seed,
                     deterministic=report.deterministic_possible)
        return
    if args.dst is None:
        raise CliError("transform needs --to or --distill", EXIT_USAGE)
    dst = _load_any(args.dst)
    if not isinstance(dst, PureState):
        raise CliError("subcommand 'transform' needs pure states", EXIT_USAGE)
    if src.dims != dst.dims:
        raise CliError("source and target layouts differ", EXIT_USAGE)
    report = vidal_probability(src, dst)
    _emit_result(report.optimal_probability, report.binding_index, "vidal", True, args.seed,
                 deterministic=bool(nielsen_transformable(src, dst)))


def cmd_oracle(args):
    _emit_result(oracle_gme(parse_spec_string(args.state), args.k), args.k, "oracle", True, args.seed)


def cmd_haar(args):
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError as exc:
        raise CliError(f"--dims needs comma-separated integers, got {args.dims!r}", EXIT_USAGE) from exc
    config = ExperimentConfig(
        n_samples=args.samples,
        dims=dims,
        seed=args.seed,
        k_values=tuple(args.k) if args.k else (),
        m_values=tuple(args.m) if args.m else (),
        n_bins=args.bins,
        out_dir=args.out,
    )
    try:
        samples_path, hist_path = haar_experiment(config)
    except OSError as exc:
        raise CliError(f"cannot write outputs: {exc}", EXIT_USAGE) from exc
    _emit_result(args.samples, None, "haar", True, args.seed,
                 samples_csv=samples_path, histogram_csv=hist_path)


def cmd_convert(args):
    obj = _load_any(args.state)
    try:
        save_state(obj, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}", EXIT_USAGE) from exc
    _emit_result(None, None, "convert", True, 0, path=args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gme",
        description="geometric-measure entanglement computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pure", help="variational k-GME of a pure state")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, default=2)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_pure)

    p = sub.add_parser("subspace", help="variational k-GME of a subspace")
    p.add_argument("--subspace", required=True)
    p.add_argument("--k", type=int, default=2)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("mixed", help="variational k-GME of a mixed state")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--partition", default=None,
                   help="bipartition like 0|12 to regroup parties: one digit per party, or "
                        "comma-separated indices once the partition has a comma (0,1|2,10)")
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("bound", help="certified SDP lower bounds")
    p.add_argument("--state", default=None)
    p.add_argument("--subspace", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--relaxation", choices=("auto", "ppt", "reduction"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("criteria", help="PPT / reduction eigenvalue criteria and witnesses")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--witness-from", default=None)
    _add_optimizer_flags(p)
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("transform", help="Nielsen / Vidal / distillation analysis")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", default=None)
    p.add_argument("--distill", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("oracle", help="closed-form values")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("haar", help="Monte Carlo sampling experiment")
    p.add_argument("--dims", default="4,4")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, nargs="*", default=None)
    p.add_argument("--m", type=int, nargs="*", default=None)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("convert", help="write a named family to a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(args)
    except CliError as exc:
        print(f"gme: {exc}", file=sys.stderr)
        return exc.code
    except StateFileError as exc:
        print(f"gme: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StateError as exc:
        print(f"gme: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"gme: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
