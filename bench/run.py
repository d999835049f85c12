"""Benchmark of gme's three routes: exact values, variational upper bounds, SDP lower bounds.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; gme is imported from ``src/`` there and
nowhere else.  One process runs one workload.  It builds the inputs from the
seed, warms every layer up, then repeats whole rounds of the workload's checked
operations until ``--seconds`` have passed.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: setup_s, wall_s and peak_rss_mb (end to end, nothing wrapped);
* ``--trace 1``: the per-layer figures.  Rounds alternate untraced and traced,
  each traced round also runs the probe pass, and fixed-point microbenchmarks
  run at the end.  Spans are written to ``.bench_out/`` when the run ends.

See bench/README.md for the workloads, the metrics and reference figures.
"""

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2   # extra processes that only set up, for the median of setup_s
WORKLOAD_NAMES = ("multipartite-variational", "mixed-sandwich", "sdp-large", "exact-cli")
# One BLAS thread (the machine has two cores): timings do not depend on what
# else runs, and reductions happen in one fixed order, so outputs repeat exactly.
BLAS_THREADS = 1


def process_start() -> float:
    """The perf_counter reading at which this process started (now, where /proc is missing)."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return now
    return now - age


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return parser.parse_args(argv)


def import_gme():
    """Import gme from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "gme", "__init__.py")):
        raise SystemExit(f"bench: no gme sources under {SRC}")
    sys.path.insert(0, SRC)
    import gme

    if not os.path.abspath(gme.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported gme from {gme.__file__}, not from {SRC}")


def run_round(ops):
    """Run and check every operation once; returns (seconds, output reprs, failures)."""
    outputs, failures = [], []
    start = time.perf_counter()
    for op in ops:
        try:
            out = op.run()
            reason = op.check(out)
        except Exception as exc:  # an operation that raises is a failed operation
            out, reason = None, f"raised {type(exc).__name__}: {exc}"
        outputs.append(repr(out))
        if reason is not None:
            failures.append((op, reason))
    return time.perf_counter() - start, outputs, failures


def setup_probe_times(args):
    """setup_s of fresh processes that set up the same workload and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


class Tally:
    """Attempted and failed operations; unexpected failures make the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected = {}

    def add(self, ops, failures):
        self.attempted += len(ops)
        self.failed += len(failures)
        for op, reason in failures:
            if not op.known_fault:
                self.unexpected.setdefault(op.name, reason)


def untraced(args, ops):
    tally, rounds = Tally(), []
    start = time.perf_counter()
    while True:
        seconds, _, failures = run_round(ops)
        rounds.append(seconds)
        tally.add(ops, failures)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return tally, rounds, {"wall_s": metric(statistics.median(rounds), "s"),
                           "peak_rss_mb": metric(peak_mb, "MB")}


def traced(args, ops, workdir, setup):
    import tracing
    import workloads

    tracer, tally = tracing.Tracer(), Tally()
    plain, wrapped, per_round, shares = [], [], [], []
    start, pair = time.perf_counter(), 0
    while True:
        # alternate which of the two goes first, so a drift in machine speed favours neither
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    lo = tracer.begin("bench.round")
                    seconds, outputs, failures = run_round(ops)
                    tracer.end(lo)
                    mid = tracer.begin("bench.probe")
                    workloads.probe_pass(workdir)
                    tracer.end(mid)
                finally:
                    tracer.uninstall()
                hi = len(tracer.spans)
                wrapped.append((seconds, outputs))
                per_round.append(tracing.round_metrics(tracer.spans, lo, hi))
                layers = tracing.layer_self_times(tracer.spans, lo, mid)
                shares.append({k: v / seconds for k, v in layers.items()})
            else:
                seconds, outputs, failures = run_round(ops)
                plain.append((seconds, outputs))
            tally.add(ops, failures)
        pair += 1
        if time.perf_counter() - start >= args.seconds:
            break
    # tracing must not change a result: traced outputs equal untraced ones
    for (_, out_p), (_, out_w) in zip(plain, wrapped):
        for op, a, b in zip(ops, out_p, out_w):
            if a != b:
                tally.unexpected.setdefault(op.name, f"traced output {b} differs from untraced {a}")

    micro, micro_absent = tracing.microbenchmarks(workdir)
    absent = micro_absent | {m for m, need in tracing.SPAN_METRICS.items() if set(need) & tracer.absent}
    values = {"setup.import_s": setup["import_s"], "setup.warmup_s": setup["warmup_s"],
              **{name: statistics.median(r[name] for r in per_round) for name in per_round[0]},
              **micro}
    plain_s = statistics.median(s for s, _ in plain)
    wrapped_s = statistics.median(s for s, _ in wrapped)
    values["trace.overhead_s"] = wrapped_s - plain_s
    metrics = {name: metric(values[name], unit) for name, unit in tracing.UNITS.items()
               if name in values and name not in absent}

    share = {k: statistics.median(s.get(k, 0.0) for s in shares) for k in sorted({k for s in shares for k in s})}
    print(json.dumps({"untraced_wall_s": plain_s, "traced_wall_s": wrapped_s,
                      "layer_share_of_wall": share, "absent": sorted(absent)}))
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        for name, t0, t1, parent, counts in tracer.spans:
            fh.write(json.dumps([name, t0, t1, parent, counts]) + "\n")
    return tally, metrics


def main(argv=None) -> int:
    started = process_start()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    import_gme()
    sys.path.insert(0, HERE)
    import workloads

    t_import = time.perf_counter()
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        t_built = time.perf_counter()
        workloads.probe_pass(workdir)
        t_ready = time.perf_counter()
        setup_s = t_ready - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup = {"import_s": t_import - started, "build_s": t_built - t_import,
                 "warmup_s": t_ready - t_built}
        if args.trace:
            tally, metrics = traced(args, ops, workdir, setup)
        else:
            tally, rounds, metrics = untraced(args, ops)
            probes = setup_probe_times(args)
            metrics = {"setup_s": metric(statistics.median([setup_s] + probes), "s"), **metrics}
            print(json.dumps({"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
                              "ops_per_round": len(ops), "rounds_s": rounds,
                              "setup_s": [setup_s] + probes, "setup_parts_s": setup}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in tally.unexpected.items():
        print(f"bench: FAILED {name}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not tally.unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
