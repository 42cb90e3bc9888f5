"""Benchmark of the biliseg pipeline: one workload per process.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout; without it the command exits 2. Work files go to a directory
under ``perfbench/out/`` that is removed at the end; a traced run also
leaves its spans in ``perfbench/out/trace-<workload>-seed<n>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the wrapped public
functions record spans and the metrics are the per-layer ones (README.md).
"""
import time

# process start: the CPU time used before this statement is the
# interpreter's start-up, which ran before any clock here could be read
_START = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# setup_s takes the median of several set-ups: the time of one cold set-up
# alone moved its ten-seed median by up to 26% between two sets of runs on a
# 2-vCPU machine; that cold time is the traced run's setup.cold_s
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("study", "flooded_c10", "tuning")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, help="workload seed (default: the workload's own, see README.md)")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(ops, setup_s, cases, busy_s, peak_rss_mb):
    t = ops.times
    values = {
        "setup_s": ("s", setup_s),
        "case_s.p50": ("s", statistics.median(t["case"])),
        "segment_s.p50": ("s", statistics.median(t["segment"])),
        "evaluate_s.p50": ("s", statistics.median(t["evaluate"])),
        "cases_per_s": ("1/s", cases / busy_s),
        "peak_rss_mb": ("MB", peak_rss_mb),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biliseg", "__init__.py")):
        print(f"error: no biliseg package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # one thread per workload process; set before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BILISEG_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import biliseg.cli  # noqa: F401  (the program's import cost counts towards setup_s)

    import_s = time.perf_counter() - _START
    import spans
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        ops = workloads.Ops(tracer)
        with tracer.installed() if tracer else contextlib.nullcontext():
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
                if len(setups) == 1:
                    cold_setup_s = time.perf_counter() - _START
            if tracer:
                tracer.phase = "timed"
            problems, cases, busy_s = measure(workload, ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            problems += workload.check()
        except Exception:  # a check that cannot read an output still yields a result line
            problems.append(f"checks stopped: {traceback.format_exc()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in ops.errors[:5] + problems[:20]:
        print(line, file=sys.stderr)
    if tracer:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{seed}.jsonl")
        tracer.dump(path)
        metrics = tracer.metrics(cases, SETUP_REPEATS)
        metrics["setup.cold_s"] = {"value": cold_setup_s, "unit": "s"}
        metrics["trace.case_s.p50"] = {"value": statistics.median(ops.times["case"]), "unit": "s"}
        metrics["trace.spans_per_case"] = {"value": sum(s[4] == "timed" for s in tracer.spans) / cases,
                                           "unit": "count"}
        print(f"trace: {len(tracer.spans)} spans -> {os.path.relpath(path, ROOT)}; "
              f"absent: {', '.join(tracer.absent_metrics()) or 'none'}")
    else:
        metrics = end_to_end(ops, import_s + statistics.median(setups), cases, busy_s, peak_rss_mb)
    print(json.dumps({"correct": not problems, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


def measure(workload, ops, seconds):
    """Whole rounds until ``seconds`` have passed; later rounds must repeat
    the first round's outputs exactly."""
    problems = []
    first = None
    cases = 0
    busy_s = 0.0
    started = time.perf_counter()
    while True:
        start = time.perf_counter()
        cases += workload.run_round(ops)
        busy_s += time.perf_counter() - start
        prints = workload.fingerprint()
        if first is None:
            first = prints
        elif prints != first:
            changed = sorted(str(k) for k in set(first) | set(prints) if first.get(k) != prints.get(k))
            problems.append(f"a later round changed {len(changed)} output(s), first {changed[0]}")
        if time.perf_counter() - started >= seconds:
            return problems, cases, busy_s


if __name__ == "__main__":
    sys.exit(main())
