"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --label set1 [--trace-seeds 3]

Each run is a separate ``perfbench/run.py`` process, one after another, on
every workload of BENCHMARK.json with seeds 1 to 10 and for its
``run_seconds``. For
every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
set against a third of the metric's bound in BENCHMARK.json. With
``--trace-seeds N`` the first N seeds also run traced; the tracing overhead
is the traced ``trace.case_s.p50`` over the untraced ``case_s.p50`` of the
same seed, minus one. Raw results go to ``perfbench/out/sweep-<label>.json``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--trace-seeds", type=int, default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in SEEDS]
        traced = [run(workload, s, seconds, 1) for s in SEEDS[:args.trace_seeds]]
        entry = {"runs": runs, "traced": traced,
                 "all_correct": all(r["correct"] for r in runs + traced),
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in runs + traced}),
                 "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds}}
        if traced:
            entry["trace_overhead"] = [t["metrics"]["trace.case_s.p50"]["value"] / r["metrics"]["case_s.p50"]["value"]
                                       - 1.0 for t, r in zip(traced, runs)]
            entry["per_layer"] = {name: statistics.median(t["metrics"][name]["value"] for t in traced)
                                  for name in traced[0]["metrics"]}
        doc["workloads"][workload] = entry

        print(f"\n{workload}: seeds {SEEDS[0]}-{SEEDS[-1]}, correct {entry['all_correct']}, "
              f"failed share {entry['failed_share']}")
        print("| metric | median | q1 | q3 | spread | bound/3 |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, s in entry["metrics"].items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else " (wide)"
            print(f"| {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                  f"{s['spread']:.3f}{flag} | {bounds[name] / 3:.3f} |")
        if traced:
            print("tracing overhead: " + ", ".join(f"{o:+.3f}" for o in entry["trace_overhead"]))
        sys.stdout.flush()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"sweep-{args.label}.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
