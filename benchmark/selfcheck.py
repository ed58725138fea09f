#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change with?

Runs two full sets of untraced runs of the same code — `--runs` runs per
workload in each set, every run with another seed, the second set in
reverse workload order — and applies the rule the benchmark is accepted
by:

* spread: within each set, the interquartile range of every end-to-end
  metric (`statistics.quantiles(values, n=4)`) as a share of its median
  must stay within the metric's bound in BENCHMARK.json (`setup_s`
  excepted);
* agreement: the second set's median must not be worse than the first
  set's by more than the bound (`setup_s` included).

Writes the observed spread (median, quartiles, max - min) and the bound
each metric would need (3 x relative IQR) to benchmark/out/NOISE.json
and exits 1 if any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "range": max(values) - min(values),
        "rel_iqr": (q3 - q1) / median,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload per set (the acceptance rule uses 10)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2: quartiles need two values")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # sets[s][workload][metric] -> values, one per run.
    sets = []
    seed = args.seed
    for order in (workloads, workloads[::-1]):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for _ in range(args.runs):
            for workload in order:
                print(f"# set {len(sets) + 1}: {workload} seed {seed}", file=sys.stderr)
                measured = run_once(spec["command"], workload, seed, seconds)
                print("#   " + " ".join(f"{k}={v:.6g}" for k, v in measured.items()),
                      file=sys.stderr)
                for name, value in measured.items():
                    values[workload][name].append(value)
                seed += 1
        sets.append(values)

    failures = []
    noise = {"runs_per_set": args.runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        per_metric = {}
        for name, meta in metrics.items():
            first, second = (spread(s[workload][name]) for s in sets)
            worse = (second["median"] - first["median"]) / first["median"]
            if meta["better"] == "higher":
                worse = -worse
            widest = max(first["rel_iqr"], second["rel_iqr"])
            per_metric[name] = {
                "unit": meta["unit"], "bound": meta["bound"],
                "first": first, "second": second,
                "second_worse_by": worse,
                "bound_needed": 3 * widest,
            }
            if name != "setup_s" and widest > meta["bound"]:
                failures.append(f"{workload}/{name}: spread {widest:.4f} > bound {meta['bound']}")
            if worse > meta["bound"]:
                failures.append(f"{workload}/{name}: second set worse by {worse:.4f} > bound {meta['bound']}")
            print(f"{workload:14} {name:14} median {first['median']:.6g} / {second['median']:.6g}"
                  f"  rel_iqr {first['rel_iqr']:.4f} / {second['rel_iqr']:.4f}"
                  f"  worse_by {worse:+.4f}  bound {meta['bound']}")
        noise["workloads"][workload] = per_metric

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "NOISE.json"), "w") as f:
        json.dump(noise, f, indent=2)
        f.write("\n")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
