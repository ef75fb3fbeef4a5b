#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage: python3 frostbench/spread.py --workload <name> [--seeds 1,2,...] [--trace 0|1]

For every metric of the JSON result, prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4), next to the metric's bound from
BENCHMARK.json. A later change is compared with these numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", seed,
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        note = "" if bound is None else f" bound {bound:.2f}" + (
            " (spread under a third of it)" if spread < bound / 3 else " (spread over a third of it)")
        print(f"{k:36s} median {med:12.4f} spread {spread:7.2%}{note}")


if __name__ == "__main__":
    main()
