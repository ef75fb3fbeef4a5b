#!/usr/bin/env python3
"""Run one benchmark workload on two revisions in alternating pairs and compare them.

Usage: python3 scripts/bench_pairs.py --workload <name> --parent <rev> --change <rev>
                                      [--pairs 10] [--first-seed 1]

Each revision is any git tree-ish: a commit, a branch, or the tree of the
staged changes (`git write-tree`). Each is exported once with `git archive`
into .bench_pairs/<tree hash>/ at the root of the repository, so each keeps
its own .bench_build/ and a later call reuses both. Pair k runs
`frostbench/run.py --workload <name> --seed <first-seed + k>` with
BENCHMARK.json's `run_seconds` on both sides, the parent first in even pairs
and the change first in odd ones. The script stops at the first run that
exits non-zero or reports an incorrect result.

It prints every run's end-to-end metrics, then per metric each side's median
and quartiles (statistics.quantiles with n=4), the number of pairs the change
won, whether the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, and whether a gain is shown: the change won
at least nine tenths of the pairs (ties count for neither side) and its median
is better than the parent's by more than the parent's q3 - q1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORTS = os.path.join(ROOT, ".bench_pairs")


def export(rev):
    """The directory holding `rev`'s files, exported on first use."""
    tree = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{tree}}"], cwd=ROOT,
                          capture_output=True, text=True)
    if tree.returncode != 0:
        sys.exit(f"not a git revision: {rev}")
    path = os.path.join(EXPORTS, tree.stdout.strip())
    if not os.path.isdir(path):
        partial = path + ".partial"
        os.makedirs(partial, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", tree.stdout.strip()], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
        os.rename(partial, path)
    return path


def run(side, path, workload, seed, seconds):
    """One run's end-to-end metrics; exits on a failed or incorrect run."""
    out = subprocess.run(
        ["python3", os.path.join("frostbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=path, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(f"{side} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{side} seed {seed}: incorrect result {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"seed {seed} {side:6s} " + " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
          + f" ({result['attempted']} operations, {result['failed']} failed)", flush=True)
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"parent": export(args.parent), "change": export(args.change)}

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run(side, sides[side], args.workload, seed, bench["run_seconds"]))

    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent}, change {args.change}")
    print(f"{'metric':12s} {'parent median [q1, q3]':>28s} {'change median [q1, q3]':>28s} "
          f"{'change':>8s} {'won':>6s}  {'claim':13s}  verdict")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        won = sum((c < q) if lower else (c > q) for q, c in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        delta = (cm - pm) / pm if pm else 0.0
        worse = delta if lower else -delta
        verdict = "WORSE than the bound" if worse > m["bound"] else "within the bound"
        q1, _, q3 = quartiles(par)
        gain = (pm - cm) if lower else (cm - pm)
        claim = "gain shown" if 10 * won >= 9 * len(par) and gain > q3 - q1 else "no gain shown"
        print(f"{name:12s} {spread(par):>28s} {spread(chg):>28s} {delta:+8.1%} {won:3d}/{len(par):<2d}  "
              f"{claim:13s}  {verdict} ({m['bound']:.0%}, {m['better']} is better)")


def quartiles(xs):
    """(q1, median, q3) of xs."""
    return tuple(statistics.quantiles(xs, n=4)) if len(xs) > 1 else (xs[0],) * 3


def spread(xs):
    """`median [q1, q3]` of xs."""
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


if __name__ == "__main__":
    main()
