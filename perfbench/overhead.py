"""Tracing overhead per workload: the difference in ``cases_per_s``
between an untraced and a traced run of the same seed.

    python3 perfbench/overhead.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys

import harness


def cases_per_s(workload, seed, seconds, traced):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    key = "trace.cases_per_s" if traced else "cases_per_s"
    return metrics[key]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args()
    print("%-10s %12s %12s %9s" % ("workload", "untraced/s", "traced/s",
                                   "overhead"))
    for w in harness.WORKLOADS:
        plain = cases_per_s(w, args.seed, args.seconds, 0)
        traced = cases_per_s(w, args.seed, args.seconds, 1)
        print("%-10s %12.4f %12.4f %8.1f%%" % (w, plain, traced,
                                               100 * (plain - traced) / plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
