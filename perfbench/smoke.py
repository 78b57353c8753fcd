"""Smoke test of the benchmark itself: a tiny slice of every workload,
untraced and traced.  Fails unless every metric ``BENCHMARK.json``
names is printed with its unit, all eight end-to-end figures appear in
the report (``case_p90_ms`` only with 100 or more cases), and no
answer differs from the reference.

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys

import harness

SLICES = {"typical": 120, "tabled": 3, "presented": 2, "crosscheck": 2}
FIGURES = ("cases_per_s", "case_p50_ms", "case_p90_ms", "wrong_ratio",
           "error_ratio", "limit_ratio", "setup_s", "peak_rss_mb")


def run(workload, traced):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(traced),
           "--slice", str(SLICES[workload])]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                    proc.returncode,
                                                    proc.stderr))
    lines = proc.stdout.strip().splitlines()
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in FIGURES:
            figures[parts[0]] = (float(parts[1]), parts[2],
                                 int(parts[3].strip("(n=)")))
    return json.loads(lines[-1]), figures


def expect_metrics(result, specs, what):
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in specs}:
        raise AssertionError("%s metrics differ from BENCHMARK.json: %s"
                             % (what, sorted(set(metrics) ^ {
                                 m["name"] for m in specs})))
    for m in specs:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise AssertionError("%s: unit of %s" % (what, m["name"]))


def main():
    with open(harness.BENCHMARK) as fh:
        bench = json.load(fh)
    for w in harness.WORKLOADS:
        plain, figures = run(w, 0)
        traced, _ = run(w, 1)
        for result in (plain, traced):
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                raise AssertionError("%s: %r" % (w, result))
        expect_metrics(plain, bench["end_to_end"], w)
        expect_metrics(traced, bench["per_layer"], w + " traced")
        want = set(FIGURES)
        if SLICES[w] < 100:
            want.discard("case_p90_ms")
        if set(figures) != want:
            raise AssertionError("%s report figures: %s" % (w, sorted(figures)))
        if figures["wrong_ratio"][0] != 0:
            raise AssertionError("%s: wrong_ratio %r" % (w, figures))
        print("%-10s ok  %d cases, %d traced" % (w, plain["attempted"],
                                                 traced["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
