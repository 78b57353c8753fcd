"""Run one commforce benchmark workload and print its metrics.

    python3 perfbench/run.py --workload typical --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/``.
One process and one thread drive the library as a closed loop with one
client: the next case starts when the previous one returns.  A run
repeats whole passes over the workload's cases while another pass fits
in ``--seconds`` (always at least one), so every run of a workload does
the same work whatever the seed.  The end-to-end figures take each
case at the median of its runs.  After each case the answer is
compared with ``reference.json``; the comparison is not timed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every
layer in a timing span (see ``tracing.py``), reports per-layer metrics
per pass and writes the spans to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run record and every end-to-end figure with its sample count.  Exit
status is 0 when every answer matched, 1 when one did not, and 2 when
the library or the reference cannot be loaded.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import harness

harness.pin_threads()

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 21
P90_MIN_CASES = 100
OUT_DIR = harness.ROOT / "perfbench" / "out"


def select(ref, slice_size):
    """Case ids of the run: all, or the ``slice_size`` cheapest by their
    reference time (for smoke tests)."""
    ids = sorted(ref, key=lambda c: (ref[c]["seconds"], c))
    return ids[:slice_size] if slice_size else ids


def setup(workload, seed, slice_size):
    """Import the library, build the seeded corpus and parse what the
    timed loop does not parse itself.  Returns the library, the
    reference answers and one pass: (case id, input) in seed order."""
    lib = harness.load_library()
    ref = harness.load_reference()[workload]
    rng = random.Random(seed)
    cases = []
    for cid in select(ref, slice_size):
        text = corpus.identity_text(cid, lib, rng.randrange(corpus.N_VARIANTS))
        cases.append((cid, harness.prepare(workload, lib, text)))
    rng.shuffle(cases)
    return lib, ref, cases


def correct(workload, lib, case_id, expected, result):
    """Does the answer match the reference?  A reference ResourceLimit
    also accepts a new limit, or a verdict the oracle agrees with."""
    if result is None:
        got = {"kind": "limit"}
    else:
        got = harness.answer(workload, lib, result)
    want = {k: v for k, v in expected.items() if k != "seconds"}
    if got == want and harness.congruence_ok(case_id, got):
        return True
    if want["kind"] != "limit" or result is None or workload != "typical":
        return False
    if got["kind"] == "limit":
        return True
    ids, verdict = result[0], result[1]
    return lib.oracle.cross_validate(ids, verdict,
                                     harness.search_bounds(lib)).agree


class Tally:
    def __init__(self):
        self.times = {}         # case id -> seconds of each of its runs
        self.samples = 0
        self.wrong = 0
        self.errors = 0
        self.limits = 0
        self.passes = 0
        self.elapsed = 0.0


def run_once(workload, lib, ref, cid, prepared, tracer, tally):
    """One timed case and its (untimed) check."""
    run = harness.RUNNERS[workload]
    times = tally.times.setdefault(cid, [])
    tally.samples += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = run(lib, prepared)
        else:
            result = tracer.case(cid, run, lib, prepared)
    except lib.errors.ResourceLimitError:
        result = None
    except Exception:
        # one broken case must not hide the rest of the run
        times.append(time.perf_counter() - t0)
        tally.errors += 1
        print("error in case %s:" % cid, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return
    times.append(time.perf_counter() - t0)
    if result is None or (workload in ("typical", "tabled")
                          and result[1].kind == "limit"):
        tally.limits += 1
    if not correct(workload, lib, cid, ref[cid], result):
        tally.wrong += 1
        print("wrong answer in case %s" % cid, file=sys.stderr)


def measure(workload, lib, ref, cases, seconds, tracer):
    tally = Tally()
    start = time.perf_counter()
    while True:
        for cid, prepared in cases:
            run_once(workload, lib, ref, cid, prepared, tracer, tally)
        tally.passes += 1
        tally.elapsed = time.perf_counter() - start
        if tally.elapsed * (tally.passes + 1) / tally.passes > seconds:
            return tally


def end_to_end(tally, setup_times):
    """Every end-to-end figure: name -> (value, unit, samples).  Each
    case counts with the median of its runs in the measurement, so a
    burst of load from other processes moves one sample of a case, not
    the figure; throughput is the rate of one pass at those medians."""
    n = tally.samples
    per_case = [statistics.median(ts) for ts in tally.times.values()]
    out = {
        "cases_per_s": (len(per_case) / sum(per_case), "1/s", n),
        "case_p50_ms": (statistics.median(per_case) * 1000, "ms", n),
        "wrong_ratio": (tally.wrong / n, "ratio", n),
        "error_ratio": (tally.errors / n, "ratio", n),
        "limit_ratio": (tally.limits / n, "ratio", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", 1),
    }
    if len(per_case) >= P90_MIN_CASES:
        out["case_p90_ms"] = (statistics.quantiles(per_case, n=10)[-1]
                              * 1000, "ms", n)
    return out


def _commit():
    head = harness.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (harness.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((harness.SRC / "commforce").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_record(args, tally, cases):
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "cases_per_pass": len(cases), "passes": tally.passes,
        "samples": tally.samples, "elapsed_s": round(tally.elapsed, 3),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slice", type=int, default=0, metavar="N",
                    help="run only the N cheapest cases (smoke tests)")
    args = ap.parse_args(argv)

    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib, ref, cases = setup(args.workload, args.seed, args.slice)
            setup_times.append(time.perf_counter() - t0)
    except (harness.MissingLibrary, OSError, ImportError) as err:
        print("error: cannot set up the benchmark: %s" % err, file=sys.stderr)
        return 2

    # set-up garbage is collected once, and what survives it is kept out
    # of later collections, so no timed case pays for scanning it
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
    try:
        tally = measure(args.workload, lib, ref, cases, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    figures = end_to_end(tally, setup_times)
    print("run record: " + json.dumps(run_record(args, tally, cases)))
    for name, (value, unit, samples) in figures.items():
        print("%-14s %14.6f %-5s (n=%d)" % (name, value, unit, samples))
    if tracer is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in figures.items()
                   if name in harness.end_to_end_names()}
    else:
        values = tracer.metrics(tally.passes, figures["cases_per_s"][0])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs()}
        spans = OUT_DIR / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans)
        print("spans: %s (%d)" % (spans.relative_to(harness.ROOT),
                                  len(tracer.spans)))
    failed = tally.wrong + tally.errors
    print(json.dumps({"correct": failed == 0, "attempted": tally.samples,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
