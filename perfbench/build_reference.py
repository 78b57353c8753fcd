"""Write ``reference.json``: the expected answer for every case.

Run once per intended change of verdicts, from the repository root:

    python3 perfbench/build_reference.py

Each answer is confirmed by a check that does not trust the decision
path: a Forces verdict needs the brute-force ``witness_search`` to find
nothing, a tabled witness is re-checked exhaustively on a freshly built
ring, and a presented witness must pass ``presented_scan_check``.  A
ResourceLimit verdict is stored unconfirmed.
"""

import json
import sys
import time

import harness

harness.pin_threads()

import corpus  # noqa: E402

class Unconfirmed(Exception):
    pass


def confirm_tabled(lib, ids, family):
    ring = lib.finitering.make_ring(lib.finitering.family_from_json(family))
    if ring.is_commutative() is True:
        raise Unconfirmed("witness ring is commutative")
    for P in ids.polys:
        try:
            ok = ring.is_identity(P)
        except lib.errors.ResourceLimitError:
            ok = ring.is_identity(P, eval_cap=10 ** 8)
        if ok is not True:
            raise Unconfirmed("identity fails at %r" % (ok,))


def confirm_verdict(lib, ids, verdict):
    """Returns the oracle's seconds for a Forces verdict, else 0."""
    if verdict.kind == "forces":
        t0 = time.perf_counter()
        found = lib.oracle.witness_search(ids, harness.search_bounds(lib))
        if found.family is not None:
            raise Unconfirmed("oracle found %r" % (found.family,))
        return time.perf_counter() - t0
    if verdict.kind == "witness":
        w = verdict.witness
        if isinstance(w, lib.decide.PresentedWitness):
            if not lib.decide.presented_scan_check(ids, w.basis,
                                                   w.scan_length):
                raise Unconfirmed("presented witness fails its scan")
        else:
            confirm_tabled(lib, ids, lib.finitering.family_json(w.family))
    return 0.0


def texts_agree(lib, case_id):
    """Every spelling must give the library the same identity set."""
    base = harness.parse(lib, corpus.identity_text(case_id, lib, 0))
    for k in range(1, corpus.N_VARIANTS):
        ids = harness.parse(lib, corpus.identity_text(case_id, lib, k))
        if ids != base:
            raise Unconfirmed("spelling %d parses differently" % k)
    return base


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def build(lib, log):
    ref = {w: {} for w in harness.WORKLOADS}
    for cid in corpus.TYPICAL_NAMED + corpus.pool_ids():
        texts_agree(lib, cid)
        res, dt = timed(harness.run_typical, lib,
                        corpus.identity_text(cid, lib, 0))
        oracle_s = confirm_verdict(lib, res[0], res[1])
        ans = harness.answer("typical", lib, res)
        ref["typical"][cid] = dict(ans, seconds=round(dt, 6))
        log("typical %s %s %.3fs oracle %.2fs" % (cid, ans["kind"], dt,
                                                  oracle_s))
    for cid in sorted(corpus.TABLED):
        ids = texts_agree(lib, cid)
        res, dt = timed(harness.run_tabled, lib, ids)
        ans = harness.answer("tabled", lib, res)
        if ans["kind"] != "witness":
            raise Unconfirmed("%s: expected a tabled witness" % cid)
        confirm_tabled(lib, ids, ans["family"])
        if not harness.congruence_ok(cid, ans):
            raise Unconfirmed("%s: m != p^l mod p^n - 1" % cid)
        ref["tabled"][cid] = dict(ans, seconds=round(dt, 6))
        log("tabled %s %s %.3fs" % (cid, ans["family"], dt))
    for cid in sorted(corpus.PRESENTED):
        ids = texts_agree(lib, cid)
        res, dt = timed(harness.run_presented, lib, ids)
        ans = harness.answer("presented", lib, res)
        if ans.get("recheck") is not True:
            raise Unconfirmed("%s: no presented witness passing its scan"
                              % cid)
        ref["presented"][cid] = dict(ans, seconds=round(dt, 6))
        log("presented %s %.3fs" % (cid, dt))
    for cid in corpus.CROSSCHECK:
        if ref["typical"][cid]["kind"] != "forces":
            raise Unconfirmed("%s: cross-check cases must be Forces" % cid)
        ids = texts_agree(lib, cid)
        res, dt = timed(harness.run_crosscheck, lib, ids)
        ans = harness.answer("crosscheck", lib, res)
        if not ans["report"]["agree"]:
            raise Unconfirmed("%s: oracle disagrees" % cid)
        ref["crosscheck"][cid] = dict(ans, seconds=round(dt, 6))
        log("crosscheck %s %.3fs skipped %d" % (
            cid, dt, len(ans["report"]["skipped"])))
    return ref


def main():
    lib = harness.load_library()
    ref = build(lib, lambda msg: print(msg, flush=True))
    with open(harness.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
