"""Library loading and the per-workload case runners.

Each runner makes the library calls one case costs a user and returns
the raw result; ``answer`` turns that result into the JSON-able form
stored in ``reference.json`` and compared after every case.
"""

import importlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("typical", "tabled", "presented", "crosscheck")
MODULES = ("cli", "commalg", "decide", "errors", "finitering", "freealg",
           "gsb", "oracle", "theorems")
# the oracle bounds the cross-check workload and the reference use
SEARCH_BOUNDS = (5, 3, 4)


def pin_threads():
    """One compute thread: set before numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


class MissingLibrary(Exception):
    pass


def load_library():
    """Fresh import of commforce from the checkout's ``src``.  Any copy
    already imported is dropped first, so repeated calls measure the
    import again."""
    if not (SRC / "commforce" / "__init__.py").is_file():
        raise MissingLibrary("no commforce package under %s" % SRC)
    for name in [m for m in sys.modules
                 if m == "commforce" or m.startswith("commforce.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module("commforce." + m) for m in MODULES}
    pkg = Path(sys.modules["commforce"].__file__).resolve().parent
    if pkg != (SRC / "commforce").resolve():
        raise MissingLibrary("commforce imported from %s, not %s" % (pkg, SRC))
    lib = SimpleNamespace(**mods)
    lib.render = lambda v: json.dumps(lib.cli.verdict_doc("decide", v),
                                      indent=2)
    return lib


def end_to_end_names():
    """The end-to-end metrics ``BENCHMARK.json`` declares."""
    with open(BENCHMARK) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse(lib, text):
    return lib.cli.parse_identity_file(text)[0]


def search_bounds(lib):
    return lib.oracle.SearchBounds(*SEARCH_BOUNDS)


# ---------------------------------------------------------------------------
# runners: (lib, prepared input) -> raw result

def run_typical(lib, text):
    ids = lib.cli.parse_identity_file(text)[0]
    verdict = lib.decide.decide_all(ids)
    return ids, verdict, lib.render(verdict)


def run_tabled(lib, ids):
    return ids, lib.decide.decide_all(ids)


def run_presented(lib, ids):
    hit = lib.decide.decide_Ap(ids)
    if hit is None or not isinstance(hit[1], lib.decide.PresentedWitness):
        return ids, hit, None
    w = hit[1]
    return ids, hit, lib.decide.presented_scan_check(ids, w.basis,
                                                     w.scan_length)


def run_crosscheck(lib, ids):
    forces = lib.decide.Verdict("forces")
    return ids, lib.oracle.cross_validate(ids, forces, search_bounds(lib))


RUNNERS = {"typical": run_typical, "tabled": run_tabled,
           "presented": run_presented, "crosscheck": run_crosscheck}


def prepare(workload, lib, text):
    """Typical cases are parsed inside the timed call; the others are
    parsed once during set-up."""
    return text if workload == "typical" else parse(lib, text)


# ---------------------------------------------------------------------------
# answers

def family_doc(lib, family):
    return None if family is None else lib.finitering.family_json(family)


def answer(workload, lib, result):
    if workload == "typical":
        _, verdict, doc = result
        return {"kind": verdict.kind, "doc": doc}
    if workload == "tabled":
        _, v = result
        return {"kind": v.kind, "prime": v.prime,
                "family": family_doc(lib, v.family),
                "params": list(v.params)}
    if workload == "presented":
        _, hit, recheck = result
        if hit is None:
            return {"kind": "forces"}
        p, w = hit
        out = {"kind": "witness", "prime": p,
               "family": family_doc(lib, w.family), "recheck": recheck}
        if recheck is not None:
            out["scan_length"] = w.scan_length
        return out
    _, report = result
    return {"kind": "forces", "report": report.to_json()}


def congruence_ok(case_id, ans):
    """Hand-derived check for X*[Y,Z] - [Y,Z]*X^m and X*[X,Y] -
    [X,Y]*X^m: B(p,n,l) satisfies them iff x^m = x^(p^l) on F_{p^n}^*,
    i.e. m = p^l (mod p^n - 1).  Cases of other shapes pass."""
    fam = ans.get("family") or {}
    if not case_id.startswith(("xyz-m", "xxy-m")) or fam.get("family") != "B":
        return True
    m = int(case_id.split("-m")[1])
    p, n, l = fam["p"], fam["n"], fam["l"]
    return (m - p ** l) % (p ** n - 1) == 0
