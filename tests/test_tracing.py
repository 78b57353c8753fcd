"""The benchmark tracer (perfbench/tracing.py) patches library layers by
name; every name it patches must still resolve, so renaming or deleting
one fails here rather than only in a traced benchmark run."""

import importlib
import json
import os
import sys
from types import SimpleNamespace

from commforce.decide import IdentitySet
from commforce.freealg import NcPoly, commutator

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import harness  # noqa: E402
import tracing  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_install_and_restore():
    # the modules this test session already uses, laid out as the
    # benchmark's loader lays out its own fresh import
    lib = SimpleNamespace(**{m: importlib.import_module("commforce." + m)
                             for m in harness.MODULES})
    lib.render = lambda v: json.dumps(lib.cli.verdict_doc("decide", v))
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert _current(owner, attr).__wrapped__ is original
        ids = IdentitySet(2, (commutator(NcPoly.var(1), NcPoly.var(2)),))
        verdict = tracer.case("comm", lib.decide.decide_all, ids)
        assert verdict.kind == "forces"
        assert tracer.counts["decide.decide_all.calls"] == 1
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert _current(owner, attr) is original


def test_tracer_reads_a_collapsed_completion():
    # the quartic's presentation at p = 3 takes two completion rounds
    # and then a later round that stops once [X, Y] reduces to zero; the
    # tracer reads steps and elements from every returned basis,
    # including that incomplete one
    X, Y = NcPoly.var(1), NcPoly.var(2)
    ids = IdentitySet(2, (X ** 2 * Y ** 2 + X ** 4 * Y ** 2 + X * Y * X * Y,))
    lib = SimpleNamespace(**{m: importlib.import_module("commforce." + m)
                             for m in harness.MODULES})
    lib.render = lambda v: json.dumps(lib.cli.verdict_doc("decide", v))
    plain = lib.render(lib.decide.decide_all(ids))
    tracer = tracing.Tracer()
    try:
        tracer.install(lib)
        traced = lib.render(tracer.case("quartic", lib.decide.decide_all, ids))
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.counts["gsb.complete.calls"] >= 3
    assert tracer.counts["gsb.complete.steps"] > 0
