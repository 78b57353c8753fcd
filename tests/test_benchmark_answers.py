"""The benchmark's answers, checked in the test suite: every
``typical`` case in each of its spellings renders the bytes stored in
``perfbench/reference.json``, and every ``presented`` and
``crosscheck`` case gives its stored answer.

Only ``perfbench/corpus.py``, ``harness.py`` and ``reference.json`` are
read.  ``harness.load_library`` re-imports ``commforce``, which would
leave later tests holding classes of another import, so the library
namespace is built here from the modules already imported.
"""

import importlib
import json
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import corpus  # noqa: E402
import harness  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    lib = SimpleNamespace(**{m: importlib.import_module("commforce." + m)
                             for m in harness.MODULES})
    lib.render = lambda v: json.dumps(lib.cli.verdict_doc("decide", v),
                                      indent=2)
    return lib


@pytest.fixture(scope="module")
def expected():
    return {w: {cid: {k: v for k, v in ans.items() if k != "seconds"}
                for cid, ans in answers.items()}
            for w, answers in harness.load_reference().items()}


def test_typical_documents_match_the_reference(lib, expected):
    for cid, want in expected["typical"].items():
        for variant in range(corpus.N_VARIANTS):
            text = corpus.identity_text(cid, lib, variant)
            got = harness.answer("typical", lib,
                                 harness.run_typical(lib, text))
            assert got == want, (cid, variant)


@pytest.mark.parametrize("workload", ["presented", "crosscheck"])
def test_presented_and_crosscheck_answers_match_the_reference(
        lib, expected, workload):
    for cid, want in expected[workload].items():
        ids = harness.parse(lib, corpus.identity_text(cid, lib))
        got = harness.answer(workload, lib,
                             harness.RUNNERS[workload](lib, ids))
        assert got == want, cid
