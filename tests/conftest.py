import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from commforce import decide  # noqa: E402


@pytest.fixture
def run_stages():
    """A differential reference for ``decide_all`` and the closed forms:
    all three stages (``decide._stages``), without the multilinear
    criterion or the one-variable stop.  Stages are looked up on the
    module when it runs, so a patched stage is the one run."""
    return lambda ids, options=None: decide._stages(
        ids, options or decide.DecideOptions())
