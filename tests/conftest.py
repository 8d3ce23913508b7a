"""Hypothesis settings for the test suite.

Every run draws the same examples (derandomize) with no deadline, so results
do not depend on the machine's load, and keeps no example database. Hypothesis
also caches the constants it finds in local source files; that cache goes to a
temporary directory removed when pytest finishes, so a test run leaves no
.hypothesis/ directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="atomslits-hypothesis-")
set_hypothesis_home_dir(_storage.name)

settings.register_profile(
    "tier1", derandomize=True, deadline=None, database=None, max_examples=100
)
settings.load_profile("tier1")


def pytest_unconfigure(config):
    # removed here, not by the finalizer at exit, which warns under -X dev
    _storage.cleanup()
