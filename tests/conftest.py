"""Suite-wide test settings and fixtures.

Every ``@given`` test draws its examples from a fixed seed and keeps no
example database, so a run of the suite draws the same examples each time.
A test's own ``@settings`` sets only its ``max_examples`` (and, for the CLI
fuzz, its deadline).
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings

import robustpr.model

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def physical_memory(monkeypatch):
    """A setter of the physical memory, in bytes, that ``model``'s size rule
    reads; nothing else sees the patched ``os.sysconf``."""
    def set_to(nbytes):
        sizes = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(robustpr.model, "os", SimpleNamespace(sysconf=sizes.get))
    return set_to
