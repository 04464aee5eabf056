"""Suite-wide test settings.

Every ``@given`` test draws its examples from a fixed seed and keeps no
example database, so a run of the suite draws the same examples each time.
A test's own ``@settings`` sets only its ``max_examples`` (and, for the CLI
fuzz, its deadline).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
