"""Suite-wide Hypothesis settings.

Every property test runs the same examples on every run (derandomize), may
take as long as it needs per example (no deadline: the exhaustive oracles
are slow), and writes no example database.  Hypothesis still keeps its own
caches (constants/, unicode_data/) under .hypothesis/, which git ignores.
Tests set only their own max_examples.
"""

from hypothesis import settings

settings.register_profile("minhom", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("minhom")
