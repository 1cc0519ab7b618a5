"""Suite-wide Hypothesis settings: every run draws the same examples
(derandomized, no example database), so a pass or failure reproduces."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
