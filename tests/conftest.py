"""Hypothesis settings for the whole suite.

Every property test draws the same examples on every run (derandomize),
replays none saved from an earlier run (no database) and has no per-example
time limit, since some examples build and run whole programs. A test sets
only its own max_examples.
"""

from hypothesis import settings

settings.register_profile("crtfi", derandomize=True, database=None, deadline=None)
settings.load_profile("crtfi")
