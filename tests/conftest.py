"""Shared test configuration.

Property tests run under one derandomized hypothesis profile, so every
run draws the same examples and a failure reproduces as is.
"""

from hypothesis import settings

settings.register_profile("cyclekit", derandomize=True, max_examples=60,
                          deadline=None, print_blob=True)
settings.load_profile("cyclekit")
