"""Shared pytest configuration.

Hypothesis runs derandomized and without a per-example deadline, so the
suite draws the same examples on every run and a slow machine cannot turn
a passing property into a flaky timing failure.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
