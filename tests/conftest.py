"""Hypothesis profiles: ``--hypothesis-profile=ci`` makes every property
test draw the same examples on each run, so a failure reproduces on rerun."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
