"""Test-wide settings: the Hypothesis tests draw the same cases on every run."""

from hypothesis import settings

# derandomize: each test's cases come from a seed fixed by the test itself, so
# a failure reproduces from its name alone. database=None: no example database
# is read or written, so one run's failures cannot steer the next run's draws.
# Each test's own @settings still sets its max_examples and deadline.
settings.register_profile("repeatable", database=None, derandomize=True)
settings.load_profile("repeatable")
