"""Hypothesis profiles.  `pytest --hypothesis-profile=ci` draws each
property's examples from a seed fixed by the test itself, so a failure in CI
reproduces on any machine; every test keeps its own max_examples.  Without
the option, runs explore fresh examples."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
