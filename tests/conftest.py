"""Shared pytest configuration.

Hypothesis health checks (``too_slow`` / ``filter_too_much``) are load- and
seed-sensitive: under CI or a busy machine they intermittently abort
otherwise-passing property tests, which turns a ``pytest -x`` gate red on
unrelated changes. Suppress them globally; per-test ``@settings`` still
control example counts and deadlines.

The ``ci-deep`` profile is the same with 5,000 examples, for CI's deep run
of the skeleton properties (``--hypothesis-profile=ci-deep``).
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo-default",
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    deadline=None,
)
settings.load_profile("repo-default")
# ``--hypothesis-profile=ci-deep`` (a CI step): properties that set no
# ``max_examples`` of their own run 5,000 examples instead of the default
settings.register_profile("ci-deep", settings.get_profile("repo-default"), max_examples=5000)
