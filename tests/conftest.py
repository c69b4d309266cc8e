"""Hypothesis profiles for the test suite.

``repeatable``, the default, draws the same examples on every run: it is
derandomized and keeps no example database, so a failure found by a draw
comes back on the next run and ``tests/unrun_lines.py`` lists the same lines
each time.  ``explore`` draws fresh examples each run; choose it with
``--hypothesis-profile explore``.  A test's own ``@settings`` (its
``max_examples``, say) still applies under either profile."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("repeatable")
