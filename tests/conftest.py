"""Shared test settings.

Every Hypothesis property runs derandomized, so the suite draws the same
examples on every run, and without a per-example deadline, since exact
arithmetic on large integers has no fixed cost.  A test passes only its
own `max_examples` to `@settings`.
"""

from hypothesis import settings

settings.register_profile("badtri", deadline=None, derandomize=True)
settings.load_profile("badtri")
