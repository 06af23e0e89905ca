"""One hypothesis profile for every test run: no per-example deadline, since
an example's wall time on a shared host says nothing of its correctness.
Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("hfourier", deadline=None)
settings.load_profile("hfourier")
