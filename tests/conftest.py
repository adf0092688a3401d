"""Suite-wide test settings.

Property tests run without hypothesis's per-example deadline: examples that
step chains or build SciPy distance matrices take longer than its 200 ms
default on a slow or shared host, and a deadline there fails on timing, not
on behaviour.  Each test still sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("ulmc", deadline=None)
settings.load_profile("ulmc")
