"""Suite-wide test settings.

Hypothesis runs derandomized and without its example database, so every run
of one commit draws the same examples; each test keeps its own example count.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
