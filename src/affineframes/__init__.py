"""Numerical verification toolkit for affine-frame bound inequalities,
lattice counting estimates, and automorphism-family expansiveness on
concrete frequency groups (Euclidean lines and planes with full-rank
lattices, and the Gabor frequency group)."""

import os

# One OpenBLAS thread: the hot products are tall (N x d) by (d x d) with
# d <= 3, where a second thread mostly waits.  OpenBLAS reads the variable only
# when numpy first loads, so this must run before any numpy import; a thread
# count the caller set is kept.
if not any(os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .errors import (DegenerateDomainError, RejectedInputError,  # noqa: E402
                     ResourceLimitError, SingularPointError)

__all__ = [
    "__version__",
    "RejectedInputError",
    "ResourceLimitError",
    "DegenerateDomainError",
    "SingularPointError",
]
