"""gsvdkit: the generalized SVD in GH form and the analyses built on it.

The central object is the factorization [A; B] = [U C; V S] H of a pair
of matrices with a common column count, together with its structure
accounting, the projector-corrected quotient theorem, Tikhonov
regularization paths, subspace geometry, clustered-data statistics, and
MANOVA / Jacobi-ensemble sampling.

The package exports each module's `__all__`, so a public name is written
once, in the module that defines it.
"""

from . import errors, gsvd, jacobi, matcore, quotient, stats, subgeom, tikhonov
from .gsvd import *
from .jacobi import *
from .matcore import *
from .quotient import *
from .stats import *
from .subgeom import *
from .tikhonov import *

__version__ = "0.1.0"

__all__ = [
    "errors",
    *matcore.__all__,
    *gsvd.__all__,
    *quotient.__all__,
    *tikhonov.__all__,
    *subgeom.__all__,
    *stats.__all__,
    *jacobi.__all__,
]
