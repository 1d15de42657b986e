"""Exact proximity operator of the log-sum penalty.

Closed-form scalar/vector/matrix proximity operators of
``sum_i log(1 + |x_i|/eps)``, the jump point of the
nonconvex-regime operator, a simulator and analytic limit map of the
iteratively reweighted l1 scheme (including its exact failure intervals).
The brute-force grid oracle that checks the closed forms is test evidence
and lives with the tests, not in the package.

Each module's ``__all__`` is the one list of the public names it defines;
the package exports their union.
"""

from . import errors, irl1, matrix, matrix_io, scalar, vector
from .errors import *  # noqa: F403
from .irl1 import *  # noqa: F403
from .matrix import *  # noqa: F403
from .matrix_io import *  # noqa: F403
from .scalar import *  # noqa: F403
from .vector import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for m in (errors, irl1, matrix, matrix_io, scalar, vector) for name in m.__all__]
__all__.append("__version__")
