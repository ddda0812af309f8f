"""Exact arithmetic for partitions with a self-repeating largest part.

A library for counting partitions whose largest part appears exactly once
and equals the sum of all remaining parts, in six constrained flavors,
with every counting sequence computed two independent ways (closed-form
q-series expansion and direct combinatorial counting) and compared.
"""

from . import families, partitions, qproducts, seqcompare, series
from .families import *  # noqa: F401,F403
from .partitions import *  # noqa: F401,F403
from .qproducts import *  # noqa: F401,F403
from .seqcompare import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__version__ = "0.1.0"

# a new list, so extending it never changes a module's own __all__
__all__ = []
__all__ += families.__all__
__all__ += partitions.__all__
__all__ += qproducts.__all__
__all__ += seqcompare.__all__
__all__ += series.__all__
