"""Exact combinatorial toolkit for semicoherent system structure functions.

Represents a system as a truth table over component subsets, converts among
tables, multilinear simple forms, and minimal path/cut families, evaluates
reliability exactly, and computes structural signatures. Brute-force
reference implementations live in :mod:`structfn.oracle`; the command line
front end in :mod:`structfn.cli`.
"""

from . import core, reliability, signature, transform
from .core import *
from .reliability import *
from .signature import *
from .transform import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += transform.__all__
__all__ += reliability.__all__
__all__ += signature.__all__
