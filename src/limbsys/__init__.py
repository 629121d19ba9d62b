"""Finite transportation problems, extremal couplings, and numbered limb systems.

The package decides extremality of a coupling among all couplings sharing
its marginals through the acyclicity of its support, decomposes acyclic
supports into numbered limb systems, reconstructs the unique coupling such a
system admits, and solves the underlying transportation problem with a
network simplex that exposes optimal dual potentials.  All value types are
immutable and every operation is a pure function, so everything here is safe
to call concurrently.
"""

from . import circle, errors, extremality, limbs, measures, transport
from .errors import *
from .measures import *
from .extremality import *
from .transport import *
from .limbs import *
from .circle import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *measures.__all__,
    *extremality.__all__,
    *transport.__all__,
    *limbs.__all__,
    *circle.__all__,
]
