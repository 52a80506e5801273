"""Bracket flows, curvature, and soliton detection for solvable metric
Lie algebras with a codimension-one abelian ideal.

The whole geometry is encoded by one real matrix A (the action of the
transversal generator on the ideal); the package integrates the matrix
flows that drive the metric evolution, computes curvature both from A and
from raw structure constants, detects algebraic solitons by two
independent routes, and reproduces the worked 2x2 phase plane and the
4-dimensional negative-curvature family end to end.

Each module's `__all__` is the one list of its public names; the package
exports their union, in module order.
"""

from . import matcore, flow, geometry, soliton, casebook, validate
from .matcore import *
from .flow import *
from .geometry import *
from .soliton import *
from .casebook import *
from .validate import *

__version__ = "0.1.0"

__all__ = [name for module in (matcore, flow, geometry, soliton, casebook,
                               validate)
           for name in module.__all__]
