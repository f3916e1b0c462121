"""oddflow: 2D incompressible inhomogeneous flow with density-dependent
shear and odd viscosity — evolutionary and stationary solvers, symmetry-
reduced closed forms, and a verification suite.

Each regime is used through its own module (``oddflow.evolve``,
``oddflow.stationary``, ``oddflow.symmetric``, ...), so importing one
regime loads only what it needs.
"""

from .semilag import USING_COMPILED

__version__ = "0.1.0"
