"""Stability theory of perturbed sinc bases, made computable.

The package evaluates closed-form stability thresholds for perturbed
cardinal-series systems, estimates Riesz bounds of truncated systems
numerically, and reconstructs bandlimited functions from nonuniform samples.
It exports every name in the ``__all__`` of its modules.
"""

__version__ = "0.1.0"

from . import bounds, framekit, grids, reconstruct, specfun
from .bounds import *
from .framekit import *
from .grids import *
from .reconstruct import *
from .specfun import *

__all__ = ["__version__"] + [
    name for module in (bounds, framekit, grids, reconstruct, specfun)
    for name in module.__all__
]
