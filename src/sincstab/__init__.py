"""Stability theory of perturbed sinc bases, made computable.

The package evaluates closed-form stability thresholds for perturbed
cardinal-series systems, estimates Riesz bounds of truncated systems
numerically, and reconstructs bandlimited functions from nonuniform samples.
It exports every name in the ``__all__`` of its modules.  The exports resolve
on first access (PEP 562) to the same objects as the module names, and
importing the package loads none of its modules, so the closed-form layer
(``bounds``, ``specfun``) runs on the standard library alone: numpy loads
with ``grids``, ``framekit`` or ``reconstruct``, or on the first array call.
"""

import importlib
import sys

__version__ = "0.1.0"

_MODULES = ("bounds", "framekit", "grids", "reconstruct", "specfun")


def __getattr__(name):
    if name in _MODULES:
        # `from . import bounds` asks here first: load that module only
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"] + [
            export for module in _MODULES for export in __getattr__(module).__all__
        ]
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(sys.modules[__name__].__all__))
