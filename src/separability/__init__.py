"""Distance-based separability analysis for labeled datasets.

Core idea: a dataset is easy to classify when each class's intra-class
distances are distributed differently from its distances to the rest of
the data.  ``dsi`` turns that into an index in [0, 1] via two-sample
statistics over distance multisets; ``compute_measures`` provides eight
classical complexity measures for comparison; ``generate`` builds seeded
synthetic benchmark shapes; loaders cover CSV and the CIFAR binary
formats.

The package loads its modules, and numpy with them, on the first use of a
public name, so ``import separability`` loads no numpy.  The command
line's entry point (``separability.__main__``) relies on that: it caps
BLAS at one thread before numpy starts its thread pool.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the public modules, in the order their names join __all__
_MODULES = ("dataset", "fetch", "generators", "distances", "stats", "dsi", "measures", "errors")


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule onto its package; here the
        # name dsi stays the function, whichever module is imported first
        if name == "dsi" and isinstance(value, types.ModuleType):
            value = value.dsi
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _load() -> dict:
    """Import the public modules once and bind their names here."""
    package = globals()
    if "__all__" not in package:
        names = ["__version__"]
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            names += module.__all__
            package.update((name, getattr(module, name)) for name in module.__all__)
        package["__all__"] = names
    return package


def __getattr__(name: str):
    try:
        return _load()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(_load())
