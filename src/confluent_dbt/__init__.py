"""Confluent Darboux chains and the rational potential extensions they
generate, with exact big-rational verification oracles."""

__version__ = "0.1.0"

import importlib.util
import sys

from .exactalg import (  # noqa: F401
    ExactPoly,
    RationalFn,
    RootIsolation,
    TrigGauged,
    RadialGauged,
    wronskian,
    count_roots,
    isolate_roots,
    refine_root,
)


def _lazy(name: str):
    """Enter the submodule `name` in sys.modules and in this package as a
    module that runs on its first attribute read.  `verify` and `chains`
    load numpy and LAPACK, which only the commands that compute with floats
    need.  A lazy module is not thread-safe on that first read; the package
    runs on one thread."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


verify = _lazy("verify")
chains = _lazy("chains")
