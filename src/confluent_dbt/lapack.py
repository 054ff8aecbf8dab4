"""LAPACK's symmetric tridiagonal eigensolvers (Anderson et al., LAPACK
Users' Guide, 3rd ed., 1999), called through scipy's compiled f2py
wrappers without importing `scipy.linalg`.

`importlib.util.find_spec("scipy")` locates scipy without importing it,
and the extension module `scipy/linalg/_flapack` is loaded from its file.
Importing `scipy.linalg` instead costs about 0.1 s at start-up (scipy 1.17
on a 2-vCPU machine), most of it in modules this package never uses.

`eigh_tridiagonal` makes the calls `scipy.linalg.eigh_tridiagonal` makes
with its default driver, with the same checks, so every eigenvalue and
eigenvector is bit for bit scipy's: all eigenvalues come from `dstevd`
(divide and conquer), the k lowest from `dstebz` (bisection) and their
eigenvectors from `dstein` (inverse iteration).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np


def _load_flapack():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("scipy is not installed; its compiled LAPACK wrappers are needed")
    stem = os.path.join(scipy.submodule_search_locations[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's compiled LAPACK wrappers not found: no {paths[0]}")
    # the loader enters the module in sys.modules under this name: one of
    # this package's, since no scipy package is imported around it
    name = f"{__package__}._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader)
    )
    loader.exec_module(module)
    return module


_flapack = _load_flapack()


def _check_info(info, driver, positive="did not converge (LAPACK info=%d)"):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} {positive % info}")


def eigh_tridiagonal(d, e, k=None, vectors=False):
    """Eigenvalues, ascending, of the real symmetric tridiagonal matrix with
    diagonal `d` and off-diagonal `e`: all of them, or the k lowest.

    Returns (w, v).  With `vectors` (only with `k`) the columns of v are the
    unit eigenvectors of w; otherwise v is None.  Infinite or NaN entries
    raise ValueError, as in scipy."""
    d = np.asarray_chkfinite(d, dtype=float)
    e = np.asarray_chkfinite(e, dtype=float)
    if len(d) == 1:  # scipy answers a 1x1 matrix without LAPACK
        return d.copy(), np.ones((1, 1)) if vectors else None
    if k is None:
        w, _, info = _flapack.dstevd(d, e, compute_v=0)
        _check_info(info, "stevd (eigh_tridiagonal)")
        return w, None
    # indices 1..k; vl, vu are unused and tol 0 is LAPACK's default; block
    # order is what dstein takes
    m, w, iblock, isplit, info = _flapack.dstebz(
        d, e, 2, 0.0, 1.0, 1, k, 0.0, "B" if vectors else "E"
    )
    _check_info(info, "stebz (eigh_tridiagonal)")
    w = w[:m]
    if not vectors:
        return w, None
    v, info = _flapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)", "%d eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]
