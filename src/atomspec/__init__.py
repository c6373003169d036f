"""Atom spectra of finite rings and the classification of Serre
subcategories of their finitely generated module categories."""

import os as _os
import sys as _sys


def _import_numpy_single_threaded() -> None:
    """Import numpy with OpenBLAS held to the importing thread.

    atomspec does no floating-point linear algebra: its matrix
    products are on int64, which numpy does not hand to BLAS.  So OpenBLAS
    worker threads only cost start-up time.  OPENBLAS_NUM_THREADS=1 is
    set for the import alone and removed after it, unless something else
    changed it meanwhile, so no child process inherits it.  A numpy that
    is already loaded, or a user's OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS, is left as it is.
    """
    env = _os.environ
    if ("numpy" in _sys.modules or "OPENBLAS_NUM_THREADS" in env
            or "OMP_NUM_THREADS" in env):
        return
    env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if env.get("OPENBLAS_NUM_THREADS") == "1":
            del env["OPENBLAS_NUM_THREADS"]


_import_numpy_single_threaded()
