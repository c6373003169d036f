"""Atom spectra of finite rings and the classification of Serre
subcategories of their finitely generated module categories."""

import os as _os
import sys as _sys


def _import_numpy_single_threaded() -> None:
    """Import numpy with OpenBLAS held to the importing thread.

    atomspec does no floating-point linear algebra: its one matrix
    product is on int64, which numpy does not hand to BLAS.  So OpenBLAS
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

from .checks import (
    ClosureUniverse,
    atom_equivalent,
    build_universe,
    calculus_check,
    check_suite,
    closure_oracle,
    commutative_crosscheck,
    composition_factors,
    is_completely_prime,
    is_isomorphic,
    max_monoform_submodule,
    monoform_oracle_artinian,
    socle,
)
from .modules import (
    RightModule,
    annihilator,
    annihilator_set,
    cyclic_submodule,
    direct_sum,
    is_uniform,
    parse_module_spec,
    quotient,
    quotient_module,
    regular_module,
    sub_module,
    submodule_lattice,
)
from .monoform import (
    Filtration,
    is_comonoform,
    is_monoform,
    monoform_filtration,
)
from .rings import (
    FiniteRing,
    fp_algebra,
    mat,
    parse_ring_document,
    parse_ring_spec,
    product,
    serialize_ring,
    tri2,
    validate_ring,
    zmod,
)
from .serre import (
    SerreSubcategory,
    enumerate_serre,
    serre_lattice,
)
from .spectrum import (
    Atom,
    AtomSpectrum,
    associated_atoms,
    atom_spectrum,
    atom_support,
    enumerate_open_sets,
    is_open,
)

__all__ = [name for name in dir() if not name.startswith("_")]
