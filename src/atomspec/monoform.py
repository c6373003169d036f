"""Decision procedures for monoform modules and comonoform right ideals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modules import (
    RightModule,
    colon_table,
    coset_colons,
    cyclic_submodule,
    minimal_submodules,
    regular_module,
    submodule_sum,
)
from .rings import AtomspecError, FiniteRing


class MonoformError(AtomspecError):
    pass


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain from zero to the full module, each factor
    cyclic, monoform, and isomorphic to R/p for its comonoform label p."""

    chain: tuple[frozenset, ...]
    labels: tuple[frozenset, ...]


def meets_no_row_above(table, sub: frozenset) -> bool:
    """Row sub of a module M's colon table meets no row N > sub: M/sub is
    monoform.

    Subobject sharing is decided by annihilator-set intersection, and row
    N is the annihilator set of M/N.  The submodules of M/sub are the
    N/sub for N containing sub, and (M/sub)/(N/sub) = M/N, so M/sub
    shares a nonzero submodule with one of its proper quotients iff row
    sub meets some row N > sub.
    """
    row = table[sub]
    return all(row.isdisjoint(other) for n, other in table.items() if n > sub)


def primitive_idempotents(ring: FiniteRing) -> np.ndarray:
    """The primitive idempotents in id order: the e != 0 with ee = e and
    no idempotent f outside {0, e} with ef = fe = f.  Every simple module
    is the top of eR for some primitive e."""
    idem = np.flatnonzero(np.diagonal(ring.mul) == np.arange(ring.order))[1:]
    prod = ring.mul[np.ix_(idem, idem)]  # e_i e_j
    # f = e_j lies under e = e_i when ef = f = fe; e lies under itself
    under = (prod == idem) & (prod.T == idem)
    return idem[under.sum(axis=1) == 1]


@lru_cache(maxsize=None)
def is_monoform(module: RightModule) -> bool:
    """M nonzero and no nonzero submodule is shared between M and any M/N.

    A monoform M is uniform, and a uniform M with socle S is monoform iff
    S occurs once among its composition factors: if twice, S embeds in
    some M/N with N != 0.  For e primitive with Se != 0, S is the top of
    eR, so Me = Hom(eR, M) has |Se|^k elements for k occurrences, and
    k = 1 iff Me lies in Me & S = Se.  So this reads the minimal
    submodules and one column of the action table; no lattice, colon
    table or quotient is built.
    """
    minimal = minimal_submodules(module)  # none for the zero module
    if len(minimal) != 1:
        return False
    inside = np.zeros(module.order, dtype=bool)
    inside[list(minimal[0])] = True
    col = next(e for e in primitive_idempotents(module.ring)
               if module.act[inside, e].any())
    return bool(inside[module.act[:, col]].all())


@lru_cache(maxsize=None)
def _comonoform_flags(ring: FiniteRing) -> dict:
    """{p: R/p is monoform} for every proper right ideal p, each read off
    row p of the regular module's colon table."""
    table = colon_table(regular_module(ring))
    return {p: meets_no_row_above(table, p) for p in table}


def is_comonoform(ring: FiniteRing, ideal: frozenset) -> bool:
    """Right ideal p with R/p monoform."""
    flags = _comonoform_flags(ring)
    if ideal not in flags:
        if ideal == frozenset(range(ring.order)):
            raise MonoformError("the full ring is not a comonoform right ideal")
        raise MonoformError(f"{sorted(ideal)} is not a right ideal")
    return flags[ideal]


def monoform_filtration(module: RightModule) -> Filtration:
    """Chain with monoform cyclic factors, each isomorphic to R/p_i.

    Step i walks the elements r + L of M/L, L = L_{i-1}, in id order
    with their annihilators (L : r) = {a : r.a in L} from `coset_colons`,
    without building M/L.  The first r whose colon ideal is comonoform
    gives L_i = L + rR, the pull-back of the cyclic submodule of r + L.
    """
    if module.order == 1:
        raise MonoformError("the zero module has no monoform filtration")
    chain = [frozenset({0})]
    labels = []
    while len(chain[-1]) < module.order:
        for r, mask in coset_colons(module, chain[-1]):
            colon = frozenset(np.flatnonzero(mask).tolist())
            if is_comonoform(module.ring, colon):
                break
        else:
            # impossible for a nonzero finite module: some cyclic submodule
            # of every nonzero module is monoform
            raise AssertionError(
                "no comonoform annihilator found in a nonzero quotient"
            )
        chain.append(submodule_sum(module, chain[-1], cyclic_submodule(module, r)))
        labels.append(colon)
    return Filtration(chain=tuple(chain), labels=tuple(labels))
