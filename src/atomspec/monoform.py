"""Decision procedures for monoform modules and comonoform right ideals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modules import (
    RightModule,
    annihilator,
    colon_table,
    coset_colons,
    cyclic_submodule,
    is_submodule,
    is_uniform,
    quotient,
    regular_module,
    sub_module,
    submodule_lattice,
    submodule_sum,
)
from .rings import FiniteRing


class MonoformError(Exception):
    pass


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain from zero to the full module, each factor
    cyclic, monoform, and isomorphic to R/p for its comonoform label p."""

    chain: tuple[frozenset, ...]
    labels: tuple[frozenset, ...]


@lru_cache(maxsize=None)
def is_monoform(module: RightModule) -> bool:
    """M nonzero and no nonzero submodule is shared between M and any M/N.

    A monoform module is uniform: nonzero A and B with A & B = 0 would
    share A with M/B, into which A maps injectively.  So a module that is
    not uniform, the zero module among them, is refused before its lattice
    is built.  Otherwise subobject sharing is decided by annihilator-set
    intersection, and the annihilator set of M/N is row N of the colon
    table, so no quotient is built: M is monoform iff row {0} is disjoint
    from every row N != 0.
    """
    if not is_uniform(module):
        return False
    table = colon_table(module)
    ann_m = table[frozenset({0})]
    return not any(ann_m & row for sub, row in table.items() if len(sub) > 1)


@lru_cache(maxsize=None)
def _comonoform_flags(ring: FiniteRing) -> dict:
    """{p: R/p is monoform} for every proper right ideal p.

    The submodules of R/p are the q/p for q containing p, and
    (R/p)/(q/p) = R/q, so R/p is monoform iff row p of the regular
    module's colon table is disjoint from row q for every proper q > p.
    """
    table = colon_table(regular_module(ring))
    return {
        p: not any(row & other for q, other in table.items() if q > p)
        for p, row in table.items()
    }


def is_comonoform(ring: FiniteRing, ideal: frozenset) -> bool:
    """Right ideal p with R/p monoform."""
    flags = _comonoform_flags(ring)
    if ideal not in flags:
        if ideal == frozenset(range(ring.order)):
            raise MonoformError("the full ring is not a comonoform right ideal")
        raise MonoformError(f"{sorted(ideal)} is not a right ideal")
    return flags[ideal]


def is_completely_prime(ring: FiniteRing, ideal: frozenset) -> bool:
    """aI <= I and ab in I imply a in I or b in I, checked over all pairs."""
    reg = regular_module(ring)
    if not is_submodule(reg, ideal):
        raise MonoformError(f"{sorted(ideal)} is not a right ideal")
    if len(ideal) == ring.order:
        return False
    inside = np.zeros(ring.order, dtype=bool)
    inside[list(ideal)] = True
    outside = np.flatnonzero(~inside)
    # the a outside I with aI <= I, and then each ab with b outside I
    a = outside[inside[ring.mul[np.ix_(outside, list(ideal))]].all(axis=1)]
    return not inside[ring.mul[np.ix_(a, outside)]].any()


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


def filtration_factor(module: RightModule, filt: Filtration, i: int) -> RightModule:
    """The i-th factor L_i / L_{i-1} as a standalone module."""
    upper, incl = sub_module(module, filt.chain[i + 1])
    inner = frozenset(
        j for j in range(upper.order) if incl[j] in filt.chain[i]
    )
    return quotient(upper, inner)


def max_monoform_submodule(module: RightModule) -> frozenset:
    """Unique maximal monoform submodule of a uniform module.

    Computed as the sum of all cyclic monoform submodules (every monoform
    submodule contains a cyclic monoform one), then verified monoform and
    verified to contain every monoform submodule of the full lattice.
    xR is isomorphic to R/Ann(x), so it is monoform iff Ann(x) is
    comonoform, and no cyclic submodule is built to find them.
    """
    if not is_uniform(module):
        raise MonoformError("maximal monoform submodule requires a uniform module")
    total = frozenset({0})
    for x in range(1, module.order):
        if is_comonoform(module.ring, annihilator(module, x)):
            total = submodule_sum(module, total, cyclic_submodule(module, x))
    if not is_monoform(sub_module(module, total)[0]):
        raise AssertionError("sum of monoform submodules failed to be monoform")
    for sub in submodule_lattice(module):
        if len(sub) > 1 and is_monoform(sub_module(module, sub)[0]):
            if not sub <= total:
                raise AssertionError(
                    f"monoform submodule {sorted(sub)} escapes the computed maximum"
                )
    return total
