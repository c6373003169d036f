"""Decision procedures for monoform modules and comonoform right ideals,
both by one socle test (`socle_test`) of M/0 and of R/p; what the
test reads of the ring is computed once per run (`radical`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .modules import (
    RightModule,
    coset_colons,
    cyclic_submodule,
    is_submodule,
    regular_module,
    submodule_sum,
)
from .rings import AtomspecError, FiniteRing, memoized


class MonoformError(AtomspecError):
    pass


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing chain from zero to the full module, each factor
    cyclic, monoform, and isomorphic to R/p for its comonoform label p."""

    chain: tuple[frozenset, ...]
    labels: tuple[frozenset, ...]


class Radical(NamedTuple):
    """The Jacobson radical J as a mask over R, generators of J as a right
    ideal, the primitive idempotents e in id order and each |eR/eJ|."""

    members: np.ndarray
    gens: np.ndarray
    idempotents: np.ndarray
    top_orders: np.ndarray


@memoized
def radical(ring: FiniteRing) -> Radical:
    """J = {x : xR is nil}, x being nilpotent iff x^(2^t) = 0 once 2^t
    reaches n; each generator is the least element of J outside the sum
    of the gR before it.  The primitive idempotents are the e != 0 with
    ee = e and no idempotent f outside {0, e} with ef = fe = f."""
    n, add, mul = ring.order, ring.add, ring.mul
    power = np.arange(n)
    for _ in range(n.bit_length()):
        power = mul[power, power]
    members = (power == 0)[mul].all(axis=1)
    span, gens = np.arange(n) == 0, []
    while (missing := members & ~span).any():
        gens.append(int(missing.argmax()))
        sums = add[np.ix_(np.flatnonzero(span), mul[gens[-1]])]
        span = np.zeros(n, dtype=bool)
        span[sums] = True
    idem = np.flatnonzero(np.diagonal(mul) == np.arange(n))[1:]
    prod = mul[np.ix_(idem, idem)]  # e_i e_j
    # f = e_j lies under e = e_i when ef = f = fe; e lies under itself
    prims = idem[((prod == idem) & (prod.T == idem)).sum(axis=1) == 1]
    tops = [len(set(mul[e].tolist())) // len(set(mul[e, members].tolist()))
            for e in prims]
    return Radical(members, np.array(gens, dtype=np.intp), prims,
                   np.array(tops, dtype=np.intp))


def socle_test(module: RightModule, inside: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether M/N is monoform, for N the submodule with mask `inside`,
    and the mask over radical(R).idempotents of the e whose top(eR) is a
    summand of soc(M/N) = T/N, T = {x : x.J inside N}.

    Over a finite ring a module is monoform iff its socle is simple and
    occurs once among its composition factors (Kanda 2012).  The first e
    with T.e not inside N gives a simple summand S = top(eR) of T/N, so
    T/N is simple iff |T| = |N| |top(eR)|; S occurs once iff M.e lies in
    T, as (M/N)e = Hom(eR, M/N) has |Se|^k elements for k occurrences
    and meets T/N in Se.
    """
    rad = radical(module.ring)
    soc = inside[module.act[:, rad.gens]].all(axis=1)
    block = module.act[np.ix_(np.flatnonzero(soc), rad.idempotents)]
    tops = ~inside[block].all(axis=0)
    if not tops.any():  # M = N
        return False, tops
    k = int(tops.argmax())
    return bool(soc.sum() == inside.sum() * rad.top_orders[k]
                and soc[module.act[:, rad.idempotents[k]]].all()), tops


@memoized
def is_monoform(module: RightModule) -> bool:
    """M nonzero and no nonzero submodule is shared between M and any M/N:
    the socle test of M/0."""
    return socle_test(module, np.arange(module.order) == 0)[0]


@memoized
def is_comonoform(ring: FiniteRing, ideal: frozenset) -> bool:
    """Right ideal p with R/p monoform: the socle test of R/p."""
    reg = regular_module(ring)
    if not is_submodule(reg, ideal):
        raise MonoformError(f"{sorted(ideal)} is not a right ideal")
    if len(ideal) == ring.order:
        raise MonoformError("the full ring is not a comonoform right ideal")
    inside = np.zeros(ring.order, dtype=bool)
    inside[list(ideal)] = True
    return socle_test(reg, inside)[0]


def monoform_filtration(module: RightModule) -> Filtration:
    """Chain with monoform cyclic factors, each isomorphic to R/p_i.

    Step i walks the elements r + L of M/L, L = L_{i-1}, in id order
    with their annihilators (L : r) = {a : r.a in L} from `coset_colons`,
    without building M/L.  The first r whose colon ideal is comonoform,
    by the socle test of R/(L : r) on its mask, gives L_i = L + rR, the
    pull-back of the cyclic submodule of r + L.
    """
    if module.order == 1:
        raise MonoformError("the zero module has no monoform filtration")
    reg = regular_module(module.ring)
    chain = [frozenset({0})]
    labels = []
    while len(chain[-1]) < module.order:
        for r, mask in coset_colons(module, chain[-1]):
            if socle_test(reg, mask)[0]:
                break
        else:
            # impossible for a nonzero finite module: some cyclic submodule
            # of every nonzero module is monoform
            raise AssertionError(
                "no comonoform annihilator found in a nonzero quotient"
            )
        chain.append(submodule_sum(module, chain[-1], cyclic_submodule(module, r)))
        labels.append(frozenset(np.flatnonzero(mask).tolist()))
    return Filtration(chain=tuple(chain), labels=tuple(labels))
