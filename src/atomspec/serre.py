"""Serre subcategories of mod R as open subsets of the atom spectrum,
plus a brute-force closure oracle over bounded subquotient universes."""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .modules import (
    RightModule,
    annihilator_keys,
    is_isomorphic,
    quotient,
    sub_module,
    submodule_key,
    submodule_lattice,
)
from .spectrum import (
    AtomSpectrum,
    SpectrumError,
    atom_support,
    enumerate_open_sets,
    is_open,
)


class SerreError(Exception):
    pass


@dataclass(frozen=True)
class SerreSubcategory:
    spectrum: AtomSpectrum
    open_set: frozenset
    generators: tuple[frozenset, ...] = ()  # comonoform ideals q, gens R/q

    def __post_init__(self):
        try:
            opened = is_open(self.spectrum, self.open_set)
        except SpectrumError as exc:
            raise SerreError(str(exc)) from exc
        if not opened:
            raise SerreError(f"{sorted(self.open_set)} is not an open set")


def serre_from_generators(
    spec: AtomSpectrum, modules: list[RightModule]
) -> SerreSubcategory:
    """Smallest Serre subcategory containing the generators, as the union
    of their atom supports (open by construction, verified anyway)."""
    phi = frozenset()
    for mod in modules:
        if mod.ring != spec.ring:
            raise SerreError("generator is over a different ring")
        phi |= atom_support(spec, mod)
    return SerreSubcategory(spectrum=spec, open_set=phi)


def serre_contains(sub: SerreSubcategory, module: RightModule) -> bool:
    return atom_support(sub.spectrum, module) <= sub.open_set


def _minimal_ideal_generators(
    spec: AtomSpectrum, phi: frozenset
) -> tuple[frozenset, ...]:
    """Greedy minimal set of comonoform ideals q with union of supports of
    the R/q equal to phi; largest support first, canonical order tie-break."""
    supports = spec.supports
    candidates = sorted(
        (q for q in spec.comonoform_ideals() if supports[q] <= phi),
        key=lambda q: (-len(supports[q]), submodule_key(q)),
    )
    chosen: list[frozenset] = []
    covered: frozenset = frozenset()
    for q in candidates:
        if covered == phi:
            break
        if not supports[q] <= covered:
            chosen.append(q)
            covered |= supports[q]
    if covered != phi:
        raise AssertionError(
            f"open set {sorted(phi)} not covered by cyclic supports"
        )
    # drop generators made redundant by later picks
    for q in list(chosen):
        if frozenset().union(*(supports[o] for o in chosen if o != q)) == phi:
            chosen.remove(q)
    return tuple(chosen)


def enumerate_serre(spec: AtomSpectrum) -> list[SerreSubcategory]:
    """One Serre subcategory per open set, each with a minimal generating
    set of cyclic modules, ordered by (size, atom ids)."""
    return [
        SerreSubcategory(
            spectrum=spec,
            open_set=phi,
            generators=_minimal_ideal_generators(spec, phi),
        )
        for phi in enumerate_open_sets(spec)
    ]


def inclusion_edges(subs: list[SerreSubcategory]) -> list[tuple[int, int]]:
    """Covering relations of the inclusion order, as (lower, upper) index
    pairs sorted by lower, then upper.

    `subs` holds every open set, as enumerate_serre returns.  An open set
    above a contains a | U_x for some x outside a, U_x being the minimal
    open neighbourhood of x, so the covers of a are the minimal sets among
    the a | U_x.
    """
    if not subs:
        return []
    hoods = [sum(1 << a for a in u) for u in subs[0].spectrum.neighbourhoods]
    masks = [sum(1 << a for a in s.open_set) for s in subs]
    position = {mask: j for j, mask in enumerate(masks)}
    edges = []
    for i, low in enumerate(masks):
        above = {low | u for x, u in enumerate(hoods) if not low >> x & 1}
        edges += sorted((i, position[up]) for up in above
                        if not any(o != up and o & up == o for o in above))
    return edges


def serre_lattice(spec: AtomSpectrum) -> dict:
    """The Serre subcategories and their covering edges as plain lists,
    the `serre` verb's result."""
    subs = enumerate_serre(spec)
    return {
        "count": len(subs),
        "subcategories": [
            {
                "open_set": sorted(s.open_set),
                "generators": [sorted(q) for q in s.generators],
            }
            for s in subs
        ],
        "edges": inclusion_edges(subs),
    }


def hasse_dot(lattice: dict) -> str:
    """Hasse diagram of a serre_lattice result in DOT graph-description
    text."""
    lines = ["digraph serre_lattice {", "  rankdir=BT;"]
    for i, s in enumerate(lattice["subcategories"]):
        label = "{" + ",".join(map(str, s["open_set"])) + "}"
        gens = "; ".join(f"R/{q}" for q in s["generators"]) or "0"
        lines.append(f'  n{i} [label="{label}\\n{gens}"];')
    lines += [f"  n{i} -> n{j};" for i, j in lattice["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closure oracle

@dataclass(frozen=True)
class ClosureUniverse:
    """Iso-classes of all subquotients of an ambient module, with the
    subobject / quotient / extension structure recorded among them."""

    ambient: RightModule
    members: tuple[RightModule, ...]
    zero_index: int
    sub_classes: tuple[frozenset, ...]   # per member: classes of its submodules
    quot_classes: tuple[frozenset, ...]  # per member: classes of its quotients
    ext_triples: frozenset               # (sub_class, member, quot_class)
    # _invariant_key -> indices of the members with that key
    by_key: Mapping = field(compare=False, repr=False)

    def class_of(self, module: RightModule) -> int:
        idx = _find_class(self.members, self.by_key, module)
        if idx is None:
            raise SerreError("module is not in the universe")
        return idx


def _invariant_key(module: RightModule) -> tuple:
    """Order and the multiset of annihilators: equal for isomorphic
    modules."""
    counts = Counter(annihilator_keys(module))
    return module.order, tuple(sorted(counts.items()))


def _find_class(members, by_key: Mapping, module) -> int | None:
    for i in by_key.get(_invariant_key(module), ()):
        if is_isomorphic(members[i], module):
            return i
    return None


@lru_cache(maxsize=None)
def build_universe(ambient: RightModule) -> ClosureUniverse:
    """All subquotients of the ambient up to isomorphism, plus structure."""
    members: list[RightModule] = []
    by_key: dict[tuple, list[int]] = {}

    def intern(module: RightModule) -> None:
        same_key = by_key.setdefault(_invariant_key(module), [])
        if not any(is_isomorphic(members[i], module) for i in same_key):
            same_key.append(len(members))
            members.append(module)

    # seed with every subquotient
    for sub in submodule_lattice(ambient):
        inner, _ = sub_module(ambient, sub)
        for nested in submodule_lattice(inner):
            intern(quotient(inner, nested))

    sub_classes: list[set[int]] = [set() for _ in members]
    quot_classes: list[set[int]] = [set() for _ in members]
    triples: set[tuple[int, int, int]] = set()
    for e, member in enumerate(members):
        for sub in submodule_lattice(member):
            l_idx = _find_class(members, by_key, sub_module(member, sub)[0])
            n_idx = _find_class(members, by_key, quotient(member, sub))
            assert l_idx is not None and n_idx is not None
            sub_classes[e].add(l_idx)
            quot_classes[e].add(n_idx)
            triples.add((l_idx, e, n_idx))
    zero_index = _find_class(
        members, by_key, quotient(ambient, frozenset(range(ambient.order)))
    )
    assert zero_index is not None
    return ClosureUniverse(
        ambient=ambient,
        members=tuple(members),
        zero_index=zero_index,
        sub_classes=tuple(frozenset(s) for s in sub_classes),
        quot_classes=tuple(frozenset(s) for s in quot_classes),
        ext_triples=frozenset(triples),
        by_key=MappingProxyType({k: tuple(v) for k, v in by_key.items()}),
    )


def closure_oracle(universe: ClosureUniverse, gens) -> frozenset:
    """Least member subset containing gens, closed under subobjects,
    quotients, and the recorded extension triples; fixpoint iteration."""
    closed = {universe.zero_index}
    closed.update(gens)
    changed = True
    while changed:
        changed = False
        for m in tuple(closed):
            for cls in universe.sub_classes[m] | universe.quot_classes[m]:
                if cls not in closed:
                    closed.add(cls)
                    changed = True
        for l, e, n in universe.ext_triples:
            if l in closed and n in closed and e not in closed:
                closed.add(e)
                changed = True
    return frozenset(closed)


def _closed_sub(universe: ClosureUniverse, xs: frozenset) -> frozenset:
    return frozenset(
        cls for m in xs for cls in universe.sub_classes[m]
    ) | xs


def _closed_quot(universe: ClosureUniverse, xs: frozenset) -> frozenset:
    return frozenset(
        cls for m in xs for cls in universe.quot_classes[m]
    ) | xs


def _star(universe: ClosureUniverse, xs: frozenset, ys: frozenset) -> frozenset:
    return frozenset(
        e for l, e, n in universe.ext_triples if l in xs and n in ys
    )


def calculus_check(universe: ClosureUniverse, samples: int = 100,
                   seed: int = 0) -> dict:
    """Sampled identities of the subcategory calculus inside the universe.

    Checks quot(sub(X)) == sub(quot(X)), star associativity, and the
    sub/quot distribution inclusions over star; reports violations with
    witnesses.
    """
    rng = random.Random(seed)
    size = len(universe.members)
    zero = universe.zero_index
    violations = []

    def sample_set() -> frozenset:
        picks = frozenset(
            i for i in range(size) if rng.random() < 0.5
        )
        return picks | {zero}

    for trial in range(samples):
        x, y, z = sample_set(), sample_set(), sample_set()
        if _closed_quot(universe, _closed_sub(universe, x)) != _closed_sub(
            universe, _closed_quot(universe, x)
        ):
            violations.append(("sub-quot exchange", trial, sorted(x)))
        lhs = _star(universe, _star(universe, x, y), z)
        rhs = _star(universe, x, _star(universe, y, z))
        if lhs != rhs:
            violations.append(
                ("star associativity", trial, sorted(x), sorted(y), sorted(z))
            )
        sxy = _star(universe, x, y)
        if not _closed_sub(universe, sxy) <= _star(
            universe, _closed_sub(universe, x), _closed_sub(universe, y)
        ):
            violations.append(("sub over star", trial, sorted(x), sorted(y)))
        if not _closed_quot(universe, sxy) <= _star(
            universe, _closed_quot(universe, x), _closed_quot(universe, y)
        ):
            violations.append(("quot over star", trial, sorted(x), sorted(y)))
    return {
        "samples": samples,
        "universe_size": size,
        "violations": violations,
        "passed": not violations,
    }


def universe_supports(universe: ClosureUniverse,
                      spec: AtomSpectrum) -> tuple[frozenset, ...]:
    return tuple(
        atom_support(spec, member) for member in universe.members
    )
