"""Finite right modules over a FiniteRing.

Modules carry full addition and action tables.  Submodules are plain
frozensets of element ids of their parent; all submodule-producing
functions return such sets, and module-producing functions (quotient,
sub, direct sum) return fresh RightModule values with canonical element
enumeration so that equal constructions compare equal.

The tables are read-only numpy arrays, as for rings (`TableRecord`), and
equality and the hash read one digest of the ring, the order and the
tables.  Submodule tests, quotients, submodules and direct sums are
computed on whole arrays: the quotient M/N labels each element by the
least element of its coset x + N, and the representatives are the
elements that label themselves.

Each module's submodule lattice is computed once, by a breadth-first
search from {0} whose successors of S are the sums S + xR for x outside
S.  The cyclic submodule xR = {x.a : a in R} is read directly off the
action table, since it is already closed under addition and the action.
Every submodule is a sum of the cyclics it contains, so the search
reaches all of them.

Everything about the quotients M/N is read from one colon table instead
of building M/N: row N holds the colon ideals (N : x) = {a : x.a in N}
for x outside N, and (N : x) is exactly Ann(x + N) in M/N, so row N is
the annihilator set of M/N.  The submodules of M/N are the L/N for L
containing N, with (M/N)/(L/N) = M/L, so monoform tests and atom
supports of every quotient are unions and intersections of rows.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .rings import (
    DEFAULT_ORDER_CAP,
    CapExceededError,
    FiniteRing,
    RingAxiomError,
    TableRecord,
    table_dtype,
)

DEFAULT_LATTICE_CAP = 1 << 20


class ModuleError(Exception):
    pass


class NotASubmoduleError(ModuleError):
    pass


@dataclass(frozen=True, eq=False)
class RightModule(TableRecord):
    """add[x, y] = x + y and act[x, a] = x.a; the provenance is not compared."""

    ring: FiniteRing
    order: int
    add: np.ndarray
    act: np.ndarray
    provenance: str = ""

    _tables = ("add", "act")

    def _identity(self) -> tuple:
        return self.ring.digest, int(self.order)

    def __repr__(self):
        tag = self.provenance or f"order {self.order}"
        return f"RightModule({tag} over {self.ring.name or self.ring.order})"


def validate_module(module: RightModule) -> RightModule:
    """Exhaustively check the abelian-group and right-module axioms."""
    m, n = module.order, module.ring.order
    add, act = module.add.tolist(), module.act.tolist()
    radd, rmul = module.ring.add.tolist(), module.ring.mul.tolist()
    one = module.ring.one
    for x in range(m):
        if add[0][x] != x:
            raise RingAxiomError("module additive identity", (0, x))
        if 0 not in add[x]:
            raise RingAxiomError("module additive inverse", (x,))
        if act[x][one] != x:
            raise RingAxiomError("unit acts as identity", (x,))
    for x in range(m):
        for y in range(m):
            if add[x][y] != add[y][x]:
                raise RingAxiomError("module additive commutativity", (x, y))
            for z in range(m):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    raise RingAxiomError("module additive associativity", (x, y, z))
    for x in range(m):
        for a in range(n):
            for b in range(n):
                if act[x][rmul[a][b]] != act[act[x][a]][b]:
                    raise RingAxiomError("action associativity", (x, a, b))
                if act[x][radd[a][b]] != add[act[x][a]][act[x][b]]:
                    raise RingAxiomError("action right distributivity", (x, a, b))
        for y in range(m):
            for a in range(n):
                if act[add[x][y]][a] != add[act[x][a]][act[y][a]]:
                    raise RingAxiomError("action left distributivity", (x, y, a))
    return module


@lru_cache(maxsize=None)
def regular_module(ring: FiniteRing) -> RightModule:
    """R as a right module over itself."""
    return RightModule(
        ring=ring, order=ring.order, add=ring.add, act=ring.mul,
        provenance="regular",
    )


def zero_module(ring: FiniteRing) -> RightModule:
    return RightModule(
        ring=ring, order=1, add=[[0]], act=[[0] * ring.order], provenance="zero",
    )


def is_submodule(module: RightModule, members: frozenset) -> bool:
    """members holds 0, lies in M, and is closed under addition and the
    action."""
    if 0 not in members or min(members) < 0 or max(members) >= module.order:
        return False
    ids = np.fromiter(members, dtype=np.intp, count=len(members))
    inside = np.zeros(module.order, dtype=bool)
    inside[ids] = True
    return bool(inside[module.act[ids]].all()
                and inside[module.add[ids[:, None], ids]].all())


def generated_submodule(module: RightModule, xs) -> frozenset:
    """Least submodule containing xs: the sum of the cyclics xR."""
    total = frozenset({0})
    for x in xs:
        total = submodule_sum(module, total, cyclic_submodule(module, x))
    return total


def cyclic_submodule(module: RightModule, x: int) -> frozenset:
    """xR, which is already closed under addition (x.a + x.b = x.(a+b))
    and under the action ((x.a).b = x.(ab))."""
    return frozenset(module.act[x].tolist())


def submodule_sum(module: RightModule, a: frozenset, b: frozenset) -> frozenset:
    """a + b for submodules a and b: the pairwise sums are already closed
    under addition and the action."""
    sums = np.zeros(module.order, dtype=bool)
    sums[module.add[np.ix_(list(a), list(b))]] = True
    return frozenset(np.flatnonzero(sums).tolist())


@lru_cache(maxsize=None)
def submodule_lattice(module: RightModule) -> tuple[frozenset, ...]:
    """All submodules, sorted by (cardinality, sorted element tuple), at
    most DEFAULT_LATTICE_CAP of them.

    Breadth-first search from {0}; the successors of S are S + xR for
    every x outside S, all found in one vectorised step: label each
    element by its coset of S, mark the cosets that each row act[x]
    meets, and pull the marks back through the labels.  Every submodule
    is a sum of cyclics, so the search is complete.
    """
    m = module.order
    add, act = module.add, module.act
    ids = np.arange(m)
    zero = ids == 0
    found = {zero.tobytes(): zero}
    queue = [zero]
    for inside in queue:
        labels = add[:, inside].min(axis=1)  # least element of v + S
        reps = np.flatnonzero((labels == ids) & ~inside)
        met = np.zeros((len(reps), m), dtype=bool)
        met[np.arange(len(reps))[:, None], labels[act[reps]]] = True
        for members in met[:, labels]:
            key = members.tobytes()
            if key in found:
                continue
            found[key] = members
            queue.append(members)
            if len(found) > DEFAULT_LATTICE_CAP:
                raise CapExceededError(
                    f"submodule lattice exceeded cap {DEFAULT_LATTICE_CAP} "
                    f"(blew up at {len(found)} submodules)"
                )
    subs = (frozenset(np.flatnonzero(mask).tolist()) for mask in queue)
    return tuple(sorted(subs, key=submodule_key))


def submodule_key(members: frozenset) -> tuple:
    return (len(members), tuple(sorted(members)))


def quotient_module(
    module: RightModule, sub: frozenset
) -> tuple[RightModule, tuple[int, ...]]:
    """Quotient by a submodule, with the projection map element id -> coset id.

    Coset representatives are the minimal element id per coset; coset ids
    follow the sorted order of representatives, so the zero coset is id 0.
    """
    if not is_submodule(module, sub):
        raise NotASubmoduleError(
            f"{sorted(sub)} is not a submodule of {module!r}"
        )
    add, act = module.add, module.act
    members = sorted(sub)
    labels = add[:, members].min(axis=1)  # least element of x + N
    reps = np.flatnonzero(labels == np.arange(module.order))
    proj = np.searchsorted(reps, labels)
    quot = RightModule(
        ring=module.ring, order=len(reps), add=proj[add[reps[:, None], reps]],
        act=proj[act[reps]], provenance=f"({module.provenance})/{members}",
    )
    return quot, tuple(proj.tolist())


def sub_module(
    module: RightModule, sub: frozenset
) -> tuple[RightModule, tuple[int, ...]]:
    """A submodule as a standalone module, with the inclusion map new id -> old id."""
    if not is_submodule(module, sub):
        raise NotASubmoduleError(
            f"{sorted(sub)} is not a submodule of {module!r}"
        )
    add, act = module.add, module.act
    members = sorted(sub)
    incl = np.array(members, dtype=np.intp)
    index = np.zeros(module.order, dtype=np.intp)
    index[incl] = np.arange(len(incl))
    new = RightModule(
        ring=module.ring, order=len(incl), add=index[add[incl[:, None], incl]],
        act=index[act[incl]], provenance=f"sub{members} of ({module.provenance})",
    )
    return new, tuple(members)


def direct_sum(a: RightModule, b: RightModule) -> RightModule:
    """External direct sum; element (x, y) gets id x * |b| + y."""
    if a.ring != b.ring:
        raise ModuleError("direct sum needs modules over the same ring")
    nb = b.order
    order = a.order * nb
    wide = table_dtype(order + 1)  # holds nb itself too
    # row (x1, y1), column (x2, y2) holds (x1 + x2, y1 + y2)
    add = a.add.astype(wide)[:, None, :, None] * nb + b.add[None, :, None, :]
    act = a.act.astype(wide)[:, None, :] * nb + b.act[None, :, :]
    return RightModule(
        ring=a.ring, order=order, add=add.reshape(order, order),
        act=act.reshape(order, -1),
        provenance=f"({a.provenance})+({b.provenance})",
    )


def quotient(module: RightModule, sub: frozenset) -> RightModule:
    return quotient_module(module, sub)[0]


# ---------------------------------------------------------------------------
# annihilators

def annihilator(module: RightModule, x: int) -> frozenset:
    """Ann(x) = {a in R : x.a = 0}, a right ideal of the base ring."""
    return frozenset(np.flatnonzero(module.act[x] == 0).tolist())


def annihilator_keys(module: RightModule) -> list[bytes]:
    """Per element x, Ann(x) packed as a bitmask over R: equal keys mean
    equal annihilators."""
    packed = np.packbits(module.act == 0, axis=1)
    return [row.tobytes() for row in packed]


@lru_cache(maxsize=None)
def annihilator_set(module: RightModule) -> frozenset:
    """{Ann(x) : x nonzero in M}, deduplicated.

    Two modules share a common nonzero submodule iff their annihilator
    sets intersect: a shared u gives the same Ann(u) on both sides, and
    conversely Ann(x) = Ann(y) makes xR and yR isomorphic via the maps
    through R/Ann(x).  This turns subobject-sharing questions into finite
    set intersections.
    """
    return distinct_annihilators(module)


def distinct_annihilators(module: RightModule) -> frozenset:
    """{Ann(x) : x nonzero in M}, from the distinct zero patterns of the
    action table's rows (uncached)."""
    rows = {row.tobytes(): row for row in module.act[1:] == 0}
    return frozenset(
        frozenset(np.flatnonzero(row).tolist()) for row in rows.values()
    )


def coset_colons(module: RightModule, sub: frozenset):
    """(r, (N : r)) per coset r + N != N, by least element r, with
    (N : r) = {a : r.a in N} = Ann(r + N) as a mask over R: the elements
    of M/N in id order and their annihilators, without building M/N."""
    inside = np.zeros(module.order, dtype=bool)
    inside[list(sub)] = True
    least = module.add[:, inside].min(axis=1)  # least element of x + N
    reps = np.flatnonzero((least == np.arange(module.order)) & ~inside)
    yield from zip(reps.tolist(), inside[module.act[reps]])


@lru_cache(maxsize=None)
def colon_table(module: RightModule) -> MappingProxyType:
    """{N: {(N : x) : x not in N}} for every proper submodule N.

    (N : x) = {a in R : x.a in N} is Ann(x + N) in M/N, so row N equals
    annihilator_set(M/N), computed without building M/N.  Row {0} is
    annihilator_set(M).  Equal colon ideals are shared between rows.
    """
    interned: dict[bytes, frozenset] = {}
    table = {}
    for sub in submodule_lattice(module):
        if len(sub) == module.order:
            continue
        row = set()
        for _, colon in coset_colons(module, sub):
            key = np.packbits(colon).tobytes()
            if key not in interned:
                interned[key] = frozenset(np.flatnonzero(colon).tolist())
            row.add(interned[key])
        table[sub] = frozenset(row)
    return MappingProxyType(table)


def shares_nonzero_submodule(a: RightModule, b: RightModule) -> bool:
    return bool(annihilator_set(a) & annihilator_set(b))


def embeds_in(small: RightModule, big: RightModule) -> bool:
    """Literal injective-homomorphism search; brute-force oracle for the
    annihilator-set reduction."""
    if small.order > big.order:
        return False
    for target in submodule_lattice(big):
        if len(target) != small.order:
            continue
        if is_isomorphic(small, sub_module(big, target)[0]):
            return True
    return False


# ---------------------------------------------------------------------------
# structure

def minimal_submodules(module: RightModule) -> list[frozenset]:
    """Minimal nonzero submodules; all of them are cyclic."""
    cyclics = {cyclic_submodule(module, x) for x in range(1, module.order)}
    cyclics.discard(frozenset({0}))
    return sorted(
        (c for c in cyclics
         if not any(o < c for o in cyclics if o != c)),
        key=submodule_key,
    )


def maximal_submodules(module: RightModule) -> list[frozenset]:
    lattice = submodule_lattice(module)
    full = frozenset(range(module.order))
    proper = [s for s in lattice if s != full]
    return sorted(
        (s for s in proper if not any(s < o for o in proper if o != s)),
        key=submodule_key,
    )


def is_uniform(module: RightModule) -> bool:
    """Nonzero, and any two nonzero submodules intersect nontrivially;
    equivalently there is exactly one minimal nonzero submodule."""
    if module.order == 1:
        return False
    return len(minimal_submodules(module)) == 1


def is_uniform_bruteforce(module: RightModule) -> bool:
    """Definitional pairwise-intersection check (debug oracle)."""
    if module.order == 1:
        return False
    nonzero = [s for s in submodule_lattice(module) if len(s) > 1]
    return all(
        len(a & b) > 1 for a in nonzero for b in nonzero
    )


def socle(module: RightModule) -> frozenset:
    """Sum of all minimal nonzero submodules (zero for the zero module)."""
    total = frozenset({0})
    for s in minimal_submodules(module):
        total = submodule_sum(module, total, s)
    return total


def simple_class_handle(module: RightModule) -> frozenset:
    """Iso-class handle for a simple module: its annihilator set.

    Simple modules are isomorphic iff they share a nonzero submodule,
    i.e. iff their annihilator sets intersect; both being generated by
    every nonzero element forces intersecting sets to be equal.
    """
    return annihilator_set(module)


def _chief_series_bottom_up(module: RightModule) -> list[frozenset]:
    """A maximal chain of submodules built from minimal submodules of the
    successive quotients; every factor is simple."""
    chain = [frozenset({0})]
    current = frozenset({0})
    full = frozenset(range(module.order))
    while current != full:
        quot, proj = quotient_module(module, current)
        minimal = minimal_submodules(quot)[0]
        current = frozenset(
            x for x in range(module.order) if proj[x] in minimal
        )
        chain.append(current)
    return chain


def _chief_series_top_down(module: RightModule) -> list[frozenset]:
    """Independent series strategy: strip maximal submodules from the top."""
    chain = [frozenset(range(module.order))]
    current = module
    # track member sets in the original module's ids
    to_parent = {i: i for i in range(module.order)}
    while current.order > 1:
        top = maximal_submodules(current)[0]
        parent_set = frozenset(to_parent[i] for i in top)
        chain.append(parent_set)
        current, incl = sub_module(current, top)
        to_parent = {i: to_parent[incl[i]] for i in range(current.order)}
    chain.reverse()
    return chain


def _series_factors(module: RightModule, chain: list[frozenset]) -> Counter:
    factors: Counter = Counter()
    for lower, upper in zip(chain, chain[1:]):
        upper_mod, incl = sub_module(module, upper)
        inner = frozenset(i for i in range(upper_mod.order) if incl[i] in lower)
        factor = quotient(upper_mod, inner)
        factors[simple_class_handle(factor)] += 1
    return factors


def composition_factors(module: RightModule) -> Counter:
    """Multiset of simple iso-class handles of a chief series."""
    if module.order == 1:
        return Counter()
    return _series_factors(module, _chief_series_bottom_up(module))


def composition_factors_top_down(module: RightModule) -> Counter:
    """Same multiset from an independent series (property-test oracle)."""
    if module.order == 1:
        return Counter()
    return _series_factors(module, _chief_series_top_down(module))


def composition_length(module: RightModule) -> int:
    return sum(composition_factors(module).values())


# ---------------------------------------------------------------------------
# isomorphism

def minimal_generating_sequence(module: RightModule) -> list[int]:
    """Greedy: repeatedly pick the smallest id outside the current span."""
    gens: list[int] = []
    span = frozenset({0})
    while len(span) < module.order:
        g = next(x for x in range(module.order) if x not in span)
        gens.append(g)
        span = submodule_sum(module, span, cyclic_submodule(module, g))
    return gens


def _close_map(tables: tuple, phi: dict) -> dict | None:
    """Close a partial map under addition and action; None on conflict.

    tables holds (add, act) of the source and then of the target, as
    lists: indexing them is much faster than indexing numpy arrays.
    """
    add_m, act_m, add_n, act_n = tables
    queue = list(phi)
    while queue:
        x = queue.pop()
        fx = phi[x]
        for d, v in zip(act_m[x], act_n[fx]):
            if d in phi:
                if phi[d] != v:
                    return None
            else:
                phi[d] = v
                queue.append(d)
        for y, fy in list(phi.items()):
            d, v = add_m[x][y], add_n[fx][fy]
            if d in phi:
                if phi[d] != v:
                    return None
            else:
                phi[d] = v
                queue.append(d)
    return phi


def is_isomorphic(a: RightModule, b: RightModule) -> bool:
    """Existence of a bijective module homomorphism.

    Backtracking over images of a minimal generating sequence of a,
    pruning candidates by annihilator equality.
    """
    if a.ring != b.ring:
        return False
    if a.order != b.order:
        return False
    if a.order == 1:
        return True
    keys_a, keys_b = annihilator_keys(a), annihilator_keys(b)
    if Counter(keys_a) != Counter(keys_b):
        return False
    gens = minimal_generating_sequence(a)
    tables = (a.add.tolist(), a.act.tolist(), b.add.tolist(), b.act.tolist())

    def search(i: int, phi: dict) -> bool:
        if i == len(gens):
            return len(phi) == a.order and len(set(phi.values())) == a.order
        g = gens[i]
        if g in phi:
            return search(i + 1, phi)
        used = set(phi.values())
        for y in range(b.order):
            if y in used or keys_b[y] != keys_a[g]:
                continue
            trial = _close_map(tables, {**phi, g: y})
            if trial is not None and search(i + 1, trial):
                return True
        return False

    return search(0, _close_map(tables, {0: 0}) or {0: 0})


# ---------------------------------------------------------------------------
# module spec mini-language

def parse_module_spec(ring: FiniteRing, text: str, *,
                      order_cap: int = DEFAULT_ORDER_CAP) -> RightModule:
    """Build a module from a spec string.

    Forms: ``regular``, ``quot:<ids>``, ``cyclic:<x>``, ``sub:<ids>``,
    ``sum:<spec>+<spec>`` where <ids> is a comma-separated element list.
    The order is worked out from the spec first (a sum's order is the
    product of its summands' orders), and a spec above order_cap is
    refused with CapExceededError before any table is built.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    parts = rest.split("+") if head == "sum" else [text]
    if head == "sum" and len(parts) < 2:
        raise ModuleError("sum spec needs at least two summands")
    summands = [_parse_summand(ring, part) for part in parts]
    order = math.prod(size for size, _ in summands)
    if order > order_cap:
        raise CapExceededError(f"module order {order} exceeds cap {order_cap}")
    mods = [build() for _, build in summands]
    if head != "sum":
        return mods[0]
    return replace(reduce(direct_sum, mods), provenance=f"sum:{'+'.join(parts)}")


def _parse_summand(ring: FiniteRing, text: str) -> tuple[int, Callable]:
    """The order of a spec other than a sum, and a function building it."""
    text = text.strip()
    reg = regular_module(ring)
    if text == "regular":
        return ring.order, lambda: reg
    head, _, rest = text.partition(":")
    if head in ("quot", "sub"):
        members = _parse_ids(ring, rest)
        if not is_submodule(reg, members):
            raise ModuleError(
                f"{sorted(members)} is not closed under addition and action"
            )
        tag = f"{head}:{','.join(map(str, sorted(members)))}"
        if head == "quot":
            return ring.order // len(members), lambda: replace(
                quotient(reg, members), provenance=tag)
        return len(members), lambda: replace(
            sub_module(reg, members)[0], provenance=tag)
    if head == "cyclic":
        x = _parse_id(ring, rest)
        members = cyclic_submodule(reg, x)
        return len(members), lambda: replace(
            sub_module(reg, members)[0], provenance=f"cyclic:{x}")
    if head == "sum":
        raise ModuleError("sum spec needs at least two summands")
    raise ModuleError(f"unknown module spec {text!r}")


def _parse_ids(ring: FiniteRing, text: str) -> frozenset:
    try:
        ids = frozenset(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ModuleError(f"bad element list {text!r}") from exc
    for v in ids:
        if not 0 <= v < ring.order:
            raise ModuleError(f"element id {v} out of range 0..{ring.order - 1}")
    return ids


def _parse_id(ring: FiniteRing, text: str) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise ModuleError(f"bad element id {text!r}") from exc
    if not 0 <= v < ring.order:
        raise ModuleError(f"element id {v} out of range 0..{ring.order - 1}")
    return v
