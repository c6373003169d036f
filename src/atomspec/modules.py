"""Finite right modules over a FiniteRing.

Modules carry full addition and action tables.  Submodules are plain
frozensets of element ids of their parent; all submodule-producing
functions return such sets, and module-producing functions (quotient,
sub, direct sum) return fresh RightModule values with canonical element
enumeration so that equal constructions compare equal.

The tables are read-only numpy arrays, as for rings (`TableRecord`), and
equality and the hash read one digest of the ring, the order and the
tables.  Submodule tests, quotients, submodules and direct sums are
computed on whole arrays.  One labelling of cosets (`coset_labels`)
serves the lattice search, the quotient M/N and the colon ideals: each
element is labelled by the least element of its coset x + N, and the
representatives are the elements that label themselves.

Each module's submodule lattice is computed once per run, by a breadth-first
search from {0} whose successors of S are the sums S + xR for x outside
S.  The cyclic submodule xR = {x.a : a in R} is read directly off the
action table, since it is already closed under addition and the action.
Every submodule is a sum of the cyclics it contains, so the search
reaches all of them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .rings import (
    DEFAULT_ORDER_CAP,
    AtomspecError,
    CapExceededError,
    FiniteRing,
    TableRecord,
    memoized,
    table_dtype,
)

DEFAULT_LATTICE_CAP = 1 << 25  # bytes of submodule keys a lattice search keeps
_BLOCK = 1 << 20  # action-table entries in a block of whole rows


class ModuleError(AtomspecError):
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


@memoized
def regular_module(ring: FiniteRing) -> RightModule:
    """R as a right module over itself."""
    return RightModule(
        ring=ring, order=ring.order, add=ring.add, act=ring.mul,
        provenance="regular",
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


@memoized
def submodule_lattice(module: RightModule) -> tuple[frozenset, ...]:
    """All submodules, sorted by (cardinality, sorted element tuple).
    The search keeps one key of m bytes, its mask over M, for each
    submodule it finds, and stops with CapExceededError once the keys
    would pass DEFAULT_LATTICE_CAP bytes.

    Breadth-first search from {0}; the successors of S are S + xR for
    every x outside S, all found in one vectorised step: label each
    element by its coset of S, mark the cosets that each row act[x]
    meets, and pull the marks back through the labels.  Every submodule
    is a sum of cyclics, so the search is complete.
    """
    m = module.order
    zero = (np.arange(m) == 0).tobytes()
    found = {zero}
    queue = [zero]
    for key in queue:
        labels, reps = coset_labels(module, np.frombuffer(key, dtype=bool))
        reps = reps[1:]  # the cosets other than S
        met = np.zeros((len(reps), m), dtype=bool)
        met[np.arange(len(reps))[:, None], labels[module.act[reps]]] = True
        for members in met[:, labels]:
            key = members.tobytes()
            if key in found:
                continue
            found.add(key)
            queue.append(key)
            if len(found) * m > DEFAULT_LATTICE_CAP:
                raise CapExceededError(
                    f"submodule lattice exceeded cap {DEFAULT_LATTICE_CAP} "
                    f"bytes (blew up at {len(found)} submodules of order {m})"
                )
    subs = (frozenset(np.flatnonzero(np.frombuffer(key, dtype=bool)).tolist())
            for key in queue)
    return tuple(sorted(subs, key=submodule_key))


def submodule_key(members: frozenset) -> tuple:
    return (len(members), tuple(sorted(members)))


def coset_labels(module: RightModule, sub) -> tuple[np.ndarray, np.ndarray]:
    """The cosets of a submodule S, given by its elements as a boolean mask
    over M or a list of ids: the label of each x, the least element of
    x + S, and the representatives, the elements that label themselves,
    in id order.  The representatives are the ids of M/S, so S itself,
    labelled 0, comes first."""
    labels = module.add[:, sub].min(axis=1)
    return labels, np.flatnonzero(labels == np.arange(module.order))


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
    labels, reps = coset_labels(module, members)
    # in the quotient's table dtype, so the gathers below make no wider copy
    proj = np.searchsorted(reps, labels).astype(table_dtype(len(reps)))
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
    index = np.zeros(module.order, dtype=table_dtype(len(incl)))
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


@memoized
def annihilator_set(module: RightModule) -> frozenset:
    """{Ann(x) : x nonzero in M}, deduplicated.

    Two modules share a common nonzero submodule iff their annihilator
    sets intersect: a shared u gives the same Ann(u) on both sides, and
    conversely Ann(x) = Ann(y) makes xR and yR isomorphic via the maps
    through R/Ann(x).  This turns subobject-sharing questions into finite
    set intersections.  Each Ann(x) is a zero pattern of a row of act.
    """
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
    reps = coset_labels(module, inside)[1][1:]  # the cosets other than N
    yield from zip(reps.tolist(), inside[module.act[reps]])


# ---------------------------------------------------------------------------
# structure

def minimal_submodules(module: RightModule) -> list[frozenset]:
    """Minimal nonzero submodules; all of them are cyclic.

    |xR| is the number of distinct entries of the row act[x].  yR lies in
    xR for every y in xR, so xR is minimal iff no y in xR has
    1 < |yR| < |xR|.  Two minimal submodules that meet are equal, so each
    is named by its least nonzero element.  The action table is read a
    block of rows at a time, so no temporary outgrows a block.
    """
    m, act = module.order, module.act
    step = max(1, _BLOCK // module.ring.order)
    blocks = [slice(lo, lo + step) for lo in range(0, m, step)]
    sizes = np.empty(m, dtype=np.intp)
    for rows in blocks:
        block = np.sort(act[rows], axis=1)
        sizes[rows] = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
    below = np.where(sizes > 1, sizes, m + 1)
    names = set()
    for rows in blocks:
        block = act[rows]
        minimal = block[(sizes[rows] > 1)
                        & (below[block].min(axis=1) >= sizes[rows])]
        # m - 1, the largest id, still fits the table dtype; m may not
        names.update(np.where(minimal == 0, m - 1, minimal).min(axis=1).tolist())
    return sorted((cyclic_submodule(module, x) for x in names),
                  key=submodule_key)


def is_uniform(module: RightModule) -> bool:
    """Nonzero, and any two nonzero submodules intersect nontrivially;
    equivalently there is exactly one minimal nonzero submodule."""
    if module.order == 1:
        return False
    return len(minimal_submodules(module)) == 1


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
