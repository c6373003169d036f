"""Property battery over a single ring: every structural fact the library
relies on, re-verified exhaustively at desk scale.

The definitional twins come first, grouped by the module they check:
slow, literal versions of what the verbs compute fast, the reference
facts that no verb reports (socles, composition series, the count of
simple modules, completely prime ideals, the largest monoform submodule
and atom equivalence), and the per-module checks that a property runs on
each R/I and the acceptance battery on its own modules.  The properties
and the tests call them; no other module of the package does.

Each check returns (name, passed, witness), its name written once in its
`_property` decorator, which also lists it in ALL_CHECKS in the order of
definition; check_suite aggregates them into a report.  A
failed check is an implementation bug, never an acceptable state, so
witnesses are kept small and concrete.

A run (check_suite, or one property called on its own) opens the
package's run memo (`rings.run_memo`) unless one is open, and drops it
when it returns or raises.  Through `_once` (`rings.once`), the run
builds each subquotient once per (module, members) pair, and computes
each fact of a ring or module (its cyclic modules R/I, annihilator
keys, invariant key, generating sequence, minimal submodules,
uniformity, socle criterion, colon table, closure universe, atom
support and associated atoms) once.  Modules compare by digest, not
provenance, so a reused module keeps the provenance of its first build,
and a failing witness names that one.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import wraps
from types import MappingProxyType

import numpy as np

from .modules import (
    RightModule,
    annihilator,
    annihilator_set,
    coset_colons,
    coset_labels,
    cyclic_submodule,
    direct_sum,
    is_submodule,
    is_uniform,
    minimal_submodules,
    quotient,
    quotient_module,
    regular_module,
    sub_module,
    submodule_key,
    submodule_lattice,
    submodule_sum,
)
from .monoform import (
    MonoformError,
    is_comonoform,
    is_monoform,
    monoform_filtration,
)
from .rings import (
    CapExceededError,
    FiniteRing,
    RingAxiomError,
    additive_generators,
    once as _once,
    run_memo,
    validate_ring,
)
from .spectrum import (
    AtomSpectrum,
    SpectrumError,
    associated_atoms,
    atom_spectrum,
    atom_support,
    enumerate_open_sets,
    is_open,
)


# ---------------------------------------------------------------------------
# definitional twins

# modules: axioms, embeddings, uniformity, socles, composition series and
# isomorphism

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


def annihilator_keys(module: RightModule) -> list[bytes]:
    """Per element x, Ann(x) packed as a bitmask over R: equal keys mean
    equal annihilators."""
    packed = np.packbits(module.act == 0, axis=1)
    return [row.tobytes() for row in packed]


def embeds_in(small: RightModule, big: RightModule) -> bool:
    """Literal injective-homomorphism search; brute-force oracle for the
    annihilator-set reduction."""
    return small.ring == big.ring and _embedding_exists(small, big)


def is_uniform_bruteforce(module: RightModule) -> bool:
    """Definitional pairwise-intersection check (debug oracle)."""
    if module.order == 1:
        return False
    nonzero = [s for s in submodule_lattice(module) if len(s) > 1]
    return all(
        len(a & b) > 1 for a in nonzero for b in nonzero
    )


def maximal_submodules(module: RightModule) -> list[frozenset]:
    proper = submodule_lattice(module)[:-1]  # M sorts last
    return [s for s in proper if not any(s < o for o in proper)]


def socle(module: RightModule) -> frozenset:
    """Sum of all minimal nonzero submodules (zero for the zero module)."""
    total = frozenset({0})
    for s in _once(minimal_submodules, module):
        total = submodule_sum(module, total, s)
    return total


def _chief_series_bottom_up(module: RightModule) -> list[frozenset]:
    """A maximal chain of submodules built from minimal submodules of the
    successive quotients; every factor is simple.  It reads no lattice,
    so it stays independent of the lattice search that the top-down
    series and the monoform tests read."""
    chain = [frozenset({0})]
    current = frozenset({0})
    while len(current) < module.order:
        # the ids of M/S index the coset representatives of S
        labels, reps = coset_labels(module, sorted(current))
        minimal = _once(minimal_submodules, _once(quotient, module, current))[0]
        chosen = np.zeros(module.order, dtype=bool)
        chosen[reps[list(minimal)]] = True
        current = frozenset(np.flatnonzero(chosen[labels]).tolist())
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
        current, incl = _once(sub_module, current, top)
        to_parent = {i: to_parent[incl[i]] for i in range(current.order)}
    chain.reverse()
    return chain


def subquotient(module: RightModule, lower: frozenset,
                upper: frozenset) -> RightModule:
    """upper / lower as a standalone module, for submodules lower <= upper."""
    upper_mod, incl = _once(sub_module, module, upper)
    inner = frozenset(i for i in range(upper_mod.order) if incl[i] in lower)
    return _once(quotient, upper_mod, inner)


def series_factors(module: RightModule, chain: list[frozenset]) -> Counter:
    # simple modules are isomorphic iff their annihilator sets are equal
    return Counter(annihilator_set(_once(subquotient, module, lower, upper))
                   for lower, upper in zip(chain, chain[1:]))


def composition_factors(module: RightModule) -> Counter:
    """Multiplicity of each simple factor of a chief series, keyed by its
    annihilator set: one key per iso-class."""
    if module.order == 1:
        return Counter()
    return series_factors(module, _chief_series_bottom_up(module))


def composition_factors_top_down(module: RightModule) -> Counter:
    """Same multiset from an independent series (property-test oracle)."""
    if module.order == 1:
        return Counter()
    return series_factors(module, _chief_series_top_down(module))


def minimal_generating_sequence(module: RightModule) -> list[int]:
    """Greedy: repeatedly pick the smallest id outside the current span."""
    gens: list[int] = []
    span = frozenset({0})
    while len(span) < module.order:
        g = next(x for x in range(module.order) if x not in span)
        gens.append(g)
        span = submodule_sum(module, span, cyclic_submodule(module, g))
    return gens


def _extend(a: RightModule, b: RightModule, phi: np.ndarray, g: int,
            y: int) -> np.ndarray | None:
    """phi, a map on a submodule S of a (-1 elsewhere), extended to S + gR
    by u + g.r -> phi(u) + y.r; None unless that is well defined and
    injective.

    The pairs are S x gR, each element of gR taken at its least r, so no
    temporary is larger than a's addition table.  g.r -> y.r needs no
    test of its own: the candidates y have Ann(y) = Ann(g), so g.r = g.s
    exactly when y.r = y.s.
    """
    row = a.act[g]
    by_value = np.argsort(row, kind="stable")
    least = np.ones(len(row), dtype=bool)
    least[1:] = row[by_value[1:]] != row[by_value[:-1]]
    rs = by_value[least]
    inside = np.flatnonzero(phi >= 0)
    sums = a.add[inside[:, None], row[rs]]
    images = b.add[phi[inside][:, None], b.act[y, rs]]
    ext = np.full(a.order, -1, dtype=np.intp)
    ext[sums] = images
    if (ext[sums] != images).any():
        return None  # u + g.r = u' + g.r' with different images
    hit = np.zeros(b.order, dtype=bool)
    hit[images] = True
    if hit.sum() != (ext >= 0).sum():
        return None  # two elements with one image
    return ext


def _embedding_exists(a: RightModule, b: RightModule) -> bool:
    """Whether an injective homomorphism a -> b exists, for modules over
    the same ring.

    False when a's annihilator multiset does not fit inside b's, as an
    embedding keeps every element's annihilator.  Otherwise backtracking
    over the images y_j of the generators g_j of
    minimal_generating_sequence(a), with Ann(y_j) = Ann(g_j), extending
    phi one generator at a time by _extend.

    By induction on j, phi(g_1 r_1 + ... + g_j r_j) = y_1 r_1 + ... +
    y_j r_j for every such sum, so phi is additive and R-linear on the
    submodule the g_j generate, and a full phi is an embedding; between
    modules of equal order it is injective, hence bijective.  Any
    embedding psi is found: y_j = psi(g_j) has Ann(y_j) = Ann(g_j), and
    each extension step agrees with psi, which is well defined and
    injective.
    """
    keys_a, keys_b = _once(annihilator_keys, a), _once(annihilator_keys, b)
    if not Counter(keys_a) <= Counter(keys_b):
        return False
    gens = _once(minimal_generating_sequence, a)

    def search(i: int, phi: np.ndarray) -> bool:
        if i == len(gens):
            return True
        g = gens[i]
        for y in range(b.order):
            if keys_b[y] == keys_a[g]:
                ext = _extend(a, b, phi, g, y)
                if ext is not None and search(i + 1, ext):
                    return True
        return False

    phi = np.full(a.order, -1, dtype=np.intp)
    phi[0] = 0
    return search(0, phi)


def is_isomorphic(a: RightModule, b: RightModule) -> bool:
    """Existence of a bijective module homomorphism.

    Equal modules (same ring, order and tables) are isomorphic through
    the identity, with no search.  Otherwise an embedding between modules
    of the same order over the same ring, which is a bijection.
    """
    return a == b or (a.ring == b.ring and a.order == b.order
                      and _embedding_exists(a, b))


def simple_module_count(ring: FiniteRing) -> int:
    """Simple right modules up to isomorphism: the R/m for the maximal
    right ideals m, one per iso class."""
    reg = regular_module(ring)
    simples: list[RightModule] = []
    for m in maximal_submodules(reg):
        candidate = _once(quotient, reg, m)
        if not any(is_isomorphic(candidate, s) for s in simples):
            simples.append(candidate)
    return len(simples)


# monoform: the colon table and its criterion alone, the socle and
# closure criteria, completely prime ideals, filtrations and the largest
# monoform submodule

def colon_table(module: RightModule) -> MappingProxyType:
    """{N: {(N : x) : x not in N}} for every proper submodule N.
    (N : x) = {a in R : x.a in N} is Ann(x + N) in M/N, so row N equals
    annihilator_set(M/N), computed without building M/N."""
    return MappingProxyType({
        sub: frozenset(frozenset(np.flatnonzero(colon).tolist())
                       for _, colon in coset_colons(module, sub))
        for sub in submodule_lattice(module) if len(sub) < module.order})


def meets_no_row_above(table, sub: frozenset) -> bool:
    """Row sub of M's colon table meets no row N > sub: M/sub is monoform.
    Its quotients are the (M/sub)/(N/sub) = M/N for N > sub, and two
    modules share a nonzero submodule iff their annihilator sets meet."""
    row = table[sub]
    return all(row.isdisjoint(other) for n, other in table.items() if n > sub)


def monoform_by_colon_table(module: RightModule) -> bool:
    """The definition read off M's colon table: M nonzero, and row {0}
    disjoint from every row N != 0.  It tests no uniformity, so
    check_monoform_implies_uniform can compare it with is_uniform."""
    return module.order > 1 and meets_no_row_above(
        _once(colon_table, module), frozenset({0}))


def monoform_oracle_artinian(module: RightModule) -> bool:
    """Socle criterion: simple socle whose iso class occurs exactly once
    among the composition factors.  Independent of is_monoform."""
    if module.order == 1:
        return False
    if len(_once(minimal_submodules, module)) != 1:
        return False
    soc, _ = _once(sub_module, module, socle(module))
    # simple modules are isomorphic iff their annihilator sets are equal
    handle = annihilator_set(soc)
    return composition_factors(module)[handle] == 1


def monoform_by_closure(module: RightModule) -> bool:
    """Closure criterion: M is monoform iff it lies outside the Serre
    closure of its quotients M/N by nonzero N, computed by the closure
    oracle over the subquotients of M."""
    universe = _once(build_universe, module)
    gens = {universe.class_of(_once(quotient, module, sub))
            for sub in submodule_lattice(module) if len(sub) > 1}
    return universe.class_of(module) not in closure_oracle(universe, gens)


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


def filtration_defect(module: RightModule) -> int | str | None:
    """Where monoform_filtration(module) breaks its definition: "chain"
    unless the chain climbs strictly from 0 to M in len(labels) + 1
    steps, else the first i whose factor L_{i+1} / L_i is not monoform or
    not isomorphic to R/p_i for its label p_i; None if it holds."""
    filt = monoform_filtration(module)
    chain = filt.chain
    if (chain[0] != frozenset({0}) or len(chain[-1]) != module.order
            or len(chain) != len(filt.labels) + 1
            or any(not a < b for a, b in zip(chain, chain[1:]))):
        return "chain"
    reg = regular_module(module.ring)
    for i, label in enumerate(filt.labels):
        factor = _once(subquotient, module, chain[i], chain[i + 1])
        if not (is_monoform(factor)
                and is_isomorphic(factor, _once(quotient, reg, label))):
            return i
    return None


def max_monoform_submodule(module: RightModule) -> frozenset:
    """Unique maximal monoform submodule of a uniform module.

    Computed as the sum of all cyclic monoform submodules (every monoform
    submodule contains a cyclic monoform one), then verified monoform and
    verified to contain every monoform submodule of the full lattice.
    xR is isomorphic to R/Ann(x), so it is monoform iff Ann(x) is
    comonoform, and no cyclic submodule is built to find them.
    """
    if not _once(is_uniform, module):
        raise MonoformError("maximal monoform submodule requires a uniform module")
    total = frozenset({0})
    for x in range(1, module.order):
        if is_comonoform(module.ring, annihilator(module, x)):
            total = submodule_sum(module, total, cyclic_submodule(module, x))
    if not is_monoform(_once(sub_module, module, total)[0]):
        raise AssertionError("sum of monoform submodules failed to be monoform")
    for sub in submodule_lattice(module):
        if len(sub) > 1 and is_monoform(_once(sub_module, module, sub)[0]):
            if not sub <= total:
                raise AssertionError(
                    f"monoform submodule {sorted(sub)} escapes the computed maximum"
                )
    return total


# serre: the closure oracle over a bounded universe of subquotients

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
            from .serre import SerreError  # here, so that check never loads serre

            raise SerreError("module is not in the universe")
        return idx


def _invariant_key(module: RightModule) -> tuple:
    """Order and the multiset of annihilators: equal for isomorphic
    modules."""
    counts = Counter(_once(annihilator_keys, module))
    return module.order, tuple(sorted(counts.items()))


def _find_class(members, by_key: Mapping, module) -> int | None:
    for i in by_key.get(_once(_invariant_key, module), ()):
        if is_isomorphic(members[i], module):
            return i
    return None


def build_universe(ambient: RightModule) -> ClosureUniverse:
    """All subquotients of the ambient up to isomorphism, plus structure."""
    members: list[RightModule] = []
    by_key: dict[tuple, list[int]] = {}

    def intern(module: RightModule) -> None:
        same_key = by_key.setdefault(_once(_invariant_key, module), [])
        if not any(is_isomorphic(members[i], module) for i in same_key):
            same_key.append(len(members))
            members.append(module)

    # seed with every subquotient
    for sub in submodule_lattice(ambient):
        inner, _ = _once(sub_module, ambient, sub)
        for nested in submodule_lattice(inner):
            intern(_once(quotient, inner, nested))

    sub_classes: list[set[int]] = [set() for _ in members]
    quot_classes: list[set[int]] = [set() for _ in members]
    triples: set[tuple[int, int, int]] = set()
    for e, member in enumerate(members):
        for sub in submodule_lattice(member):
            l_idx = _find_class(members, by_key, _once(sub_module, member, sub)[0])
            n_idx = _find_class(members, by_key, _once(quotient, member, sub))
            assert l_idx is not None and n_idx is not None
            sub_classes[e].add(l_idx)
            quot_classes[e].add(n_idx)
            triples.add((l_idx, e, n_idx))
    zero_index = _find_class(
        members, by_key, _once(quotient, ambient, frozenset(range(ambient.order)))
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


def _closed(classes: tuple[frozenset, ...], xs: frozenset) -> frozenset:
    """xs and the classes listed for its members: universe.sub_classes or
    universe.quot_classes."""
    return frozenset(cls for m in xs for cls in classes[m]) | xs


def _star(universe: ClosureUniverse, xs: frozenset, ys: frozenset) -> frozenset:
    return frozenset(
        e for l, e, n in universe.ext_triples if l in xs and n in ys
    )


def calculus_check(universe: ClosureUniverse, samples: int = 100) -> dict:
    """Sampled identities of the subcategory calculus inside the universe.

    Checks quot(sub(X)) == sub(quot(X)), star associativity, and the
    sub/quot distribution inclusions over star; reports violations with
    witnesses.
    """
    rng = random.Random(0)
    size = len(universe.members)
    zero = universe.zero_index
    violations = []

    def sample_set() -> frozenset:
        picks = frozenset(
            i for i in range(size) if rng.random() < 0.5
        )
        return picks | {zero}

    subs, quots = universe.sub_classes, universe.quot_classes
    for trial in range(samples):
        x, y, z = sample_set(), sample_set(), sample_set()
        if _closed(quots, _closed(subs, x)) != _closed(subs, _closed(quots, x)):
            violations.append(("sub-quot exchange", trial, sorted(x)))
        lhs = _star(universe, _star(universe, x, y), z)
        rhs = _star(universe, x, _star(universe, y, z))
        if lhs != rhs:
            violations.append(
                ("star associativity", trial, sorted(x), sorted(y), sorted(z))
            )
        sxy = _star(universe, x, y)
        for kind, classes in (("sub", subs), ("quot", quots)):
            if not _closed(classes, sxy) <= _star(
                universe, _closed(classes, x), _closed(classes, y)
            ):
                violations.append(
                    (f"{kind} over star", trial, sorted(x), sorted(y))
                )
    return {
        "samples": samples,
        "universe_size": size,
        "violations": violations,
        "passed": not violations,
    }


def universe_supports(universe: ClosureUniverse,
                      spec: AtomSpectrum) -> tuple[frozenset, ...]:
    return tuple(
        _once(atom_support, spec, member) for member in universe.members
    )


def closure_is_sound(universe: ClosureUniverse, supports: tuple,
                     gens) -> bool:
    """Every member of the closure of gens has its support, read from
    universe_supports, inside the union of the supports of gens."""
    phi = frozenset().union(frozenset(), *(supports[g] for g in gens))
    return all(supports[m] <= phi for m in closure_oracle(universe, gens))


# spectrum: associated atoms against supports, atom equivalence, and the
# classical prime spectrum of a commutative ring

def ass_within_support(spec: AtomSpectrum, module: RightModule) -> bool:
    """AAss M <= ASupp M, and both are empty exactly when M = 0."""
    ass = _once(associated_atoms, spec, module)
    supp = _once(atom_support, spec, module)
    return ass <= supp and bool(ass) == bool(supp) == (module.order > 1)


def sum_is_additive(spec: AtomSpectrum, a: RightModule,
                    b: RightModule) -> bool:
    """ASupp and AAss of a + b are the unions of those of a and b."""
    s = _once(direct_sum, a, b)
    return all(_once(f, spec, s) == _once(f, spec, a) | _once(f, spec, b)
               for f in (atom_support, associated_atoms))


def atom_equivalent(ring: FiniteRing, p: frozenset, q: frozenset) -> bool:
    """R/p and R/q share a common nonzero submodule."""
    for ideal in (p, q):
        if not is_comonoform(ring, ideal):
            raise SpectrumError(
                f"{sorted(ideal)} is not a comonoform right ideal"
            )
    table = _once(colon_table, regular_module(ring))
    return bool(table[p] & table[q])


def prime_ideals(ring: FiniteRing) -> list[frozenset]:
    """Classical prime ideals of a commutative ring (ab in P => a or b in P)."""
    reg = regular_module(ring)
    out = []
    for ideal in submodule_lattice(reg):
        inside = np.zeros(ring.order, dtype=bool)
        inside[list(ideal)] = True
        outside = np.flatnonzero(~inside)
        if outside.size and not inside[ring.mul[np.ix_(outside, outside)]].any():
            out.append(ideal)
    return sorted(out, key=submodule_key)


def classical_support(ring: FiniteRing, module: RightModule,
                      primes: list[frozenset]) -> frozenset:
    """Supp M = V(Ann M) = {q prime : Ann M <= q}, Ann M = {a : M.a = 0}:
    from the action table alone, independent of the idempotent -> atom
    map that atom_support reads.  For M = 0, Ann M = R lies in no prime."""
    ann = frozenset(np.flatnonzero((module.act == 0).all(axis=0)).tolist())
    return frozenset(q for q in primes if ann <= q)


def commutative_crosscheck(ring: FiniteRing) -> dict:
    """Check the commutative-ring picture of the spectrum.

    Asserts: comonoform = prime; singleton atom classes; open sets =
    specialization-closed subsets; atom support = classical support on the
    test modules.  Returns a structured report.
    """
    if not ring.is_commutative():
        raise SpectrumError("crosscheck requires a commutative ring")
    spec = atom_spectrum(ring)
    primes = prime_ideals(ring)
    comonoform = sorted(spec.comonoform_ideals(), key=submodule_key)
    report: dict = {"ring": ring.name or f"order {ring.order}", "checks": {}}

    report["checks"]["comonoform_equals_prime"] = comonoform == primes
    report["checks"]["singleton_atom_classes"] = all(
        len(atom.members) == 1 for atom in spec.atoms
    )

    prime_of_atom = {atom.id: atom.canonical_rep for atom in spec.atoms}
    # a finite topology is fixed by its minimal open neighbourhoods U_a,
    # U_a is the least Supp R/q over the members q of a, and the
    # specialization-closed set generated by p is {q : p <= q}
    report["checks"]["open_equals_specialization_closed"] = all(
        frozenset(prime_of_atom[b] for b in min(
            (spec.supports[q] for q in atom.members), key=len))
        == frozenset(q for q in primes if atom.canonical_rep <= q)
        for atom in spec.atoms
    )

    support_ok = True
    for mod in _once(_cyclic_modules, ring):
        got = frozenset(
            prime_of_atom[a] for a in _once(atom_support, spec, mod)
        )
        if got != classical_support(ring, mod, primes):
            support_ok = False
            break
    report["checks"]["atom_support_equals_support"] = support_ok
    report["atoms"] = len(spec.atoms)
    report["primes"] = [sorted(p) for p in primes]
    report["passed"] = all(report["checks"].values())
    return report


# ---------------------------------------------------------------------------
# properties

# checks that enumerate submodule lattices of subquotients stay usable by
# bounding the modules they look inside
SMALL_MODULE_ORDER = 64
# check_suite refuses a ring with more right ideals: its properties scan
# pairs of ideals, and F_2 x F_2^5 (375 ideals) takes 11-17 s, 79 MB
CHECK_LATTICE_CAP = 256


ALL_CHECKS = []  # in report order


def _property(name: str):
    """Turn a function of the ring returning (passed, witness) into a check
    returning (name, passed, witness), with `check.property` = name, and
    append it to ALL_CHECKS."""
    def decorate(body):
        @wraps(body)
        def check(ring):
            with run_memo():
                return (name, *body(ring))
        check.property = name
        ALL_CHECKS.append(check)
        return check
    return decorate


def _cyclic_modules(ring: FiniteRing) -> tuple[RightModule, ...]:
    """R/I for every proper right ideal I (includes the regular module)."""
    reg = regular_module(ring)
    return tuple(
        _once(quotient, reg, ideal)
        for ideal in submodule_lattice(reg)
        if len(ideal) < ring.order
    )


@_property("ring axioms")
def check_ring_axioms(ring: FiniteRing):
    try:
        validate_ring(ring.add, ring.mul, ring.one)
    except Exception as exc:  # pragma: no cover - only on corrupt input
        return False, str(exc)
    return True, None


@_property("annihilators are right ideals")
def check_annihilators_are_ideals(ring: FiniteRing):
    """Ann(x) is tested at the first x of each R/I with that annihilator,
    Ann(0) = R among them, and once per run, so the witness is the first
    x whose Ann(x) fails."""
    reg = regular_module(ring)
    for mod in _once(_cyclic_modules, ring):
        seen = set()
        for x, key in enumerate(_once(annihilator_keys, mod)):
            if key not in seen:
                seen.add(key)
                if not _once(is_submodule, reg, annihilator(mod, x)):
                    return False, (mod.provenance, x)
    return True, None


@_property("index multiplicativity")
def check_index_multiplicativity(ring: FiniteRing):
    reg = regular_module(ring)
    for sub in submodule_lattice(reg):
        if reg.order != len(sub) * _once(quotient, reg, sub).order:
            return False, sorted(sub)
    return True, None


@_property("cyclic is R mod annihilator")
def check_cyclic_iso_quotient(ring: FiniteRing):
    """xR is isomorphic to R / Ann(x), through r + Ann(x) -> x.r.

    The map is checked on the built modules R/Ann(x) and xR, so this
    exhibits an isomorphism instead of searching for one.
    """
    reg = regular_module(ring)
    ring_gens = additive_generators(ring.add)
    quotients = {}  # per Ann(x): R/Ann(x), its projection and generators
    for mod in _once(_cyclic_modules, ring):
        cyclics = {}  # per distinct xR: xR and the map mod id -> xR id
        for x in range(mod.order):
            ann = annihilator(mod, x)
            if ann not in quotients:
                quo, proj = _once(quotient_module, reg, ann)
                quotients[ann] = (quo, np.array(proj, dtype=np.intp),
                                  additive_generators(quo.add))
            members = cyclic_submodule(mod, x)
            if members not in cyclics:
                cyc, incl = _once(sub_module, mod, members)
                index = np.full(mod.order, -1, dtype=np.intp)
                index[list(incl)] = np.arange(len(incl))
                cyclics[members] = cyc, index
            if not _canonical_map_is_iso(mod, x, *quotients[ann],
                                         *cyclics[members], ring_gens):
                return False, (mod.provenance, x)
    return True, None


def _canonical_map_is_iso(mod: RightModule, x: int, quo: RightModule,
                          proj: np.ndarray, quo_gens: list, cyc: RightModule,
                          index: np.ndarray, ring_gens: list) -> bool:
    """phi(r + Ann(x)) = x.r is a well-defined, bijective, additive and
    R-linear map from quo = R/Ann(x) to cyc = xR.

    proj sends each r in R to its coset id in quo; index sends each
    element of mod to its id in cyc, or to -1 outside cyc.  quo_gens and
    ring_gens generate (quo, +) and (R, +).  Additivity is tested as
    phi(u + g) = phi(u) + phi(g) for every u and every g in quo_gens, and
    R-linearity as phi(u.a) = phi(u).a for every u and every a in
    ring_gens: O(m |A| + n) in all for |quo| = m, |R| = n and A the
    larger generating set.

    That suffices for modules, which quo and cyc are.  In a finite group
    -g is a multiple of g, so every v in quo is a sum g_1 + ... + g_k of
    members of quo_gens.  With v' = g_1 + ... + g_{k-1}, associativity
    on both sides and induction on k give phi(u + v) = phi(u + v') +
    phi(g_k) = phi(u) + phi(v') + phi(g_k) = phi(u) + phi(v); and phi(0)
    = 0, as phi(g) = phi(0 + g) = phi(0) + phi(g).  Likewise every a in
    R is a sum a' + g with g in ring_gens, and right distributivity with
    the additivity just shown give phi(u.(a' + g)) = phi(u.a' + u.g) =
    phi(u).a' + phi(u).g = phi(u).(a' + g), by induction on the length.
    """
    row = mod.act[x]  # x.r for each r
    if (len(proj) != len(row) or quo.order != cyc.order
            or proj.max() >= quo.order):
        return False
    image = index[row]  # phi(proj[r]) for each r
    phi = np.full(quo.order, -1, dtype=np.intp)
    phi[proj] = image
    if (image < 0).any() or (phi[proj] != image).any():
        return False  # x.r outside xR, or phi not well defined
    if not np.array_equal(np.sort(phi), np.arange(cyc.order)):
        return False
    return bool(
        (phi[quo.add[:, quo_gens]] == cyc.add[phi[:, None], phi[quo_gens]]).all()
        and (phi[quo.act[:, ring_gens]] == cyc.act[phi[:, None], ring_gens]).all()
    )


@_property("lattice closed under meet and join")
def check_lattice_closure(ring: FiniteRing):
    reg = regular_module(ring)
    lattice = set(submodule_lattice(reg))
    for a in lattice:
        for b in lattice:
            if a & b not in lattice or submodule_sum(reg, a, b) not in lattice:
                return False, (sorted(a), sorted(b))
    return True, None


@_property("composition series independence")
def check_series_independence(ring: FiniteRing):
    for mod in _once(_cyclic_modules, ring):
        if composition_factors(mod) != composition_factors_top_down(mod):
            return False, mod.provenance
    return True, None


@_property("uniform agrees with pairwise oracle")
def check_uniform_oracle(ring: FiniteRing):
    for mod in _once(_cyclic_modules, ring):
        if len(submodule_lattice(mod)) <= SMALL_MODULE_ORDER:
            if _once(is_uniform, mod) != is_uniform_bruteforce(mod):
                return False, mod.provenance
    return True, None


@_property("annihilator-set reduction")
def check_annihilator_reduction(ring: FiniteRing):
    """Shared-submodule reduction vs a literal embedding search."""
    mods = [m for m in _once(_cyclic_modules, ring) if m.order <= 16]
    for a in mods:
        for b in mods:
            reduced = bool(annihilator_set(a) & annihilator_set(b))
            literal = any(
                len(s) > 1 and embeds_in(_once(sub_module, a, s)[0], b)
                for s in submodule_lattice(a)
            )
            if reduced != literal:
                return False, (a.provenance, b.provenance)
    return True, None


@_property("monoform is hereditary")
def check_monoform_hereditary(ring: FiniteRing):
    """Every nonzero submodule of a monoform module is monoform."""
    for mod in _once(_cyclic_modules, ring):
        if not is_monoform(mod):
            continue
        for sub in submodule_lattice(mod):
            if len(sub) > 1 and not is_monoform(_once(sub_module, mod, sub)[0]):
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("monoform implies uniform")
def check_monoform_implies_uniform(ring: FiniteRing):
    """is_monoform reads the one minimal submodule of a uniform module;
    the colon-table criterion, which tests no uniformity, must accept
    only uniform modules."""
    for mod in _once(_cyclic_modules, ring):
        if monoform_by_colon_table(mod) and not _once(is_uniform, mod):
            return False, mod.provenance
    return True, None


@_property("atom equivalence is an equivalence")
def check_atom_equivalence_relation(ring: FiniteRing):
    """The relation is read once, as a c x c table over the c comonoform
    ideals, and the three laws are tested on the table."""
    ideals = atom_spectrum(ring).comonoform_ideals()
    eq = [[atom_equivalent(ring, p, q) for q in ideals] for p in ideals]
    ids = range(len(ideals))
    for i in ids:
        if not eq[i][i]:
            return False, sorted(ideals[i])
    for i, j, k in itertools.product(ids, repeat=3):
        if eq[i][j] != eq[j][i]:
            return False, (sorted(ideals[i]), sorted(ideals[j]))
        if eq[i][j] and eq[j][k] and not eq[i][k]:
            return False, tuple(sorted(ideals[x]) for x in (i, j, k))
    return True, None


@_property("monoform submodule sums")
def check_monoform_sum(ring: FiniteRing):
    """In a uniform module, the sum of two monoform submodules is monoform."""
    for mod in _once(_cyclic_modules, ring):
        if not _once(is_uniform, mod):
            continue
        monoforms = [
            s for s in submodule_lattice(mod)
            if len(s) > 1 and is_monoform(_once(sub_module, mod, s)[0])
        ]
        for a in monoforms:
            for b in monoforms:
                total = submodule_sum(mod, a, b)
                if not is_monoform(_once(sub_module, mod, total)[0]):
                    return False, (mod.provenance, sorted(a), sorted(b))
    return True, None


@_property("monoform agrees with socle oracle")
def check_socle_oracle(ring: FiniteRing):
    for mod in _once(_cyclic_modules, ring):
        if is_monoform(mod) != _once(monoform_oracle_artinian, mod):
            return False, mod.provenance
    return True, None


@_property("comonoform implies completely prime")
def check_comonoform_completely_prime(ring: FiniteRing):
    for ideal in submodule_lattice(regular_module(ring))[:-1]:  # R sorts last
        if is_comonoform(ring, ideal) and not is_completely_prime(ring, ideal):
            return False, sorted(ideal)
    return True, None


@_property("monoform filtrations")
def check_filtrations(ring: FiniteRing):
    for mod in _once(_cyclic_modules, ring):
        defect = filtration_defect(mod)
        if defect == "chain":
            return False, mod.provenance
        if defect is not None:
            return False, (mod.provenance, defect)
    return True, None


@_property("maximal monoform submodules")
def check_max_monoform(ring: FiniteRing):
    for mod in _once(_cyclic_modules, ring):
        if not _once(is_uniform, mod):
            continue
        # raises internally if the maximum fails its own verification
        max_monoform_submodule(mod)
    return True, None


@_property("support exactness")
def check_support_exactness(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _once(_cyclic_modules, ring):
        total = _once(atom_support, spec, mod)
        for sub in submodule_lattice(mod):
            left = _once(atom_support, spec, _once(sub_module, mod, sub)[0])
            right = _once(atom_support, spec, _once(quotient, mod, sub))
            if total != left | right:
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("associated atom sandwich")
def check_ass_sandwich(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _once(_cyclic_modules, ring):
        mid = _once(associated_atoms, spec, mod)
        for sub in submodule_lattice(mod):
            left = _once(associated_atoms, spec, _once(sub_module, mod, sub)[0])
            right = _once(associated_atoms, spec, _once(quotient, mod, sub))
            if not (left <= mid and mid <= left | right):
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("direct sum support additivity")
def check_direct_sum_additivity(ring: FiniteRing):
    # factor cap keeps the summed module's tables and lattice tractable;
    # it admits the smallest cyclic module, or R itself for the zero ring
    spec = atom_spectrum(ring)
    mods = _once(_cyclic_modules, ring) or (regular_module(ring),)
    cap = max(16, min(m.order for m in mods))
    mods = [m for m in mods if m.order <= cap]
    rng = random.Random(0)
    for _ in range(20):
        a, b = rng.choice(mods), rng.choice(mods)
        if not sum_is_additive(spec, a, b):
            return False, (a.provenance, b.provenance)
    return True, None


@_property("associated atoms within support")
def check_ass_inside_support(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _once(_cyclic_modules, ring):
        if not ass_within_support(spec, mod):
            return False, mod.provenance
    return True, None


@_property("module supports are open")
def check_supports_are_open(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _once(_cyclic_modules, ring):
        if not is_open(spec, _once(atom_support, spec, mod)):
            return False, mod.provenance
    return True, None


@_property("discrete topology")
def check_discreteness(ring: FiniteRing):
    """Finite rings: every subset of atoms is open, and the atom count is
    the number of iso-classes of simple modules."""
    spec = atom_spectrum(ring)
    k = len(spec.atoms)
    for size in range(k + 1):
        for phi in itertools.combinations(range(k), size):
            if not is_open(spec, frozenset(phi)):
                return False, list(phi)
    simples = simple_module_count(ring)
    if simples != k:
        return False, ("atoms", k, "simple classes", simples)
    return True, None


@_property("monoform closure criterion")
def check_monoform_closure_equivalence(ring: FiniteRing):
    """M is non-monoform iff M falls into the Serre closure of its proper
    quotients, computed by the brute-force oracle."""
    for mod in _once(_cyclic_modules, ring):
        if mod.order > SMALL_MODULE_ORDER:
            continue
        if monoform_by_closure(mod) != is_monoform(mod):
            return False, mod.provenance
    return True, None


@_property("open set roundtrip")
def check_roundtrip_open_sets(ring: FiniteRing):
    """ASupp(ASupp^-1 phi) == phi via cyclic witnesses, for every open phi."""
    spec = atom_spectrum(ring)
    for phi in enumerate_open_sets(spec):
        covered = frozenset()
        for q in spec.comonoform_ideals():
            if spec.support_of_ideal(q) <= phi:
                covered |= spec.support_of_ideal(q)
        if covered != phi:
            return False, sorted(phi)
    return True, None


@_property("closure oracle soundness")
def check_oracle_soundness(ring: FiniteRing):
    """Every member of an oracle closure has support inside the generated
    open set."""
    spec = atom_spectrum(ring)
    reg = regular_module(ring)
    universe = _once(build_universe, reg)
    supports = universe_supports(universe, spec)
    rng = random.Random(0)
    for _ in range(5):
        gens = frozenset(
            i for i in range(len(universe.members)) if rng.random() < 0.4
        )
        if not closure_is_sound(universe, supports, gens):
            return False, sorted(gens)
    return True, None


@_property("subcategory calculus")
def check_calculus(ring: FiniteRing):
    universe = _once(build_universe, regular_module(ring))
    result = calculus_check(universe, samples=25)
    return result["passed"], result["violations"] or None


@_property("commutative recovery")
def check_commutative(ring: FiniteRing):
    if not ring.is_commutative():
        return True, "skipped (noncommutative)"
    report = commutative_crosscheck(ring)
    return report["passed"], None if report["passed"] else report["checks"]


def check_suite(ring: FiniteRing) -> dict:
    """Run the full battery in one run memo; report pass/fail per property
    with witnesses.  A property that raises fails with witness
    "<Type>: <message>"; a ring with over CHECK_LATTICE_CAP right ideals
    raises CapExceededError."""
    results = []
    with run_memo():
        ideals = len(submodule_lattice(regular_module(ring)))
        if ideals > CHECK_LATTICE_CAP:
            raise CapExceededError(
                f"{ideals} right ideals exceed the check cap {CHECK_LATTICE_CAP}"
            )
        for check in ALL_CHECKS:
            try:
                name, passed, witness = check(ring)
            except Exception as exc:  # a crash fails its property only
                name = check.property
                passed, witness = False, f"{type(exc).__name__}: {exc}"
            entry = {"property": name, "passed": passed}
            if witness is not None:
                entry["witness"] = witness
            results.append(entry)
    return {
        "ring": ring.name or f"order {ring.order}",
        "order": ring.order,
        "properties": results,
        "passed": all(r["passed"] for r in results),
    }
