"""Atom spectrum of a finite ring: atom equivalence classes of comonoform
right ideals, atom support, associated atoms, and the open-set topology."""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modules import (
    RightModule,
    colon_table,
    distinct_annihilators,
    quotient,
    regular_colon_table,
    regular_module,
    submodule_key,
    submodule_lattice,
)
from .monoform import is_comonoform, monoform_filtration
from .rings import FiniteRing

MAX_ATOMS_FOR_POWERSET = 20


class SpectrumError(Exception):
    pass


class UnionFind:
    """Union-find with path compression; canonical roots by first index."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class Atom:
    id: int
    canonical_rep: frozenset
    members: tuple[frozenset, ...]


@dataclass(frozen=True)
class AtomSpectrum:
    ring: FiniteRing
    atoms: tuple[Atom, ...]

    def atom_of(self, ideal: frozenset) -> int:
        """Atom id of a comonoform right ideal."""
        try:
            return _atom_index(self)[ideal]
        except KeyError:
            raise SpectrumError(
                f"{sorted(ideal)} is not a comonoform right ideal"
            ) from None

    def comonoform_ideals(self) -> tuple[frozenset, ...]:
        return tuple(
            ideal for atom in self.atoms for ideal in atom.members
        )

    def support_of_ideal(self, ideal: frozenset) -> frozenset:
        """Atom support of R/ideal, cached per comonoform ideal."""
        return _support_cache(self)[ideal]


@lru_cache(maxsize=None)
def _atom_index(spec: AtomSpectrum) -> dict:
    return {
        ideal: atom.id for atom in spec.atoms for ideal in atom.members
    }


@lru_cache(maxsize=None)
def _support_cache(spec: AtomSpectrum) -> dict:
    """Supp R/p is the set of atoms met by the rows q >= p of the regular
    module's colon table: the subquotients R/p / q/p are the R/q."""
    met = _atoms_met(spec, regular_colon_table(spec.ring))
    return {
        ideal: frozenset().union(*(
            atoms for q, atoms in met.items() if ideal <= q
        ))
        for atom in spec.atoms
        for ideal in atom.members
    }


def _atoms_met(spec: AtomSpectrum, table: Mapping) -> dict:
    """{N: atom ids of the comonoform ideals in row N}."""
    index = _atom_index(spec)
    return {
        sub: frozenset(index[c] for c in row if c in index)
        for sub, row in table.items()
    }


def atom_equivalent(ring: FiniteRing, p: frozenset, q: frozenset) -> bool:
    """R/p and R/q share a common nonzero submodule."""
    for ideal in (p, q):
        if not is_comonoform(ring, ideal):
            raise SpectrumError(
                f"{sorted(ideal)} is not a comonoform right ideal"
            )
    table = regular_colon_table(ring)
    return bool(table[p] & table[q])


@lru_cache(maxsize=None)
def atom_spectrum(ring: FiniteRing) -> AtomSpectrum:
    """Enumerate comonoform right ideals and partition them into atoms.

    Canonical class representative: the ideal with lexicographically
    smallest sorted element tuple.
    """
    table = regular_colon_table(ring)
    ideals = sorted(
        (ideal for ideal in table if is_comonoform(ring, ideal)),
        key=submodule_key,
    )
    annsets = [table[ideal] for ideal in ideals]
    uf = UnionFind(len(ideals))
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if annsets[i] & annsets[j]:
                uf.union(i, j)
    classes: dict[int, list[int]] = {}
    for i in range(len(ideals)):
        classes.setdefault(uf.find(i), []).append(i)
    grouped = [
        tuple(ideals[i] for i in sorted(idxs)) for idxs in classes.values()
    ]
    grouped.sort(key=lambda members: submodule_key(
        min(members, key=lambda s: tuple(sorted(s)))
    ))
    atoms = tuple(
        Atom(
            id=k,
            canonical_rep=min(members, key=lambda s: tuple(sorted(s))),
            members=members,
        )
        for k, members in enumerate(grouped)
    )
    return AtomSpectrum(ring=ring, atoms=atoms)


def atom_support(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a subquotient of M.

    Reduction to cyclic subquotients: every monoform subquotient contains
    a cyclic monoform submodule R/Ann(x+N) in the same atom, and the
    Ann(x+N) are the entries of M's colon table.
    """
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    return frozenset().union(*_atoms_met(spec, colon_table(module)).values())


def associated_atoms(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a submodule of M."""
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    index = _atom_index(spec)
    return frozenset(
        index[ann] for ann in distinct_annihilators(module) if ann in index
    )


def is_open(spec: AtomSpectrum, phi: frozenset) -> bool:
    """Every atom of phi has a representative whose support stays in phi.

    Quantifying over the cyclic representatives R/q in each class suffices:
    any representative contains a cyclic one with no larger support.
    """
    for atom_id in phi:
        if not 0 <= atom_id < len(spec.atoms):
            raise SpectrumError(f"unknown atom id {atom_id}")
        atom = spec.atoms[atom_id]
        if not any(
            spec.support_of_ideal(q) <= phi for q in atom.members
        ):
            return False
    return True


def enumerate_open_sets(spec: AtomSpectrum) -> list[frozenset]:
    """All open subsets, sorted by (size, sorted atom ids); verified closed
    under union and pairwise intersection."""
    k = len(spec.atoms)
    if k > MAX_ATOMS_FOR_POWERSET:
        raise SpectrumError(
            f"{k} atoms is too many for a powerset scan (max {MAX_ATOMS_FOR_POWERSET})"
        )
    ids = range(k)
    opens = [
        frozenset(sub)
        for size in range(k + 1)
        for sub in itertools.combinations(ids, size)
        if is_open(spec, frozenset(sub))
    ]
    open_set = set(opens)
    for a in opens:
        for b in opens:
            if a | b not in open_set or a & b not in open_set:
                raise AssertionError(
                    f"open sets not closed under union/intersection: "
                    f"{sorted(a)}, {sorted(b)}"
                )
    return sorted(opens, key=lambda s: (len(s), tuple(sorted(s))))


# ---------------------------------------------------------------------------
# commutative crosscheck

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
    """Supp M computed by filtration additivity: Supp(R/p) = {q : p <= q},
    and supports add along the comonoform filtration."""
    if module.order == 1:
        return frozenset()
    out = set()
    for label in monoform_filtration(module).labels:
        out.update(q for q in primes if label <= q)
    return frozenset(out)


def commutative_crosscheck(ring: FiniteRing,
                           modules: list[RightModule] | None = None) -> dict:
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

    prime_of_atom = {
        atom.id: atom.canonical_rep for atom in spec.atoms
    }
    opens = {
        frozenset(prime_of_atom[a] for a in phi)
        for phi in enumerate_open_sets(spec)
    }
    spc_closed = set()
    for size in range(len(primes) + 1):
        for sub in itertools.combinations(primes, size):
            phi = frozenset(sub)
            if all(
                q in phi
                for p in phi for q in primes if p <= q
            ):
                spc_closed.add(phi)
    report["checks"]["open_equals_specialization_closed"] = opens == spc_closed

    if modules is None:
        reg = regular_module(ring)
        modules = [reg] + [
            quotient(reg, ideal)
            for ideal in submodule_lattice(reg)
            if len(ideal) < ring.order
        ]
    support_ok = True
    for mod in modules:
        got = frozenset(
            prime_of_atom[a] for a in atom_support(spec, mod)
        )
        if got != classical_support(ring, mod, primes):
            support_ok = False
            break
    report["checks"]["atom_support_equals_support"] = support_ok
    report["atoms"] = len(spec.atoms)
    report["primes"] = [sorted(p) for p in primes]
    report["passed"] = all(report["checks"].values())
    return report
