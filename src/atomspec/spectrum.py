"""Atom spectrum of a finite ring: atom equivalence classes of comonoform
right ideals, atom support, associated atoms, and the open-set topology,
which is discrete: every atom holds a simple module, whose support is
that atom alone."""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .modules import (
    RightModule,
    colon_table,
    distinct_annihilators,
    regular_module,
    submodule_key,
)
from .monoform import is_comonoform, monoform_filtration
from .rings import AtomspecError, FiniteRing


class SpectrumError(AtomspecError):
    pass


@dataclass(frozen=True)
class Atom:
    id: int
    canonical_rep: frozenset
    members: tuple[frozenset, ...]


@dataclass(frozen=True)
class AtomSpectrum:
    """The atoms of a ring, with what atom_spectrum derives from them once:
    `index` sends each comonoform ideal p to its atom id, and `supports`
    sends it to Supp R/p."""

    ring: FiniteRing
    atoms: tuple[Atom, ...]
    index: Mapping = field(compare=False, repr=False)
    supports: Mapping = field(compare=False, repr=False)

    def comonoform_ideals(self) -> tuple[frozenset, ...]:
        return tuple(ideal for atom in self.atoms for ideal in atom.members)

    def support_of_ideal(self, ideal: frozenset) -> frozenset:
        """Atom support of R/ideal for a comonoform ideal."""
        return self.supports[ideal]


def _atom_classes(ideals: list[frozenset], table: Mapping) -> list[list]:
    """Atom classes of the comonoform ideals, each in the order given.

    R/p and R/q are atom equivalent iff rows p and q of the colon table
    meet.  The relation is transitive on monoform modules, so an ideal
    joins the one class whose rows its row meets; a row that meets two
    classes is a witness that transitivity fails.
    """
    classes: list[tuple[list, set]] = []  # members, union of their rows
    for ideal in ideals:
        row = table[ideal]
        met = [c for c in classes if not c[1].isdisjoint(row)]
        if len(met) > 1:
            raise AssertionError(
                f"atom equivalence is not transitive at {sorted(ideal)}"
            )
        if not met:
            classes.append(([], set()))
            met = classes[-1:]
        met[0][0].append(ideal)
        met[0][1].update(row)
    return [members for members, _ in classes]


def _assert_discrete(atoms: tuple[Atom, ...], supports: Mapping) -> None:
    """The atom spectrum of a finite ring is discrete.

    Every atom a holds a simple module R/m, m a maximal right ideal.  Its
    only nonzero subquotient is itself, so Supp R/m = {a}, and {a} is
    open.  Raises AssertionError unless some member q of each atom a has
    Supp R/q = {a}.
    """
    for atom in atoms:
        if not any(supports[q] == {atom.id} for q in atom.members):
            raise AssertionError(f"atom {atom.id} has no singleton support")


@lru_cache(maxsize=None)
def atom_spectrum(ring: FiniteRing) -> AtomSpectrum:
    """Enumerate comonoform right ideals, partition them into atoms, derive
    the atom index and the supports, and assert that the topology is
    discrete (_assert_discrete).

    Canonical class representative: the ideal with lexicographically
    smallest sorted element tuple.  Supp R/p is the set of atoms met by
    the rows q >= p of the regular module's colon table: the subquotients
    R/p / q/p are the R/q.
    """
    table = colon_table(regular_module(ring))
    ideals = sorted(
        (ideal for ideal in table if is_comonoform(ring, ideal)),
        key=submodule_key,
    )
    classes = [
        (min(members, key=lambda s: tuple(sorted(s))), tuple(members))
        for members in _atom_classes(ideals, table)
    ]
    classes.sort(key=lambda pair: submodule_key(pair[0]))
    atoms = tuple(
        Atom(id=k, canonical_rep=rep, members=members)
        for k, (rep, members) in enumerate(classes)
    )
    index = {ideal: atom.id for atom in atoms for ideal in atom.members}
    met = {  # row q -> the atoms of the comonoform ideals in it
        q: frozenset(index[c] for c in row if c in index)
        for q, row in table.items()
    }
    supports = {
        p: frozenset().union(*(ids for q, ids in met.items() if p <= q))
        for p in index
    }
    _assert_discrete(atoms, supports)
    return AtomSpectrum(
        ring=ring,
        atoms=atoms,
        index=MappingProxyType(index),
        supports=MappingProxyType(supports),
    )


def atom_support(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a subquotient of M.

    Atom support is additive on short exact sequences: Supp M is
    Supp L | Supp M/L for every submodule L.  So along a monoform
    filtration with factors R/p_i it is the union of the Supp R/p_i that
    the spectrum holds, and no lattice or quotient of M is built.
    """
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    if module.order == 1:
        return frozenset()
    return frozenset().union(
        *(spec.supports[p] for p in monoform_filtration(module).labels)
    )


def associated_atoms(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a submodule of M."""
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    return frozenset(
        spec.index[ann] for ann in distinct_annihilators(module)
        if ann in spec.index
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
        if not any(spec.supports[q] <= phi for q in atom.members):
            return False
    return True


def enumerate_open_sets(spec: AtomSpectrum) -> list[frozenset]:
    """All open subsets, sorted by (size, sorted atom ids): every subset,
    as the topology is discrete.  R/J is a product of one simple ring per
    atom, so |R| >= 2^k for k atoms: the 2^k open sets never outnumber the
    elements of R, whose tables hold |R|^2 entries."""
    k = len(spec.atoms)
    return [
        frozenset(c)
        for size in range(k + 1)
        for c in itertools.combinations(range(k), size)
    ]
