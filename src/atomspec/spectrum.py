"""Atom spectrum of a finite ring: the comonoform right ideals p, found by
the socle test of each R/p among the annihilators of the characters of
(R, +), in atoms keyed by the primitive idempotents e whose top(eR) is
the socle of R/p; atom support, associated atoms, and the open-set
topology, which is discrete.  No lattice of right ideals is built."""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .modules import RightModule, regular_module, submodule_key
from .monoform import radical, socle_test
from .rings import AtomspecError, FiniteRing, additive_generators, memoized


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
    `index` sends each comonoform ideal p to its atom id, `supports` sends
    it to Supp R/p, and `atom_of_idempotent` sends each primitive
    idempotent e to the atom of the top of eR."""

    ring: FiniteRing
    atoms: tuple[Atom, ...]
    index: Mapping = field(compare=False, repr=False)
    supports: Mapping = field(compare=False, repr=False)
    atom_of_idempotent: Mapping = field(compare=False, repr=False)

    def comonoform_ideals(self) -> tuple[frozenset, ...]:
        return tuple(ideal for atom in self.atoms for ideal in atom.members)

    def support_of_ideal(self, ideal: frozenset) -> frozenset:
        """Atom support of R/ideal for a comonoform ideal."""
        return self.supports[ideal]


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


def character_annihilators(ring: FiniteRing) -> Iterator[np.ndarray]:
    """The distinct masks Ann(phi) other than R, over the characters phi
    of (R, +); every comonoform right ideal is one of them.

    R/p monoform is uniform with a simple socle, so it embeds in the
    injective cogenerator R* = Hom_Z(R, Z/n), (phi a)(b) = phi(ab), and p
    is the annihilator of the image of 1 + p.  Each additive generator g
    has some order d modulo the span H of the earlier ones, and a
    character of H extends to H + <g> in exactly d ways: phi(g) =
    phi(dg)/d + t n/d for t < d.  So the n characters are their values on
    the generators, read at each x through its coordinates, and
    Ann(phi) = {a : phi(ag) = 0 for each generator g}.
    """
    n, add, mul = ring.order, ring.add, ring.mul
    gens = additive_generators(add)
    coords = np.zeros((n, len(gens)), dtype=np.int64)  # x = sum coords[x] gens
    chars = np.zeros((1, 0), dtype=np.int64)  # phi(gens[:i]) per phi of H
    inside = np.arange(n) == 0  # H
    for i, g in enumerate(gens):
        multiples = [0]  # jg for j < d; x ends as dg, in H
        while not inside[x := int(add[multiples[-1], g])]:
            multiples.append(x)
        d, span = len(multiples), np.flatnonzero(inside)
        cosets = add[np.ix_(span, multiples)]  # h + jg
        coords[cosets] = coords[span, None]
        coords[cosets, i] = np.arange(d)
        inside[cosets] = True
        base = (chars @ coords[x, :i] % n // d)[:, None]  # phi(dg)/d
        chars = np.column_stack([np.repeat(chars, d, axis=0),
                                 (base + np.arange(d) * (n // d)).ravel()])
    seen = set()
    step = max(1, (1 << 16) // n)  # about 2^16 values in a block
    for lo in range(1, n, step):  # character 0 is zero, with Ann = R
        zero = chars[lo:lo + step] @ coords.T % n == 0
        for ann in np.logical_and.reduce([zero[:, mul[:, g]] for g in gens]):
            if (key := ann.tobytes()) not in seen:
                seen.add(key)
                yield ann


@memoized
def atom_spectrum(ring: FiniteRing) -> AtomSpectrum:
    """Enumerate comonoform right ideals, partition them into atoms, derive
    the atom index and the supports, and assert that the topology is
    discrete (_assert_discrete).

    The socle test of R/p (`socle_test`) decides, for each p among the
    `character_annihilators`, whether p is comonoform, and then names the
    primitive e whose top(eR) is the socle of R/p.  R/p and R/q are atom
    equivalent iff their socles are isomorphic, so the first such e keys
    the atom of p, and each e gets the atom of the top of eR, which is
    R/m for some maximal m.  Supp R/p holds the atoms of the e with R.e
    not inside p.  Canonical class representative: the ideal with
    lexicographically smallest sorted element tuple.
    """
    reg = regular_module(ring)
    prims = radical(ring).idempotents
    cols = ring.mul[:, prims]  # the columns R.e
    met = {}  # p -> (top(eR) is the socle of R/p, R.e outside p), per e
    for inside in character_annihilators(ring):
        monoform, tops = socle_test(reg, inside)
        if monoform:
            p = frozenset(np.flatnonzero(inside).tolist())
            met[p] = tops, ~inside[cols].all(0)
    met = dict(sorted(met.items(), key=lambda item: submodule_key(item[0])))
    classes: dict[int, list] = {}  # first e -> members, by submodule_key
    for p, (top, _) in met.items():
        classes.setdefault(int(prims[top.argmax()]), []).append(p)
    reps = [(min(ms, key=lambda s: tuple(sorted(s))), tuple(ms))
            for ms in classes.values()]
    reps.sort(key=lambda pair: submodule_key(pair[0]))
    atoms = tuple(Atom(id=k, canonical_rep=rep, members=ms)
                  for k, (rep, ms) in enumerate(reps))
    index = {p: atom.id for atom in atoms for p in atom.members}
    atom_of = {e: index[p] for p, (top, _) in met.items()
               for e in prims[top].tolist()}
    supports = {p: frozenset(atom_of[e] for e in prims[whole].tolist())
                for p, (_, whole) in met.items()}
    _assert_discrete(atoms, supports)
    return AtomSpectrum(ring=ring, atoms=atoms, index=MappingProxyType(index),
                        supports=MappingProxyType(supports),
                        atom_of_idempotent=MappingProxyType(atom_of))


def atom_support(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a subquotient of M.

    The spectrum is discrete, so these are the atoms of the composition
    factors of M, and the top of eR, e primitive, is one iff
    Me = Hom(eR, M) is nonzero: the atoms of the e whose column of the
    action table is not all zero.  No lattice, filtration or quotient of
    M is built.
    """
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    prims = list(spec.atom_of_idempotent)
    met = module.act[:, prims].any(axis=0).tolist()
    return frozenset(spec.atom_of_idempotent[e]
                     for e, hit in zip(prims, met) if hit)


def associated_atoms(spec: AtomSpectrum, module: RightModule) -> frozenset:
    """Atom ids with a representative occurring as a submodule of M.

    Every monoform submodule holds a simple one in its atom, so these are
    the atoms of the simple submodules: of the e with soc(M).e != 0.
    """
    if module.ring != spec.ring:
        raise SpectrumError("module is over a different ring")
    _, tops = socle_test(module, np.arange(module.order) == 0)
    prims = radical(module.ring).idempotents[tops].tolist()
    return frozenset(spec.atom_of_idempotent[e] for e in prims)


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
