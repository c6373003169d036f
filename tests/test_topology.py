"""Open sets and Hasse covers of the discrete atom spectrum, against their
definitions.

Every atom of a finite ring holds a simple module whose support is that
atom alone, so `atom_spectrum` asserts the topology discrete;
`enumerate_open_sets` lists every subset of atoms, and `inclusion_edges`
takes the covers of a to be the a | {x}.  The oracles here are the
definitions they replaced: every subset tested with `is_open`, closure
under pairwise union and intersection, and covers found by scanning for an
open set strictly between.
"""

import itertools
from types import MappingProxyType

import pytest

from atomspec.rings import product, zmod
from atomspec.serre import enumerate_serre, inclusion_edges
from atomspec.spectrum import (
    Atom,
    AtomSpectrum,
    _assert_discrete,
    atom_spectrum,
    enumerate_open_sets,
    is_open,
)
from conftest import make_zoo


def open_sets_oracle(spec):
    """Every subset of atoms that passes is_open, checked closed under
    pairwise union and intersection."""
    k = len(spec.atoms)
    opens = [
        frozenset(sub)
        for size in range(k + 1)
        for sub in itertools.combinations(range(k), size)
        if is_open(spec, frozenset(sub))
    ]
    found = set(opens)
    for a in opens:
        for b in opens:
            assert a | b in found and a & b in found, (sorted(a), sorted(b))
    return opens


def edges_oracle(subs):
    """(i, j) with open set i strictly inside j and nothing in between."""
    return [
        (i, j)
        for i, a in enumerate(subs)
        for j, b in enumerate(subs)
        if a.open_set < b.open_set
        and not any(a.open_set < c.open_set < b.open_set for c in subs)
    ]


def assert_matches_oracles(spec):
    opens = enumerate_open_sets(spec)
    assert opens == open_sets_oracle(spec)
    subs = enumerate_serre(spec)
    assert [s.open_set for s in subs] == opens
    assert inclusion_edges(subs) == edges_oracle(subs)


def boolean_ring(k):
    return product(*[zmod(2)] * k)


# F2^2 is in the zoo
RINGS = make_zoo() + [boolean_ring(k) for k in (1, 3, 4, 5, 6, 7, 8)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda ring: ring.name)
def test_open_sets_and_edges_match_oracles_on_rings(ring):
    assert_matches_oracles(atom_spectrum(ring))


def test_atom_without_singleton_support_is_rejected():
    # atoms 0 and 1 with one member each, {-1 - x} for atom x; the member
    # of atom 0 has support {0, 1}, so {0} would not be open
    atoms = tuple(
        Atom(id=x, canonical_rep=frozenset({-1 - x}),
             members=(frozenset({-1 - x}),))
        for x in range(2)
    )
    supports = MappingProxyType({
        atoms[0].members[0]: frozenset({0, 1}),
        atoms[1].members[0]: frozenset({1}),
    })
    with pytest.raises(AssertionError, match="atom 0 has no singleton"):
        _assert_discrete(atoms, supports)
    spec = AtomSpectrum(ring=None, atoms=atoms, index=MappingProxyType({}),
                        supports=supports,
                        atom_of_idempotent=MappingProxyType({}))
    assert not is_open(spec, frozenset({0}))
