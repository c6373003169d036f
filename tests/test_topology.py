"""Open sets and Hasse covers from minimal open neighbourhoods, against
their definitions.

`enumerate_open_sets` takes the unions of the minimal open neighbourhoods
U_a, and `inclusion_edges` the minimal sets among the a | U_x.  The oracles
here are the definitions they replaced: every subset tested with
`is_open`, closure under pairwise union and intersection, and covers found
by scanning for an open set strictly between.  They run on rings, whose
topology is discrete, and on spectra built from the down-sets of posets,
whose topology is not.
"""

import itertools
from types import MappingProxyType

import pytest
from hypothesis import given, settings

from atomspec.rings import product, zmod
from atomspec.serre import enumerate_serre, inclusion_edges
from atomspec.spectrum import (
    Atom,
    AtomSpectrum,
    _atom_classes,
    _minimal_neighbourhoods,
    atom_spectrum,
    enumerate_open_sets,
    is_open,
)
from conftest import make_zoo, posets


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
    spec = atom_spectrum(ring)
    # finite rings have a discrete atom spectrum
    assert spec.neighbourhoods == tuple(
        frozenset({atom.id}) for atom in spec.atoms
    )
    assert_matches_oracles(spec)


def poset_spectrum(k, less, supports_of=None):
    """Atoms 0..k-1 with one member each, {-1 - x} for atom x, whose
    support is the down-set of x unless supports_of gives it."""
    below = {x: {x} | {y for y, z in less if z == x} for x in range(k)}
    atoms = tuple(
        Atom(id=x, canonical_rep=frozenset({-1 - x}),
             members=(frozenset({-1 - x}),))
        for x in range(k)
    )
    supports = {
        atom.members[0]: frozenset(
            supports_of[atom.id] if supports_of else below[atom.id]
        )
        for atom in atoms
    }
    return AtomSpectrum(
        ring=None,
        atoms=atoms,
        index=MappingProxyType({a.members[0]: a.id for a in atoms}),
        supports=MappingProxyType(supports),
        neighbourhoods=_minimal_neighbourhoods(atoms, supports),
    )


@settings(max_examples=60, deadline=None)
@given(posets(max_points=7))
def test_open_sets_and_edges_match_oracles_on_posets(poset):
    k, less = poset
    spec = poset_spectrum(k, less)
    downsets = {
        frozenset(sub)
        for size in range(k + 1)
        for sub in itertools.combinations(range(k), size)
        if all(y in sub for y, x in less if x in sub)
    }
    assert set(enumerate_open_sets(spec)) == downsets
    assert_matches_oracles(spec)


def test_neighbourhood_that_is_not_open_is_rejected():
    # U_0 = {0, 1} holds atom 1, but U_1 = {1, 2} is not inside it
    with pytest.raises(AssertionError, match="not open"):
        poset_spectrum(3, [], supports_of=[{0, 1}, {1, 2}, {2}])


def test_neighbourhood_must_hold_its_atom():
    with pytest.raises(AssertionError, match="no least"):
        poset_spectrum(2, [], supports_of=[{1}, {1}])


def test_row_meeting_two_atom_classes_is_rejected():
    p, q, r = frozenset({1}), frozenset({2}), frozenset({3})
    table = {p: frozenset({"a"}), q: frozenset({"b"}),
             r: frozenset({"a", "b"})}
    assert _atom_classes([p, r, q], table) == [[p, r, q]]
    with pytest.raises(AssertionError, match="not transitive"):
        _atom_classes([p, q, r], table)
