"""Known answers from incidence algebras of random small posets.

F_2 I(P) has basis the intervals [x, y] of P, x <= y, with
[x, y][y, w] = [x, w] and every other product zero, and unit the sum of
the [x, x] (Stanley, Enumerative Combinatorics I, section 3.6).  It is a
finite-dimensional algebra with one simple module per point of P, so its
atom spectrum is discrete with |P| points (Kanda 2012): every subset is
open, giving 2^|P| Serre subcategories whose inclusion order is a Boolean
lattice with |P| * 2^(|P|-1) covering edges.
"""

import itertools

from hypothesis import example, given, settings

from atomspec.rings import fp_algebra
from atomspec.serre import enumerate_serre, inclusion_edges
from atomspec.spectrum import atom_spectrum
from conftest import (
    central_idempotents_mod_radical,
    incidence_constants,
    posets,
)


def incidence_algebra(p, k, less):
    """F_p I(P) through its structure constants."""
    d, consts, unit = incidence_constants(k, less)
    return fp_algebra(p, d, consts, unit, name=f"F{p}I({k}, {less})")


FOUR_CHAIN = (4, list(itertools.combinations(range(4), 2)))  # order 1024


@settings(max_examples=12, deadline=None)
@given(posets())
@example(FOUR_CHAIN)
def test_incidence_algebra_has_one_atom_per_point(poset):
    k, less = poset
    ring = incidence_algebra(2, k, less)
    assert ring.order == 2 ** (k + len(less))
    spec = atom_spectrum(ring)
    assert len(spec.atoms) == k
    assert central_idempotents_mod_radical(ring) == 2 ** len(spec.atoms)
    subs = enumerate_serre(spec)
    assert len(subs) == 2 ** k
    assert len(inclusion_edges(subs)) == k * 2 ** (k - 1)

