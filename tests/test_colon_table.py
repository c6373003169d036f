"""The lattice-free decisions against their quotient-lattice definitions.

`is_monoform` and `is_comonoform` are one socle test, of M/0 and of R/p;
`atom_support` and `associated_atoms` read columns of M's action table
at the primitive idempotents; `monoform_filtration` reads each M/L from
the colon ideals (L : r).  The oracles here build each M/N, as the
definitions do, and take annihilator sets and annihilators of its
elements directly.  The socle criterion, the colon-table criterion with
the uniformity test, the colon table's atom support and
`atom_equivalent`, which reads the regular module's colon table, stay as
second oracles; the colon table is a twin in `atomspec.checks`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec.checks import (
    atom_equivalent,
    colon_table,
    monoform_by_colon_table,
    monoform_oracle_artinian,
)
from atomspec.modules import (
    annihilator,
    annihilator_set,
    cyclic_submodule,
    direct_sum,
    is_uniform,
    parse_module_spec,
    quotient,
    quotient_module,
    regular_module,
    submodule_lattice,
)
from atomspec.monoform import (
    Filtration,
    is_comonoform,
    is_monoform,
    monoform_filtration,
)
from atomspec.rings import zmod
from atomspec.spectrum import atom_spectrum, atom_support

from conftest import make_zoo, modules_around, trivial_extension

ZOO = make_zoo()
# local rings with V^2 = 0, whose right ideals are R and the subspaces of V
TRIVIAL_EXTENSIONS = [trivial_extension(2, k) for k in range(5)]


def is_monoform_by_quotients(module):
    """M nonzero, and annset(M) meets annset(M/N) for no nonzero N."""
    if module.order == 1:
        return False
    ann_m = annihilator_set(module)
    for sub in submodule_lattice(module):
        if len(sub) == 1:
            continue
        if ann_m & annihilator_set(quotient(module, sub)):
            return False
    return True


def atom_support_by_quotients(spec, module):
    """Atoms of the Ann(x) for x nonzero in some quotient M/N."""
    index = {ideal: atom.id for atom in spec.atoms for ideal in atom.members}
    out = set()
    for sub in submodule_lattice(module):
        quot, _ = quotient_module(module, sub)
        for x in range(1, quot.order):
            atom = index.get(annihilator(quot, x))
            if atom is not None:
                out.add(atom)
    return frozenset(out)


def atom_support_by_colon_table(spec, module):
    """Atoms among the entries of M's colon table: every (N : x) is
    Ann(x + N) in M/N, and every monoform subquotient contains a cyclic
    monoform submodule R/Ann(x + N) in the same atom."""
    return frozenset(
        spec.index[c] for row in colon_table(module).values() for c in row
        if c in spec.index
    )


def monoform_filtration_by_quotients(module):
    """Build M/L at every step, take its least element x whose annihilator
    is comonoform, and pull xR back to M."""
    full = frozenset(range(module.order))
    chain, labels = [frozenset({0})], []
    while chain[-1] != full:
        quot, proj = quotient_module(module, chain[-1])
        x = next(x for x in range(1, quot.order)
                 if is_comonoform(module.ring, annihilator(quot, x)))
        piece = cyclic_submodule(quot, x)
        chain.append(frozenset(
            e for e in range(module.order) if proj[e] in piece
        ))
        labels.append(annihilator(quot, x))
    return Filtration(chain=tuple(chain), labels=tuple(labels))


def _agree(ring, module):
    spec = atom_spectrum(ring)
    monoform = is_monoform(module)
    assert monoform == is_monoform_by_quotients(module)
    assert monoform == monoform_oracle_artinian(module)
    assert monoform == (is_uniform(module) and monoform_by_colon_table(module))
    support = atom_support(spec, module)
    assert support == atom_support_by_quotients(spec, module)
    assert support == atom_support_by_colon_table(spec, module)
    if module.order > 1:
        assert monoform_filtration(module) == (
            monoform_filtration_by_quotients(module)
        )
    for sub, row in colon_table(module).items():
        assert row == annihilator_set(quotient(module, sub))


@pytest.mark.parametrize("ring", ZOO, ids=[r.name for r in ZOO])
def test_colon_table_agrees_with_quotients(ring):
    for module in modules_around(ring):
        _agree(ring, module)


@pytest.mark.parametrize("ring", ZOO + TRIVIAL_EXTENSIONS,
                         ids=[r.name for r in ZOO + TRIVIAL_EXTENSIONS])
def test_comonoform_and_atoms_agree_with_quotients(ring):
    reg = regular_module(ring)
    spec = atom_spectrum(ring)
    proper = [p for p in submodule_lattice(reg) if len(p) < ring.order]
    for p in proper:
        assert is_comonoform(ring, p) == is_monoform_by_quotients(
            quotient(reg, p)
        )
    ideals = spec.comonoform_ideals()
    for p in ideals:
        assert spec.support_of_ideal(p) == atom_support_by_quotients(
            spec, quotient(reg, p)
        )
        for q in ideals:
            shared = annihilator_set(quotient(reg, p)) & annihilator_set(
                quotient(reg, q)
            )
            assert atom_equivalent(ring, p, q) == bool(shared)


def test_direct_sum_agrees_with_quotients():
    ring = zmod(12)
    _agree(ring, parse_module_spec(ring, "sum:regular+regular"))


SMALL_RINGS = [r for r in ZOO if r.order <= 16]


@st.composite
def small_cyclic_sums(draw, max_order=32):
    """A ring of order at most 16 and a direct sum of up to three of its
    cyclic modules R/I, a summand being skipped when the sum would pass
    max_order."""
    ring = draw(st.sampled_from(SMALL_RINGS))
    reg = regular_module(ring)
    ideals = [i for i in submodule_lattice(reg) if len(i) < ring.order]
    picks = draw(st.lists(st.sampled_from(ideals), min_size=2, max_size=3))
    module = quotient(reg, picks[0])
    for ideal in picks[1:]:
        factor = quotient(reg, ideal)
        if module.order * factor.order <= max_order:
            module = direct_sum(module, factor)
    return ring, module


@settings(max_examples=40, deadline=None)
@given(small_cyclic_sums())
def test_direct_sums_of_cyclics_agree_with_quotients(drawn):
    ring, module = drawn
    _agree(ring, module)
