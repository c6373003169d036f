"""The colon-table decisions against their quotient-lattice definitions.

`is_monoform`, `is_comonoform`, `atom_equivalent`, `atom_support` and the
cached supports of the R/p read every quotient M/N from the colon table
of M.  The oracles here build each M/N, as the definitions do, and take
annihilator sets and annihilators of its elements directly.
"""

import pytest

from atomspec.modules import (
    annihilator,
    annihilator_set,
    colon_table,
    parse_module_spec,
    quotient,
    quotient_module,
    regular_module,
    sub_module,
    submodule_lattice,
)
from atomspec.monoform import is_comonoform, is_monoform
from atomspec.rings import zmod
from atomspec.spectrum import atom_equivalent, atom_spectrum, atom_support

from conftest import make_zoo

ZOO = make_zoo()


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


def modules_around(ring):
    """The regular module, every quotient and every submodule of it."""
    reg = regular_module(ring)
    lattice = submodule_lattice(reg)
    return (
        [reg]
        + [quotient(reg, sub) for sub in lattice]
        + [sub_module(reg, sub)[0] for sub in lattice]
    )


def _agree(ring, module):
    spec = atom_spectrum(ring)
    assert is_monoform(module) == is_monoform_by_quotients(module)
    assert atom_support(spec, module) == atom_support_by_quotients(spec, module)
    for sub, row in colon_table(module).items():
        assert row == annihilator_set(quotient(module, sub))


@pytest.mark.parametrize("ring", ZOO, ids=[r.name for r in ZOO])
def test_colon_table_agrees_with_quotients(ring):
    for module in modules_around(ring):
        _agree(ring, module)


@pytest.mark.parametrize("ring", ZOO, ids=[r.name for r in ZOO])
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
