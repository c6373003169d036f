"""Group algebras F_p[G] as known answers for the atom spectrum.

The atoms of a finite ring are the isomorphism classes of its simple
modules.  The simple F_p[G]-modules are counted by the F_p-conjugacy
classes of p-regular elements, where g ~ g^p also merges classes
(Brauer's count, with Berman's refinement for F_p).  None of the other
known-answer families has a simple module whose endomorphism field is
larger than F_p; F_2[C_3] = F_2 x F_4 has one.
"""

import pytest

from atomspec.checks import check_suite
from atomspec.rings import fp_algebra
from atomspec.spectrum import atom_spectrum

from conftest import central_idempotents_mod_radical


def _group(gens, mul, identity) -> list:
    """The elements of the finite group that gens generate, identity first:
    closing under right multiplication by gens, which suffices in a finite
    group."""
    elements = [identity]
    for x in elements:  # grows while it is read
        for g in gens:
            y = mul(x, g)
            if y not in elements:
                elements.append(y)
    return elements


def _compose(x, y):
    return tuple(x[i] for i in y)


def _matmul_f3(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) % 3 for j in range(2))
        for i in range(2)
    )


def _cyclic(n):
    return _group([tuple((i + 1) % n for i in range(n))], _compose,
                  tuple(range(n)))


GROUPS = {  # name: (elements, product)
    "C3": (_cyclic(3), _compose),
    "C4": (_cyclic(4), _compose),
    "S3": (_group([(1, 0, 2), (1, 2, 0)], _compose, (0, 1, 2)), _compose),
    "D4": (_group([(1, 2, 3, 0), (3, 2, 1, 0)], _compose, (0, 1, 2, 3)),
           _compose),
    # i and j in SL(2, 3), with i^2 = j^2 = -1 and ij = -ji
    "Q8": (_group([((0, 1), (2, 0)), ((1, 1), (1, 2))], _matmul_f3,
                  ((1, 0), (0, 1))), _matmul_f3),
}


def group_algebra(p: int, name: str):
    """F_p[G] with basis e_g and e_g e_h = e_gh."""
    elements, mul = GROUPS[name]
    index = {g: i for i, g in enumerate(elements)}
    d = len(elements)
    consts = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            consts[i][j][index[mul(g, h)]] = 1
    unit = [1] + [0] * (d - 1)
    return fp_algebra(p, d, consts, unit, name=f"F_{p}[{name}]")


def test_groups_are_the_named_groups():
    # order, whether abelian, and the number of g with g^2 = 1, which
    # tells D4 (6) from Q8 (2)
    def invariants(elements, mul):
        identity = elements[0]
        abelian = all(mul(g, h) == mul(h, g) for g in elements for h in elements)
        return (len(elements), abelian,
                sum(mul(g, g) == identity for g in elements))

    assert {name: invariants(*g) for name, g in GROUPS.items()} == {
        "C3": (3, True, 1), "C4": (4, True, 2), "S3": (6, False, 4),
        "D4": (8, False, 6), "Q8": (8, False, 2),
    }


@pytest.mark.parametrize("p, name, atoms", [
    (2, "C3", 2),  # F_2 x F_4
    (3, "C4", 3),  # F_3 x F_3 x F_9
    (5, "C4", 4),  # F_5^4, as 4 divides 5 - 1
    (2, "S3", 2),  # trivial and the 2-dimensional module
    (3, "S3", 2),  # trivial and sign; the 3-regular classes are 1 and (12)
    (2, "D4", 1),  # a 2-group over F_2 is local
    (2, "Q8", 1),
])
def test_atom_count_is_the_number_of_simple_modules(p, name, atoms):
    ring = group_algebra(p, name)
    assert ring.order == p ** len(GROUPS[name][0])
    assert len(atom_spectrum(ring).atoms) == atoms
    assert central_idempotents_mod_radical(ring) == 2 ** atoms


@pytest.mark.parametrize("p, name", [(2, "C3"), (2, "S3"), (3, "C4")])
def test_check_suite_passes(p, name):
    report = check_suite(group_algebra(p, name))
    assert report["passed"], [
        q for q in report["properties"] if not q["passed"]
    ]
