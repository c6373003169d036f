from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec.checks import (
    filtration_defect,
    is_completely_prime,
    max_monoform_submodule,
    maximal_submodules,
    monoform_oracle_artinian,
)
from atomspec.modules import (
    cyclic_submodule,
    is_uniform,
    quotient,
    regular_module,
    sub_module,
    submodule_lattice,
    submodule_sum,
)
from atomspec.monoform import (
    MonoformError,
    is_comonoform,
    is_monoform,
    monoform_filtration,
    radical,
)
from atomspec.rings import parse_ring_spec, zmod

from conftest import make_zoo, posets, trivial_extension
from test_group_algebras import group_algebra
from test_incidence import incidence_algebra


def modules_of(ring, max_order=None):
    whole = regular_module(ring)
    out = []
    for members in submodule_lattice(whole):
        if len(members) == 1:
            continue
        mod = sub_module(whole, members)[0]
        if max_order is None or mod.order <= max_order:
            out.append(mod)
    return out


@pytest.mark.parametrize("spec, count", [
    # omega(n) for Z/n; 2p for tri2:p; the rank-one idempotents of M_2(F_p),
    # p^2 + p of them, and of M_3(F_2), 7 lines times 4 complements; k for
    # F_2^k
    ("zmod:1", 0), ("zmod:12", 2), ("zmod:360", 3),
    ("tri2:2", 4), ("tri2:3", 6), ("tri2:5", 10),
    ("mat:2:2", 6), ("mat:2:3", 12), ("mat:3:2", 28),
    ("zmod:2", 1), ("prod:zmod:2,zmod:2,zmod:2", 3),
    ("prod:" + ",".join(["zmod:2"] * 6), 6),
])
def test_primitive_idempotent_counts(spec, count):
    assert len(radical(parse_ring_spec(spec)).idempotents) == count


def radical_ids(ring) -> frozenset:
    return frozenset(np.flatnonzero(radical(ring).members).tolist())


@pytest.mark.parametrize("n", [1, 2, 4, 12, 36, 60, 360])
def test_radical_of_zmod_is_the_multiples_of_rad_n(n):
    # J(Z/n) = rad(n) Z/n, rad(n) the product of the primes dividing n;
    # each primitive idempotent has the top Z/p for one prime p
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and all(p % q for q in range(2, p))]
    assert radical_ids(zmod(n)) == frozenset(range(0, n, int(np.prod(primes))))
    assert sorted(radical(zmod(n)).top_orders.tolist()) == primes


@pytest.mark.parametrize("k, p", [(2, 2), (2, 3), (3, 2)])
def test_matrix_rings_have_no_radical(k, p):
    # M_k(F_p) is simple, and its simple module F_p^k is the top of eR
    # for every primitive e
    ring = parse_ring_spec(f"mat:{k}:{p}")
    rad = radical(ring)
    assert radical_ids(ring) == {0}
    assert len(rad.gens) == 0
    assert set(rad.top_orders.tolist()) == {p ** k}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_radical_of_tri2_has_p_elements(p):
    # the strictly upper triangular matrices, over F_p x F_p
    rad = radical(parse_ring_spec(f"tri2:{p}"))
    assert int(rad.members.sum()) == p
    assert rad.top_orders.tolist() == [p] * (2 * p)


@pytest.mark.parametrize("k", range(5))
def test_radical_of_a_trivial_extension_is_v(k):
    # V is spanned by e_1..e_k, the ids below 2^k
    assert radical_ids(trivial_extension(2, k)) == frozenset(range(2 ** k))


SMALL_GROUP_ALGEBRAS = [(2, "C3"), (2, "C4"), (2, "S3"), (3, "C4")]


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.sampled_from(make_zoo()),
    posets(max_points=3).map(lambda poset: incidence_algebra(2, *poset)),
    st.sampled_from(SMALL_GROUP_ALGEBRAS).map(
        lambda pg: group_algebra(*pg)),
))
def test_radical_is_the_meet_of_the_maximal_right_ideals(ring):
    reg = regular_module(ring)
    rad = radical(ring)
    assert radical_ids(ring) == reduce(frozenset.__and__,
                                       maximal_submodules(reg))
    # the generators generate J as a right ideal
    span = frozenset({0})
    for g in rad.gens.tolist():
        span = submodule_sum(reg, span, cyclic_submodule(reg, g))
    assert span == radical_ids(ring)


def test_simple_modules_are_monoform():
    whole = regular_module(zmod(12))
    for members in ({0, 6}, {0, 4, 8}):
        assert is_monoform(sub_module(whole, frozenset(members))[0])


def test_zmod4_is_uniform_but_not_monoform():
    # Z/4 and its quotient by (2) share the subobject Z/2
    module = regular_module(zmod(4))
    assert not is_monoform(module)
    assert not monoform_oracle_artinian(module)


def test_zmod12_regular_is_not_monoform():
    assert not is_monoform(regular_module(zmod(12)))


def test_comonoform_ideals_of_tri2(tri2_2):
    whole = regular_module(tri2_2)
    comono = [
        i for i in submodule_lattice(whole)
        if len(i) < whole.order and is_comonoform(tri2_2, i)
    ]
    assert set(comono) == {
        frozenset({0, 4}),
        frozenset({0, 6}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 2, 4, 6}),
    }
    assert not is_comonoform(tri2_2, frozenset({0, 2}))


def test_comonoform_equals_prime_for_zmod():
    for n in (4, 6, 12, 30):
        ring = zmod(n)
        whole = regular_module(ring)
        primes = {
            frozenset(range(0, n, p))
            for p in range(2, n)
            if n % p == 0 and all(p % q for q in range(2, p))
        }
        comono = {
            i for i in submodule_lattice(whole)
            if len(i) < n and is_comonoform(ring, i)
        }
        assert comono == primes


def test_completely_prime_matches_pairwise_definition(zoo):
    # the definition, pair by pair over the multiplication table
    for ring in zoo:
        mul = ring.mul.tolist()
        for ideal in submodule_lattice(regular_module(ring))[:-1]:
            outside = [b for b in range(ring.order) if b not in ideal]
            want = not any(
                mul[a][b] in ideal for a in outside
                if all(mul[a][i] in ideal for i in ideal) for b in outside
            )
            assert is_completely_prime(ring, ideal) == want


def test_completely_prime_converse_gap_report(zoo, capsys):
    # The converse can fail in general; over this zoo no counterexample
    # appears, so just report the count without asserting emptiness.
    gaps = 0
    for ring in zoo:
        whole = regular_module(ring)
        for ideal in submodule_lattice(whole):
            if len(ideal) == whole.order:
                continue
            if is_completely_prime(ring, ideal) and not is_comonoform(ring, ideal):
                gaps += 1
    print(f"completely prime but not comonoform: {gaps} ideals in zoo")


def test_monoform_filtration_of_zmod12():
    module = regular_module(zmod(12))
    filt = monoform_filtration(module)
    assert filt.chain[-1] == frozenset(range(12))
    # each label is the annihilator of the chosen comonoform cyclic factor
    assert filtration_defect(module) is None


def test_max_monoform_submodule_of_zmod4():
    # the socle (2) is the largest monoform submodule of Z/4
    module = regular_module(zmod(4))
    assert max_monoform_submodule(module) == frozenset({0, 2})


def test_max_monoform_submodule_of_sub():
    whole = regular_module(zmod(8))
    sub, _ = sub_module(whole, frozenset({0, 2, 4, 6}))
    assert len(max_monoform_submodule(sub)) == 2


def test_max_monoform_rejects_non_uniform():
    with pytest.raises(MonoformError):
        max_monoform_submodule(regular_module(zmod(6)))


def max_monoform_by_cyclic_modules(module):
    """Sum of the cyclic xR that are monoform as modules built from M."""
    total = frozenset({0})
    for x in range(1, module.order):
        cyc = cyclic_submodule(module, x)
        if is_monoform(sub_module(module, cyc)[0]):
            total = submodule_sum(module, total, cyc)
    return total


def test_max_monoform_agrees_with_built_cyclics(zoo):
    # max_monoform_submodule reads xR as R/Ann(x); the oracle builds xR
    compared = 0
    for ring in zoo:
        reg = regular_module(ring)
        lattice = submodule_lattice(reg)
        mods = [quotient(reg, ideal) for ideal in lattice
                if len(ideal) < ring.order]
        mods += [sub_module(reg, ideal)[0] for ideal in lattice
                 if len(ideal) > 1]
        for mod in mods:
            if is_uniform(mod):
                assert (max_monoform_submodule(mod)
                        == max_monoform_by_cyclic_modules(mod)), mod
                compared += 1
    assert compared > 0


def test_monoform_is_hereditary(zoo):
    # nonzero submodules of monoform modules are monoform
    for ring in zoo:
        if ring.order > 16:
            continue
        for mod in modules_of(ring):
            if not is_monoform(mod):
                continue
            for members in submodule_lattice(mod):
                if len(members) > 1:
                    assert is_monoform(sub_module(mod, members)[0])
