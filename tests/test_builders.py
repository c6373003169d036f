"""The numpy module builders against the nested-loop definitions.

`is_submodule`, `quotient_module`, `sub_module` and `direct_sum` work on
whole numpy tables.  The oracles below walk the tables as lists, element
by element, as the definitions read, and the builders must reproduce
their tables, projection and inclusion maps and provenance strings
exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec.modules import (
    RightModule,
    direct_sum,
    is_submodule,
    parse_module_spec,
    quotient_module,
    regular_module,
    sub_module,
    submodule_lattice,
    table_dtype,
)
from atomspec.rings import zmod

from conftest import make_zoo, modules_around

ZOO = make_zoo()


def is_submodule_oracle(module, members):
    if 0 not in members:
        return False
    if any(not 0 <= x < module.order for x in members):
        return False
    add, act = module.add.tolist(), module.act.tolist()
    for x in members:
        for y in members:
            if add[x][y] not in members:
                return False
        for a in range(module.ring.order):
            if act[x][a] not in members:
                return False
    return True


def quotient_module_oracle(module, sub):
    """Representatives are the first element of each coset in id order."""
    add, act = module.add.tolist(), module.act.tolist()
    rep_of = [-1] * module.order
    reps = []
    for x in range(module.order):
        if rep_of[x] == -1:
            for y in {add[x][s] for s in sub}:
                rep_of[y] = x
            reps.append(x)
    index = {rep: i for i, rep in enumerate(reps)}
    proj = tuple(index[rep_of[x]] for x in range(module.order))
    q_add = tuple(tuple(proj[add[r1][r2]] for r2 in reps) for r1 in reps)
    q_act = tuple(
        tuple(proj[act[r][a]] for a in range(module.ring.order)) for r in reps
    )
    quot = RightModule(
        ring=module.ring, order=len(reps), add=q_add, act=q_act,
        provenance=f"({module.provenance})/{sorted(sub)}",
    )
    return quot, proj


def sub_module_oracle(module, sub):
    add, act = module.add.tolist(), module.act.tolist()
    incl = tuple(sorted(sub))
    index = {x: i for i, x in enumerate(incl)}
    s_add = tuple(tuple(index[add[x][y]] for y in incl) for x in incl)
    s_act = tuple(
        tuple(index[act[x][a]] for a in range(module.ring.order))
        for x in incl
    )
    new = RightModule(
        ring=module.ring, order=len(incl), add=s_add, act=s_act,
        provenance=f"sub{sorted(sub)} of ({module.provenance})",
    )
    return new, incl


def direct_sum_oracle(a, b):
    nb = b.order
    a_add, a_act = a.add.tolist(), a.act.tolist()
    b_add, b_act = b.add.tolist(), b.act.tolist()
    add = tuple(
        tuple(
            a_add[x1][x2] * nb + b_add[y1][y2]
            for x2 in range(a.order) for y2 in range(nb)
        )
        for x1 in range(a.order) for y1 in range(nb)
    )
    act = tuple(
        tuple(a_act[x][r] * nb + b_act[y][r] for r in range(a.ring.order))
        for x in range(a.order) for y in range(nb)
    )
    return RightModule(
        ring=a.ring, order=a.order * nb, add=add, act=act,
        provenance=f"({a.provenance})+({b.provenance})",
    )


def assert_same_module(got, want):
    assert got == want
    assert got.provenance == want.provenance
    # the tables hold the same ids in the same dtype
    assert got.add.dtype == got.act.dtype == table_dtype(got.order)
    assert want.add.dtype == want.act.dtype == table_dtype(got.order)
    assert got.add.tolist() == want.add.tolist()
    assert got.act.tolist() == want.act.tolist()


def assert_builders_agree(module):
    for sub in submodule_lattice(module):
        quot, proj = quotient_module(module, sub)
        want_quot, want_proj = quotient_module_oracle(module, sub)
        assert_same_module(quot, want_quot)
        assert proj == want_proj
        assert all(type(i) is int for i in proj)
        inner, incl = sub_module(module, sub)
        want_inner, want_incl = sub_module_oracle(module, sub)
        assert_same_module(inner, want_inner)
        assert incl == want_incl
        assert all(type(i) is int for i in incl)


@pytest.mark.parametrize("ring", ZOO, ids=lambda r: r.name)
def test_builders_match_nested_loops(ring):
    for module in modules_around(ring):
        assert_builders_agree(module)


@pytest.mark.parametrize("ring", ZOO, ids=lambda r: r.name)
def test_direct_sum_matches_nested_loops(ring):
    # R+R over zmod:36 and zmod:60 has 1.7M and 13M table entries, which
    # the oracle would walk in Python; their quotients' sums are checked
    if ring.order <= 30:
        reg = regular_module(ring)
        want = direct_sum_oracle(reg, reg)
        summed = parse_module_spec(ring, "sum:regular+regular")
        assert summed == want
        assert summed.provenance == "sum:regular+regular"
        assert_same_module(direct_sum(reg, reg), want)
    quotients = modules_around(ring)[1::2]
    for a, b in zip(quotients, quotients[::-1]):
        assert_same_module(direct_sum(a, b), direct_sum_oracle(a, b))


@pytest.mark.parametrize("ring", [r for r in ZOO if r.order <= 12],
                         ids=lambda r: r.name)
def test_builders_on_sum_of_regular(ring):
    assert_builders_agree(parse_module_spec(ring, "sum:regular+regular"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_submodule_agrees_with_oracle(data):
    ring = data.draw(st.sampled_from(ZOO))
    module = data.draw(st.sampled_from(modules_around(ring)))
    m = module.order
    # ids may fall outside 0..m-1 and may leave out 0
    members = frozenset(data.draw(st.sets(st.integers(-2, m + 2), max_size=m)))
    assert is_submodule(module, members) == is_submodule_oracle(module, members)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_is_submodule_on_unions_of_submodules(data):
    # unions of submodules are often closed, so both answers occur
    ring = data.draw(st.sampled_from(ZOO))
    module = regular_module(ring)
    lattice = submodule_lattice(module)
    picks = data.draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=3))
    members = frozenset().union(*picks)
    assert is_submodule(module, members) == is_submodule_oracle(module, members)


@pytest.mark.parametrize("order, dtype", [
    (1, np.int8), (128, np.int8), (129, np.int16), (4096, np.int16),
    (32768, np.int16), (32769, np.int32), (2**31, np.int32),
    (2**31 + 1, np.int64),
])
def test_table_dtype_is_smallest_signed_holding_ids(order, dtype):
    assert table_dtype(order) == np.dtype(dtype)
    assert np.iinfo(dtype).max >= order - 1


def test_tables_are_computed_once_and_read_only(zmod12):
    module = regular_module(zmod12)
    add, act = module.add, module.act
    assert add is module.ring.add and act is module.ring.mul
    assert add.dtype == np.int8
    with pytest.raises(ValueError):
        add[0, 0] = 1
    # equality and the hash come from the tables only, not the provenance
    copy = RightModule(ring=zmod12, order=module.order, add=module.add,
                       act=module.act, provenance="copy")
    assert copy == module and hash(copy) == hash(module)
    assert copy.add is add and copy.act is act


@pytest.mark.parametrize("n", [64, 128])
def test_direct_sum_at_the_int8_boundary(n):
    # the sum's order is 128 (the largest int8 table) or 256; a product
    # computed in int8 would wrap
    ring = zmod(n)
    reg = regular_module(ring)
    small = quotient_module(reg, frozenset(range(0, n, 2)))[0]  # order 2
    zero = quotient_module(reg, frozenset(range(n)))[0]  # order 1
    for a, b in [(zero, reg), (reg, zero), (small, reg), (reg, small)]:
        assert_same_module(direct_sum(a, b), direct_sum_oracle(a, b))
