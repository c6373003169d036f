import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest

from atomspec import modules
from atomspec.checks import (
    composition_factors,
    composition_factors_top_down,
    embeds_in,
    is_isomorphic,
    is_uniform_bruteforce,
    maximal_submodules,
    minimal_generating_sequence,
    socle,
    validate_module,
)
from atomspec.modules import (
    NotASubmoduleError,
    RightModule,
    annihilator,
    annihilator_set,
    cyclic_submodule,
    direct_sum,
    is_submodule,
    is_uniform,
    minimal_submodules,
    parse_module_spec,
    quotient,
    quotient_module,
    regular_module,
    sub_module,
    submodule_lattice,
    submodule_sum,
)
from atomspec.rings import CapExceededError, mat, product, tri2, zmod

from conftest import TABLE_FORMS, peak_bytes, table_in_form


def composition_length(module: RightModule) -> int:
    """Length of a composition series, from the factor multiplicities."""
    return sum(composition_factors(module).values())


def shares_nonzero_submodule(a: RightModule, b: RightModule) -> bool:
    """Whether a and b have isomorphic nonzero submodules, read from the
    annihilator sets as annihilator_set's docstring explains."""
    return bool(annihilator_set(a) & annihilator_set(b))


def minimal_submodules_pairwise(module: RightModule) -> list[frozenset]:
    """Minimal nonzero submodules, by comparing every pair of cyclics."""
    cyclics = {cyclic_submodule(module, x) for x in range(1, module.order)}
    cyclics.discard(frozenset({0}))
    return sorted(
        (c for c in cyclics
         if not any(o < c for o in cyclics if o != c)),
        key=modules.submodule_key,
    )


def brute_force_submodules(module):
    """Independent oracle: test every subset containing 0 (order <= 12)."""
    elems = [x for x in range(module.order) if x != 0]
    found = []
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            members = frozenset((0,) + combo)
            if is_submodule(module, members):
                found.append(members)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def pruned_subset_scan(module):
    """Every subset containing 0, decided element by element in id order.

    A branch stops once a sum or multiple of chosen elements is an element
    already decided out, since no closed set extends it; each surviving
    subset is still tested with is_submodule.
    """
    m, n = module.order, module.ring.order
    add, act = module.add, module.act
    found = []

    def extend(x, chosen, forced):
        if x == m:
            if is_submodule(module, chosen):
                found.append(chosen)
            return
        new = {add[x][y] for y in chosen} | {add[x][x]} | set(act[x])
        if all(f > x or f in chosen for f in new - {x}):
            extend(x + 1, chosen | {x}, forced | new)
        if x not in forced:
            extend(x + 1, chosen, forced)

    extend(1, frozenset({0}), frozenset())
    return found


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_zmod12_lattice_matches_divisor_lattice():
    ring = zmod(12)
    module = regular_module(ring)
    lattice = submodule_lattice(module)
    expected = [
        frozenset(range(0, 12, d)) for d in divisors(12)
    ]
    assert sorted(lattice, key=sorted) == sorted(expected, key=sorted)
    assert len(lattice) == 6


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_lattice_agrees_with_brute_force(n):
    module = regular_module(zmod(n))
    assert sorted(submodule_lattice(module), key=sorted) == sorted(
        brute_force_submodules(module), key=sorted
    )


def test_tri2_lattice_agrees_with_brute_force():
    module = regular_module(tri2(2))
    lattice = sorted(submodule_lattice(module), key=sorted)
    assert lattice == sorted(brute_force_submodules(module), key=sorted)
    assert sorted(len(s) for s in lattice) == [1, 2, 2, 2, 4, 4, 8]


@pytest.mark.parametrize("make", [
    lambda: regular_module(tri2(3)),
    lambda: regular_module(mat(2, 2)),
    lambda: regular_module(product(*[zmod(2)] * 4)),
    lambda: direct_sum(regular_module(zmod(6)), regular_module(zmod(6))),
], ids=["tri2:3", "mat:2:2", "F2^4", "zmod:6+zmod:6"])
def test_lattice_agrees_with_pruned_subset_scan(make):
    module = make()
    lattice = submodule_lattice(module)
    assert list(lattice) == sorted(lattice, key=lambda s: (len(s), sorted(s)))
    assert sorted(lattice, key=sorted) == sorted(
        pruned_subset_scan(module), key=sorted
    )


def test_pruned_subset_scan_agrees_with_brute_force():
    for n in (4, 6, 8, 12):
        module = regular_module(zmod(n))
        assert sorted(pruned_subset_scan(module), key=sorted) == sorted(
            brute_force_submodules(module), key=sorted
        )


def test_lattice_cap_is_enforced(monkeypatch):
    # zmod:12 has six ideals, each kept as 12 bytes; the cap is read when
    # the lattice is built
    module = regular_module(zmod(12))
    monkeypatch.setattr(modules, "DEFAULT_LATTICE_CAP", 3 * 12)
    with pytest.raises(CapExceededError):
        submodule_lattice(module)
    monkeypatch.setattr(modules, "DEFAULT_LATTICE_CAP", 6 * 12)
    assert len(submodule_lattice(module)) == 6


def test_equal_modules_hash_alike():
    ring = zmod(6)
    a = direct_sum(regular_module(ring), regular_module(ring))
    b = direct_sum(regular_module(zmod(6)), regular_module(zmod(6)))
    renamed = RightModule(ring=ring, order=a.order, add=a.add, act=a.act,
                          provenance="other")
    assert a is not b
    for other in (b, renamed):
        assert a == other
        assert hash(a) == hash(other)
    assert a != regular_module(zmod(36))
    assert len({a, b, renamed, regular_module(ring)}) == 2


def test_cyclic_and_generated_submodules():
    ring = zmod(12)
    module = regular_module(ring)
    assert cyclic_submodule(module, 4) == frozenset({0, 4, 8})
    generated = functools.reduce(
        lambda total, x: submodule_sum(module, total, cyclic_submodule(module, x)),
        [4, 6], frozenset({0}))
    assert generated == frozenset({0, 2, 4, 6, 8, 10})
    assert submodule_sum(
        module, frozenset({0, 4, 8}), frozenset({0, 6})
    ) == frozenset({0, 2, 4, 6, 8, 10})


def test_annihilators_in_zmod12():
    module = regular_module(zmod(12))
    assert annihilator(module, 6) == frozenset(range(0, 12, 2))
    assert annihilator(module, 4) == frozenset({0, 3, 6, 9})
    assert annihilator(module, 1) == frozenset({0})


def test_annihilator_set_of_quotient():
    ring = zmod(12)
    module = regular_module(ring)
    quot = quotient(module, frozenset(range(0, 12, 2)))
    # Z/12 / (2) has order 2, every nonzero element killed by the evens
    assert annihilator_set(quot) == frozenset({frozenset(range(0, 12, 2))})


def test_quotient_module_projection():
    ring = zmod(12)
    module = regular_module(ring)
    quot, proj = quotient_module(module, frozenset({0, 6}))
    assert quot.order == 6
    validate_module(quot)
    # projection is additive and R-linear
    for x in range(module.order):
        for y in range(module.order):
            assert proj[module.add[x][y]] == quot.add[proj[x]][proj[y]]
        for r in range(ring.order):
            assert proj[module.act[x][r]] == quot.act[proj[x]][r]


def test_sub_module_inclusion():
    module = regular_module(zmod(12))
    sub, incl = sub_module(module, frozenset({0, 4, 8}))
    assert sub.order == 3
    validate_module(sub)
    assert sorted(incl) == [0, 4, 8]
    with pytest.raises(NotASubmoduleError):
        sub_module(module, frozenset({0, 5}))


def test_socle_of_zmod12():
    module = regular_module(zmod(12))
    assert socle(module) == frozenset(range(0, 12, 2))


def test_minimal_and_maximal_submodules_zmod12():
    module = regular_module(zmod(12))
    assert sorted(minimal_submodules(module), key=sorted) == [
        frozenset({0, 4, 8}),
        frozenset({0, 6}),
    ]
    assert sorted(maximal_submodules(module), key=sorted) == [
        frozenset(range(0, 12, 2)),
        frozenset({0, 3, 6, 9}),
    ]


def test_composition_factors_zmod12():
    module = regular_module(zmod(12))
    factors = composition_factors(module)
    # Z/12 has factors Z/2, Z/2, Z/3: two distinct simple classes
    assert sorted(factors.values()) == [1, 2]
    assert composition_length(module) == 3
    assert factors == composition_factors_top_down(module)


def test_series_independence_on_tri2(tri2_2):
    module = regular_module(tri2_2)
    assert composition_factors(module) == composition_factors_top_down(module)
    assert composition_length(module) == 3


def test_direct_sum_and_isomorphism():
    whole = regular_module(zmod(6))
    twos, _ = sub_module(whole, frozenset({0, 3}))
    threes, _ = sub_module(whole, frozenset({0, 2, 4}))
    summed = direct_sum(twos, threes)
    validate_module(summed)
    assert summed.order == 6
    # (3) (+) (2) recovers Z/6 itself
    assert is_isomorphic(summed, whole)


def test_isomorphism_rejects_different_structures():
    ring = zmod(4)
    whole = regular_module(ring)
    sub, _ = sub_module(whole, frozenset({0, 2}))
    two_subs = direct_sum(sub, sub)
    assert whole.order == two_subs.order == 4
    assert not is_isomorphic(whole, two_subs)
    assert is_isomorphic(two_subs, direct_sum(sub, sub))


def test_shares_nonzero_submodule_matches_embedding_oracle():
    ring = zmod(12)
    whole = regular_module(ring)
    lattice = submodule_lattice(whole)
    mods = [sub_module(whole, s)[0] for s in lattice if len(s) > 1]
    for a in mods:
        for b in mods:
            shared = shares_nonzero_submodule(a, b)
            # oracle: some nonzero submodule of a embeds in b
            witness = any(
                len(s) > 1 and embeds_in(sub_module(a, s)[0], b)
                for s in submodule_lattice(a)
            )
            assert shared == witness


def test_uniformity_oracle_agreement(zoo):
    for ring in zoo:
        whole = regular_module(ring)
        for members in submodule_lattice(whole):
            if len(members) == 1:
                continue
            module = sub_module(whole, members)[0]
            assert is_uniform(module) == is_uniform_bruteforce(module)


def test_minimal_submodules_match_pairwise_oracle(zoo):
    for ring in zoo:
        whole = regular_module(ring)
        lattice = submodule_lattice(whole)
        mods = [direct_sum(whole, whole)]
        for members in lattice:
            mods += [quotient(whole, members), sub_module(whole, members)[0]]
        for module in mods:
            assert minimal_submodules(module) == minimal_submodules_pairwise(module)
    # order 128 is the largest whose ids fit int8, the smallest table dtype
    for module in (regular_module(zmod(128)),
                   parse_module_spec(zmod(2), "sum:" + "+".join(["regular"] * 7))):
        assert minimal_submodules(module) == minimal_submodules_pairwise(module)


def test_minimal_submodules_read_the_action_table_in_blocks():
    # an order x order intp temporary would be 32 MiB at order 2048
    module = regular_module(zmod(2048))
    minimal, peak = peak_bytes(lambda: minimal_submodules(module))
    assert minimal == [frozenset({0, 1024})]
    assert peak < 16 << 20


def test_minimal_generating_sequence():
    ring = zmod(12)
    module = regular_module(ring)
    assert minimal_generating_sequence(module) == [1]
    # the Klein module over Z/2 needs two generators
    klein = direct_sum(regular_module(zmod(2)), regular_module(zmod(2)))
    assert len(minimal_generating_sequence(klein)) == 2


def test_cyclic_quotient_isomorphism(zoo):
    # R/Ann(x) is isomorphic to xR for cyclic submodules
    for ring in zoo:
        if ring.order > 16:
            continue
        whole = regular_module(ring)
        for x in range(whole.order):
            cyc, _ = sub_module(whole, cyclic_submodule(whole, x))
            quot = quotient(whole, annihilator(whole, x))
            assert is_isomorphic(cyc, quot)


def test_parse_module_spec_forms(zmod12):
    whole = regular_module(zmod12)
    assert parse_module_spec(zmod12, "regular") == whole
    assert parse_module_spec(zmod12, "cyclic:4").order == 3
    assert parse_module_spec(zmod12, "quot:0,6").order == 6
    assert parse_module_spec(zmod12, "sub:0,4,8").order == 3
    summed = parse_module_spec(zmod12, "sum:cyclic:4+cyclic:6")
    assert summed.order == 6


@pytest.mark.parametrize("form", TABLE_FORMS)
def test_module_identity_is_the_digest_of_its_tables(form):
    module = parse_module_spec(tri2(2), "sum:regular+quot:0,2")
    built = RightModule(ring=tri2(2), order=module.order,
                        add=table_in_form(module.add, form),
                        act=table_in_form(module.act, form))
    assert built.add.dtype == built.act.dtype == np.int8
    assert built == module and hash(built) == hash(module)
    act = module.act.copy()
    act[1, 1] = 0
    assert RightModule(ring=module.ring, order=module.order, add=module.add,
                       act=act) != module


def test_submodule_ids_are_python_ints():
    reg = regular_module(tri2(3))
    lattice = submodule_lattice(reg)
    quot, proj = quotient_module(reg, lattice[1])
    sub, incl = sub_module(reg, lattice[-2])
    ids = [*itertools.chain.from_iterable(lattice), *proj, *incl,
           *cyclic_submodule(reg, 5), *cyclic_submodule(quot, 1),
           *annihilator(sub, 1), *submodule_sum(reg, lattice[1], lattice[2])]
    assert {type(i) for i in ids} == {int}


def test_order_3600_module_stays_small():
    # the tables of R+R over zmod:60 hold 13M entries; as Python ints
    # they took over 600 MB
    code = (
        "from atomspec.modules import parse_module_spec\n"
        "from atomspec.rings import zmod\n"
        "hash(parse_module_spec(zmod(60), 'sum:regular+regular'))\n"
        "import resource\n"
        "try:  # ru_maxrss also holds the parent's resident set at the spawn\n"
        "    status = open('/proc/self/status').read()\n"
        "    print(status.split('VmHWM:')[1].split()[0])\n"
        "except OSError:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert int(proc.stdout) < 250 * 1024  # kB
