from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec import checks
from atomspec.checks import (
    atom_equivalent,
    classical_support,
    commutative_crosscheck,
    prime_ideals,
)
from atomspec.modules import (
    direct_sum,
    quotient,
    regular_module,
    sub_module,
    submodule_key,
    submodule_lattice,
)
from atomspec.monoform import is_comonoform
from atomspec.rings import mat, parse_ring_spec, product, run_memo, tri2, zmod
from atomspec.spectrum import (
    SpectrumError,
    atom_spectrum,
    atom_support,
    enumerate_open_sets,
    is_open,
)

from conftest import (
    central_idempotents_mod_radical,
    make_zoo,
    posets,
    trivial_extension,
)
from test_group_algebras import group_algebra
from test_incidence import incidence_algebra

# element id of the lower triangular ring over F_2: 4*a11 + 2*a21 + a22
E21 = frozenset({0, 2})  # span of E21, the only non-comonoform proper ideal


def omega(n):
    return sum(
        1 for p in range(2, n + 1)
        if n % p == 0 and all(p % q for q in range(2, p))
    )


def test_tri2_spectrum_matches_hand_computation(tri2_2):
    spec = atom_spectrum(tri2_2)
    assert len(spec.atoms) == 2
    flat = sorted(
        sorted(ideal) for atom in spec.atoms for ideal in atom.members
    )
    assert flat == [[0, 1, 2, 3], [0, 2, 4, 6], [0, 4], [0, 6]]
    # the strict lower triangular span is not comonoform
    assert E21 not in spec.index


def test_tri2_atom_equivalences(tri2_2):
    spec = atom_spectrum(tri2_2)
    # E11 R, (E11 + E21) R, and the maximal ideal with a11 = 0 collapse
    # into one atom; the maximal ideal with a22 = 0 stands alone
    p_a = frozenset({0, 4})
    m_1 = frozenset({0, 1, 2, 3})
    m_2 = frozenset({0, 2, 4, 6})
    diag = frozenset({0, 6})
    atom_of = spec.index
    assert atom_equivalent(tri2_2, p_a, m_1) == (atom_of[p_a] == atom_of[m_1])
    assert atom_of[p_a] == atom_of[m_1] == atom_of[diag]
    assert atom_of[p_a] != atom_of[m_2]


def test_zmod_spectra_are_singleton_classes():
    for n in (4, 6, 8, 12, 30, 36, 60):
        ring = zmod(n)
        spec = atom_spectrum(ring)
        assert len(spec.atoms) == omega(n)
        for atom in spec.atoms:
            assert len(atom.members) == 1


def test_mat22_has_one_atom():
    spec = atom_spectrum(mat(2, 2))
    assert len(spec.atoms) == 1


def test_atom_support_of_zmod12_modules(zmod12):
    spec = atom_spectrum(zmod12)
    whole = regular_module(zmod12)
    by_rep = {
        tuple(sorted(atom.canonical_rep)): atom.id for atom in spec.atoms
    }
    a2 = by_rep[tuple(range(0, 12, 2))]
    a3 = by_rep[(0, 3, 6, 9)]
    assert atom_support(spec, whole) == frozenset({a2, a3})
    assert atom_support(spec, quotient(whole, frozenset(range(0, 12, 2)))) == \
        frozenset({a2})
    assert atom_support(spec, sub_module(whole, frozenset({0, 4, 8}))[0]) == \
        frozenset({a3})
    assert atom_support(spec, quotient(whole, frozenset(range(12)))) == \
        frozenset()


def test_support_additive_over_direct_sums(zmod12):
    spec = atom_spectrum(zmod12)
    whole = regular_module(zmod12)
    evens, _ = sub_module(whole, frozenset(range(0, 12, 2)))
    threes, _ = sub_module(whole, frozenset({0, 3, 6, 9}))
    assert atom_support(spec, direct_sum(evens, threes)) == \
        atom_support(spec, evens) | atom_support(spec, threes)


def test_open_sets_of_tri2(tri2_2):
    # the ring is artinian so the topology is discrete: all four subsets
    spec = atom_spectrum(tri2_2)
    opens = enumerate_open_sets(spec)
    assert sorted(map(sorted, opens)) == [[], [0], [0, 1], [1]]
    for phi in opens:
        assert is_open(spec, phi)


def test_zmod_open_sets_are_full_powerset():
    for n in (4, 12, 30):
        spec = atom_spectrum(zmod(n))
        opens = enumerate_open_sets(spec)
        assert len(opens) == 2 ** len(spec.atoms)


def test_prime_ideals_of_zmod12(zmod12):
    primes = prime_ideals(zmod12)
    assert sorted(map(sorted, primes)) == [
        [0, 2, 4, 6, 8, 10],
        [0, 3, 6, 9],
    ]


def test_prime_ideals_match_pairwise_definition(zoo):
    for ring in zoo:
        mul = ring.mul.tolist()
        want = []
        for ideal in submodule_lattice(regular_module(ring))[:-1]:
            outside = [a for a in range(ring.order) if a not in ideal]
            if all(mul[a][b] not in ideal for a in outside for b in outside):
                want.append(ideal)
        assert prime_ideals(ring) == want


def test_classical_support_of_zmod12(zmod12):
    primes = prime_ideals(zmod12)
    whole = regular_module(zmod12)
    assert classical_support(zmod12, whole, primes) == frozenset(primes)
    evens = frozenset(range(0, 12, 2))
    quot = quotient(whole, evens)
    assert classical_support(zmod12, quot, primes) == frozenset({evens})
    zero = quotient(whole, frozenset(range(12)))
    assert classical_support(zmod12, zero, primes) == frozenset()


def test_commutative_crosscheck(zoo):
    for ring in zoo:
        if not ring.is_commutative():
            continue
        report = commutative_crosscheck(ring)
        assert report["passed"], report


def test_crosscheck_catches_a_wrong_idempotent_atom(monkeypatch):
    """classical_support reads Ann M, not the idempotent -> atom map that
    atom_support reads, so a map that loses an idempotent fails the
    support comparison and the `check` property built on it."""
    real = atom_spectrum(zmod(12))
    *kept, _ = real.atom_of_idempotent.items()
    faulty = replace(real, atom_of_idempotent=dict(kept))
    monkeypatch.setattr(checks, "atom_spectrum", lambda ring: faulty)
    report = commutative_crosscheck(zmod(12))
    assert not report["checks"]["atom_support_equals_support"]
    assert report["checks"]["open_equals_specialization_closed"]
    name, passed, _ = checks.check_commutative(zmod(12))
    assert (name, passed) == ("commutative recovery", False)


def test_crosscheck_rejects_noncommutative(tri2_2):
    with pytest.raises(SpectrumError):
        commutative_crosscheck(tri2_2)


def test_spectrum_is_deterministic(tri2_2):
    a = atom_spectrum(tri2_2)
    b = atom_spectrum(tri2(2))
    assert a.atoms == b.atoms


RADICAL_RINGS = make_zoo() + [
    parse_ring_spec(spec) for spec in (
        "mat:2:3", "tri2:5", "prod:tri2:2,zmod:6", "zmod:360",
        "prod:zmod:4,zmod:2,zmod:9",
    )
] + [trivial_extension(2, 4), trivial_extension(3, 2)]


@pytest.mark.parametrize("ring", RADICAL_RINGS, ids=lambda r: r.name)
def test_atoms_count_the_blocks_of_r_mod_j(ring):
    # R/J is semisimple, a product of one simple ring per simple module,
    # so it has 2^t central idempotents for t atoms; J is read off the
    # tables, not the lattice
    atoms = len(atom_spectrum(ring).atoms)
    assert central_idempotents_mod_radical(ring) == 2 ** atoms


def assert_characters_find_the_comonoform_ideals(ring):
    # the definitional search: every proper right ideal of R's lattice,
    # each by its own socle test, in one run so that R's radical is
    # computed once
    with run_memo():
        want = [p for p in submodule_lattice(regular_module(ring))[:-1]
                if is_comonoform(ring, p)]
        got = atom_spectrum(ring).comonoform_ideals()
    assert sorted(got, key=submodule_key) == want


ZOO = make_zoo()

# the strategy draws the same ring again and again; its lattice search
# gives the same answer each time, so each ring is searched once
VERIFIED = set()


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from(ZOO),
    st.tuples(st.sampled_from(ZOO), st.sampled_from(ZOO))
    .filter(lambda pair: pair[0].order * pair[1].order <= 512)
    .map(lambda pair: product(*pair)),
    posets().map(lambda poset: incidence_algebra(2, *poset)),
    posets(max_points=3).map(lambda poset: incidence_algebra(3, *poset)),
))
def test_characters_find_the_comonoform_ideals(ring):
    if ring not in VERIFIED:
        assert_characters_find_the_comonoform_ideals(ring)
        VERIFIED.add(ring)


KNOWN_RINGS = [
    pytest.param(group_algebra, p, g, id=f"F{p}[{g}]")
    for p, g in [(2, "C3"), (3, "C4"), (5, "C4"), (2, "S3"), (3, "S3"),
                 (2, "D4"), (2, "Q8")]
] + [
    pytest.param(trivial_extension, p, k, id=f"F{p} x F{p}^{k}")
    for p, k in [(2, k) for k in range(7)] + [(3, k) for k in range(4)]
]


@pytest.mark.parametrize("make, p, arg", KNOWN_RINGS)
def test_characters_find_the_comonoform_ideals_of_known_rings(make, p, arg):
    assert_characters_find_the_comonoform_ideals(make(p, arg))
