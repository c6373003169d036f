import itertools

import pytest

from atomspec import cli, serre, spectrum
from atomspec.checks import (
    build_universe,
    calculus_check,
    closure_oracle,
    universe_supports,
)
from atomspec.modules import (
    quotient,
    regular_module,
    sub_module,
    submodule_key,
    submodule_lattice,
)
from atomspec.serre import (
    SerreError,
    dot_lines,
    enumerate_serre,
    inclusion_edges,
    serre_lattice,
)
from atomspec.rings import fp_algebra, product, zmod
from atomspec.spectrum import (
    atom_spectrum,
    atom_support,
    is_open,
)
from conftest import incidence_constants


def test_tri2_has_four_serre_subcategories(tri2_2):
    spec = atom_spectrum(tri2_2)
    subs = enumerate_serre(spec)
    assert len(subs) == 4
    assert sorted(map(sorted, (s.open_set for s in subs))) == [
        [], [0], [0, 1], [1],
    ]
    # generator supports union to the open set exactly
    for s in subs:
        union = frozenset()
        for q in s.generators:
            union |= spec.support_of_ideal(q)
        assert union == s.open_set


def test_serre_membership_in_tri2(tri2_2):
    spec = atom_spectrum(tri2_2)
    whole = regular_module(tri2_2)
    m_1 = frozenset({0, 1, 2, 3})
    m_2 = frozenset({0, 2, 4, 6})
    p_a = frozenset({0, 4})
    # a module lies in the Serre subcategory <X> iff its support lies in
    # the support of X
    sub_m1 = atom_support(spec, quotient(whole, m_1))
    # R/p_a has both simples among its factors, so it escapes <R/m_1>
    assert not atom_support(spec, quotient(whole, p_a)) <= sub_m1
    assert atom_support(spec, quotient(whole, m_1)) <= sub_m1
    both = sub_m1 | atom_support(spec, quotient(whole, m_2))
    assert atom_support(spec, whole) <= both


def test_invalid_open_set_rejected(zmod12):
    from atomspec.serre import SerreSubcategory

    spec = atom_spectrum(zmod12)
    with pytest.raises(SerreError):
        SerreSubcategory(spectrum=spec, open_set=frozenset({99}))


def test_inclusion_edges_form_square(tri2_2):
    subs = enumerate_serre(atom_spectrum(tri2_2))
    edges = inclusion_edges(subs)
    # diamond: zero below both singletons, both below the whole category
    assert len(edges) == 4
    by_size = {}
    for i, s in enumerate(subs):
        by_size.setdefault(len(s.open_set), []).append(i)
    for i, j in edges:
        assert len(subs[i].open_set) + 1 == len(subs[j].open_set)


def test_hasse_dot_output(tri2_2):
    lines = dot_lines(serre_lattice(atom_spectrum(tri2_2)))
    dot = "".join(f"{line}\n" for line in lines)
    assert dot.startswith("digraph")
    assert dot.count("->") == 4
    assert dot.endswith("}\n")
    assert dot == (
        "digraph serre_lattice {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{}\\n0"];\n'
        '  n1 [label="{0}\\nR/[0, 1, 2, 3]"];\n'
        '  n2 [label="{1}\\nR/[0, 2, 4, 6]"];\n'
        '  n3 [label="{0,1}\\nR/[0, 4]"];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n3;\n"
        "  n2 -> n3;\n"
        "}\n"
    )


def test_universe_of_zmod4():
    ambient = regular_module(zmod(4))
    universe = build_universe(ambient)
    # iso classes: 0, Z/2, Z/4
    assert len(universe.members) == 3
    orders = sorted(m.order for m in universe.members)
    assert orders == [1, 2, 4]
    z2 = next(i for i, m in enumerate(universe.members) if m.order == 2)
    # Z/4 is an extension of Z/2 by Z/2, so it enters the closure of Z/2
    closed = closure_oracle(universe, {z2})
    assert closed == frozenset(range(3))


def test_closure_oracle_detects_monoform_criterion(tri2_2):
    # a module is monoform iff it avoids the Serre closure of its proper
    # quotients; exercise this on R/p_a which is monoform
    whole = regular_module(tri2_2)
    p_a = frozenset({0, 4})
    mod = quotient(whole, p_a)
    universe = build_universe(mod)
    self_cls = universe.class_of(mod)
    proper_quots = {
        universe.class_of(quotient(mod, sub))
        for sub in submodule_lattice(mod)
        if len(sub) > 1
    }
    closed = closure_oracle(universe, proper_quots)
    assert self_cls not in closed


def test_closure_oracle_soundness_matches_open_sets(zmod12):
    # closure by subquotients and extensions never leaves an open support set
    spec = atom_spectrum(zmod12)
    ambient = regular_module(zmod12)
    universe = build_universe(ambient)
    supports = universe_supports(universe, spec)
    for gens in itertools.combinations(range(len(universe.members)), 2):
        closed = closure_oracle(universe, gens)
        phi = frozenset().union(*(supports[g] for g in gens))
        for m in closed:
            assert supports[m] <= phi


def test_calculus_identities_hold(tri2_2):
    universe = build_universe(regular_module(tri2_2))
    report = calculus_check(universe, samples=50)
    assert report["passed"], report["violations"]


def test_calculus_identities_hold_zmod12(zmod12):
    universe = build_universe(regular_module(zmod12))
    report = calculus_check(universe, samples=50)
    assert report["passed"], report["violations"]


# (points, strict relations) of small posets: chains, a V, a wedge and a
# diamond, whose incidence algebras have supports of several atoms
POSETS = [
    (2, [(0, 1)]),
    (3, [(0, 1), (0, 2), (1, 2)]),
    (3, [(0, 1), (0, 2)]),
    (3, [(0, 2), (1, 2)]),
    (4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),
    (4, list(itertools.combinations(range(4), 2))),
]


def _generator_rings(zoo):
    """The zoo, then F_2 I(P) for each poset P of POSETS."""
    incidence = [fp_algebra(2, *incidence_constants(k, less),
                            name=f"F2I({k}, {less})") for k, less in POSETS]
    return list(zoo) + incidence


def _generators_by_definition(spec, phi):
    """The generators of the Serre subcategory of phi, found from phi
    alone: the comonoform ideals whose supports lie in phi, largest
    support first with canonical order tie-break, taken greedily while
    they add to the union, then each one dropped that the others cover."""
    supports = spec.supports
    candidates = sorted(
        (q for q in spec.comonoform_ideals() if supports[q] <= phi),
        key=lambda q: (-len(supports[q]), submodule_key(q)),
    )
    chosen, covered = [], frozenset()
    for q in candidates:
        if covered == phi:
            break
        if not supports[q] <= covered:
            chosen.append(q)
            covered |= supports[q]
    for q in list(chosen):
        if frozenset().union(*(supports[o] for o in chosen if o != q)) == phi:
            chosen.remove(q)
    return tuple(chosen)


def test_serre_generator_minimality(zoo):
    for ring in _generator_rings(zoo):
        spec = atom_spectrum(ring)
        for s in enumerate_serre(spec):
            covered = frozenset()
            for q in s.generators:
                covered |= spec.support_of_ideal(q)
            assert covered == s.open_set
            for q in s.generators:
                rest = frozenset().union(
                    frozenset(),
                    *(spec.support_of_ideal(o) for o in s.generators if o != q),
                )
                assert rest != s.open_set


def test_generators_match_the_per_set_definition(zoo):
    several = 0  # open sets whose generators have a support of 2+ atoms
    for ring in _generator_rings(zoo):
        spec = atom_spectrum(ring)
        for s in enumerate_serre(spec):
            assert s.generators == _generators_by_definition(spec, s.open_set)
            several += any(len(spec.supports[q]) > 1 for q in s.generators)
    assert several


def test_serre_tests_no_set_for_openness_and_orders_once(capsys, monkeypatch):
    argv = ["serre", "--ring", "prod:zmod:2,zmod:3,zmod:5", "--format", "json"]
    assert cli.run(argv)[0] == 0
    before = capsys.readouterr().out

    def refuse(*args):
        raise RuntimeError("is_open called")

    # the spectrum is discrete, so no open set needs the definitional test
    monkeypatch.setattr(spectrum, "is_open", refuse)
    monkeypatch.setattr(serre, "is_open", refuse, raising=False)
    assert cli.run(argv)[0] == 0
    assert capsys.readouterr().out == before

    keyed = []

    def counted(members):
        keyed.append(members)
        return submodule_key(members)

    monkeypatch.setattr(serre, "submodule_key", counted)
    spec = atom_spectrum(product(zmod(2), zmod(3), zmod(5)))
    assert len(enumerate_serre(spec)) == 2 ** len(spec.atoms) == 8
    # one key per comonoform ideal, not one per ideal in each open set
    assert len(keyed) <= len(spec.comonoform_ideals())


def test_serre_rows_are_fresh_on_each_read(tri2_2):
    # each ideal's ids are sorted once per report, and a reader's edits
    # to a row reach no later read
    rows = serre_lattice(atom_spectrum(tri2_2))["subcategories"]
    first = rows[3]
    first["generators"][0].append(99)
    first["open_set"].clear()
    assert rows[3] == {"open_set": [0, 1], "generators": [[0, 4]]}
    assert list(rows)[3] == rows[3]


def test_generators_track_support(zoo):
    for ring in zoo:
        if ring.order > 16:
            continue
        spec = atom_spectrum(ring)
        whole = regular_module(ring)
        for members in submodule_lattice(whole):
            mod = sub_module(whole, members)[0]
            # the least Serre subcategory holding mod is its open support
            assert is_open(spec, atom_support(spec, mod))
