import ast
import gc
import importlib
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomspec
from atomspec import checks, modules, monoform, spectrum
from atomspec.checks import ALL_CHECKS, check_suite
from atomspec.modules import (
    RightModule,
    direct_sum,
    quotient,
    regular_module,
    sub_module,
    submodule_lattice,
)
from atomspec.monoform import is_monoform
from atomspec.rings import fp_algebra, mat, parse_ring_spec, product, zmod
from atomspec.spectrum import atom_spectrum

from conftest import make_zoo

ZOO = make_zoo()


@pytest.mark.parametrize("ring", ZOO, ids=lambda ring: ring.name)
def test_suite_passes_on_the_zoo(ring):
    report = check_suite(ring)
    assert report["passed"], [
        p for p in report["properties"] if not p["passed"]
    ]
    assert len(report["properties"]) == len(ALL_CHECKS)


def test_direct_sum_additivity_without_small_cyclic_modules():
    # the smallest proper R/I of M_2(F_5) has order 25
    assert min(m.order for m in checks._cyclic_modules(mat(2, 5))) == 25
    assert checks.check_direct_sum_additivity(mat(2, 5))[1:] == (True, None)


@pytest.fixture(params=["zmod:12", "tri2:2"])
def small_ring(request):
    return parse_ring_spec(request.param)


def _assert_cyclic_iso_fails(ring):
    name, passed, witness = checks.check_cyclic_iso_quotient(ring)
    assert name == "cyclic is R mod annihilator"
    assert not passed
    provenance, x = witness
    assert provenance in {m.provenance for m in checks._cyclic_modules(ring)}
    assert isinstance(x, int)


def test_canonical_map_check_passes(small_ring):
    assert checks.check_cyclic_iso_quotient(small_ring)[1:] == (True, None)


def test_canonical_map_check_sees_swapped_coset_ids(small_ring, monkeypatch):
    real = checks.quotient_module

    def swapped(module, sub):
        quot, proj = real(module, sub)
        if quot.order > 1:  # exchange coset ids 0 and 1 in the projection
            proj = tuple({0: 1, 1: 0}.get(c, c) for c in proj)
        return quot, proj

    monkeypatch.setattr(checks, "quotient_module", swapped)
    _assert_cyclic_iso_fails(small_ring)


def test_canonical_map_check_sees_dropped_inclusion(small_ring, monkeypatch):
    real = checks.sub_module

    def dropped(module, sub):
        inner, incl = real(module, sub)
        return inner, incl[:-1]

    monkeypatch.setattr(checks, "sub_module", dropped)
    _assert_cyclic_iso_fails(small_ring)


@pytest.mark.parametrize("spec", ["tri2:2", "mat:2:2"])
def test_canonical_map_check_sees_a_twisted_action(spec, monkeypatch):
    # R/Ann(x) with a acting as t a t^-1 for a unit t that is not central:
    # still a module, and phi still additive and bijective, but not R-linear
    ring = parse_ring_spec(spec)
    mul, one = ring.mul, ring.one
    t, s = next((t, s) for t in range(ring.order) for s in range(ring.order)
                if mul[t, s] == one and mul[s, t] == one
                and (mul[t] != mul[:, t]).any())
    twist = mul[mul[t], s]  # a -> t a s
    real = checks.quotient_module

    def twisted(module, sub):
        quot, proj = real(module, sub)
        quot = RightModule(ring=ring, order=quot.order, add=quot.add,
                           act=quot.act[:, twist])
        checks.validate_module(quot)
        return quot, proj

    monkeypatch.setattr(checks, "quotient_module", twisted)
    _assert_cyclic_iso_fails(ring)


@pytest.mark.parametrize("ring", ["zmod:12", "tri2:2", "mat:2:2"])
def test_canonical_map_modules_satisfy_the_module_axioms(ring, monkeypatch):
    # the map is checked on additive generators only, which is complete
    # for modules: every R/Ann(x) and xR built must pass the literal axioms
    built = []

    def recording(make):
        def build(module, sub):
            made = make(module, sub)
            built.append(made[0])
            return made
        return build

    monkeypatch.setattr(checks, "quotient_module",
                        recording(checks.quotient_module))
    monkeypatch.setattr(checks, "sub_module", recording(checks.sub_module))
    assert checks.check_cyclic_iso_quotient(parse_ring_spec(ring))[1]
    assert built
    for module in built:
        checks.validate_module(module)


BUILDERS = ("sub_module", "quotient_module", "quotient", "subquotient",
            "direct_sum")


@pytest.mark.parametrize("spec", ["zmod:12", "tri2:3"])
def test_a_run_builds_each_subquotient_once(spec, monkeypatch):
    # modules compare by digest, so an equal module built again counts
    builds, open_memo = Counter(), []

    def counting(name, make):
        def build(*args):
            builds[(name, *args)] += 1
            open_memo.append(checks._memo.get() is not None)
            return make(*args)
        return build

    for name in BUILDERS:
        monkeypatch.setattr(checks, name, counting(name, getattr(checks, name)))
    assert check_suite(parse_ring_spec(spec))["passed"]
    assert {key[0] for key in builds} >= {"sub_module", "quotient_module"}
    assert max(builds.values()) == 1
    assert all(open_memo)


def _recorded_builds(monkeypatch) -> list:
    """Weak references to the modules that sub_module and quotient_module
    build through the checks namespace from now on."""
    refs = []

    def recording(make):
        def build(module, sub):
            made = make(module, sub)
            refs.append(weakref.ref(made[0]))
            return made
        return build

    for name in ("sub_module", "quotient_module"):
        monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
    return refs


def _assert_memo_dropped(refs):
    # the process-wide caches keep some modules too; with them cleared,
    # a module the run memo still held would stay alive
    assert checks._memo.get() is None
    for layer in (modules, monoform, spectrum, checks):
        for value in vars(layer).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    gc.collect()
    assert refs and not [ref for ref in refs if ref() is not None]


def test_the_memo_is_dropped_when_the_suite_returns(monkeypatch):
    refs = _recorded_builds(monkeypatch)

    def boom(*args):
        raise ValueError("boom")

    # a property that raises fails on its own, and the run goes on
    monkeypatch.setattr(checks, "is_completely_prime", boom)
    report = check_suite(parse_ring_spec("tri2:2"))
    assert [p["property"] for p in report["properties"]
            if not p["passed"]] == ["comonoform implies completely prime"]
    _assert_memo_dropped(refs)


def test_the_memo_is_dropped_when_a_property_raises(monkeypatch):
    refs = _recorded_builds(monkeypatch)

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(checks, "_canonical_map_is_iso", boom)
    try:
        checks.check_cyclic_iso_quotient(parse_ring_spec("zmod:12"))
    except ValueError:
        pass
    else:
        pytest.fail("the property did not raise")
    _assert_memo_dropped(refs)


def _no_search(*args):
    raise AssertionError("equal modules need no search")


def test_equal_modules_are_isomorphic_without_a_search(small_ring,
                                                       monkeypatch):
    monkeypatch.setattr(checks, "_embedding_exists", _no_search)
    monkeypatch.setattr(checks, "annihilator_keys", _no_search)
    for module in checks._cyclic_modules(small_ring):
        copy = RightModule(ring=module.ring, order=module.order,
                           add=module.add.copy(), act=module.act.copy(),
                           provenance="copy")
        assert checks.is_isomorphic(module, module)
        assert checks.is_isomorphic(module, copy)


@st.composite
def small_modules(draw):
    """A quotient or submodule of R_R, or the direct sum of two of order
    at most 64, over a zoo ring."""
    reg = regular_module(draw(st.sampled_from(ZOO)))
    lattice = submodule_lattice(reg)

    def piece():
        ideal = draw(st.sampled_from(lattice))
        if draw(st.booleans()):
            return quotient(reg, ideal)
        return sub_module(reg, ideal)[0]

    module = piece()
    if draw(st.booleans()):
        other = piece()
        if module.order * other.order <= 64:
            module = direct_sum(module, other)
    return module


def relabelled(module, perm):
    """The module with element x renamed perm[x]; perm fixes 0."""
    inverse = np.argsort(perm)
    return RightModule(ring=module.ring, order=module.order,
                       add=perm[module.add[np.ix_(inverse, inverse)]],
                       act=perm[module.act[inverse]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_modules_are_isomorphic(data):
    # the tables differ (unless perm is an automorphism), so this reaches
    # the search
    module = data.draw(small_modules())
    rest = data.draw(st.permutations(range(1, module.order)))
    perm = np.array([0, *rest], dtype=np.intp)
    assert checks.is_isomorphic(module, relabelled(module, perm))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_submodules_embed_and_no_module_embeds_in_a_smaller_one(data):
    module = data.draw(small_modules())
    members = data.draw(st.sampled_from(submodule_lattice(module)))
    sub = sub_module(module, members)[0]
    rest = data.draw(st.permutations(range(1, module.order)))
    perm = np.array([0, *rest], dtype=np.intp)
    assert checks.embeds_in(sub, module)
    assert checks.embeds_in(sub, relabelled(module, perm))
    if sub.order < module.order:
        assert not checks.embeds_in(module, sub)


def _no_lattice(*args):
    raise AssertionError("the embedding search reads no lattice")


def test_embedding_search_builds_no_lattice_or_submodule(small_ring,
                                                         monkeypatch):
    pairs = []
    for module in checks._cyclic_modules(small_ring):
        for members in submodule_lattice(module):
            pairs.append((sub_module(module, members)[0], module))
    monkeypatch.setattr(checks, "submodule_lattice", _no_lattice)
    monkeypatch.setattr(checks, "sub_module", _no_lattice)
    for sub, module in pairs:
        assert checks.embeds_in(sub, module)
        assert checks.embeds_in(module, sub) == (sub.order == module.order)


def _pencil_module(ring, a, b):
    """The F_2[x, y]/(x, y)^2-module k^2 + k^3, with x and y sending the
    top t in k^2 to a.t and b.t in the socle k^3; elements are t*8 + s."""
    ids = np.arange(32)
    top, soc = ids >> 3, ids & 7
    bits = (top[:, None] >> np.array([1, 0])) & 1  # t as a vector
    images = [(bits @ np.array(m).T % 2) @ np.array([4, 2, 1])
              for m in (a, b)]
    act = np.zeros((32, 8), dtype=np.int64)
    for r in range(8):  # r = c0*4 + cx*2 + cy, as fp_algebra enumerates
        c0, cx, cy = r >> 2, (r >> 1) & 1, r & 1
        act[:, r] = ((c0 * top) << 3) | (
            (c0 * soc) ^ (cx * images[0]) ^ (cy * images[1]))
    return RightModule(ring=ring, order=32,
                       add=ids[:, None] ^ ids[None, :], act=act)


def test_same_invariant_key_but_not_isomorphic():
    # over F_2[x, y]/(x, y)^2 (basis 1, x, y), two modules with the same
    # annihilator multiset: in the first, xM + yM has order 4, so it has
    # a simple direct summand; in the second, xM + yM has order 8
    consts = np.zeros((3, 3, 3), dtype=int)
    consts[0, 0, 0] = consts[0, 1, 1] = consts[1, 0, 1] = 1
    consts[0, 2, 2] = consts[2, 0, 2] = 1
    ring = fp_algebra(2, 3, consts, [1, 0, 0])
    x_map = [(0, 0), (0, 0), (0, 1)]
    split = _pencil_module(ring, x_map, [(0, 0), (0, 1), (1, 0)])
    whole = _pencil_module(ring, x_map, [(0, 1), (1, 0), (0, 0)])
    for module in (split, whole):
        checks.validate_module(module)
    assert checks._invariant_key(split) == checks._invariant_key(whole)

    def radical_order(module):  # |xM + yM|, x and y being ids 2 and 1
        return len(np.unique(module.add[module.act[:, 2][:, None],
                                        module.act[:, 1]]))

    assert (radical_order(split), radical_order(whole)) == (4, 8)
    assert not checks.is_isomorphic(split, whole)
    assert not checks.is_isomorphic(whole, split)


def test_monoform_implies_uniform_sees_a_uniform_module_refused(small_ring,
                                                                monkeypatch):
    # is_monoform trusts is_uniform to refuse only modules that are not
    # monoform; the colon-table twin catches one that refuses too many
    monkeypatch.setattr(checks, "is_uniform", lambda module: False)
    name, passed, witness = checks.check_monoform_implies_uniform(small_ring)
    assert (name, passed) == ("monoform implies uniform", False)
    assert witness in {m.provenance for m in checks._cyclic_modules(small_ring)}


def test_atom_equivalence_compares_no_module_tables(monkeypatch):
    # R/{0} equals the regular module but is another object, so a lookup of
    # the regular module's colon table may compare the two.  Such a compare
    # must read two digests computed before, never the modules' tables.
    ring = product(zmod(2), zmod(5))
    for mod in checks._cyclic_modules(ring):
        is_monoform(mod)
    atom_spectrum(ring)
    calls = []
    real_eq = RightModule.__eq__

    def recording_eq(self, other):
        calls.append("digest" in vars(self) and "digest" in vars(other))
        return real_eq(self, other)

    monkeypatch.setattr(RightModule, "__eq__", recording_eq)
    assert checks.check_atom_equivalence_relation(ring)[1]
    assert all(calls)


# the slow definitional twins of the verbs, and the reference facts only the
# checks read, which live in checks.py only
TWINS = (
    "validate_module", "embeds_in", "is_uniform_bruteforce",
    "composition_factors_top_down", "_chief_series_top_down", "is_isomorphic",
    "_extend", "_embedding_exists", "minimal_generating_sequence",
    "annihilator_keys", "maximal_submodules", "socle",
    "_chief_series_bottom_up", "series_factors", "composition_factors",
    "subquotient", "simple_module_count", "monoform_oracle_artinian",
    "monoform_by_closure", "monoform_by_colon_table",
    "is_completely_prime", "filtration_defect", "max_monoform_submodule",
    "ClosureUniverse", "_invariant_key", "_find_class", "build_universe",
    "closure_oracle", "_closed", "_star",
    "calculus_check", "universe_supports", "closure_is_sound",
    "ass_within_support", "sum_is_additive", "atom_equivalent",
    "prime_ideals", "classical_support", "commutative_crosscheck",
)
PIPELINE = ("rings", "modules", "monoform", "spectrum", "serre")


def _defined_and_imported(name: str) -> tuple[set, set, set]:
    """Top-level names a package module defines, names it imports, and the
    modules it imports from."""
    source = Path(atomspec.__file__).with_name(f"{name}.py").read_text()
    defined, imported, sources = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.ImportFrom):
            sources.add(node.module or "")
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            sources |= {alias.name for alias in node.names}
    return defined, imported, sources


@pytest.mark.parametrize("name", PIPELINE + ("cli",))
def test_twins_live_in_checks_only(name):
    assert all(hasattr(checks, twin) for twin in TWINS)
    defined, imported, sources = _defined_and_imported(name)
    assert not (defined | imported) & set(TWINS)
    if name in PIPELINE:
        assert "checks" not in imported
        assert not {s for s in sources if s.split(".")[-1] == "checks"}


# each public name and the one module it is imported from; the package
# itself re-exports none of them
HOMES = {
    "spectrum": (
        "Atom", "AtomSpectrum", "associated_atoms", "atom_spectrum",
        "atom_support", "enumerate_open_sets", "is_open",
    ),
    "checks": (
        "ClosureUniverse", "atom_equivalent", "build_universe",
        "calculus_check", "check_suite", "closure_oracle",
        "commutative_crosscheck", "composition_factors",
        "is_completely_prime", "is_isomorphic", "max_monoform_submodule",
        "monoform_oracle_artinian", "socle",
    ),
    "monoform": (
        "Filtration", "is_comonoform", "is_monoform", "monoform_filtration",
    ),
    "rings": (
        "FiniteRing", "fp_algebra", "mat", "parse_ring_document",
        "parse_ring_spec", "product", "serialize_ring", "tri2",
        "validate_ring", "zmod",
    ),
    "modules": (
        "RightModule", "annihilator", "annihilator_set", "cyclic_submodule",
        "direct_sum", "is_uniform", "parse_module_spec", "quotient",
        "quotient_module", "regular_module", "sub_module",
        "submodule_lattice",
    ),
    "serre": ("SerreSubcategory", "enumerate_serre", "serre_lattice"),
}


def test_each_name_has_one_import_path():
    for home, names in HOMES.items():
        module = importlib.import_module(f"atomspec.{home}")
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
            assert not hasattr(atomspec, name), name
    assert not hasattr(atomspec, "__all__")
