import ast
from pathlib import Path

import pytest

import atomspec
from atomspec import checks
from atomspec.checks import ALL_CHECKS, check_suite
from atomspec.modules import RightModule
from atomspec.monoform import is_monoform
from atomspec.rings import mat, parse_ring_spec, product, zmod
from atomspec.spectrum import atom_spectrum


def test_suite_passes_on_triangular_ring(tri2_2):
    report = check_suite(tri2_2)
    assert report["passed"], [
        p for p in report["properties"] if not p["passed"]
    ]
    assert len(report["properties"]) == len(ALL_CHECKS)


def test_suite_passes_on_zmod30():
    report = check_suite(zmod(30))
    assert report["passed"], [
        p for p in report["properties"] if not p["passed"]
    ]


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


# the slow definitional twins of the verbs, which live in checks.py only
TWINS = (
    "validate_module", "embeds_in", "is_uniform_bruteforce",
    "composition_factors_top_down", "_chief_series_top_down", "is_isomorphic",
    "_close_map", "minimal_generating_sequence", "annihilator_keys",
    "monoform_oracle_artinian", "monoform_by_colon_table",
    "ClosureUniverse", "_invariant_key", "_find_class", "build_universe",
    "closure_oracle", "_closed_sub", "_closed_quot", "_star",
    "calculus_check", "universe_supports",
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


def test_package_exports_are_unchanged():
    assert sorted(atomspec.__all__) == [
        "Atom", "AtomSpectrum", "ClosureUniverse", "Filtration", "FiniteRing",
        "RightModule", "SerreSubcategory", "annihilator", "annihilator_set",
        "associated_atoms", "atom_equivalent", "atom_spectrum",
        "atom_support", "build_universe", "calculus_check", "check_suite",
        "checks", "closure_oracle", "commutative_crosscheck",
        "composition_factors", "cyclic_submodule", "direct_sum",
        "enumerate_open_sets", "enumerate_serre", "fp_algebra",
        "generated_submodule", "hasse_dot", "is_comonoform",
        "is_completely_prime", "is_isomorphic", "is_monoform", "is_open",
        "is_uniform", "mat", "max_monoform_submodule", "modules", "monoform",
        "monoform_filtration", "monoform_oracle_artinian",
        "parse_module_spec", "parse_ring_document", "parse_ring_spec",
        "product", "quotient", "quotient_module", "regular_module", "rings",
        "serialize_ring", "serre", "serre_contains", "serre_from_generators",
        "serre_lattice", "socle", "spectrum", "sub_module",
        "submodule_lattice", "tri2", "validate_ring", "zmod",
    ]
