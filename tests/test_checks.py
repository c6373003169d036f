import pytest

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
