import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec import rings
from atomspec.rings import (
    CapExceededError,
    FiniteRing,
    RingAxiomError,
    RingFormatError,
    fp_algebra,
    mat,
    parse_ring_document,
    parse_ring_spec,
    product,
    serialize_ring,
    table_dtype,
    tri2,
    validate_ring,
    zmod,
)

from conftest import TABLE_FORMS, make_zoo, peak_bytes, table_in_form


def test_zmod12_is_a_valid_ring():
    ring = zmod(12)
    assert ring.order == 12
    assert ring.one == 1
    assert ring.is_commutative()


def test_zero_multiplication_is_rejected():
    # order 2 with x*y = 0 everywhere, claiming one = 1
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 0]]
    with pytest.raises(RingAxiomError) as err:
        validate_ring(add, mul, 1)
    assert err.value.axiom == "one is not identity"
    assert 1 in err.value.witness


def test_distributivity_witness_is_reported():
    # corrupt one multiplication entry of zmod(3)
    base = zmod(3)
    mul = [list(row) for row in base.mul]
    mul[2][2] = 0  # 2*2 should be 1
    with pytest.raises(RingAxiomError) as err:
        validate_ring(base.add, mul, 1)
    assert len(err.value.witness) >= 2


def test_tri2_has_order_eight():
    ring = tri2(2)
    assert ring.order == 8
    assert not ring.is_commutative()


def test_mat22_is_valid_of_order_sixteen():
    ring = mat(2, 2)
    assert ring.order == 16


def test_builtins_are_deterministic():
    assert zmod(12) == zmod(12)
    assert tri2(3) == tri2(3)
    assert np.array_equal(mat(2, 2).mul, mat(2, 2).mul)


def test_product_components():
    ring = product(zmod(2), zmod(3))
    assert ring.order == 6
    # (1,0) * (0,1) = (0,0)
    e10, e01 = 3, 1
    assert ring.mul[e10][e01] == 0


def test_parse_ring_spec_builtins():
    assert parse_ring_spec("zmod:7").order == 7
    assert parse_ring_spec("tri2:2") == tri2(2)
    assert parse_ring_spec("mat:2:2") == mat(2, 2)
    assert parse_ring_spec("prod:zmod:2,zmod:2").order == 4
    with pytest.raises(RingFormatError):
        parse_ring_spec("weird:3")


def test_order_cap_enforced():
    with pytest.raises(CapExceededError):
        zmod(5000)
    with pytest.raises(CapExceededError):
        mat(3, 5)
    with pytest.raises(CapExceededError):
        zmod(10, order_cap=5)


def test_mat_is_refused_before_its_positions_exist():
    # p^(k^2) is checked before the k^2 matrix units are listed, which
    # for mat:1000:2 took 84 MiB
    _, peak = peak_bytes(
        lambda: pytest.raises(CapExceededError, parse_ring_spec, "mat:1000:2"))
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("spec", [
    "zmod:1024", "zmod:2048", "prod:" + ",".join(["zmod:2"] * 12),
], ids=["1024", "2048", "F2^12"])
def test_validation_makes_no_table_sized_temporary(spec):
    # every check reads a chunk of about 2^15 entries at a time, so the
    # peak has a bound independent of n and of the number of generators:
    # a transposed copy of mul is 8 MiB at 2048, a boolean n x n temporary
    # 4 MiB, a chunk of 2^17 intp entries 1 MiB, and (ab)c gathered for
    # all c rather than for the 12 generators of F_2^12 1.2 MB
    ring = parse_ring_spec(spec)
    got, peak = peak_bytes(lambda: validate_ring(ring.add, ring.mul, ring.one))
    assert got == ring
    assert peak < 768 * 1024


def test_a_fortran_ordered_table_is_kept_in_c_order():
    # np.take on a table not in C order copies it whole for every chunk;
    # at order 2048 that made validation 15 times slower
    ring = zmod(60)
    got = validate_ring(np.asfortranarray(ring.add), np.asfortranarray(ring.mul), 1)
    assert got == ring
    assert got.add.flags.c_contiguous and got.mul.flags.c_contiguous


def test_product_builds_no_factor_past_the_cap(monkeypatch):
    built = []
    real = rings.validate_ring

    def counting(*args, **kwargs):
        built.append(kwargs.get("name"))
        return real(*args, **kwargs)

    monkeypatch.setattr(rings, "validate_ring", counting)
    with pytest.raises(CapExceededError) as refused:
        parse_ring_spec("prod:zmod:64,zmod:64,zmod:2")
    assert built == []
    assert "exceeds cap 4096" in str(refused.value)
    # a product of order exactly the cap is still built
    assert parse_ring_spec("prod:zmod:8,zmod:8", order_cap=64).order == 64


@pytest.mark.parametrize("spec", [
    "prod:" + ",".join(["zmod:4096"] * 60),
    "prod:zmod:2,mat:99999999:2",
    "prod:tri2:17,zmod:2",  # 4913 * 2
    "prod:mat:2:7,tri2:2",  # 2401 * 8
    "prod:zmod:64,zmod:65,zmod:abc",  # over the cap before the bad factor
])
def test_product_is_refused_before_any_factor_is_built(spec, monkeypatch):
    def building(*args, **kwargs):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(rings, "validate_ring", building)
    with pytest.raises(CapExceededError, match="product order exceeds cap 4096"):
        parse_ring_spec(spec)


def test_product_with_an_unreadable_factor_is_a_format_error():
    with pytest.raises(RingFormatError):
        parse_ring_spec("prod:zmod:2,zmod:abc")
    with pytest.raises(RingFormatError):
        parse_ring_spec("prod:zmod:2,tri2:4")


@pytest.mark.parametrize("spec, factor", [
    ("prod:zmod:2,,zmod:3", "''"),
    ("prod:zmod:2,zmod:3,", "''"),
    ("prod:,zmod:2,zmod:3", "''"),
    ("prod:zmod:2,prod:zmod:3,zmod:5", "'prod:zmod:3'"),
])
def test_product_with_an_empty_or_nested_factor_is_refused(spec, factor, monkeypatch):
    def building(*args, **kwargs):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(rings, "validate_ring", building)
    with pytest.raises(RingFormatError, match=f"prod factor {factor} in "):
        parse_ring_spec(spec)


def test_nonprime_field_rejected():
    with pytest.raises(RingFormatError):
        tri2(4)


def test_equal_rings_hash_alike():
    built = tri2(2)
    again = tri2(2)
    parsed = parse_ring_document(serialize_ring(built))  # no name
    assert built is not again
    for other in (again, parsed):
        assert built == other
        assert hash(built) == hash(other)
    assert parsed.name != built.name
    assert built != tri2(3)
    assert len({built, again, parsed, zmod(8)}) == 2


def test_serialization_roundtrip():
    for ring in (zmod(2), tri2(2)):
        doc = serialize_ring(ring)
        again = parse_ring_document(doc)
        assert again == ring
        assert serialize_ring(again) == doc


def test_serialization_streams_the_json_document():
    # the document is written one table row at a time; it must stay the
    # bytes json.dumps gives, since every report's ring hash is its sha256
    for ring in make_zoo():
        doc = {"order": ring.order, "one": ring.one,
               "add": ring.add.tolist(), "mul": ring.mul.tolist()}
        want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert serialize_ring(ring) == want.encode()
        assert ring.content_hash() == hashlib.sha256(want.encode()).hexdigest()


def test_mutated_document_reports_location():
    doc = json.loads(serialize_ring(zmod(2)))
    doc["mul"][1][0] = 9
    with pytest.raises(RingFormatError) as err:
        parse_ring_document(json.dumps(doc).encode())
    assert "mul[1][0]" in str(err.value)


def test_unknown_fields_rejected():
    doc = json.loads(serialize_ring(zmod(2)))
    doc["extra"] = 1
    with pytest.raises(RingFormatError) as err:
        parse_ring_document(json.dumps(doc).encode())
    assert "extra" in str(err.value)


def test_fp_algebra_reconstructs_tri2():
    # basis: e0 = E11, e1 = E21, e2 = E22 of lower triangular 2x2 matrices
    d = 3
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    c[0][0][0] = 1  # e0 e0 = e0
    c[1][0][1] = 1  # e1 e0 = e1
    c[2][1][1] = 1  # e2 e1 = e1
    c[2][2][2] = 1  # e2 e2 = e2
    ring = fp_algebra(2, d, c, [1, 0, 1])
    built = tri2(2)
    assert np.array_equal(ring.add, built.add)
    assert np.array_equal(ring.mul, built.mul)
    assert ring.one == built.one


def test_fp_algebra_document_form():
    doc = {
        "fp_algebra": {
            "p": 2,
            "dim": 1,
            "structure_constants": [[[1]]],
            "unit_vector": [1],
        }
    }
    ring = parse_ring_document(json.dumps(doc).encode())
    assert ring.order == 2
    assert ring.one == 1


def test_bad_structure_constants_rejected():
    # e0 is declared as the unit but e0 e1 = 0, so the unit axiom fails
    d = 2
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    c[0][0][0] = 1
    c[1][0][1] = 1
    c[1][1][1] = 1
    with pytest.raises(RingAxiomError):
        fp_algebra(2, d, c, [1, 0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_zmod_family_valid_and_roundtrips(n):
    ring = zmod(n)
    assert ring.order == n
    assert parse_ring_document(serialize_ring(ring)) == ring


@pytest.mark.parametrize("form", TABLE_FORMS)
def test_ring_identity_is_the_digest_of_its_tables(form):
    ring = mat(2, 2)
    built = FiniteRing(order=16, add=table_in_form(ring.add, form),
                       mul=table_in_form(ring.mul, form), one=ring.one,
                       name="x")
    assert built.add.dtype == built.mul.dtype == table_dtype(16)
    assert not built.add.flags.writeable and not built.mul.flags.writeable
    assert built == ring and hash(built) == hash(ring)
    assert built.digest == ring.digest


def test_ring_with_one_changed_entry_is_another_ring():
    ring = zmod(6)
    mul = ring.mul.copy()
    mul[5, 5] = 0
    changed = FiniteRing(order=6, add=ring.add, mul=mul, one=ring.one)
    assert changed != ring and changed.digest != ring.digest
    assert FiniteRing(order=6, add=ring.add, mul=ring.mul, one=5) != ring


def test_table_of_matching_dtype_is_not_copied():
    ring = zmod(5)
    again = FiniteRing(order=5, add=ring.add, mul=ring.mul, one=1)
    assert again.add is ring.add and again.mul is ring.mul


def test_ring_hash_is_the_same_in_every_process():
    code = ("from atomspec.rings import tri2\n"
            "print(hash(tri2(3)), hash(('salted', 'str')))\n")
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout.split()
        for seed in ("1", "2")
    ]
    assert runs[0][0] == runs[1][0] == str(hash(tri2(3)))
    assert runs[0][1] != runs[1][1]  # the seeds do change str hashes


@pytest.mark.parametrize("spec", ["mat:3:2", "mat:2:7"])
def test_building_a_ring_needs_a_few_copies_of_its_tables(spec):
    # the builders and validate_ring keep the tables in their dtype and
    # chunk the checks by rows, so no n x n int64 copy and no
    # (rows x n x dim) product temporary is ever alive
    ring, peak = peak_bytes(lambda: parse_ring_spec(spec))
    tables = ring.add.nbytes + ring.mul.nbytes
    assert peak <= 3 * tables + 2 ** 20, (peak, tables)


F2_7 = "prod:" + ",".join(["zmod:2"] * 7)


@pytest.mark.parametrize("spec, builtin", [
    ("zmod:12", True), ("tri2:5", True), (F2_7, True),
    ("zmod:360", False), ("mat:3:2", False),
])
def test_both_sha256_implementations_give_hashlibs_digests(spec, builtin,
                                                           monkeypatch):
    # in a process that has hashed nothing yet, the built-in sha256 takes a
    # document estimated at up to 2^19 bytes and OpenSSL's a larger one;
    # either must give hashlib's digests
    ring = parse_ring_spec(spec)
    pick, picked = rings._sha256, []

    def spy(size):
        picked.append(pick(size))
        return picked[-1]

    monkeypatch.setattr(rings, "_sha256", spy)
    monkeypatch.setattr(rings, "_builtin_left", rings._BUILTIN_SHA256_MAX)
    doc = serialize_ring(ring)
    assert ring.content_hash() == hashlib.sha256(doc).hexdigest()
    assert (picked[0] is rings._builtin_sha256) == builtin
    head = repr((ring.order, ring.one)).encode()
    want = hashlib.sha256(head + ring.add.tobytes() + ring.mul.tobytes())
    assert ring.digest == want.digest()


def test_the_builtin_sha256_takes_the_first_2_19_bytes(monkeypatch):
    top = rings._BUILTIN_SHA256_MAX
    data = bytes(range(256)) * (top // 256) + b"x"
    for size, want in ((top, rings._builtin_sha256), (top + 1, hashlib.sha256)):
        monkeypatch.setattr(rings, "_builtin_left", top)
        sha = rings._sha256(size)
        assert sha is want
        assert sha(data[:size]).digest() == hashlib.sha256(data[:size]).digest()
        # past the first 2^19 bytes, OpenSSL hashes everything
        assert rings._sha256(1) is hashlib.sha256


def test_without_the_builtin_sha256_hashlibs_is_used():
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib\n"
        "from atomspec import rings\n"
        "assert rings._builtin_sha256 is None\n"
        "assert rings._sha256(0) is hashlib.sha256\n"
        "ring = rings.tri2(5)\n"
        "doc = rings.serialize_ring(ring)\n"
        "assert ring.content_hash() == hashlib.sha256(doc).hexdigest()\n"
        "head = repr((ring.order, ring.one)).encode()\n"
        "tables = ring.add.tobytes() + ring.mul.tobytes()\n"
        "assert ring.digest == hashlib.sha256(head + tables).digest()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
