"""Ring documents read through the matrix reader against json.loads.

`parse_ring_document` reads every square matrix of ids straight into a
table array and leaves everything else to json.  `oracle_parse` below is
the function as it was when json.loads read the whole document into lists:
both must give the same ring, byte for byte, or the same error type and
message, on documents written with any separators, whitespace and key
order, with a duplicate key, and with single-token corruptions.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec import cli, rings
from atomspec.rings import (
    DEFAULT_ORDER_CAP,
    CapExceededError,
    RingError,
    RingFormatError,
    fp_algebra,
    parse_ring_document,
    serialize_ring,
    validate_ring,
    zmod,
)
from conftest import incidence_constants, make_zoo, peak_bytes, posets

ZOO = make_zoo()


def _oracle_require_ints(value, depth: int, what: str) -> None:
    if depth == 0:
        if type(value) is not int:
            raise RingFormatError(f"{what} = {value!r} is not an integer")
        return
    if not isinstance(value, list):
        raise RingFormatError(f"{what} must be a list")
    if depth == 1 and set(map(type, value)) <= {int}:
        return
    for i, v in enumerate(value):
        _oracle_require_ints(v, depth - 1, f"{what}[{i}]")


def oracle_parse(data, *, order_cap=DEFAULT_ORDER_CAP):
    """parse_ring_document with the whole document read by json.loads."""
    if isinstance(data, bytes):
        try:
            data = data.decode()
        except UnicodeDecodeError as exc:
            raise RingFormatError(f"not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise RingFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RingFormatError("ring document must be an object")
    keys = set(doc)
    fp_fields = {"p", "dim", "structure_constants", "unit_vector"}
    if keys == {"fp_algebra"}:
        inner = doc["fp_algebra"]
        if not isinstance(inner, dict) or set(inner) != fp_fields:
            raise RingFormatError(
                f"fp_algebra must have exactly fields {sorted(fp_fields)}"
            )
        for key, depth in (("p", 0), ("dim", 0), ("structure_constants", 3),
                           ("unit_vector", 1)):
            _oracle_require_ints(inner[key], depth, key)
        return fp_algebra(
            inner["p"], inner["dim"],
            inner["structure_constants"], inner["unit_vector"],
            order_cap=order_cap,
        )
    ring_fields = {"order", "one", "add", "mul"}
    if keys != ring_fields:
        unknown = keys - ring_fields
        missing = ring_fields - keys
        parts = []
        if unknown:
            parts.append(f"unknown fields {sorted(unknown)}")
        if missing:
            parts.append(f"missing fields {sorted(missing)}")
        raise RingFormatError("; ".join(parts))
    for key, depth in (("order", 0), ("one", 0), ("add", 2), ("mul", 2)):
        _oracle_require_ints(doc[key], depth, key)
    n = doc["order"]
    if len(doc["add"]) != n:
        raise RingFormatError(f"add table must have {n} rows")
    return validate_ring(doc["add"], doc["mul"], doc["one"], order_cap=order_cap)


def outcome(parse, text: str):
    try:
        return serialize_ring(parse(text.encode()))
    except RingError as exc:
        return type(exc).__name__, str(exc)


# the reader as shipped, which reads every square matrix of ids
READERS = ("shipped",)
# an order-2 document around an add table
TWO = '{"order": 2, "one": 1, "add": %s, "mul": [[0, 0], [0, 1]]}'

TOKENS = ("true", "1.5", "1e2", "01", "-0", "1234567890123456789", "null")
CORRUPTIONS = TOKENS + ("ragged", "empty row", "trailing comma",
                        "out of range")
PLACEHOLDER = "@token@"


@st.composite
def document_values(draw):
    """(value, size) of a ring document: a zoo ring or an incidence
    algebra in table form, size its order, or an incidence algebra in
    fp_algebra form, size its dimension."""
    kind = draw(st.sampled_from(("zoo", "incidence", "fp_algebra")))
    if kind == "zoo":
        ring = draw(st.sampled_from(ZOO))
    else:
        d, consts, unit = incidence_constants(*draw(posets(max_points=3)))
        if kind == "fp_algebra":
            return {"fp_algebra": {"p": 2, "dim": d, "structure_constants":
                                   consts, "unit_vector": unit}}, d
        ring = fp_algebra(2, d, consts, unit)
    return {"order": ring.order, "one": ring.one, "add": ring.add.tolist(),
            "mul": ring.mul.tolist()}, ring.order


def corrupt(draw, value: dict, n: int, corruption) -> None:
    """Apply one corruption in place, at an entry drawn from a table."""
    if "fp_algebra" in value:
        inner = value["fp_algebra"]
        table = inner["structure_constants"][draw(st.integers(0, n - 1))]
        scalars = (inner, ("p", "dim"))
    else:
        table = value[draw(st.sampled_from(("add", "mul")))]
        scalars = (value, ("order", "one"))
    i = draw(st.integers(0, len(table) - 1))
    j = draw(st.integers(0, len(table[i]) - 1))
    if corruption in TOKENS:
        if draw(st.booleans()):
            table[i][j] = PLACEHOLDER
        else:
            scalars[0][draw(st.sampled_from(scalars[1]))] = PLACEHOLDER
    elif corruption == "ragged":
        del table[i][j]
    elif corruption == "empty row":
        table[i] = []
    elif corruption == "trailing comma":
        (table[i] if draw(st.booleans()) else table).append(PLACEHOLDER)
    elif corruption == "out of range":
        table[i][j] = draw(st.sampled_from((n, n + 1, 10 ** 6, 2 ** 64)))


@st.composite
def documents(draw):
    value, n = draw(document_values())
    corruption = draw(st.none() | st.sampled_from(CORRUPTIONS))
    corrupt(draw, value, n, corruption)
    keys = draw(st.permutations(list(value)))
    value = {key: value[key] for key in keys}
    item = draw(st.sampled_from((",", ", ", " , ", ",\n", "\t,")))
    colon = draw(st.sampled_from((":", ": ", " :\t")))
    indent = draw(st.sampled_from((None, 0, 2, "\t")))
    text = json.dumps(value, separators=(item, colon), indent=indent)
    if corruption in TOKENS:
        text = text.replace(json.dumps(PLACEHOLDER), corruption)
    elif corruption == "trailing comma":
        text = text.replace(json.dumps(PLACEHOLDER), "")
    # a duplicate key: first, so the later value wins, or last, so it does
    key = draw(st.sampled_from(keys))
    duplicate = f'"{key}"{colon}{draw(st.sampled_from(("0", "[[0]]", "[]")))}'
    where = draw(st.none() | st.sampled_from(("first", "last")))
    if where == "first":
        text = "{" + duplicate + item + text[1:]
    elif where == "last":
        text = text[:-1] + item + duplicate + "}"
    pad = st.sampled_from(("", " ", "\n", "\r\n\t"))
    return draw(pad) + text + draw(pad)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=100, deadline=None)
@given(text=documents())
def test_documents_read_as_json_reads_them(reader, text):
    assert outcome(parse_ring_document, text) == outcome(oracle_parse, text)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text", [
    '{"order": 1\u0661, "one": 0, "add": [[0]], "mul": [[0]]}',
    '{"order": 1, "one": 0, "add": [[0\u0661]], "mul": [[0]]}',
    '{"order": 1, "one": 0, "add": [[0]], "mul": [[0]], }',
    '{"order": 1, "one": 0, "add": [[0]] "mul": [[0]]}',
    '{"order": 1, "one": 0, "add": [[0]], "mul": [[0]]} [',
    '\ufeff{"order": 1, "one": 0, "add": [[0]], "mul": [[0]]}',
    '{"order": 1, "one": 0, "add": [[0],], "mul": [[0]]}',
    '{"order": 2, "one": 1, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]',
    '{"order": 1, "one": 0, "add": [[0]], "mul": [[[0]]]}',
    '{"order": [[0]], "one": 0, "add": [[0]], "mul": [[0]]}',
    '[[0]]',
    TWO % "[[0 1],[1,0]]",
    TWO % "[[0,1],,[1,0]]",
    TWO % "[[0,01],[1,0]]",
    TWO % "[[0,1,],[1,0]]",
    TWO % "[[0, ],[1,0]]",
    TWO % "[[0,18446744073709551617],[1,0]]",
    TWO % "[ [ 0 , 1 ] , [ 1 , 0 ] ]",
], ids=["digit-in-scalar", "digit-in-row", "object-comma", "no-comma",
        "extra-data", "bom", "row-comma", "unclosed", "deep-table",
        "matrix-order", "matrix-document", "space-in-row", "double-comma",
        "leading-zero", "row-trailing-comma", "blank-entry", "past-uint64",
        "padded"])
def test_edge_documents_read_as_json_reads_them(reader, text):
    assert outcome(parse_ring_document, text) == outcome(oracle_parse, text)


def test_large_tables_are_read_into_table_arrays():
    ring = zmod(200)
    doc = rings._read_document(serialize_ring(ring))
    for name in ("add", "mul"):
        assert isinstance(doc[name], np.ndarray)
        assert doc[name].dtype == np.int16
        assert np.array_equal(doc[name], getattr(ring, name))


@pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
def test_reading_a_document_takes_its_text_and_tables(indent):
    # json's lists took about 16 bytes an entry, and int64 copies 8 more
    ring = zmod(512)
    data = serialize_ring(ring) if indent is None else json.dumps(
        {"order": ring.order, "one": ring.one, "add": ring.add.tolist(),
         "mul": ring.mul.tolist()}, indent=indent).encode()
    tables = 2 * 512 * 512 * np.dtype(np.int16).itemsize
    _, peak = peak_bytes(lambda: parse_ring_document(data))
    assert peak < len(data) + 3 * tables + (1 << 20)


def test_bytes_are_read_without_a_copy_of_their_text():
    # json reads only the text between the tables, which are read from
    # the bytes; decoding them whole took as much again as the 2 MB of bytes
    ring = zmod(512)
    data = serialize_ring(ring)
    tables = 2 * 512 * 512 * np.dtype(np.int16).itemsize
    doc, peak = peak_bytes(lambda: rings._read_document(data))
    assert np.array_equal(doc["mul"], ring.mul)
    assert peak < tables + (1 << 18)


def test_the_cli_frees_the_text_before_validation(tmp_path, monkeypatch):
    # the validation temporaries add to the tables, not to the text too
    path = tmp_path / "z512.json"
    path.write_bytes(serialize_ring(zmod(512)))
    held = []

    def validate(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return validate_ring(*args, **kwargs)

    monkeypatch.setattr(rings, "validate_ring", validate)
    tracemalloc.start()
    try:
        cli._load_ring(str(path), DEFAULT_ORDER_CAP)
    finally:
        tracemalloc.stop()
    tables = 2 * 512 * 512 * np.dtype(np.int16).itemsize
    assert held[0] < tables + path.stat().st_size // 2


def test_a_first_row_longer_than_the_text_allows_is_declined():
    # k numbers in the first row open a k x k matrix only if the text has
    # room for it, so the reader allocates no 200,000^2 table
    text = "[[" + ",".join(["0"] * 200_000) + "]]"
    start = time.monotonic()
    assert rings._read_matrix(text, 1) is None
    assert time.monotonic() - start < 1.0


def test_a_matrix_above_the_cap_stops_the_read():
    # the add table's first row shows order 128 > 64, so the read stops
    # there and never reaches the broken JSON after it
    add = json.dumps(zmod(128).add.tolist())
    text = '{"order": 128, "one": 1, "add": ' + add + ', "mul": [[0, '
    with pytest.raises(CapExceededError, match="order 128 exceeds cap 64"):
        parse_ring_document(text, order_cap=64)


def cli_outcome(tmp_path, data: bytes, order_cap: int):
    path = tmp_path / "ring.json"
    path.write_bytes(data)
    try:
        return serialize_ring(cli._load_ring(str(path), order_cap))
    except RingError as exc:
        return type(exc).__name__, str(exc)


Z100 = ('{"order": 100, "one": 1, "add": %s, "mul": %s}'
        % (json.dumps(zmod(100).add.tolist()), json.dumps(zmod(100).mul.tolist())))
ROW = json.dumps(list(range(100)))
PAD = " " * 400_000  # room for a 100 x 100 table even at 4 bytes a character


@pytest.mark.parametrize("text", [
    Z100, Z100 + PAD, Z100[:30_000] + PAD, Z100[:100_000],
    '{"a": [%s], %s' % (ROW, Z100[1:]) + PAD,
    '{"a": [%s],%s %s' % (ROW, PAD, Z100[1:]),
    # room for the add table at 4 bytes a character, but not for a's
    '{"a": [%s], %s' % (json.dumps(list(range(200))), Z100[1:]) + PAD[:130_000],
    '{"pad": "%s", %s' % ("é" * 40_000, Z100[1:]) + PAD,
    '{"order": 1, "one": 0, "add": [[0]] "mul": %s}' % ROW + PAD,
], ids=["z100", "padded", "cut-in-head", "cut-after-head", "row-first",
        "row-first-apart", "wider-row-first", "non-ascii", "bad-json-first"])
@pytest.mark.parametrize("cap", [64, 100, 4096])
def test_the_cli_reads_a_head_and_the_document_alike(tmp_path, text, cap):
    # the CLI reads the tables from a map of the file and gives json only
    # the text between them, with the outcome of the whole text
    assert cli_outcome(tmp_path, text.encode(), cap) == outcome(
        lambda data: parse_ring_document(data, order_cap=cap), text)


def test_a_row_wider_than_the_cap_is_refused_from_the_head(tmp_path):
    # the bytes after the first row are not UTF-8: the CLI refuses the row
    # without reading them, while bytes are decoded whole first
    data = ('{"order": 100, "one": 1, "add": [%s,' % ROW + PAD).encode() + b"\xff"
    assert cli_outcome(tmp_path, data, 64) == (
        "CapExceededError", "order 100 exceeds cap 64")
    with pytest.raises(RingFormatError, match="not UTF-8 text"):
        parse_ring_document(data, order_cap=64)
