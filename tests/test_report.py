"""Reports written a piece at a time.

`cli.json_chunks` walks dicts and `Rows` and hands every other value to
json's C encoder whole; joined, its pieces must be json.dumps's text.  The
`serre` and `ideals` payloads hold their long lists as `Rows`, formatted
when read.  `oracle_text` and `oracle_dot` below are the text and DOT
renderers as they were when each built its whole output as one string;
the streamed renderers must give the same text.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomspec.cli import json_chunks, run
from atomspec.rings import Rows, serialize_ring
from conftest import make_zoo

F2_8 = "prod:" + ",".join(["zmod:2"] * 8)


def oracle_text(report: dict, elapsed: float) -> str:
    """The `ideals` and `serre` text form, built as one string."""
    lines = [f"verb: {report['verb']}",
             f"ring: order {report['ring']['order']}, "
             f"hash {report['ring']['hash'][:12]}"]
    payload = report["result"]
    if report["verb"] == "ideals":
        lines.append(f"{payload['count']} right ideals:")
        lines += [f"  {ideal}" for ideal in payload["ideals"]]
    else:
        lines.append(f"{payload['count']} Serre subcategories:")
        for i, s in enumerate(payload["subcategories"]):
            gens = ", ".join(f"R/{q}" for q in s["generators"]) or "(zero)"
            lines.append(f"  [{i}] open {s['open_set']}: <{gens}>")
        lines.append(f"covering edges: {payload['edges']}")
    if report.get("cap_warnings"):
        lines += [f"warning: {w}" for w in report["cap_warnings"]]
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n"


def oracle_dot(lattice: dict) -> str:
    lines = ["digraph serre_lattice {", "  rankdir=BT;"]
    for i, s in enumerate(lattice["subcategories"]):
        label = "{" + ",".join(map(str, s["open_set"])) + "}"
        gens = "; ".join(f"R/{q}" for q in s["generators"]) or "0"
        lines.append(f'  n{i} [label="{label}\\n{gens}"];')
    lines += [f"  n{i} -> n{j};" for i, j in lattice["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


class WriteRecorder(io.StringIO):
    """stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def _run(argv):
    out = WriteRecorder()
    with contextlib.redirect_stdout(out):
        code, report = run(argv)
    return code, report, out


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def as_rows(value):
    """value with every list made a Rows view over its items."""
    if isinstance(value, dict):
        return {key: as_rows(v) for key, v in value.items()}
    if isinstance(value, list):
        return Rows([as_rows(v) for v in value], lambda row: row)
    return value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é ∂ 𝔽 \ud800"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_chunks_join_to_json_dumps(value):
    assert "".join(json_chunks(value)) == canonical(value)
    assert "".join(json_chunks(as_rows(value))) == canonical(value)


def materialised(report: dict) -> dict:
    """report with its Rows read into lists, as the renderers once got it."""
    result = {key: list(value) if isinstance(value, Rows) else value
              for key, value in report["result"].items()}
    return dict(report, result=result)


@pytest.mark.parametrize("ring", make_zoo(), ids=lambda r: r.name)
def test_text_and_graph_match_whole_string_renderers(ring, tmp_path):
    path = tmp_path / "ring.json"
    path.write_bytes(serialize_ring(ring))
    for verb in ("ideals", "serre"):
        argv = [verb, "--ring", str(path)]
        _, report, out = _run(argv)
        report = materialised(report)
        text = out.getvalue()
        elapsed = float(text.rsplit("elapsed: ", 1)[1].removesuffix("s\n"))
        assert text == oracle_text(report, elapsed)
        if verb == "serre":
            _, report, out = _run(argv + ["--format", "graph"])
            assert out.getvalue() == oracle_dot(materialised(report)["result"])


def test_no_write_holds_a_tenth_of_the_report():
    code, _, out = _run(["serre", "--ring", F2_8, "--format", "json"])
    assert code == 0
    size = len(out.getvalue())
    assert json.loads(out.getvalue())["result"]["count"] == 256
    assert max(out.lengths) <= size / 10, (max(out.lengths), size)


@pytest.mark.parametrize("verb, key", [("serre", "subcategories"),
                                      ("ideals", "ideals")])
def test_a_row_view_reads_the_same_twice(verb, key):
    code, report, out = _run([verb, "--ring", "zmod:60", "--format", "json"])
    assert code == 0
    rows = report["result"][key]
    assert isinstance(rows, Rows)
    first, second = list(rows), list(rows)
    assert first == second == json.loads(out.getvalue())["result"][key]
    assert len(rows) == report["result"]["count"] == len(first)
    assert [rows[i] for i in range(len(rows))] == first
    assert rows[1::3] == first[1::3] and rows[-1] == first[-1]
    with pytest.raises(TypeError):
        rows[0] = first[0]
