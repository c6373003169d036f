"""Resource gates, run as `PYTHONPATH=src python -m pytest -q gates`.

A row is one CLI cell (`--format json` is added): its exit code, a check of
its JSON report, and bounds on its wall seconds and peak RSS (ru_maxrss) in
MB, None where it has none.  A cell runs in a fresh process, is killed at
its time bound, and prints `gate <name>: exit <code> in <s> s, peak <MB> MB`.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from atomspec.rings import serialize_ring, zmod

SPAWN = os.path.join(os.path.dirname(__file__), "spawn.py")
SUM12 = "sum:" + "+".join(["regular"] * 12)  # F_2^12 over F_2, order 4096
F2_12 = "prod:" + ",".join(["zmod:2"] * 12)  # the ring F_2^12, order 4096
capped = lambda r: r["error"]["type"] == "CapExceededError"  # noqa: E731
passed = lambda r: r["result"]["passed"] is True  # noqa: E731
valid = lambda r: r["result"]["valid"] is True  # noqa: E731

ROWS = [  # name, argv, exit code, check, seconds, MB
    # the 12.9 MB report is written as it is produced; built whole, 93 MB.
    # It takes about 1 s
    ("serre F2^10", ["serre", "--ring", "prod:" + ",".join(["zmod:2"] * 10)], 0,
     lambda r: (r["result"]["count"], len(r["result"]["edges"])) == (1024, 5120),
     10, 70),
    # the tables stay int16 from build to validation, and validation makes
    # no transposed copy or n x n temporary (146 MB each with them, 505 MB
    # with int64 copies); F2^12 peaks building its product tables
    ("validate zmod:4096", ["validate", "--ring", "zmod:4096"], 0, valid, None, 130),
    ("validate F2^12", ["validate", "--ring", F2_12], 0, valid, None, 150),
    # the tables are read into arrays from a read-only map of the file,
    # whose pages are given back behind the reader, so the cell costs what
    # the builtin does: 337 MB with the file's bytes and text read whole,
    # 1.8 GB through json.loads
    ("validate Z/4096 document", ["validate", "--ring", "{z4096}"], 0,
     lambda r: valid(r) and r["ring"]["hash"] == zmod(4096).content_hash(),
     None, 130),
    # the first table row wider than the cap is refused from the first
    # pages of the map; reading the whole file first peaked at 334 MB
    ("validate Z/4096 document --max-order 64",
     ["validate", "--ring", "{z4096}", "--max-order", "64"], 1, capped,
     lambda took: took["validate Z/4096 document"] / 4, 60),
    # the 8.2 MB canonical document is refused at its first row too, the
    # room for its table counted in bytes; decoding all of it peaked at 48 MB
    ("validate Z/1024 document --max-order 64",
     ["validate", "--ring", "{z1024}", "--max-order", "64"], 1, capped, 10, 40),
    # a file small enough to be read whole, not mapped, is refused at its
    # first row as a mapped one is, though a byte after it is not UTF-8;
    # decoding it whole first gave RingFormatError
    ("validate wide row, then a bad byte --max-order 64",
     ["validate", "--ring", "{wide}", "--max-order", "64"], 1, capped, 10, 40),
    # support reads column 1 of the action table, and filtration takes 12
    # steps of colon ideals, not 4.9e11 subspaces
    ("support F2^12", ["support", "--ring", "zmod:2", "--module", SUM12], 0,
     lambda r: r["result"]["atoms"] == [0], None, None),
    ("filtration F2^12", ["filtration", "--ring", "zmod:2", "--module", SUM12], 0,
     lambda r: len(r["result"]["chain"]) == 13, None, None),
    # column 1 of the action table against the socle; the module's lattice
    # and colon table took 3.7-4.5 s and 177 MB (2.6-3.0 s and 144 MB
    # after, 115 MB once validation made no n x n temporary)
    ("monoform zmod:4096",
     ["monoform", "--ring", "zmod:4096", "--module", "regular"], 0,
     lambda r: r["result"]["monoform"] is False, 10, 140),
    # the whole battery at the order frontier: zmod:2048 took 149 s and
    # 1.9 GB before maps were checked on generators; at the order cap,
    # zmod:4096 took 66.9 s and 805 MB before each subquotient was built
    # once per run (15-23 s, 330-339 MB after)
    ("check zmod:1024", ["check", "--ring", "zmod:1024"], 0, passed, 60, 600),
    ("check zmod:2048", ["check", "--ring", "zmod:2048"], 0, passed, 60, 600),
    ("check mat:2:7", ["check", "--ring", "mat:2:7"], 0, passed, 60, 600),
    ("check zmod:4096", ["check", "--ring", "zmod:4096"], 0, passed, 60, 450),
    # the lattice search stops at 2^25 bytes of keys, after 32,769 of
    # 8,283,459 ideals; check refuses more than 256 right ideals (2,826)
    ("ideals F2 x F2^9", ["ideals", "--ring", "{f2x9}"], 1, capped, 30, 150),
    ("check F2 x F2^6", ["check", "--ring", "{f2x6}"], 1, capped, 30, 150),
    # one atom, whose one member is V: the comonoform ideals are found
    # among the annihilators of the characters of (R, +), one socle test
    # each; testing each of the 29,213 right ideals took 4.5-5.2 s and
    # 74 MB, and at F2 x F2^8 the lattice search stopped at its cap
    ("spectrum F2 x F2^7", ["spectrum", "--ring", "{f2x7}"], 0,
     lambda r: (r["result"]["atom_count"], r["result"]["atoms"][0]["members"])
     == (1, [list(range(128))]), 5, 60),
    ("spectrum F2 x F2^8", ["spectrum", "--ring", "{f2x8}"], 0,
     lambda r: (r["result"]["atom_count"], r["result"]["atoms"][0]["members"])
     == (1, [list(range(256))]), 5, 60),
    # 12 atoms among 4,095 distinct annihilators of characters; the
    # lattice of its 4,096 right ideals took 56 s and 195 MB
    ("spectrum F2^12", ["spectrum", "--ring", F2_12], 0,
     lambda r: r["result"]["atom_count"] == 12, 30, 250),
    # refused before their tables or positions are built; a product's
    # factor orders are read off the spec text, so no factor is built
    # (0.23 s and 34 MB; building the first zmod:4096 took 146 MB)
    ("validate mat:99999999:2", ["validate", "--ring", "mat:99999999:2"], 1,
     capped, 10, 200),
    ("validate 60 x zmod:4096",
     ["validate", "--ring", "prod:" + ",".join(["zmod:4096"] * 60)], 1,
     capped, 2, 50),
]


def measure(argv, seconds):
    """(exit code, stdout bytes, wall seconds, peak RSS in MB) of
    `python -m atomspec.cli *argv`, spawned by a fresh gates/spawn.py."""
    done = subprocess.run([sys.executable, SPAWN, json.dumps([argv, seconds])],
                          stdout=subprocess.PIPE, check=True)
    head, _, out = done.stdout.partition(b"\n")
    code, took, kb = json.loads(head)
    return code, out, took, kb / 1024


@pytest.fixture(scope="session")
def docs():
    """The ring documents the rows name: Z/4096 written row by row, the
    canonical document of Z/1024, a 30 KB head of a table whose first row
    holds 100 numbers and then a byte that is not UTF-8, and F_2 x F_2^k
    (basis 1, e_1..e_k, e_i e_j = 0 for i, j >= 1), k = 6 to 9."""
    n = 4096
    names = [str(v) for v in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"z4096": os.path.join(tmp, "z4096.json"),
                 "z1024": os.path.join(tmp, "z1024.json"),
                 "wide": os.path.join(tmp, "wide.json")}
        with open(paths["z1024"], "wb") as f:
            f.write(serialize_ring(zmod(1024)))
        with open(paths["wide"], "wb") as f:
            f.write(('{"order": 100, "one": 1, "add": [%s,' % json.dumps(list(range(100)))
                     + " " * 30_000).encode() + b"\xff")
        with open(paths["z4096"], "w") as f:
            f.write(f'{{"order":{n},"one":1,"add":[')
            f.write(",".join("[" + ",".join(names[i:] + names[:i]) + "]"
                             for i in range(n)))
            f.write('],"mul":[')
            f.write(",".join("[" + ",".join(names[i * j % n] for j in range(n)) + "]"
                             for i in range(n)))
            f.write("]}")
        for k in (6, 7, 8, 9):
            d = k + 1
            consts = [[[int(l == i + j and 0 in (i, j)) for l in range(d)]
                       for j in range(d)] for i in range(d)]
            paths[f"f2x{k}"] = os.path.join(tmp, f"f2-x-f2-{k}.json")
            with open(paths[f"f2x{k}"], "w") as f:
                json.dump({"fp_algebra": {"p": 2, "dim": d, "structure_constants": consts,
                                          "unit_vector": [1] + [0] * k}}, f)
        yield paths


@pytest.fixture(scope="session")
def took():  # wall seconds of each row run so far, by name
    return {}


@pytest.mark.parametrize("name, argv, code, check, seconds, mb", ROWS,
                         ids=[row[0] for row in ROWS])
def test_gate(name, argv, code, check, seconds, mb, docs, took, capsys):
    if callable(seconds):
        seconds = seconds(took)
    argv = [arg.format(**docs) for arg in argv] + ["--format", "json"]
    got, out, took[name], peak = measure(argv, seconds)
    with capsys.disabled():
        print(f"\ngate {name}: exit {got} in {took[name]:.2f} s, peak {peak:.0f} MB")
    assert got == code
    assert check(json.loads(out))
    assert seconds is None or took[name] < seconds
    assert mb is None or peak < mb


def test_a_reading_ignores_the_test_process_peak():
    # a cell spawned from this process would start its ru_maxrss at this
    # process's peak: a trivial one read 313 MB after 300 MB was touched
    touched = b"x" * (300 << 20)
    del touched
    code, _, _, peak = measure(["validate", "--ring", "zmod:2", "--format", "json"], None)
    assert code == 0 and peak < 60
