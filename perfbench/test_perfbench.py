"""Tests of the benchmark itself, on rings small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from workloads import Cell, WrongAnswer

sys.path.insert(0, str(run.SRC))
from atomspec import checks, cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, _ = cli.run([*args, "--format", "json"])
    return code, out.getvalue()


def _doc(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.fixture
def small_cells(tmp_path):
    rng = random.Random(7)
    zmod = workloads.relabel(workloads.zmod_tables(12), rng)
    tri = workloads.relabel(workloads.tri2_tables(2), rng)
    vee = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
    zmod_path = _doc(tmp_path, "zmod12.json", workloads.table_document(zmod))
    tri_path = _doc(tmp_path, "tri2.json", workloads.table_document(tri))
    inc_path = _doc(tmp_path, "inc3.json",
                    workloads.incidence_document(vee, 2, rng))
    bad_path = _doc(tmp_path, "bad.json",
                    workloads.table_document(workloads.corrupt(zmod, rng)))
    return [
        Cell("validate zmod:12", ("validate", "--ring", zmod_path),
             workloads.valid_ring(12, zmod[2])),
        Cell("validate corrupted", ("validate", "--ring", bad_path),
             workloads.rejected),
        Cell("serre tri2:2", ("serre", "--ring", tri_path),
             workloads.serre_lattice(2)),
        Cell("serre F2I(vee3)", ("serre", "--ring", inc_path),
             workloads.serre_lattice(3)),
        Cell("check zmod:12", ("check", "--ring", zmod_path),
             workloads.checks_pass(12)),
        Cell("support zmod:12", ("support", "--ring", zmod_path, "--module",
                                 "sum:regular+regular"),
             workloads.full_support(workloads.distinct_primes(12))),
    ]


def test_small_relabelled_rings_meet_known_answers(small_cells):
    for cell in small_cells:
        cell.verify(*_cli(cell.args))


def test_known_answers_catch_wrong_output(small_cells):
    validate, corrupted, serre_tri = small_cells[:3]
    with pytest.raises(WrongAnswer, match="count"):
        workloads.serre_lattice(3)(*_cli(serre_tri.args))
    with pytest.raises(WrongAnswer, match="exit code"):
        workloads.rejected(*_cli(validate.args))
    with pytest.raises(WrongAnswer, match="exit code"):
        workloads.valid_ring(12)(*_cli(corrupted.args))
    with pytest.raises(WrongAnswer, match="one"):
        workloads.valid_ring(12, one=-1)(*_cli(validate.args))


def test_corruption_always_breaks_an_axiom(tmp_path):
    rng = random.Random(3)
    tables = workloads.zmod_tables(6)
    for i in range(20):
        bad = workloads.table_document(workloads.corrupt(tables, rng))
        path = _doc(tmp_path, f"bad{i}.json", bad)
        workloads.rejected(*_cli(["validate", "--ring", path]))


def test_relabelling_is_seeded_and_keeps_zero():
    raw = workloads.tri2_tables(3)
    a = workloads.relabel(raw, random.Random(5))
    b = workloads.relabel(raw, random.Random(5))
    assert a == b
    assert a != workloads.relabel(raw, random.Random(6))
    add, _, _ = a
    assert add[0] == list(range(len(add)))


def test_check_metrics_match_the_check_battery():
    names = {n for n in PER_LAYER if n.startswith("checks.") and n.endswith("_s")}
    assert names == {
        "checks." + c.__name__.removeprefix("check_") + "_s"
        for c in checks.ALL_CHECKS
    }


def test_end_to_end_metrics_and_fingerprints(small_cells, tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + run.RUN_LIMIT_S)
    values, every = run.measure(small_cells, runner, seconds=0)
    assert set(values) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(values[name] > 0 for name in values)
    assert len(every) == run.MIN_PASSES * len(small_cells)
    assert [e.problem for e in every] == [None] * len(every)


def test_every_layer_metric_appears_where_it_applies(small_cells, tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + run.RUN_LIMIT_S)
    values, every = run.trace(small_cells, runner, PER_LAYER)
    assert set(values) == set(PER_LAYER)
    assert [e.problem for e in every] == [None] * len(every)
    reported_only = {"trace.overhead_s", "checks.failed"}
    missing = [n for n in PER_LAYER if n not in reported_only and not values[n] > 0]
    assert missing == []
    assert values["checks.failed"] == 0


def test_timed_out_cell_fails_and_keeps_its_time(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic())
    slow = Cell("slow", ("check", "--ring", "mat:2:2"), workloads.checks_pass(16))
    ex = runner.run(slow, "cli")
    assert ex.problem.startswith("timed out")
    assert ex.wall_s >= 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
