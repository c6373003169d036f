import json
import os
import resource
import subprocess
import sys
import time

import pytest

from atomspec import checks, serre
from atomspec.cli import run
from atomspec.modules import regular_module
from atomspec.rings import serialize_ring, zmod
from atomspec.serre import enumerate_serre


def capture_json(capsys, argv):
    code, report = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_json_is_byte_deterministic(capsys):
    argv = ["validate", "--ring", "zmod:12", "--format", "json"]
    _, first = capture_json(capsys, argv)
    _, second = capture_json(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert doc["verb"] == "validate"
    assert doc["result"]["valid"] is True
    assert doc["ring"]["order"] == 12


def test_spectrum_verb_reports_atoms(capsys):
    code, out = capture_json(
        capsys, ["spectrum", "--ring", "tri2:2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["atom_count"] == 2
    assert doc["result"]["comonoform_count"] == 4


def test_ideals_verb_counts(capsys):
    code, out = capture_json(
        capsys, ["ideals", "--ring", "tri2:2", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["result"]["count"] == 7
    assert [0, 2] in doc["result"]["ideals"]


def test_monoform_and_support_verbs(capsys):
    code, out = capture_json(
        capsys,
        ["monoform", "--ring", "zmod:12", "--module", "cyclic:6",
         "--format", "json"],
    )
    assert json.loads(out)["result"]["monoform"] is True
    code, out = capture_json(
        capsys,
        ["support", "--ring", "zmod:12", "--module", "regular",
         "--format", "json"],
    )
    assert json.loads(out)["result"]["atoms"] == [0, 1]


def test_ass_verb(capsys):
    code, out = capture_json(
        capsys,
        ["ass", "--ring", "zmod:12", "--module", "quot:0,2,4,6,8,10",
         "--format", "json"],
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["result"]["atoms"]) == 1


def test_filtration_verb(capsys):
    code, out = capture_json(
        capsys,
        ["filtration", "--ring", "zmod:12", "--module", "regular",
         "--format", "json"],
    )
    doc = json.loads(out)
    chain = doc["result"]["chain"]
    assert chain[0] == [0]
    assert chain[-1] == list(range(12))
    assert len(chain) == len(doc["result"]["labels"]) + 1


def test_serre_verb_text_and_graph(capsys):
    code, _ = run(["serre", "--ring", "tri2:2"])
    text = capsys.readouterr().out
    assert code == 0
    assert "4 Serre subcategories" in text
    code, _ = run(["serre", "--ring", "tri2:2", "--format", "graph"])
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert dot.count("->") == 4


def test_graph_format_enumerates_once(capsys, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return enumerate_serre(spec)

    monkeypatch.setattr(serre, "enumerate_serre", counted)
    code, _ = run(["serre", "--ring", "tri2:2", "--format", "graph"])
    assert code == 0
    assert capsys.readouterr().out.count("->") == 4
    assert len(calls) == 1


def test_check_verb_passes(capsys):
    code, out = capture_json(
        capsys, ["check", "--ring", "zmod:6", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("ring", ["zmod:17", "zmod:1"])
def test_check_verb_without_small_cyclic_modules(capsys, ring):
    # no proper R/I of order <= 16, and the zero ring has none at all
    code, out = capture_json(
        capsys, ["check", "--ring", ring, "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("cap, code", [(6, 0), (5, 1)])
def test_check_refuses_a_ring_over_the_check_cap(capsys, monkeypatch, cap,
                                                  code):
    # zmod:12 has 6 right ideals
    monkeypatch.setattr(checks, "CHECK_LATTICE_CAP", cap)
    got, out = capture_json(
        capsys, ["check", "--ring", "zmod:12", "--format", "json"]
    )
    assert got == code
    doc = json.loads(out)
    if code:
        assert doc["error"] == {
            "type": "CapExceededError",
            "message": "6 right ideals exceed the check cap 5",
        }
    else:
        assert doc["result"]["passed"] is True


def test_check_verb_reports_a_crashing_property(capsys, monkeypatch):
    # property 3 builds R/Ann(x) with quotient_module, so it raises there
    def boom(module, sub):
        raise ValueError("boom")

    monkeypatch.setattr(checks, "quotient_module", boom)
    code, out = capture_json(
        capsys, ["check", "--ring", "zmod:6", "--format", "json"]
    )
    assert code == 1
    result = json.loads(out)["result"]
    assert result["passed"] is False
    props = result["properties"]
    assert len(props) == len(checks.ALL_CHECKS)
    assert checks.ALL_CHECKS[3] is checks.check_cyclic_iso_quotient
    assert props[3] == {"property": "cyclic is R mod annihilator",
                        "passed": False, "witness": "ValueError: boom"}
    assert all(p["passed"] for i, p in enumerate(props) if i != 3)


def test_check_names_are_the_reported_names():
    ring = zmod(6)
    for check in checks.ALL_CHECKS:
        assert check.__name__.startswith("check_")
        name, passed, _ = check(ring)
        assert (name, passed) == (check.property, True)


def test_ring_file_input(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_bytes(serialize_ring(zmod(4)))
    code, out = capture_json(
        capsys, ["validate", "--ring", str(path), "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["ring"]["order"] == 4


@pytest.mark.parametrize("path", ["/nonexistent/ring.json", None],
                         ids=["missing", "directory"])
def test_missing_ring_file_is_domain_error(tmp_path, capsys, path):
    code, report = run(
        ["validate", "--ring", path or str(tmp_path), "--format", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "DomainError"


def test_bad_module_spec_exits_one(capsys):
    code, _ = run(
        ["monoform", "--ring", "zmod:12", "--module", "sub:0,5",
         "--format", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


def test_cap_exceeded_exits_one(capsys):
    code, _ = run(
        ["validate", "--ring", "zmod:100", "--max-order", "50",
         "--format", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "CapExceededError"


@pytest.mark.skipif(sys.platform != "linux",
                    reason="RLIMIT_AS bounds the address space on Linux")
def test_running_out_of_memory_is_a_json_error():
    # the two 20000 x 20000 int16 tables need 763 MiB each, more than a
    # 1 GiB address space holds; numpy's _ArrayMemoryError was a traceback
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "atomspec.cli", "validate", "--ring",
         "zmod:20000", "--max-order", "20000", "--format", "json"],
        capture_output=True, text=True, preexec_fn=limit, timeout=60,
    )
    assert proc.returncode == 1
    [line] = proc.stdout.splitlines()
    assert json.loads(line)["error"]["type"] == "MemoryError"
    assert "Traceback" not in proc.stderr


def test_graph_format_restricted_to_serre():
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--ring", "zmod:12", "--format", "graph"])
    assert exc.value.code == 2


def test_max_lattice_flag_is_a_usage_error():
    # the lattice search is bounded by DEFAULT_LATTICE_CAP, a budget of the
    # bytes it keeps, not by a flag
    with pytest.raises(SystemExit) as exc:
        run(["ideals", "--ring", "zmod:12", "--max-lattice", "10"])
    assert exc.value.code == 2


def test_check_imports_no_masked_arrays():
    # numpy.ma costs about 16 ms to import; np.unique imports it
    code = (
        "import contextlib, io, sys\n"
        "from atomspec.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['check', '--ring', 'zmod:12'])[0] == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, atomspec\n"
        "print(sorted(m for m in sys.modules if m.startswith('atomspec.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_check_loads_the_checks_module():
    code = (
        "import contextlib, io, sys\n"
        "from atomspec.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['validate', '--ring', 'zmod:12'])[0] == 0\n"
        "    assert run(['serre', '--ring', 'zmod:12'])[0] == 0\n"
        "    assert run(['support', '--ring', 'zmod:12',\n"
        "                '--module', 'regular'])[0] == 0\n"
        "    assert 'atomspec.checks' not in sys.modules\n"
        "    assert run(['check', '--ring', 'zmod:12'])[0] == 0\n"
        "assert 'atomspec.checks' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("given", [None, "2"])
def test_import_starts_no_blas_workers_and_restores_the_environment(given):
    # OpenBLAS is held to one thread while numpy loads, unless the user set
    # its thread count; either way the import leaves the variable as given
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = (
        "import atomspec.cli, os\n"
        "print(len(os.listdir('/proc/self/task')))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    assert value == str(given)
    if given is None:
        assert threads == "1"


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "atomspec.cli", "spectrum", "--ring",
         "zmod:12", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["atom_count"] == 2
    assert proc.stdout.endswith("\n")


def test_text_output_includes_timing(capsys):
    code, _ = run(["spectrum", "--ring", "zmod:12"])
    out = capsys.readouterr().out
    assert "elapsed:" in out
    assert "2 atoms" in out


def _zmod2_doc(**changes) -> dict:
    doc = json.loads(serialize_ring(zmod(2)))
    doc.update(changes)
    return doc


def _fp_doc(**changes) -> dict:
    inner = {"p": 2, "dim": 1, "structure_constants": [[[1]]],
             "unit_vector": [1]}
    inner.update(changes)
    return {"fp_algebra": inner}


def _validate_document(tmp_path, capsys, doc) -> tuple[int, dict]:
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["validate", "--ring", str(path), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("doc", [
    _zmod2_doc(one="x"),
    _zmod2_doc(order="a"),
    _fp_doc(p="x"),
    _fp_doc(structure_constants=5),
    _fp_doc(unit_vector=None),
], ids=["one-str", "order-str", "p-str", "constants-int", "unit-null"])
def test_malformed_document_is_format_error(tmp_path, capsys, doc):
    code, out = _validate_document(tmp_path, capsys, doc)
    assert code == 1
    assert out["error"]["type"] == "RingFormatError"


def test_non_utf8_document_is_format_error(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_bytes(b"\xff\xfe" + serialize_ring(zmod(2)))
    code, _ = run(["validate", "--ring", str(path), "--format", "json"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "RingFormatError"


def test_crlf_document_validates_with_the_lf_hash(tmp_path, capsys):
    text = json.dumps(json.loads(serialize_ring(zmod(12))), indent=1)
    hashes = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.replace("\n", newline).encode())
        code, _ = run(["validate", "--ring", str(path), "--format", "json"])
        assert code == 0
        hashes.append(json.loads(capsys.readouterr().out)["ring"]["hash"])
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("doc", [
    _zmod2_doc(one=True),
    _zmod2_doc(order=True, add=[[0]], mul=[[0]], one=0),
    _zmod2_doc(mul=[[0, 0], [0, True]]),
    _zmod2_doc(add=[[0, True], [1, 0]]),
    _fp_doc(p=True),
    _fp_doc(dim=True),
], ids=["one", "order", "mul-entry", "add-entry", "p", "dim"])
def test_json_booleans_are_rejected(tmp_path, capsys, doc):
    code, out = _validate_document(tmp_path, capsys, doc)
    assert code == 1
    assert out["error"]["type"] == "RingFormatError"
    assert "True" in out["error"]["message"]


MERSENNE_61 = 2 ** 61 - 1  # prime; trial division up to its root never ends


def test_astronomical_order_exceeds_cap(tmp_path, capsys):
    # 2^90000 and 2^20000 are past what str() will format, and the cap
    # must refuse 2^61 - 1 before its primality is tested
    rings = ["mat:300:2", f"tri2:{MERSENNE_61}", f"mat:2:{MERSENNE_61}"]
    for i, doc in enumerate([_fp_doc(dim=20000), _fp_doc(p=MERSENNE_61)]):
        path = tmp_path / f"ring{i}.json"
        path.write_text(json.dumps(doc))
        rings.append(str(path))
    for ring in rings:
        code, _ = run(["validate", "--ring", ring, "--format", "json"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "CapExceededError"


@pytest.mark.parametrize("text", [
    # past Python's 4,300-digit limit on int(), which json.loads raised
    '{"order": 1, "one": 0, "add": [[' + "7" * 5000 + ']], "mul": [[0]]}',
    # json.loads raised RecursionError
    '{"order": 1, "one": 0, "add": ' + "[" * 100_000 + "]" * 100_000
    + ', "mul": [[0]]}',
    # each level holds one array: read again at every level, the flat
    # list would cost 300 times its length
    '{"order": 1, "one": 0, "add": ' + "[" * 300 + ",".join(["0"] * 100_000)
    + "]" * 300 + ', "mul": [[0]]}',
], ids=["5000-digits", "nested-100000", "nested-300-flat"])
def test_unreadable_document_is_format_error(tmp_path, capsys, text):
    path = tmp_path / "ring.json"
    path.write_text(text)
    start = time.monotonic()
    code, _ = run(["validate", "--ring", str(path), "--format", "json"])
    assert time.monotonic() - start < 2.0
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "RingFormatError"


@pytest.mark.parametrize("verb, ring, module, cap", [
    ("support", "zmod:12", "sum:regular+regular+regular+regular", None),
    ("monoform", "zmod:12", "sum:regular+regular", "143"),
    ("ass", "zmod:12", "sum:quot:0,6+quot:0,6+cyclic:1", "215"),
    ("filtration", "tri2:5", "sum:regular+regular", None),
    ("support", "zmod:64", "sum:" + "+".join(["regular"] * 40), None),
])
def test_module_spec_over_the_order_cap_is_refused(capsys, verb, ring,
                                                   module, cap):
    argv = [verb, "--ring", ring, "--module", module, "--format", "json"]
    if cap is not None:
        argv += ["--max-order", cap]
    start = time.monotonic()
    code, _ = run(argv)
    assert time.monotonic() - start < 1.0
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "CapExceededError"
    assert "module order" in out["error"]["message"]


def test_module_spec_at_the_order_cap_is_built(capsys):
    # |R/{0,6}| = 6, so the sum has order 6 * 6 * 12 = 432
    code, out = capture_json(
        capsys, ["ass", "--ring", "zmod:12", "--module",
                 "sum:quot:0,6+quot:0,6+regular", "--max-order", "432",
                 "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["result"]["atoms"] == [0, 1]


@pytest.mark.parametrize("verb", ["support", "filtration"])
@pytest.mark.parametrize("ring, module", [
    ("zmod:12", "sum:regular+quot:0,6"),
    ("tri2:2", "sum:regular+cyclic:4"),
    ("mat:2:2", "sum:regular+regular"),
])
def test_module_verbs_build_no_lattice_of_the_module(capsys, monkeypatch,
                                                     verb, ring, module):
    # the spectrum reads the regular module's lattice; the module itself
    # is read through colon ideals only
    def guarded(fn):
        def call(mod, *args):
            assert mod == regular_module(mod.ring), (fn.__name__, mod)
            return fn(mod, *args)
        return call

    for name, namespace in list(sys.modules.items()):
        if name.startswith("atomspec"):
            for fn in ("submodule_lattice", "colon_table", "quotient_module"):
                if hasattr(namespace, fn):
                    monkeypatch.setattr(namespace, fn,
                                        guarded(getattr(namespace, fn)))
    code, out = capture_json(
        capsys, [verb, "--ring", ring, "--module", module, "--format", "json"]
    )
    assert code == 0, out


def test_support_of_a_large_sum_needs_no_lattice():
    # F_2^8 has 417,199 subspaces; its support comes from a filtration of
    # length 8
    module = "sum:" + "+".join(["regular"] * 8)
    code = (
        "import contextlib, io, resource, sys\n"
        "from atomspec.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code, report = run(['support', '--ring', 'zmod:2',"
        f" '--module', {module!r}, '--format', 'json'])\n"
        "try:  # ru_maxrss also holds the parent's resident set at the spawn\n"
        "    status = open('/proc/self/status').read()\n"
        "    peak = status.split('VmHWM:')[1].split()[0]\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(exit_code, report['result']['atoms'], peak)\n"
    )
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    exit_code, atoms, peak_kb = proc.stdout.split()
    assert (exit_code, atoms) == ("0", "[0]")
    assert int(peak_kb) < 200 * 1024
    assert elapsed < 5.0


def test_monoform_of_a_large_sum_needs_no_lattice(capsys):
    # F_2^8 has 417,199 subspaces; it is not uniform, so not monoform
    module = "sum:" + "+".join(["regular"] * 8)
    start = time.monotonic()
    code, out = capture_json(capsys, ["monoform", "--ring", "zmod:2", "--module",
                                      module, "--format", "json"])
    assert time.monotonic() - start < 2.0
    assert code == 0
    assert json.loads(out)["result"]["monoform"] is False
