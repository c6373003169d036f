"""One benchmark cell, run in a fresh interpreter so no cache carries over.

    python3 child.py <spawn_time> <mode> <meta_path> <src_dir> <cli args...>

<spawn_time> is the parent's time.monotonic() just before the spawn (the
clock is system-wide on Linux), so the child can report how long its
set-up took.  <mode> is one of

  cli       run cli.run(args) exactly as a user would;
  counters  the same, then read the lru_cache counters and time a second,
            warm cli.run(args);
  layers    call the public functions of each layer in the order the verb
            calls them, timing each call from outside the program; for
            `check` the regular lattice is built first, so it shows apart
            from the properties that use it.

The CLI's stdout goes to this process's stdout and the exit code is the
CLI's, except in `layers` mode, which prints nothing and exits 0.
Measurements go to <meta_path> as one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _import_cli(src: str):
    sys.path.insert(0, src)
    from atomspec import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"atomspec imported from {cli.__file__}, not {src}")
    return cli


def _write(meta_path: str, meta: dict) -> None:
    Path(meta_path).write_text(json.dumps(meta))


def _run_cli(cli, args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, _ = cli.run(args)
    return code, buf.getvalue()


def counters(cli, args, spawn: float, meta: dict) -> int:
    from atomspec import modules, monoform

    code, out = _run_cli(cli, args)
    meta["cold_s"] = time.monotonic() - spawn
    lattice = modules.submodule_lattice.cache_info()
    meta["modules.lattice_misses"] = lattice.misses
    meta["modules.lattice_hits"] = lattice.hits
    meta["modules.annset_misses"] = modules.annihilator_set.cache_info().misses
    meta["monoform.monoform_misses"] = monoform.is_monoform.cache_info().misses
    start = time.monotonic()
    _run_cli(cli, args)
    meta["cli.warm_s"] = time.monotonic() - start
    sys.stdout.write(out)
    return code


def _timer(meta: dict):
    """A function that calls fn(*args) and adds its time to meta[metric]."""
    def timed(metric: str, fn, *args):
        start = time.monotonic()
        try:
            return fn(*args)
        finally:
            meta[metric] = meta.get(metric, 0.0) + time.monotonic() - start
    return timed


def layers(cli, args, meta: dict) -> int:
    from atomspec import checks, modules, monoform, rings, serre, spectrum

    ns = cli.build_parser().parse_args(args)
    timed = _timer(meta)
    source = ns.ring
    try:
        if source.split(":", 1)[0] in rings.BUILTIN_PREFIXES:
            ring = timed("rings.load_s", rings.parse_ring_spec, source)
        else:
            data = Path(source).read_bytes()
            ring = timed("rings.load_s", rings.parse_ring_document, data)
    except rings.RingError:
        return 0
    meta["rings.order"] = ring.order
    if ns.verb == "validate":
        timed("rings.validate_s", rings.validate_ring, ring.add, ring.mul, ring.one)
        return 0

    reg = modules.regular_module(ring)
    lattice = timed("modules.lattice_s", modules.submodule_lattice, reg)
    meta["modules.lattice_size"] = len(lattice)
    if ns.verb == "check":
        failed = 0
        for check in checks.ALL_CHECKS:
            name = "checks." + check.__name__.removeprefix("check_") + "_s"
            _, passed, _ = timed(name, check, ring)
            failed += not passed
        meta["checks.failed"] = failed
        return 0

    proper = [ideal for ideal in lattice if len(ideal) < ring.order]
    comonoform = sum(
        timed("monoform.comonoform_s", monoform.is_comonoform, ring, ideal)
        for ideal in proper
    )
    meta["monoform.ideals_tested"] = len(proper)
    meta["monoform.comonoform_count"] = comonoform
    spec = timed("spectrum.atoms_s", spectrum.atom_spectrum, ring)
    meta["spectrum.atom_count"] = len(spec.atoms)
    if ns.verb == "support":
        module = timed("modules.module_load_s", modules.parse_module_spec,
                       ring, ns.module)
        timed("spectrum.module_support_s", spectrum.atom_support, spec, module)
    elif ns.verb == "serre":
        for ideal in spec.comonoform_ideals():
            timed("spectrum.supports_s", spec.support_of_ideal, ideal)
        opens = timed("spectrum.opens_s", spectrum.enumerate_open_sets, spec)
        meta["spectrum.open_count"] = len(opens)
        subs = timed("serre.enumerate_s", serre.enumerate_serre, spec)
        timed("serre.edges_s", serre.inclusion_edges, subs)
        meta["serre.count"] = len(subs)
    else:
        raise SystemExit(f"no layer trace for verb {ns.verb!r}")
    return 0


def main(argv: list[str]) -> int:
    spawn, mode, meta_path, src, *args = argv
    cli = _import_cli(src)
    meta = {"setup_s": time.monotonic() - float(spawn)}
    if mode == "cli":
        _write(meta_path, meta)
        return cli.main(args)
    if mode == "counters":
        code = counters(cli, args, float(spawn), meta)
    elif mode == "layers":
        code = layers(cli, args, meta)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    _write(meta_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
