"""Command-line surface.

Every verb emits a report with the same skeleton: verb echo, ring
fingerprint, and a verb-specific payload.  The structured (json) form is
the machine contract and is byte-deterministic for identical inputs; the
text form is a human rendering of the same payload plus timing.

Reports are written to stdout a piece at a time.  The `ideals` and `serre`
payloads hold their long lists as `Rows`, which format a row when it is
read, so no form of a report is ever built whole.  Everything a row shows
is computed before the first byte is written, so no domain error can come
up part-way through the output.

A run is one verb in its own process, so its start-up is part of its
cost.  This module loads only the ring layer; each verb imports the
layers it calls when it runs.  `main`, the process entry point, freezes
the collector first (see its docstring); `run`, the in-process API, never
does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import stat
import sys
import time
from collections.abc import Callable, Iterator

from .rings import (
    BUILTIN_PREFIXES,
    DEFAULT_ORDER_CAP,
    AtomspecError,
    FiniteRing,
    Rows,
    parse_ring_document,
    parse_ring_spec,
    run_memo,
)

VERBS = (
    "validate", "ideals", "spectrum", "monoform", "support",
    "ass", "filtration", "serre", "check",
)


class DomainError(AtomspecError):
    pass


# a ring file up to this size is read whole: mapping one loads the mmap
# module and more code, about 0.1 MB resident, as much as such a file
_MAP_FROM = 1 << 17


def _read_ring_file(source: str):
    """The bytes of a ring file, as a context manager.  A regular file of
    more than _MAP_FROM bytes is mapped read-only, and the reader gives its
    pages back as it goes; a file truncated while it is mapped can end the
    process with SIGBUS.  A smaller file, an empty one included, which
    cannot be mapped, and a pipe or other file that is not regular are
    read whole."""
    try:
        with open(source, "rb") as f:
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > _MAP_FROM:
                import mmap

                return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            return contextlib.nullcontext(f.read())
    except OSError as exc:  # missing, a directory, or not readable
        raise DomainError(f"ring file {source!r} cannot be read: "
                          f"{exc.strerror}") from exc


def _load_ring(source: str, order_cap: int) -> FiniteRing:
    head = source.split(":", 1)[0]
    if head in BUILTIN_PREFIXES:
        return parse_ring_spec(source, order_cap=order_cap)
    with _read_ring_file(source) as data:
        return parse_ring_document(data, order_cap=order_cap)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_chunks(value) -> Iterator[str]:
    """The text of json.dumps(value, sort_keys=True, separators=(",", ":")),
    a piece at a time.  Dicts, whose keys are strings, and Rows are walked;
    every other value, plain lists included, is encoded whole."""
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            yield f"{sep}{_ENCODER.encode(key)}:"
            yield from json_chunks(value[key])
            sep = ","
        yield "}" if sep == "," else "{}"
    elif isinstance(value, Rows):
        sep = "["
        for row in value:
            yield sep
            yield from json_chunks(row)
            sep = ","
        yield "]" if sep == "," else "[]"
    else:
        yield _ENCODER.encode(value)


def _write_lines(lines) -> None:
    write = sys.stdout.write
    for line in lines:
        write(line)
        write("\n")


def _write_json(report: dict) -> None:
    write = sys.stdout.write
    for chunk in json_chunks(report):
        write(chunk)
    write("\n")


def _payload_of(args) -> Callable[[FiniteRing], dict]:
    """The function from the ring to the result of args.verb.  It imports
    the layers that the verb calls and no others, so a verb loads no code
    it does not run; run calls it before it loads the ring."""
    verb = args.verb
    if verb == "validate":
        return lambda ring: {"valid": True, "order": ring.order,
                             "one": ring.one}
    if verb == "ideals":
        from .modules import regular_module, submodule_lattice

        def ideals(ring):
            lattice = submodule_lattice(regular_module(ring))
            return {"count": len(lattice), "ideals": Rows(lattice, sorted)}
        return ideals
    if verb == "spectrum":
        from .spectrum import atom_spectrum

        def spectrum(ring):
            spec = atom_spectrum(ring)
            return {
                "atom_count": len(spec.atoms),
                "comonoform_count": len(spec.comonoform_ideals()),
                "atoms": [
                    {
                        "id": atom.id,
                        "canonical_rep": sorted(atom.canonical_rep),
                        "members": [sorted(m) for m in atom.members],
                    }
                    for atom in spec.atoms
                ],
            }
        return spectrum
    if verb == "serre":
        from .serre import serre_lattice
        from .spectrum import atom_spectrum

        return lambda ring: serre_lattice(atom_spectrum(ring))
    if verb == "check":
        from .checks import check_suite

        return check_suite

    from .modules import parse_module_spec

    def module_of(ring):
        return parse_module_spec(ring, args.module, order_cap=args.max_order)

    if verb == "monoform":
        from .monoform import is_monoform

        return lambda ring: {"module": args.module,
                             "monoform": is_monoform(module_of(ring))}
    if verb in ("support", "ass"):
        from .spectrum import associated_atoms, atom_spectrum, atom_support

        atoms_of = atom_support if verb == "support" else associated_atoms

        def support(ring):
            module = module_of(ring)
            spec = atom_spectrum(ring)
            atoms = sorted(atoms_of(spec, module))
            return {
                "module": args.module,
                "atoms": atoms,
                "reps": [sorted(spec.atoms[a].canonical_rep) for a in atoms],
            }
        return support
    if verb == "filtration":
        from .monoform import monoform_filtration

        def filtration(ring):
            filt = monoform_filtration(module_of(ring))
            return {
                "module": args.module,
                "chain": [sorted(c) for c in filt.chain],
                "labels": [sorted(l) for l in filt.labels],
            }
        return filtration
    raise AssertionError(f"unhandled verb {verb}")


def _render_text(report: dict, elapsed: float) -> Iterator[str]:
    """The text form of a report, a line at a time, without line ends."""
    yield f"verb: {report['verb']}"
    yield (f"ring: order {report['ring']['order']}, "
           f"hash {report['ring']['hash'][:12]}")
    payload = report["result"]
    verb = report["verb"]
    if verb == "validate":
        yield "ring is valid"
    elif verb == "ideals":
        yield f"{payload['count']} right ideals:"
        for ideal in payload["ideals"]:
            yield f"  {ideal}"
    elif verb == "spectrum":
        yield (f"{payload['atom_count']} atoms from "
               f"{payload['comonoform_count']} comonoform right ideals")
        for atom in payload["atoms"]:
            yield (f"  atom {atom['id']}: rep {atom['canonical_rep']}, "
                   f"class {atom['members']}")
    elif verb == "monoform":
        yield (f"module {payload['module']}: "
               f"{'monoform' if payload['monoform'] else 'not monoform'}")
    elif verb in ("support", "ass"):
        kind = "atom support" if verb == "support" else "associated atoms"
        yield f"{kind} of {payload['module']}: {payload['atoms']}"
        for a, rep in zip(payload["atoms"], payload["reps"]):
            yield f"  atom {a}: R/{rep}"
    elif verb == "filtration":
        yield f"filtration of {payload['module']}:"
        for i, step in enumerate(payload["chain"]):
            yield f"  L{i} = {step}"
        for i, label in enumerate(payload["labels"]):
            yield f"  factor {i + 1} = R/{label}"
    elif verb == "serre":
        yield f"{payload['count']} Serre subcategories:"
        for i, s in enumerate(payload["subcategories"]):
            gens = ", ".join(f"R/{q}" for q in s["generators"]) or "(zero)"
            yield f"  [{i}] open {s['open_set']}: <{gens}>"
        yield f"covering edges: {payload['edges']}"
    elif verb == "check":
        for prop in payload["properties"]:
            mark = "PASS" if prop["passed"] else "FAIL"
            extra = (
                f"  witness: {prop['witness']}"
                if not prop["passed"] and "witness" in prop else ""
            )
            yield f"  {mark} {prop['property']}{extra}"
        yield "all passed" if payload["passed"] else "FAILURES above"
    for w in report.get("cap_warnings", ()):
        yield f"warning: {w}"
    yield f"elapsed: {elapsed:.3f}s"


def _order_cap(text: str) -> int:
    """The value of --max-order, a whole number of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomspec",
        description="Atom spectra and Serre subcategories of finite rings",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    needs_module = {"monoform", "support", "ass", "filtration"}
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--ring", required=True,
                       help="builtin spec (zmod:n, tri2:p, mat:k:p, "
                            "prod:a,b) or path to a ring file")
        if verb in needs_module:
            p.add_argument("--module", required=True,
                           help="module spec: regular | quot:<ids> | "
                                "cyclic:<x> | sub:<ids> | sum:<spec>+<spec>")
        p.add_argument("--format", choices=("text", "json", "graph"),
                       default="text")
        p.add_argument("--max-order", type=_order_cap,
                       default=DEFAULT_ORDER_CAP)
    return parser


def run(argv=None) -> tuple[int, dict]:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "graph" and args.verb != "serre":
        parser.error("--format graph is only available for 'serre'")
    payload = _payload_of(args)
    start = time.monotonic()
    try:
        with run_memo():  # what the verb computes is freed with the run
            ring = _load_ring(args.ring, args.max_order)
            report = {
                "verb": args.verb,
                "ring": {"order": ring.order, "hash": ring.content_hash()},
                "result": payload(ring),
                "cap_warnings": [],
            }
    except (AtomspecError, MemoryError) as exc:
        # numpy raises MemoryError subclasses such as _ArrayMemoryError
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        report = {
            "verb": args.verb,
            "error": {"type": kind, "message": str(exc)},
        }
        if args.format == "json":
            _write_json(report)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1, report
    elapsed = time.monotonic() - start
    if args.format == "json":
        _write_json(report)
    elif args.format == "graph":
        from .serre import dot_lines

        _write_lines(dot_lines(report["result"]))
    else:
        _write_lines(_render_text(report, elapsed))
    exit_code = 0
    if args.verb == "check" and not report["result"]["passed"]:
        exit_code = 1
    return exit_code, report


def main(argv=None) -> int:
    """Run one verb as the process's entry point and return its exit code.

    The console script, `python -m atomspec.cli` and a benchmark's child
    process call this once per process.  It calls gc.freeze() before the
    run: the objects that start-up and the imports made (about 21,000,
    over 40% of them numpy's) live until the process ends, and frozen, no
    collection walks them during the run and finalization does not
    collect them at exit, which saves 10-20 ms of a run.  The run's own
    objects are collected as usual.  Freezing is left to the entry point
    because it is for the whole process: in a process that calls `run`
    many times, such as a test suite, each freeze would keep everything
    then alive out of every later collection.
    """
    gc.freeze()
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
