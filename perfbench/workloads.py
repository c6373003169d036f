"""Workloads of the atomspec benchmark: seeded inputs, cells, known answers.

Every ring here is built from its parameters by this module's own code, and
every expected answer is derived from those parameters, never from atomspec:

* a ring whose atom spectrum has k points has 2**k Serre subcategories
  (every subset of a discrete spectrum is open) and k * 2**(k-1) covering
  edges in their inclusion order, the Hasse diagram of a Boolean lattice;
* k is the number of distinct primes for Z/n, 2 for tri2:p, 1 for mat:k:p,
  k for a product of k fields, and |P| for an incidence algebra F_p I(P)
  (a finite-dimensional algebra has one atom per simple module).

A seed fixes every relabelling, poset and corruption, so one seed always
gives byte-identical documents.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Pipeline poset: 5 points and two strict relations, so F_2 I(P) has
# dimension 5 + 2 = 7 and order 128.  Up to isomorphism there are three
# such posets.  Two chains side by side give a product algebra, which the
# F_2^7 cell already covers; of the two connected shapes, a point below two
# others and its opposite, the run has time for one.  The seed draws its
# point labels and basis order; fixing the shape keeps the work a run
# measures the same from seed to seed.
POSET_POINTS = 5
POSET_RELATIONS = ((0, 1), (0, 2))


def distinct_primes(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


# ---------------------------------------------------------------------------
# ring tables, built independently of atomspec


def _tables(elements, add, mul, one):
    """Addition/multiplication tables over `elements`, whose first entry is
    the zero."""
    index = {e: i for i, e in enumerate(elements)}
    add_t = [[index[add(x, y)] for y in elements] for x in elements]
    mul_t = [[index[mul(x, y)] for y in elements] for x in elements]
    return add_t, mul_t, index[one]


def zmod_tables(n: int):
    return _tables(list(range(n)), lambda a, b: (a + b) % n,
                   lambda a, b: (a * b) % n, 1 % n)


def _matrix_tables(k: int, p: int, positions):
    """k x k matrices over F_p supported on `positions`, zero first."""
    def embed(vec):
        m = [0] * (k * k)
        for (r, c), v in zip(positions, vec):
            m[r * k + c] = v
        return tuple(m)

    elements = [embed(v) for v in itertools.product(range(p), repeat=len(positions))]

    def add(x, y):
        return tuple((a + b) % p for a, b in zip(x, y))

    def mul(x, y):
        return tuple(
            sum(x[r * k + t] * y[t * k + c] for t in range(k)) % p
            for r in range(k) for c in range(k)
        )

    ident = tuple(int(r == c) for r in range(k) for c in range(k))
    return _tables(elements, add, mul, ident)


def tri2_tables(p: int):
    """Lower triangular 2x2 matrices over F_p."""
    return _matrix_tables(2, p, [(0, 0), (1, 0), (1, 1)])


def mat_tables(k: int, p: int):
    return _matrix_tables(k, p, [(r, c) for r in range(k) for c in range(k)])


def relabel(tables, rng: random.Random):
    """Apply a random permutation of the nonzero ids; id 0 stays the zero,
    which the ring validator requires."""
    add, mul, one = tables
    n = len(add)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    new_add = [[0] * n for _ in range(n)]
    new_mul = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        for b in range(n):
            new_add[pa][perm[b]] = perm[add[a][b]]
            new_mul[pa][perm[b]] = perm[mul[a][b]]
    return new_add, new_mul, perm[one]


def table_document(tables) -> bytes:
    add, mul, one = tables
    doc = {"order": len(add), "one": one, "add": add, "mul": mul}
    return json.dumps(doc, separators=(",", ":")).encode()


def corrupt(tables, rng: random.Random):
    """Change one `mul` entry at nonzero (a, b).

    Always breaks an axiom when n >= 3: pick b1 not in {0, b} and
    b2 = b - b1; then a*b1 + a*b2 still equals the old a*b, so
    a*(b1 + b2) = a*b1 + a*b2 fails.
    """
    add, mul, one = tables
    n = len(add)
    if n < 3:
        raise ValueError("corruption needs a ring of order at least 3")
    a, b = rng.randrange(1, n), rng.randrange(1, n)
    new = rng.choice([v for v in range(n) if v != mul[a][b]])
    bad = [row[:] for row in mul]
    bad[a][b] = new
    return add, bad, one


# ---------------------------------------------------------------------------
# incidence algebras


def draw_poset(rng: random.Random):
    """The pipeline poset on points 0..4 under a random labelling, as its
    list of pairs x <= y (reflexive pairs included)."""
    points = list(range(POSET_POINTS))
    rng.shuffle(points)
    strict = [(points[x], points[y]) for x, y in POSET_RELATIONS]
    return [(x, x) for x in range(POSET_POINTS)] + strict


def incidence_document(pairs, p: int, rng: random.Random) -> bytes:
    """F_p I(P) as an `fp_algebra` document, basis e_xy (x <= y) in a random
    order, with e_xy e_zw = [y == z] e_xw."""
    basis = list(pairs)
    rng.shuffle(basis)
    index = {pair: i for i, pair in enumerate(basis)}
    dim = len(basis)
    consts = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (x, y), i in index.items():
        for (z, w), j in index.items():
            if y == z:
                consts[i][j][index[(x, w)]] = 1
    unit = [int(x == y) for x, y in basis]
    doc = {"fp_algebra": {"p": p, "dim": dim, "structure_constants": consts,
                          "unit_vector": unit}}
    return json.dumps(doc, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# known answers


class WrongAnswer(Exception):
    """The CLI's exit code or stdout differs from the known answer."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise WrongAnswer(f"{what} is {got!r}, expected {want!r}")


def _get(doc, *path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            raise WrongAnswer(f"stdout has no field {'.'.join(path)}")
        doc = doc[key]
    return doc


def _report(code: int, stdout: str, want_code: int) -> dict:
    _expect("exit code", code, want_code)
    lines = stdout.splitlines()
    _expect("number of stdout lines", len(lines), 1)
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"stdout is not JSON: {exc}") from None


def valid_ring(order: int, one: int | None = None):
    def verify(code: int, stdout: str) -> None:
        result = _get(_report(code, stdout, 0), "result")
        _expect("valid", _get(result, "valid"), True)
        _expect("order", _get(result, "order"), order)
        if one is not None:
            _expect("one", _get(result, "one"), one)
    return verify


def rejected(code: int, stdout: str) -> None:
    # The axiom named is not gated on: a faster scan may find another first.
    doc = _report(code, stdout, 1)
    _expect("error type", _get(doc, "error", "type"), "RingAxiomError")


def serre_lattice(atoms: int):
    """A discrete spectrum of `atoms` points: every subset is open."""
    def verify(code: int, stdout: str) -> None:
        result = _get(_report(code, stdout, 0), "result")
        _expect("count", _get(result, "count"), 2 ** atoms)
        _expect("edges", len(_get(result, "edges")), atoms * 2 ** (atoms - 1))
        opens = sorted(tuple(_get(s, "open_set"))
                       for s in _get(result, "subcategories"))
        _expect("open sets", opens, sorted(
            sub for size in range(atoms + 1)
            for sub in itertools.combinations(range(atoms), size)
        ))
    return verify


def checks_pass(order: int):
    def verify(code: int, stdout: str) -> None:
        result = _get(_report(code, stdout, 0), "result")
        _expect("order", _get(result, "order"), order)
        _expect("passed", _get(result, "passed"), True)
    return verify


def full_support(atoms: int):
    def verify(code: int, stdout: str) -> None:
        result = _get(_report(code, stdout, 0), "result")
        _expect("support", _get(result, "atoms"), list(range(atoms)))
    return verify


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Cell:
    """One CLI invocation and the known answer its output must give."""

    name: str
    args: tuple[str, ...]  # atomspec CLI arguments, without --format
    verify: Callable[[int, str], None]  # raises WrongAnswer


def _document(work: Path, name: str, data: bytes) -> str:
    path = work / name
    path.write_bytes(data)
    return str(path)


def tables(seed: int, work: Path) -> list[Cell]:
    """`validate` only: table builders, JSON parsing and the axiom scans."""
    rng = random.Random(seed)
    cells = [Cell("validate mat:3:2", ("validate", "--ring", "mat:3:2"),
                  valid_ring(512))]
    zmod = relabel(zmod_tables(360), rng)
    path = _document(work, "zmod-360.json", table_document(zmod))
    cells.append(Cell("validate zmod:360 relabelled", ("validate", "--ring", path),
                      valid_ring(360, zmod[2])))
    path = _document(work, "zmod-360-corrupted.json",
                     table_document(corrupt(zmod, rng)))
    cells.append(Cell("validate zmod:360 corrupted", ("validate", "--ring", path),
                      rejected))
    return cells


def pipeline(seed: int, work: Path) -> list[Cell]:
    """`serre` on rings with large regular lattices."""
    rng = random.Random(seed)
    cells = [Cell("serre F2^7", ("serre", "--ring", "prod:" + ",".join(["zmod:2"] * 7)),
                  serre_lattice(7))]
    path = _document(work, "incidence.json",
                     incidence_document(draw_poset(rng), 2, rng))
    cells.append(Cell("serre F2I(vee)", ("serre", "--ring", path),
                      serre_lattice(POSET_POINTS)))
    return cells


def battery(seed: int, work: Path) -> list[Cell]:
    """`check` and `support`: many small non-regular modules."""
    rng = random.Random(seed)
    cells = []
    for spec, raw in (("zmod:60", zmod_tables(60)), ("mat:2:2", mat_tables(2, 2)),
                      ("tri2:5", tri2_tables(5))):
        tabs = relabel(raw, rng)
        path = _document(work, spec.replace(":", "-") + ".json",
                         table_document(tabs))
        cells.append(Cell(f"check {spec} relabelled", ("check", "--ring", path),
                          checks_pass(len(tabs[0]))))
    tabs = relabel(zmod_tables(12), rng)
    path = _document(work, "zmod-12.json", table_document(tabs))
    cells.append(Cell("support R+R zmod:12 relabelled",
                      ("support", "--ring", path, "--module", "sum:regular+regular"),
                      full_support(distinct_primes(12))))
    return cells


WORKLOADS = {"tables": tables, "pipeline": pipeline, "battery": battery}
