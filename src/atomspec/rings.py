"""Finite associative unital rings given by full addition/multiplication tables.

A ring of order n has element ids 0..n-1.  Id 0 is always the additive zero;
the multiplicative identity is stored explicitly.  The tables are read-only
numpy arrays of the smallest signed dtype that holds the ids, and one sha256
digest of the order, the identity and the tables decides equality.

Every ring axiom is decided completely, so a validated ring literally
satisfies all of them, but in O(n^2 log n) rather than by scanning all n^3
triples.  Once the additive identity, commutativity and inverses are
checked entry by entry, validation takes a greedy generating set A of the
magma (R, +): each generator is the least id outside the closure of the
earlier ones under the addition table itself, so associativity is not
assumed.  Three reductions then make checks over A complete:

* additive associativity, by Light's test: the g with (x+g)+y = x+(g+y)
  for all x, y are closed under +, so it is enough to test each g in A
  (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2);
* distributivity on each side: once (R, +) is an abelian group, x -> xc and
  x -> cx are additive when f(x+g) = f(x)+f(g) for all x and each g in A;
* multiplicative associativity: once both distributive laws hold,
  (ab)c - a(bc) is additive in each argument, so it vanishes everywhere if
  it vanishes on A^3 (Rajagopalan & Schulman, "Verification of
  identities", SIAM J. Comput. 29, 2000).

Each generator that passes Light's test at least doubles the subgroup the
earlier ones span, so |A| <= log2 n once + is associative.  Multiplicative
associativity is checked after distributivity, so an invalid table may be
reported under a different axiom or witness than a scan of all triples
would give first; every witness is still a genuine counterexample.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_ORDER_CAP = 4096

# entries per row chunk of the n x n checks and of the zmod tables, which
# keeps each int64 or intp temporary to about 1 MB
_CHUNK = 1 << 17


class AtomspecError(Exception):
    """Base class of the errors atomspec raises on an input it refuses."""


class RingError(AtomspecError):
    """Base class for ring construction failures."""


class RingAxiomError(RingError):
    """A ring axiom failed; carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at {witness}")


class RingFormatError(RingError):
    """A ring document or raw table set is malformed."""


class CapExceededError(RingError):
    """A configured size cap was exceeded."""


_SIGNED_DTYPES = tuple(
    (np.iinfo(t).max, np.dtype(t))
    for t in (np.int8, np.int16, np.int32, np.int64)
)


def table_dtype(order: int) -> np.dtype:
    """The smallest signed integer dtype that holds the ids 0..order-1."""
    return next(dtype for top, dtype in _SIGNED_DTYPES if order - 1 <= top)


class TableRecord:
    """Tables of ids as read-only arrays of table_dtype(order), and an
    identity read from one sha256 digest, computed once.

    Any integer table (tuples, lists or arrays) is converted on
    construction; an array of that dtype is not copied but made read-only
    in place.  The digest covers `_identity()`, a tuple of ints and bytes,
    and the bytes of the tables named in `_tables`, whose shapes follow
    from it.  The hash is the digest's first 8 bytes, so it is the same in
    every process.
    """

    _tables: tuple[str, ...]

    def __post_init__(self):
        dtype = table_dtype(self.order)
        for name in self._tables:
            table = np.asarray(getattr(self, name), dtype=dtype)
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @cached_property
    def digest(self) -> bytes:
        h = hashlib.sha256(repr(self._identity()).encode())
        for name in self._tables:
            h.update(np.ascontiguousarray(getattr(self, name)))
        return h.digest()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return int.from_bytes(self.digest[:8], "little")


@dataclass(frozen=True, eq=False)
class FiniteRing(TableRecord):
    """add[x, y] = x + y and mul[x, y] = xy; the name is not compared."""

    order: int
    add: np.ndarray
    mul: np.ndarray
    one: int
    name: str = ""

    _tables = ("add", "mul")

    def _identity(self) -> tuple:
        return int(self.order), int(self.one)

    def is_commutative(self) -> bool:
        return np.array_equal(self.mul, self.mul.T)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for chunk in _document_chunks(self):
            h.update(chunk.encode())
        return h.hexdigest()

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"FiniteRing({label})"


def _require_order(n: int, order_cap: int) -> None:
    if n > order_cap:
        raise CapExceededError(f"order {n} exceeds cap {order_cap}")


def _require_power_order(p: int, d: int, order_cap: int) -> None:
    """p^d <= order_cap for d >= 1, without forming p^d when p or d alone
    rules it out: a huge p^d takes long to compute and str() refuses it."""
    if d >= order_cap.bit_length() or p > order_cap:
        raise CapExceededError(f"order {p}^{d} exceeds cap {order_cap}")
    _require_order(p ** d, order_cap)


def _int_array(raw, problem: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise RingFormatError(problem) from exc


def _as_table(raw, what: str) -> np.ndarray:
    """raw as a matrix of integers: an integer array as it is, anything
    else read as int64; an empty table passes, for the order check."""
    problem = f"{what} table is not a matrix of integers"
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "iu":
        table = raw
    else:
        try:
            table = np.asarray(raw, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            _name_refused_entry(raw, what)
            raise RingFormatError(problem) from exc
    if table.ndim != 2 and table.size:
        raise RingFormatError(problem)
    return table


def _name_refused_entry(raw, what: str) -> None:
    """numpy also refuses ragged rows and integers beyond int64; raise the
    shape or range error for the first of these, as for an int64 table."""
    n = len(raw) if isinstance(raw, (list, tuple)) else 0
    for i, row in enumerate(raw if n else ()):
        if not isinstance(row, (list, tuple)):
            return
        if len(row) != n:
            raise RingFormatError(
                f"{what} table row {i} has {len(row)} entries, expected {n}"
            )
        for j, v in enumerate(row):
            if type(v) is int and not 0 <= v < n:
                raise RingFormatError(
                    f"{what}[{i}][{j}] = {v} out of range 0..{n - 1}"
                )


def _check_shape(table: np.ndarray, n: int, what: str) -> None:
    if len(table) != n:
        raise RingFormatError(f"{what} table has {len(table)} rows, expected {n}")
    if table.shape[1] != n:
        raise RingFormatError(
            f"{what} table row 0 has {table.shape[1]} entries, expected {n}"
        )


def _check_entries(table: np.ndarray, n: int, what: str) -> None:
    if table.min() >= 0 and table.max() < n:
        return
    bad = np.flatnonzero((table < 0) | (table >= n))
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise RingFormatError(
            f"{what}[{i}][{j}] = {table[i, j]} out of range 0..{n - 1}"
        )


def _first_failure(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry, in row-major order, where lhs != rhs."""
    bad = lhs != rhs
    if not bad.any():
        return None
    return tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))


def _identity_failure(table: np.ndarray, e: int) -> tuple[int, int] | None:
    """First (e, x) or (x, e) with e.x != x or x.e != x."""
    ids = np.arange(len(table))
    bad = np.flatnonzero((table[e] != ids) | (table[:, e] != ids))
    if not bad.size:
        return None
    x = int(bad[0])
    return (e, x) if table[e, x] != x else (x, e)


def _rows_failure(n: int, sides) -> tuple[int, int] | None:
    """First (x, y) with lhs[x, y] != rhs[x, y], where sides(rows) builds
    both n-column sides for a slice of rows x, a chunk at a time."""
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        bad = _first_failure(*sides(slice(start, start + step)))
        if bad is not None:
            return start + bad[0], bad[1]
    return None


def additive_generators(add: np.ndarray) -> list[int]:
    """Greedy generators of the magma (R, +) under a commutative table `add`.

    Each generator is the least id outside the closure of {0} and the
    earlier generators under the table itself, so + need not be
    associative.  Each sum of two closure members is formed once, O(n^2)
    in all.
    """
    inside = np.zeros(len(add), dtype=bool)
    inside[0] = True
    gens = []
    while not inside.all():
        g = int(np.argmin(inside))
        gens.append(g)
        inside[g] = True
        new = np.array([g])
        while new.size:
            fresh = np.zeros(len(add), dtype=bool)
            fresh[add[np.ix_(new, np.flatnonzero(inside))]] = True
            new = np.flatnonzero(fresh & ~inside)
            inside[new] = True
    return gens


def _distributivity_failure(add: np.ndarray, mul: np.ndarray, g: int):
    """First (c, x) with c(x+g) != cx + cg; with mul transposed, the same
    test checks (x+g)c == xc + gc.  `add` must be commutative: cx + cg is
    read as entry cx of row cg, so the gathers stay within rows.  The flat
    index cg*n + cx is formed in intp, one chunk at a time: in the table
    dtype it would overflow."""
    n = len(add)
    return _rows_failure(n, lambda c: (
        np.take(mul[c], add[:, g], axis=1),
        np.take(add, mul[c, g].astype(np.intp)[:, None] * n + mul[c]),
    ))


def validate_ring(
    add,
    mul,
    one: int,
    *,
    name: str = "",
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteRing:
    """Validate raw tables and return a FiniteRing.

    Raises RingFormatError for shape problems, RingAxiomError naming the
    first violated axiom with a witnessing element tuple, CapExceededError
    above the order cap.  The checks, in order: additive identity,
    commutativity and inverses; additive associativity (x, g, y); one is a
    two-sided identity; right distributivity (x, g, c); left distributivity
    (c, x, g); multiplicative associativity (a, b, c) on generators.

    The shape and range checks run on an integer array as given, or else on
    the tables read as int64; then the tables are cast once to
    table_dtype(n).  The ring keeps an array already of that dtype without
    a copy and makes it read-only.
    """
    A = _as_table(add, "add")
    M = _as_table(mul, "mul")
    n = len(A)
    if n < 1:
        raise RingFormatError("ring order must be at least 1")
    _require_order(n, order_cap)
    _check_shape(A, n, "add")
    _check_shape(M, n, "mul")
    _check_entries(A, n, "add")
    _check_entries(M, n, "mul")
    if not 0 <= one < n:
        raise RingFormatError(f"one = {one} out of range")
    A = A.astype(table_dtype(n), copy=False)
    M = M.astype(table_dtype(n), copy=False)

    # additive identity: 0 + x = x + 0 = x
    bad = _identity_failure(A, 0)
    if bad is not None:
        raise RingAxiomError("additive identity", bad)
    # commutativity of addition
    bad = _first_failure(A, A.T)
    if bad is not None:
        raise RingAxiomError("additive commutativity", bad)
    # additive inverses
    lacking = np.flatnonzero(~(A == 0).any(axis=1))
    if lacking.size:
        raise RingAxiomError("additive inverse", (int(lacking[0]),))
    gens = additive_generators(A)
    # associativity of addition, Light's test: (x+g)+y == x+(g+y)
    for g in gens:
        bad = _rows_failure(
            n, lambda x: (A[A[x, g]], np.take(A[x], A[g], axis=1))
        )
        if bad is not None:
            raise RingAxiomError("additive associativity", (bad[0], g, bad[1]))
    # one is a two-sided identity
    bad = _identity_failure(M, one)
    if bad is not None:
        raise RingAxiomError("one is not identity", bad)
    # right distributivity: (x+g)c == xc + gc
    MT = np.ascontiguousarray(M.T)
    for g in gens:
        bad = _distributivity_failure(A, MT, g)
        if bad is not None:
            raise RingAxiomError("right distributivity", (bad[1], g, bad[0]))
    # left distributivity: c(x+g) == cx + cg
    for g in gens:
        bad = _distributivity_failure(A, M, g)
        if bad is not None:
            raise RingAxiomError("left distributivity", (bad[0], bad[1], g))
    # associativity of multiplication on generators: (ab)c == a(bc)
    G = np.array(gens, dtype=np.int64)
    MG = M[np.ix_(G, G)]
    bad = _first_failure(M[MG][:, :, G], M[G[:, None, None], MG[None, :, :]])
    if bad is not None:
        raise RingAxiomError(
            "multiplicative associativity", tuple(int(G[i]) for i in bad)
        )

    return FiniteRing(order=n, add=A, mul=M, one=one, name=name)


# ---------------------------------------------------------------------------
# builtin families

def _require_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise RingFormatError(f"field characteristic {p} is not prime")


def _product_table(tables: list[np.ndarray]) -> np.ndarray:
    """Componentwise table of a direct product, in the table dtype of its
    order, with element ids enumerated lexicographically by component ids,
    the first component most significant."""
    dtype = table_dtype(math.prod(len(t) for t in tables))
    out = np.zeros((1, 1), dtype=dtype)
    for table in tables:
        t = np.asarray(table, dtype=dtype)
        k, m = len(t), len(out)
        # out * k + t < order, but k itself may be the order, which the
        # dtype need not hold; then m == 1 and out is [[0]]
        high = out * k if m > 1 else out
        out = (high[:, None, :, None] + t[None, :, None, :]).reshape(m * k, m * k)
    return out


def zmod(n: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise RingFormatError("modulus must be positive")
    _require_order(n, order_cap)
    a = np.arange(n, dtype=np.int64)
    add = np.empty((n, n), dtype=table_dtype(n))
    mul = np.empty_like(add)
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        rows = a[start:start + step, None]
        add[start:start + step] = (rows + a) % n
        mul[start:start + step] = rows * a % n
    return validate_ring(add, mul, 1 % n, name=f"zmod:{n}", order_cap=order_cap)


def _matrix_algebra(p: int, positions: list[tuple[int, int]], name: str,
                    order_cap: int) -> FiniteRing:
    """Matrices over F_p supported on `positions`, as the fp_algebra with
    basis the matrix units E_rc in position order, E_rt E_tc = E_rc.

    So elements are enumerated lexicographically over the entry vector in
    position order, and the zero matrix gets id 0.
    """
    d = len(positions)
    _require_power_order(p, d, order_cap)  # before the d^3 constants exist
    _require_prime(p)  # after the cap, which bounds the trial division
    index = {pos: i for i, pos in enumerate(positions)}
    consts = np.zeros((d, d, d), dtype=np.int64)
    for i, (r, t) in enumerate(positions):
        for j, (u, c) in enumerate(positions):
            if t == u:
                consts[i, j, index[r, c]] = 1
    unit = [int(r == c) for r, c in positions]
    return fp_algebra(p, d, consts, unit, name=name, order_cap=order_cap)


def tri2(p: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Lower triangular 2x2 matrices over the prime field F_p (order p^3)."""
    return _matrix_algebra(p, [(0, 0), (1, 0), (1, 1)], f"tri2:{p}", order_cap)


def mat(k: int, p: int, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Full k x k matrix ring over F_p (order p^(k^2))."""
    if k < 1:
        raise RingFormatError("matrix size must be positive")
    _require_power_order(p, k * k, order_cap)  # before the k^2 positions exist
    positions = [(r, c) for r in range(k) for c in range(k)]
    return _matrix_algebra(p, positions, f"mat:{k}:{p}", order_cap)


def product(*rings: FiniteRing, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Direct product, elements enumerated lexicographically by component ids."""
    if not rings:
        raise RingFormatError("product needs at least one factor")
    n = 1
    for r in rings:
        n *= r.order
    _require_order(n, order_cap)
    one = 0
    for r in rings:
        one = one * r.order + r.one
    name = "prod:" + ",".join(r.name or "?" for r in rings)
    return validate_ring(_product_table([r.add for r in rings]),
                         _product_table([r.mul for r in rings]),
                         one, name=name, order_cap=order_cap)


def fp_algebra(
    p: int,
    dim: int,
    structure_constants,
    unit_vector,
    *,
    name: str = "",
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteRing:
    """Algebra over F_p with basis e_0..e_{d-1} and e_i e_j = sum_k c[i][j][k] e_k.

    Elements are coefficient vectors enumerated lexicographically; the
    resulting tables are validated in full.  The product formula is
    bilinear for any constants, so x -> xy is additive: the rows of the
    multiples s e_i come from the constants, and every other row is the
    sum of two rows already built.
    """
    if dim < 1:
        raise RingFormatError("dimension must be positive")
    _require_power_order(p, dim, order_cap)
    _require_prime(p)  # after the cap, which bounds the trial division
    shape_problem = "structure constants must be d x d x d"
    c = _int_array(structure_constants, shape_problem) % p
    if c.shape != (dim, dim, dim):
        raise RingFormatError(shape_problem)
    unit = _int_array(unit_vector, "unit vector must have length d") % p
    if unit.shape != (dim,):
        raise RingFormatError("unit vector must have length d")

    n = p ** dim
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    vecs = np.arange(n, dtype=np.int64)[:, None] // weights % p
    # (x, y) are F_p^dim, which is (Z/p)^dim with the same enumeration
    zp = np.add.outer(np.arange(p), np.arange(p)) % p
    add = _product_table([zp] * dim)
    # row 0 is 0y = 0.  With w = p^(dim-1-i), id s*w is s e_i, and an id
    # r < w has no e_0..e_i part, so (s e_i + r)y = (s e_i)y + ry: the sum
    # of the row of s e_i and row r, built earlier
    mul = np.zeros_like(add)
    for i in range(dim - 1, -1, -1):
        w = int(weights[i])
        for s in range(1, p):
            row = (vecs @ (s * c[i]) % p) @ weights
            mul[s * w:(s + 1) * w] = add[row, mul[:w]]
    return validate_ring(add, mul, int(unit @ weights), name=name,
                         order_cap=order_cap)


BUILTIN_PREFIXES = ("zmod", "tri2", "mat", "prod")


def _spec_order(text: str, order_cap: int) -> int | None:
    """The order of a zmod:n, tri2:p or mat:k:p spec read off its text, or
    order_cap + 1 if it is larger; None for any other text, or where the
    builder refuses the parameters (n < 1, k < 1, p < 2)."""
    head, _, rest = text.partition(":")
    try:
        if head == "zmod":
            n = int(rest)
            return min(n, order_cap + 1) if n >= 1 else None
        if head == "tri2":
            p, d = int(rest), 3
        elif head == "mat":
            k, _, p = rest.partition(":")
            k, p = int(k), int(p)
            if k < 1:
                return None
            d = k * k
        else:
            return None
    except ValueError:
        return None
    if p < 2:
        return None
    if d >= order_cap.bit_length():  # then p^d >= 2^d > order_cap
        return order_cap + 1
    return min(p ** d, order_cap + 1)


def parse_ring_spec(text: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse a builtin ring spec: zmod:n | tri2:p | mat:k:p | prod:spec,spec,..."""
    head, _, rest = text.partition(":")
    try:
        if head == "zmod":
            return zmod(int(rest), order_cap=order_cap)
        if head == "tri2":
            return tri2(int(rest), order_cap=order_cap)
        if head == "mat":
            k, _, p = rest.partition(":")
            return mat(int(k), int(p), order_cap=order_cap)
        if head == "prod":
            parts = rest.split(",")
            if len(parts) < 2:
                raise RingFormatError("prod needs at least two factors")
            for s in parts:
                if not s or s.partition(":")[0] == "prod":
                    raise RingFormatError(f"prod factor {s!r} in {text!r} is "
                                          "empty or a product")
            # refused before any factor is built; a factor whose order
            # is not read here is refused by its own parse
            if math.prod(_spec_order(s, order_cap) or 1 for s in parts) > order_cap:
                raise CapExceededError(f"product order exceeds cap {order_cap}")
            return product(*(parse_ring_spec(s, order_cap=order_cap) for s in parts),
                           order_cap=order_cap)
    except ValueError as exc:
        raise RingFormatError(f"bad ring spec {text!r}: {exc}") from exc
    raise RingFormatError(f"unknown ring spec {text!r}")


# ---------------------------------------------------------------------------
# serialization

def _document_chunks(ring: FiniteRing) -> Iterator[str]:
    """The canonical document, one table row at a time: the JSON of
    {order, one, add, mul} with sorted keys and no spaces, and a newline."""
    names = np.array([str(i) for i in range(ring.order)], dtype=object)
    for head, table in (('{"add":[', ring.add), ('],"mul":[', ring.mul)):
        yield head
        for i, row in enumerate(table):
            yield ("," if i else "") + "[" + ",".join(names[row]) + "]"
    yield f'],"one":{int(ring.one)},"order":{int(ring.order)}}}\n'


def serialize_ring(ring: FiniteRing) -> bytes:
    """Canonical byte document; round-trips through parse_ring_document."""
    return "".join(_document_chunks(ring)).encode()


# one row of a matrix: "[", digits, commas and JSON whitespace, "]", then
# the "," before the next row or the "]" that closes the matrix
_ROW = re.compile(r"[ \t\n\r]*\[([0-9, \t\n\r]*)\][ \t\n\r]*([,\]])")


def _row_numbers(body: str) -> np.ndarray | None:
    """The numbers of the text between a row's brackets, or None unless
    it is JSON integers separated by commas.

    np.fromstring raises for an empty entry or whitespace inside a number,
    or on older numpy stops there; it reads whitespace alone as 0 and
    stops at a trailing comma.  So the numbers must be as many as the
    commas + 1 and the runs of digits, and no run starts "0" and a digit.
    A number past int64 reads as int64's largest, failing any range check.
    """
    try:
        numbers = np.fromstring(body, dtype=np.int64, sep=",")
    except ValueError:
        return None
    # the other characters _ROW lets in all sort below "0"
    text = np.frombuffer(f",{body},".encode(), dtype=np.uint8)
    digit = text >= ord("0")
    first = digit[1:] > digit[:-1]  # text[i + 1] begins a number
    leading_zero = first[:-1] & digit[2:] & (text[1:-1] == ord("0"))
    if (numbers.size != body.count(",") + 1
            or np.count_nonzero(first) != numbers.size
            or np.count_nonzero(leading_zero)):
        return None
    return numbers


def _read_matrix(s: str, idx: int, order_cap: int = DEFAULT_ORDER_CAP
                 ) -> tuple[np.ndarray, int] | None:
    """(table, end) for the JSON array that opens at s[idx - 1] if it is a
    k x k matrix of JSON integers 0..k-1, end being the index after its
    closing bracket; otherwise None, and json reads the array.

    The table has dtype table_dtype(k) and is filled one row at a time,
    each matched by _ROW and read by _row_numbers.  The first row fixes k,
    so an array that is no such matrix is declined at the first row that
    shows it.  A k above order_cap raises CapExceededError at the first
    row, before the rest of the document is read.
    """
    out, i, end = None, 0, idx
    while True:
        match = _ROW.match(s, end)
        row = _row_numbers(match[1]) if match else None
        if row is None:
            return None
        if out is None:
            k = row.size
            # k rows of k numbers take 2k(k + 1) + 1 characters or more
            if 2 * k * (k + 1) > len(s) - idx:
                return None
            _require_order(k, order_cap)
            out = np.empty((k, k), dtype=table_dtype(k))
        if row.size != k or row.max() >= k:
            return None
        out[i] = row
        i, end = i + 1, match.end()
        if i == k or match[2] == "]":  # k rows must end the matrix
            return (out, end) if i == k and match[2] == "]" else None


class _TableDecoder(json.JSONDecoder):
    """json's decoder, except that an array which is a square matrix of ids
    is read straight into a table array by _read_matrix, under order_cap.

    Objects go through json.decoder.JSONObject, so that their values come
    back here; every other value, including an array the reader declines,
    goes to json's own scanner.  So every value but such a matrix, and
    every error message, is the one json.loads gives, except that objects
    nested some 500 deep exhaust Python's recursion limit where json's
    scanner would go on to about 1,000.
    """

    def __init__(self, *, order_cap: int = DEFAULT_ORDER_CAP, **kwargs):
        super().__init__(**kwargs)
        scan_json = json.scanner.make_scanner(self)
        memo: dict = {}

        def scan_once(s: str, idx: int):
            char = s[idx:idx + 1]
            if char == "{":
                return json.decoder.JSONObject(
                    (s, idx + 1), self.strict, scan_once, None, None, memo)
            if char == "[":
                table = _read_matrix(s, idx + 1, order_cap)
                if table is not None:
                    return table
            return scan_json(s, idx)

        self.scan_once = scan_once


_RING_FIELDS = {"order", "one", "add", "mul"}
_FP_FIELDS = {"fp_algebra"}
_FP_INNER = {"p", "dim", "structure_constants", "unit_vector"}


def _require_ints(value, depth: int, what: str) -> None:
    """RingFormatError unless value is lists nested `depth` deep around JSON
    integers, or an array the matrix reader made of `depth` dimensions.
    Booleans are refused: numpy would read them as 0 and 1."""
    if isinstance(value, np.ndarray):
        if value.ndim == depth:
            return
        value = value.tolist()  # as json would have given it
    if depth == 0:
        if type(value) is not int:
            raise RingFormatError(f"{what} = {value!r} is not an integer")
        return
    if not isinstance(value, list):
        raise RingFormatError(f"{what} must be a list")
    if depth == 1 and set(map(type, value)) <= {int}:
        return
    for i, v in enumerate(value):
        _require_ints(v, depth - 1, f"{what}[{i}]")


def _read_document(data: bytes | str, order_cap: int = DEFAULT_ORDER_CAP):
    """The JSON value of a document, its square matrices of ids as arrays
    (_read_matrix), none of order above order_cap; the text is dropped on
    return, before validation."""
    if isinstance(data, bytes):
        try:
            data = data.decode()
        except UnicodeDecodeError as exc:
            raise RingFormatError(f"not UTF-8 text: {exc}") from exc
    try:
        return json.loads(data, cls=_TableDecoder, order_cap=order_cap)
    except json.JSONDecodeError as exc:
        raise RingFormatError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise RingFormatError(f"unreadable JSON number: {exc}") from exc
    except RecursionError as exc:
        raise RingFormatError("JSON arrays or objects nested too deeply") from exc


def parse_ring_document(data: bytes | str, *,
                        order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse and fully validate a ring document (table or fp_algebra form).

    json reads the document, except that every square matrix of integers
    0..k-1 goes straight into an array, and one with k above order_cap
    stops the read with CapExceededError.  Only the JSON types are checked
    here; shapes and ranges are left to validate_ring.
    """
    doc = _read_document(data, order_cap)
    if not isinstance(doc, dict):
        raise RingFormatError("ring document must be an object")
    keys = set(doc)
    if keys == _FP_FIELDS:
        inner = doc["fp_algebra"]
        if not isinstance(inner, dict) or set(inner) != _FP_INNER:
            raise RingFormatError(
                f"fp_algebra must have exactly fields {sorted(_FP_INNER)}"
            )
        for key, depth in (("p", 0), ("dim", 0), ("structure_constants", 3),
                           ("unit_vector", 1)):
            _require_ints(inner[key], depth, key)
        return fp_algebra(
            inner["p"], inner["dim"],
            inner["structure_constants"], inner["unit_vector"],
            order_cap=order_cap,
        )
    if keys != _RING_FIELDS:
        unknown = keys - _RING_FIELDS
        missing = _RING_FIELDS - keys
        parts = []
        if unknown:
            parts.append(f"unknown fields {sorted(unknown)}")
        if missing:
            parts.append(f"missing fields {sorted(missing)}")
        raise RingFormatError("; ".join(parts))
    for key, depth in (("order", 0), ("one", 0), ("add", 2), ("mul", 2)):
        _require_ints(doc[key], depth, key)
    n = doc["order"]
    if len(doc["add"]) != n:
        raise RingFormatError(f"add table must have {n} rows")
    return validate_ring(doc["add"], doc["mul"], doc["one"], order_cap=order_cap)
