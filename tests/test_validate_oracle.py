"""The ring validator and the numpy builders against their slow twins.

`scan_ring_axioms` checks every axiom on all n^3 triples, in the order the
validator used before its checks were reduced to additive generators; it
is the oracle for `validate_ring`.  The `ref_*` builders are the nested-loop
constructions the numpy builders replaced; their tables must serialize to
the same bytes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomspec.rings import (
    FiniteRing,
    RingAxiomError,
    additive_generators,
    fp_algebra,
    mat,
    parse_ring_spec,
    product,
    serialize_ring,
    tri2,
    validate_ring,
    zmod,
)

from conftest import TABLE_FORMS, posets, table_in_form

# chunk size for the O(n^3) scans, keeps peak memory ~ tens of MB
_TRIPLE_CHUNK = 4_000_000


def _scan_triples(n: int, build):
    """Run build(a_slice) -> (lhs, rhs) over chunks of the first axis.

    Returns the first differing (a, b, c) triple or None.
    """
    step = max(1, _TRIPLE_CHUNK // max(1, n * n))
    for start in range(0, n, step):
        sl = slice(start, min(n, start + step))
        lhs, rhs = build(sl)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            return (int(bad[0]) + start, int(bad[1]), int(bad[2]))
    return None


def scan_ring_axioms(add, mul, one: int):
    """(axiom, witness) of the first axiom some element tuple violates, or
    None.  The tables must be n x n with entries in 0..n-1."""
    A = np.array(add, dtype=np.int64)
    M = np.array(mul, dtype=np.int64)
    n = len(A)
    for x in range(n):
        if A[0, x] != x:
            return "additive identity", (0, x)
        if A[x, 0] != x:
            return "additive identity", (x, 0)
    if not np.array_equal(A, A.T):
        return "additive commutativity", tuple(map(int, np.argwhere(A != A.T)[0]))
    for x in range(n):
        if not (A[x] == 0).any():
            return "additive inverse", (x,)

    def rows(sl: slice) -> np.ndarray:
        return np.arange(*sl.indices(n))

    scans = (
        ("additive associativity",
         lambda sl: (A[A[sl]], A[rows(sl)[:, None, None], A[None, :, :]])),
        ("multiplicative associativity",
         lambda sl: (M[M[sl]], M[rows(sl)[:, None, None], M[None, :, :]])),
        ("one is not identity", None),
        ("right distributivity",
         lambda sl: (M[A[sl]], A[M[sl][:, None, :], M[None, :, :]])),
        ("left distributivity",
         lambda sl: (M[rows(sl)[:, None, None], A[None, :, :]],
                     A[M[sl][:, :, None], M[sl][:, None, :]])),
    )
    for axiom, build in scans:
        if build is None:
            for x in range(n):
                if M[one, x] != x:
                    return axiom, (one, x)
                if M[x, one] != x:
                    return axiom, (x, one)
            continue
        bad = _scan_triples(n, build)
        if bad is not None:
            return axiom, bad
    return None


def violates(add, mul, one: int, axiom: str, w: tuple) -> bool:
    """Whether the element tuple w really breaks `axiom` in these tables."""
    a = lambda x, y: add[x][y]  # noqa: E731
    m = lambda x, y: mul[x][y]  # noqa: E731
    if axiom == "additive identity":
        x, y = w
        return (x == 0 and a(0, y) != y) or (y == 0 and a(x, 0) != x)
    if axiom == "additive commutativity":
        x, y = w
        return a(x, y) != a(y, x)
    if axiom == "additive inverse":
        return 0 not in add[w[0]]
    if axiom == "additive associativity":
        x, y, z = w
        return a(a(x, y), z) != a(x, a(y, z))
    if axiom == "one is not identity":
        x, y = w
        return (x == one and m(one, y) != y) or (y == one and m(x, one) != x)
    if axiom == "right distributivity":
        x, y, c = w
        return m(a(x, y), c) != a(m(x, c), m(y, c))
    if axiom == "left distributivity":
        c, x, y = w
        return m(c, a(x, y)) != a(m(c, x), m(c, y))
    if axiom == "multiplicative associativity":
        x, y, z = w
        return m(m(x, y), z) != m(x, m(y, z))
    raise AssertionError(f"unknown axiom {axiom!r}")


def test_oracle_accepts_the_zoo(zoo):
    for ring in zoo:
        assert scan_ring_axioms(ring.add, ring.mul, ring.one) is None


def test_generators_are_few(zoo):
    for ring in zoo:
        gens = additive_generators(np.array(ring.add))
        assert len(gens) <= math.log2(ring.order)
    # (Z/2)^4 needs four, Z/60 one
    assert additive_generators(np.array(mat(2, 2).add)) == [1, 2, 4, 8]
    assert additive_generators(np.array(zmod(60).add)) == [1]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_single_corruption_agrees_with_oracle(zoo, data):
    ring = data.draw(st.sampled_from(zoo))
    which = data.draw(st.sampled_from(("add", "mul")))
    n = ring.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    tables = {"add": [list(r) for r in ring.add], "mul": [list(r) for r in ring.mul]}
    old = tables[which][x][y]
    tables[which][x][y] = data.draw(
        st.integers(0, n - 1).filter(lambda v: v != old)
    )
    add, mul = tables["add"], tables["mul"]
    expected = scan_ring_axioms(add, mul, ring.one)
    try:
        validate_ring(add, mul, ring.one)
    except RingAxiomError as err:
        assert expected is not None
        assert violates(add, mul, ring.one, err.axiom, err.witness), (
            err.axiom, err.witness)
    else:
        assert expected is None


@pytest.fixture(scope="module")
def zmod300():
    return zmod(300)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corruption_at_an_int16_order_is_rejected_with_a_witness(zmod300, data):
    # at order 300 the tables are int16, where the flat index c*n + x of
    # the distributivity gather would overflow
    ring = zmod300
    which = data.draw(st.sampled_from(("add", "mul")))
    x = data.draw(st.integers(0, 299))
    y = data.draw(st.integers(0, 299))
    tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
    old = tables[which][x, y]
    tables[which][x, y] = data.draw(st.integers(0, 299).filter(lambda v: v != old))
    form = data.draw(st.sampled_from(TABLE_FORMS))
    with pytest.raises(RingAxiomError) as err:
        validate_ring(table_in_form(tables["add"], form),
                      table_in_form(tables["mul"], form), ring.one)
    assert violates(tables["add"], tables["mul"], ring.one, err.value.axiom,
                    err.value.witness), (err.value.axiom, err.value.witness)


# An order-6 commutative loop that is not a group: 1 + 1 = 0 closes {0, 1}
# under +, so the generators are 1 and 2, and 2 fails Light's test.
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def test_non_associative_loop_fails_additive_associativity():
    zero = [[0] * 6 for _ in range(6)]
    assert additive_generators(np.array(LOOP6)) == [1, 2]
    with pytest.raises(RingAxiomError) as err:
        validate_ring(LOOP6, zero, 1)
    assert err.value.axiom == "additive associativity"
    assert err.value.witness == (2, 2, 4)
    assert violates(LOOP6, zero, 1, err.value.axiom, err.value.witness)
    assert scan_ring_axioms(LOOP6, zero, 1) == ("additive associativity", (2, 2, 4))


def test_associativity_is_checked_after_distributivity():
    # 0 * 0 = 1 in Z/3: the triple scan meets (0*0)*2 != 0*(0*2) first, the
    # validator (0 + 1) * 0 != 0*0 + 1*0; both are genuine counterexamples
    ring = zmod(3)
    mul = [list(row) for row in ring.mul]
    mul[0][0] = 1
    assert scan_ring_axioms(ring.add, mul, 1) == (
        "multiplicative associativity", (0, 0, 2))
    with pytest.raises(RingAxiomError) as err:
        validate_ring(ring.add, mul, 1)
    assert (err.value.axiom, err.value.witness) == (
        "right distributivity", (0, 1, 0))
    assert violates(ring.add, mul, 1, err.value.axiom, err.value.witness)


def test_bilinear_non_associative_product_is_caught_on_generators():
    # F_2-algebra with unit e0 and e1 e1 = e2, e2 e1 = e1: bilinear, so
    # distributive, but (e1 e1) e1 = e1 while e1 (e1 e1) = 0
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        c[0][i][i] = c[i][0][i] = 1
    c[1][1][2] = 1
    c[2][1][1] = 1
    with pytest.raises(RingAxiomError) as err:
        fp_algebra(2, 3, c, [1, 0, 0])
    assert err.value.axiom == "multiplicative associativity"
    tables = ref_fp_algebra(2, 3, c, [1, 0, 0])
    assert violates(tables.add, tables.mul, tables.one, err.value.axiom,
                    err.value.witness)
    assert scan_ring_axioms(tables.add, tables.mul, tables.one)[0] == (
        "multiplicative associativity")


@st.composite
def column_linear_tables(draw):
    """(add, mul, one) with (R, +) = (Z/p)^d, p^d <= 81, ids enumerating
    the vectors lexicographically, and each column map x -> xc a random
    F_p-linear L_c with L_one = id and L_c(one) = c.  So + is an abelian
    group, one a two-sided identity and mul right distributive; left
    distributivity and associativity hold only by chance, always for d = 1.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    d = draw(st.integers(1, {2: 6, 3: 4, 5: 2, 7: 2}[p]))
    n = p ** d
    vecs = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    weights = p ** np.arange(d - 1, -1, -1)
    add = (vecs[:, None] + vecs[None, :]) % p @ weights
    one = draw(st.integers(1, n - 1))
    u = vecs[one]
    i = int(np.flatnonzero(u)[0])
    # a linear functional with phi(one) = 1, so L_c = B + (c - B one) phi
    # takes one to c for any linear B
    phi = vecs[:, i] * pow(int(u[i]), -1, p) % p
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mul = np.empty((n, n), dtype=np.int64)
    for c in range(n):
        B = np.eye(d, dtype=np.int64) if c == one else rng.integers(0, p, (d, d))
        mul[:, c] = (vecs @ B.T + np.outer(phi, vecs[c] - B @ u)) % p @ weights
    return add.tolist(), mul.tolist(), one


# On (Z/2)^2, ids 2*v1 + v2, x*c = L_c(x) for the linear map L_c with
# L_c(e1) = c and L_c(e2) = [1, 0, 1, 0][c]: each column is additive and
# e1 = 2 is a two-sided one, but e2 * 0 = e2 != 0
RIGHT_ONLY = (
    [[x ^ y for y in range(4)] for x in range(4)],
    [[(c if x >> 1 else 0) ^ ([1, 0, 1, 0][c] if x & 1 else 0) for c in range(4)]
     for x in range(4)],
    2,
)


@settings(max_examples=150, deadline=None)
@given(column_linear_tables())
@example(RIGHT_ONLY)
def test_right_distributive_tables_agree_with_oracle(tables):
    # left distributivity is checked for c and g among the generators
    # only, which is complete once right distributivity holds
    add, mul, one = tables
    expected = scan_ring_axioms(add, mul, one)
    try:
        validate_ring(add, mul, one)
    except RingAxiomError as err:
        assert expected is not None
        assert err.axiom in ("left distributivity", "multiplicative associativity")
        assert violates(add, mul, one, err.axiom, err.witness), (
            err.axiom, err.witness)
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# nested-loop reference builders


def _ring(add, mul, one) -> FiniteRing:
    return FiniteRing(order=len(add), add=tuple(map(tuple, add)),
                      mul=tuple(map(tuple, mul)), one=one)


def ref_zmod(n: int) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return _ring(add, mul, 1 % n)


def ref_matrix(p: int, positions, k: int) -> FiniteRing:
    """k x k matrices over F_p on `positions`, ids lexicographic over the
    entry vector in position order."""
    d = len(positions)

    def decode(idx):
        m = [[0] * k for _ in range(k)]
        for i in range(d - 1, -1, -1):
            r, c = positions[i]
            m[r][c] = idx % p
            idx //= p
        return m

    def encode(m):
        idx = 0
        for r, c in positions:
            idx = idx * p + m[r][c] % p
        return idx

    mats = [decode(i) for i in range(p ** d)]
    add = [[encode([[(x[r][c] + y[r][c]) % p for c in range(k)] for r in range(k)])
            for y in mats] for x in mats]
    mul = [[encode([[sum(x[r][t] * y[t][c] for t in range(k)) % p
                     for c in range(k)] for r in range(k)])
            for y in mats] for x in mats]
    ident = [[int(r == c) for c in range(k)] for r in range(k)]
    return _ring(add, mul, encode(ident))


def ref_product(*rings: FiniteRing) -> FiniteRing:
    sizes = [r.order for r in rings]

    def decode(idx):
        out = []
        for size in reversed(sizes):
            out.append(idx % size)
            idx //= size
        return out[::-1]

    def encode(parts):
        idx = 0
        for size, v in zip(sizes, parts):
            idx = idx * size + int(v)
        return idx

    elems = [decode(i) for i in range(math.prod(sizes))]
    add = [[encode([r.add[x[i]][y[i]] for i, r in enumerate(rings)])
            for y in elems] for x in elems]
    mul = [[encode([r.mul[x[i]][y[i]] for i, r in enumerate(rings)])
            for y in elems] for x in elems]
    return _ring(add, mul, encode([r.one for r in rings]))


def ref_fp_algebra(p: int, dim: int, c, unit) -> FiniteRing:
    def decode(idx):
        out = []
        for _ in range(dim):
            out.append(idx % p)
            idx //= p
        return out[::-1]

    def encode(vec):
        idx = 0
        for v in vec:
            idx = idx * p + v % p
        return idx

    vecs = [decode(i) for i in range(p ** dim)]
    add = [[encode([(x[i] + y[i]) % p for i in range(dim)]) for y in vecs]
           for x in vecs]
    # xy = sum_j y_j (x e_j), with x e_j = sum_i x_i c[i][j]
    mul = []
    for x in vecs:
        xe = [[sum(x[i] * c[i][j][k] for i in range(dim)) for k in range(dim)]
              for j in range(dim)]
        mul.append([encode([sum(y[j] * xe[j][k] for j in range(dim)) % p
                            for k in range(dim)])
                    for y in vecs])
    return _ring(add, mul, encode(unit))


@st.composite
def algebras(draw):
    """(p, dim, constants, unit) with p in {2, 3, 5} and p^dim <= 243: the
    incidence algebra of a poset, which is a ring; random constants with
    e_0 as a two-sided unit, which are distributive but seldom
    associative; or random constants and unit vector, seldom unital."""
    p = draw(st.sampled_from((2, 3, 5)))
    top = {2: 7, 3: 5, 5: 3}[p]
    kind = draw(st.sampled_from(("incidence", "unital", "random")))
    if kind == "incidence":
        k, less = draw(posets(max_points=3))
        pairs = [(x, x) for x in range(k)] + less
        assume(len(pairs) <= top)
        return (p, *incidence_algebra(pairs))
    # the largest dimension first, which Hypothesis draws most often: its
    # orders 128 and 243 need int16 tables
    dim = draw(st.sampled_from((top, *range(1, top))))
    entry = st.integers(-p, 2 * p - 1)  # fp_algebra reduces them mod p
    c = draw(st.lists(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                               min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim))
    unit = draw(st.lists(entry, min_size=dim, max_size=dim))
    if kind == "unital":
        for i in range(dim):
            c[0][i] = c[i][0] = [int(i == k) for k in range(dim)]
        unit = [1] + [0] * (dim - 1)
    return p, dim, c, unit


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_fp_algebra_matches_reference(algebra):
    # filling mul by additivity is exact for any constants, associative or
    # not: the same bytes, or the same axiom and witness
    p, dim, c, unit = algebra
    ref = ref_fp_algebra(p, dim, c, unit)
    try:
        want = validate_ring(ref.add, ref.mul, ref.one)
    except RingAxiomError as err:
        with pytest.raises(RingAxiomError) as got:
            fp_algebra(p, dim, c, unit)
        assert (got.value.axiom, got.value.witness) == (err.axiom, err.witness)
    else:
        assert serialize_ring(fp_algebra(p, dim, c, unit)) == serialize_ring(want)


def incidence_algebra(pairs):
    """Structure constants of F_p I(P), basis e_xy for the pairs x <= y,
    e_xy e_zw = [y == z] e_xw."""
    index = {pair: i for i, pair in enumerate(pairs)}
    d = len(pairs)
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (x, y), i in index.items():
        for (z, w), j in index.items():
            if y == z:
                c[i][j][index[(x, w)]] = 1
    return d, c, [int(x == y) for x, y in pairs]


TRI = [(0, 0), (1, 0), (1, 1)]
VEE = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]  # 0 below 1 and 2


def full(k):
    return [(r, c) for r in range(k) for c in range(k)]


@pytest.mark.parametrize("n", range(1, 41))
def test_zmod_bytes_match_reference(n):
    assert serialize_ring(zmod(n)) == serialize_ring(ref_zmod(n))


@pytest.mark.parametrize("built, ref", [
    (lambda: tri2(2), lambda: ref_matrix(2, TRI, 2)),
    (lambda: tri2(3), lambda: ref_matrix(3, TRI, 2)),
    (lambda: tri2(5), lambda: ref_matrix(5, TRI, 2)),
    (lambda: tri2(7), lambda: ref_matrix(7, TRI, 2)),
    (lambda: zmod(200), lambda: ref_zmod(200)),
    (lambda: mat(1, 3), lambda: ref_matrix(3, full(1), 1)),
    (lambda: mat(2, 2), lambda: ref_matrix(2, full(2), 2)),
    (lambda: mat(2, 3), lambda: ref_matrix(3, full(2), 2)),
    (lambda: parse_ring_spec("prod:zmod:2,zmod:3"),
     lambda: ref_product(ref_zmod(2), ref_zmod(3))),
    (lambda: parse_ring_spec("prod:tri2:2,zmod:6,zmod:2"),
     lambda: ref_product(ref_matrix(2, TRI, 2), ref_zmod(6), ref_zmod(2))),
    (lambda: product(mat(2, 2), zmod(3)),
     lambda: ref_product(ref_matrix(2, full(2), 2), ref_zmod(3))),
    (lambda: parse_ring_spec("prod:zmod:128,zmod:1"),
     lambda: ref_product(ref_zmod(128), ref_zmod(1))),
    (lambda: parse_ring_spec("prod:zmod:1,zmod:128"),
     lambda: ref_product(ref_zmod(1), ref_zmod(128))),
    (lambda: fp_algebra(3, *incidence_algebra(VEE)),
     lambda: ref_fp_algebra(3, *incidence_algebra(VEE))),
], ids=["tri2:2", "tri2:3", "tri2:5", "tri2:7", "zmod:200", "mat:1:3", "mat:2:2", "mat:2:3",
        "prod:zmod:2,zmod:3", "prod:tri2:2,zmod:6,zmod:2", "mat:2:2 x zmod:3",
        "prod:zmod:128,zmod:1", "prod:zmod:1,zmod:128",
        "F3I(vee)"])
def test_builder_bytes_match_reference(built, ref):
    assert serialize_ring(built()) == serialize_ring(ref())

