import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from atomspec.modules import quotient, regular_module, sub_module, submodule_lattice
from atomspec.rings import fp_algebra, mat, product, tri2, zmod

ZMOD_ORDERS = (4, 6, 8, 12, 30, 36, 60)

TABLE_FORMS = ("tuples", "int64", "table_dtype")


def table_in_form(table, form):
    """A table as nested tuples, an int64 array or an array of its dtype."""
    if form == "tuples":
        return tuple(map(tuple, table.tolist()))
    return np.array(table, dtype=np.int64 if form == "int64" else table.dtype)


def make_zoo():
    return (
        [zmod(n) for n in ZMOD_ORDERS]
        + [tri2(2), tri2(3), mat(2, 2)]
        + [product(zmod(4), zmod(3)), product(zmod(2), zmod(2))]
    )


def peak_bytes(fn):
    """fn's return value and the peak bytes tracemalloc saw while it ran;
    numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def modules_around(ring):
    """The regular module, then each quotient and submodule of it, in
    pairs."""
    reg = regular_module(ring)
    out = [reg]
    for sub in submodule_lattice(reg):
        out += [quotient(reg, sub), sub_module(reg, sub)[0]]
    return tuple(out)


@pytest.fixture(scope="session")
def zoo():
    return make_zoo()


@pytest.fixture(scope="session")
def tri2_2():
    return tri2(2)


@pytest.fixture(scope="session")
def zmod12():
    return zmod(12)


@st.composite
def posets(draw, max_points=4):
    """(k, strict relations) of a random poset on the points 0..k-1."""
    k = draw(st.integers(min_value=1, max_value=max_points))
    order = draw(st.permutations(range(k)))
    pairs = list(itertools.combinations(order, 2))  # x < y allowed
    less = set(draw(st.lists(st.sampled_from(pairs), unique=True))
               if pairs else [])
    while True:  # transitive closure
        extra = {(x, w) for x, y in less for z, w in less if y == z} - less
        if not extra:
            break
        less |= extra
    return k, sorted(less)


def incidence_constants(k, less):
    """(dim, structure constants, unit vector) of F_p I(P) for the poset on
    0..k-1 with strict relations `less`: basis the pairs x <= y, with
    e_xy e_yw = e_xw and every other product zero."""
    basis = [(x, x) for x in range(k)] + list(less)
    index = {pair: i for i, pair in enumerate(basis)}
    d = len(basis)
    consts = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, (x, y)), (j, (z, w)) in itertools.product(enumerate(basis), repeat=2):
        if y == z:
            consts[i][j][index[x, w]] = 1
    unit = [int(x == y) for x, y in basis]
    return d, consts, unit


def trivial_extension_constants(k):
    """(dim, structure constants, unit vector) of F_p ⋉ F_p^k: basis 1,
    e_1..e_k, with e_i e_j = 0 for i, j >= 1."""
    d = k + 1
    consts = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        consts[0][i][i] = consts[i][0][i] = 1
    return d, consts, [1] + [0] * k


def trivial_extension(p, k):
    d, consts, unit = trivial_extension_constants(k)
    return fp_algebra(p, d, consts, unit, name=f"F{p} x F{p}^{k}")


def central_idempotents_mod_radical(ring) -> int:
    """The number of central idempotents of R/J, J the Jacobson radical,
    read off the tables without a lattice.

    J = {x : 1 - xr is a unit for every r}, a unit being an element whose
    row of mul holds one.  e + J is a central idempotent of R/J iff
    e^2 - e and every ey - ye lie in J, and each such e + J holds |J|
    elements of R.
    """
    add, mul = ring.add.astype(np.intp), ring.mul.astype(np.intp)
    neg = add.argmin(axis=1)  # row x of add is a permutation; 0 = x + neg[x]
    unit = (mul == ring.one).any(axis=1)
    radical = unit[add[ring.one, neg[mul]]].all(axis=1)
    e = np.arange(ring.order)
    idempotent = radical[add[mul[e, e], neg]]
    central = radical[add[mul, neg[mul.T]]].all(axis=1)
    return int((idempotent & central).sum()) // int(radical.sum())
