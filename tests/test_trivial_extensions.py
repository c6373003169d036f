"""Known answers from the trivial extensions F_p ⋉ F_p^k.

R = F_p ⋉ V, V = F_p^k, has basis 1, e_1..e_k with e_i e_j = 0 for
i, j >= 1.  V squares to zero, so a right ideal is either R itself or a
subspace of V, and the right ideals number G_k(p) + 1, with G_k(p) the
Galois number: the count of subspaces of F_p^k, the sum over j of the
Gaussian binomials [k, j]_p.  R is local with residue field R/V = F_p,
so it has one simple module and one atom, and V is its only comonoform
right ideal.  The lattices grow as p^(k^2/4), which makes these rings
the frontier of the lattice search, which only `ideals` and `check`
make.  The spectrum is read off the characters of (R, +), so it
goes past that frontier.
"""

import json
import time

import pytest

from atomspec import cli
from atomspec.modules import regular_module, submodule_lattice
from atomspec.spectrum import atom_spectrum

from conftest import trivial_extension, trivial_extension_constants

CASES = [(2, k) for k in range(7)] + [(3, k) for k in range(4)]


def galois_number(k, p):
    """The number of subspaces of F_p^k: the sum of [k, j]_p, with
    [k, j]_p = prod over i < j of (p^(k-i) - 1) / (p^(i+1) - 1)."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def test_galois_numbers():
    assert [galois_number(k, 2) for k in range(7)] == [1, 2, 5, 16, 67, 374, 2825]
    assert [galois_number(k, 3) for k in range(4)] == [1, 2, 6, 28]


@pytest.mark.parametrize("p, k", CASES)
def test_right_ideals_are_the_subspaces_and_r(p, k):
    ring = trivial_extension(p, k)
    assert ring.order == p ** (k + 1)
    assert len(submodule_lattice(regular_module(ring))) == galois_number(k, p) + 1


# the spectrum without the lattice: from F_2 ⋉ F_2^8 on (417,200 right
# ideals), the lattice search stops at its cap
BEYOND_THE_LATTICE = [(2, 7), (2, 8), (2, 9), (3, 4), (3, 5)]


@pytest.mark.parametrize("p, k", CASES + BEYOND_THE_LATTICE)
def test_one_atom_whose_only_member_is_v(p, k):
    ring = trivial_extension(p, k)
    spec = atom_spectrum(ring)
    # V is spanned by e_1..e_k, the ids below p^k, as 1 is the first basis
    # vector and ids enumerate coefficient vectors lexicographically
    assert spec.comonoform_ideals() == (frozenset(range(p ** k)),)
    assert len(spec.atoms) == 1


def document(tmp_path, k) -> str:
    """The path of an fp_algebra document of F_2 ⋉ F_2^k."""
    d, consts, unit = trivial_extension_constants(k)
    doc = {"fp_algebra": {"p": 2, "dim": d, "structure_constants": consts,
                          "unit_vector": unit}}
    path = tmp_path / f"f2-x-f2-{k}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_ideals_past_the_lattice_cap_is_a_json_error(tmp_path, capsys):
    # F_2 ⋉ F_2^9 has order 1024 and 8,283,459 right ideals; the search
    # stops once it would keep 2^25 bytes, at 32,769 of them
    path = document(tmp_path, 9)
    code, _ = cli.run(["ideals", "--ring", path, "--format", "json"])
    assert code == 1
    assert '"type":"CapExceededError"' in capsys.readouterr().out


def test_check_past_the_check_cap_is_a_json_error(tmp_path, capsys):
    # F_2 ⋉ F_2^6 has 2,826 right ideals, over CHECK_LATTICE_CAP; without
    # the cap, check ran on it for over 300 s
    path = document(tmp_path, 6)
    start = time.monotonic()
    code, _ = cli.run(["check", "--ring", path, "--format", "json"])
    assert time.monotonic() - start < 10
    assert code == 1
    assert '"type":"CapExceededError"' in capsys.readouterr().out
