"""End-to-end acceptance battery.

Each criterion prints one `criterion N: PASS/FAIL` line (visible even under
pytest capture) and fails if it exceeds its wall-clock budget.
"""

import itertools
import random
import time

import pytest

from atomspec.checks import (
    ass_within_support,
    build_universe,
    check_roundtrip_open_sets,
    check_socle_oracle,
    check_support_exactness,
    closure_is_sound,
    closure_oracle,
    filtration_defect,
    max_monoform_submodule,
    monoform_by_closure,
    simple_module_count,
    sum_is_additive,
    universe_supports,
)
from atomspec.modules import (
    is_uniform,
    quotient,
    regular_module,
    sub_module,
    submodule_lattice,
)
from atomspec.monoform import MonoformError, is_comonoform, is_monoform
from atomspec.rings import tri2, zmod
from atomspec.spectrum import atom_spectrum, enumerate_open_sets

from conftest import ZMOD_ORDERS, make_zoo


def run_criterion(capsys, number, limit_seconds, body):
    start = time.monotonic()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.monotonic() - start
    ok = failure is None and elapsed <= limit_seconds
    with capsys.disabled():
        print(
            f"criterion {number}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s, limit {limit_seconds}s)"
        )
    if failure is not None:
        raise failure
    assert elapsed <= limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, over {limit_seconds}s"
    )


def test_criterion_1_triangular_ring_regression(capsys):
    def body():
        ring = tri2(2)
        whole = regular_module(ring)
        lattice = submodule_lattice(whole)
        assert sorted(map(sorted, lattice)) == [
            [0], [0, 1, 2, 3], list(range(8)), [0, 2], [0, 2, 4, 6],
            [0, 4], [0, 6],
        ]
        comono = {
            i for i in lattice
            if len(i) < 8 and is_comonoform(ring, i)
        }
        assert comono == {
            frozenset({0, 4}), frozenset({0, 6}),
            frozenset({0, 1, 2, 3}), frozenset({0, 2, 4, 6}),
        }
        assert not is_comonoform(ring, frozenset({0, 2}))
        spec = atom_spectrum(ring)
        assert len(spec.atoms) == 2
        partition = sorted(
            sorted(map(sorted, atom.members)) for atom in spec.atoms
        )
        assert partition == [
            [[0, 1, 2, 3], [0, 4], [0, 6]],
            [[0, 2, 4, 6]],
        ]
        assert len(enumerate_open_sets(spec)) == 4

    run_criterion(capsys, 1, 1.0, body)


def test_criterion_2_commutative_spectra(capsys):
    def body():
        for n in ZMOD_ORDERS:
            ring = zmod(n)
            whole = regular_module(ring)
            primes = {
                frozenset(range(0, n, p))
                for p in range(2, n + 1)
                if n % p == 0 and all(p % q for q in range(2, p))
            }
            comono = {
                i for i in submodule_lattice(whole)
                if len(i) < n and is_comonoform(ring, i)
            }
            assert comono == primes
            spec = atom_spectrum(ring)
            assert len(spec.atoms) == len(primes)
            for atom in spec.atoms:
                assert len(atom.members) == 1
            opens = enumerate_open_sets(spec)
            assert len(opens) == 2 ** len(primes)
            assert len(set(opens)) == len(opens)

    run_criterion(capsys, 2, 5.0, body)


def test_criterion_3_discreteness_and_simple_count(capsys):
    def body():
        for ring in make_zoo():
            spec = atom_spectrum(ring)
            opens = enumerate_open_sets(spec)
            assert len(opens) == 2 ** len(spec.atoms)
            # independent count of simple modules up to isomorphism
            assert len(spec.atoms) == simple_module_count(ring)

    run_criterion(capsys, 3, 30.0, body)


def test_criterion_4_monoform_socle_oracle(capsys):
    def body():
        for ring in make_zoo():
            assert check_socle_oracle(ring)[1:] == (True, None)

    run_criterion(capsys, 4, 60.0, body)


def test_criterion_5_monoform_closure_criterion(capsys):
    def body():
        for ring in (zmod(4), zmod(12), tri2(2), tri2(3)):
            universe = build_universe(regular_module(ring))
            for mod in universe.members:
                if mod.order <= 1 or mod.order > 64:
                    continue
                assert monoform_by_closure(mod) == is_monoform(mod)

    run_criterion(capsys, 5, 120.0, body)


def test_criterion_6_filtrations(capsys):
    def body():
        rng = random.Random(6)
        zoo = make_zoo()
        for ring in zoo:
            assert filtration_defect(regular_module(ring)) is None
        for _ in range(50):
            ring = rng.choice(zoo)
            whole = regular_module(ring)
            lattice = submodule_lattice(whole)
            members = rng.choice(lattice)
            if rng.random() < 0.5:
                mod = sub_module(whole, members)[0]
            else:
                mod = quotient(whole, members)
            if mod.order > 1:
                assert filtration_defect(mod) is None

    run_criterion(capsys, 6, 60.0, body)


def test_criterion_7_support_exactness_and_sandwich(capsys):
    def body():
        rng = random.Random(7)
        for ring in make_zoo():
            # exactness on every 0 -> S -> M -> M/S -> 0 with M = R/I,
            # R = R/0 among them
            assert check_support_exactness(ring)[1:] == (True, None)
            spec = atom_spectrum(ring)
            whole = regular_module(ring)
            lattice = submodule_lattice(whole)
            for members in lattice:
                assert ass_within_support(spec, sub_module(whole, members)[0])
            small = [
                sub_module(whole, m)[0] for m in lattice if len(m) <= 8
            ]
            for _ in range(20):
                a, b = rng.choice(small), rng.choice(small)
                assert sum_is_additive(spec, a, b)

    run_criterion(capsys, 7, 60.0, body)


def test_criterion_8_serre_open_set_correspondence(capsys):
    def body():
        rng = random.Random(8)
        for ring in make_zoo():
            # roundtrip: the modules supported inside an open set have
            # supports that union back to exactly that open set
            assert check_roundtrip_open_sets(ring)[1:] == (True, None)
        for ring in (zmod(4), zmod(12), tri2(2)):
            spec = atom_spectrum(ring)
            universe = build_universe(regular_module(ring))
            supports = universe_supports(universe, spec)
            n = len(universe.members)
            open_sets = set(enumerate_open_sets(spec))
            # soundness on random generator sets
            for _ in range(20):
                gens = [i for i in range(n) if rng.random() < 0.4]
                assert closure_is_sound(universe, supports, gens)
            # completeness: closure-closed families biject with open sets
            families = set()
            for r in range(n + 1):
                for gens in itertools.combinations(range(n), r):
                    families.add(closure_oracle(universe, gens))
            assert len(families) == len(open_sets)
            for family in families:
                phi = frozenset().union(
                    frozenset(), *(supports[m] for m in family)
                )
                assert phi in open_sets
                assert family == frozenset(
                    m for m in range(n) if supports[m] <= phi
                )

    run_criterion(capsys, 8, 120.0, body)


def test_criterion_9_max_monoform_submodule(capsys):
    def body():
        found_uniform = 0
        for ring in make_zoo():
            whole = regular_module(ring)
            for members in submodule_lattice(whole):
                if len(members) == 1:
                    continue
                mod = sub_module(whole, members)[0]
                if not is_uniform(mod):
                    with pytest.raises(MonoformError):
                        max_monoform_submodule(mod)
                    continue
                found_uniform += 1
                best = max_monoform_submodule(mod)
                assert len(best) > 1
                assert is_monoform(sub_module(mod, best)[0])
                # maximality: every monoform submodule sits inside it
                for sub in submodule_lattice(mod):
                    if len(sub) > 1 and is_monoform(sub_module(mod, sub)[0]):
                        assert sub <= best
        assert found_uniform > 0

    run_criterion(capsys, 9, 30.0, body)
