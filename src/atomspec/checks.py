"""Property battery over a single ring: every structural fact the library
relies on, re-verified exhaustively at desk scale.

Each check returns (name, passed, witness), its name written once in its
`_property` decorator, which also lists it in ALL_CHECKS in the order of
definition; check_suite aggregates them into a report.  A
failed check is an implementation bug, never an acceptable state, so
witnesses are kept small and concrete.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, wraps

import numpy as np

from .modules import (
    RightModule,
    annihilator,
    annihilator_set,
    composition_factors,
    composition_factors_top_down,
    cyclic_submodule,
    direct_sum,
    embeds_in,
    is_isomorphic,
    is_submodule,
    is_uniform,
    is_uniform_bruteforce,
    quotient,
    quotient_module,
    regular_module,
    sub_module,
    submodule_lattice,
    submodule_sum,
)
from .monoform import (
    filtration_factor,
    is_comonoform,
    is_completely_prime,
    is_monoform,
    max_monoform_submodule,
    monoform_filtration,
    monoform_oracle_artinian,
)
from .rings import FiniteRing, validate_ring
from .serre import build_universe, calculus_check, closure_oracle
from .spectrum import (
    associated_atoms,
    atom_equivalent,
    atom_spectrum,
    atom_support,
    commutative_crosscheck,
    enumerate_open_sets,
    is_open,
)

# checks that enumerate submodule lattices of subquotients stay usable by
# bounding the modules they look inside
SMALL_MODULE_ORDER = 64


ALL_CHECKS = []  # in report order


def _property(name: str):
    """Turn a function of the ring returning (passed, witness) into a check
    returning (name, passed, witness), with `check.property` = name, and
    append it to ALL_CHECKS."""
    def decorate(body):
        @wraps(body)
        def check(ring, *args, **kwargs):
            return (name, *body(ring, *args, **kwargs))
        check.property = name
        ALL_CHECKS.append(check)
        return check
    return decorate


@lru_cache(maxsize=None)
def _cyclic_modules(ring: FiniteRing) -> tuple[RightModule, ...]:
    """R/I for every proper right ideal I (includes the regular module)."""
    reg = regular_module(ring)
    return tuple(
        quotient(reg, ideal)
        for ideal in submodule_lattice(reg)
        if len(ideal) < ring.order
    )


@_property("ring axioms")
def check_ring_axioms(ring: FiniteRing):
    try:
        validate_ring(ring.add, ring.mul, ring.one)
    except Exception as exc:  # pragma: no cover - only on corrupt input
        return False, str(exc)
    return True, None


@_property("annihilators are right ideals")
def check_annihilators_are_ideals(ring: FiniteRing):
    reg = regular_module(ring)
    for mod in _cyclic_modules(ring):
        for x in range(mod.order):
            if not is_submodule(reg, annihilator(mod, x)):
                return False, (mod.provenance, x)
    return True, None


@_property("index multiplicativity")
def check_index_multiplicativity(ring: FiniteRing):
    reg = regular_module(ring)
    for sub in submodule_lattice(reg):
        if reg.order != len(sub) * quotient(reg, sub).order:
            return False, sorted(sub)
    return True, None


@_property("cyclic is R mod annihilator")
def check_cyclic_iso_quotient(ring: FiniteRing):
    """xR is isomorphic to R / Ann(x), through r + Ann(x) -> x.r.

    The map is checked on the built modules R/Ann(x) and xR, so this
    exhibits an isomorphism instead of searching for one.
    """
    reg = regular_module(ring)
    quotients = {}  # R/Ann(x) once per distinct annihilator
    for mod in _cyclic_modules(ring):
        cyclics = {}  # xR once per distinct cyclic submodule of mod
        for x in range(mod.order):
            ann = annihilator(mod, x)
            if ann not in quotients:
                quotients[ann] = quotient_module(reg, ann)
            members = cyclic_submodule(mod, x)
            if members not in cyclics:
                cyclics[members] = sub_module(mod, members)
            if not _canonical_map_is_iso(mod, x, *quotients[ann],
                                         *cyclics[members]):
                return False, (mod.provenance, x)
    return True, None


def _canonical_map_is_iso(mod: RightModule, x: int, quo: RightModule,
                          proj: tuple, cyc: RightModule, incl: tuple) -> bool:
    """phi(r + Ann(x)) = x.r is a well-defined, bijective, additive and
    R-linear map from quo = R/Ann(x) to cyc = xR.

    proj sends each r in R to its coset id in quo; incl sends the ids of
    cyc to elements of mod.
    """
    row = mod.act[x]  # x.r for each r
    proj = np.array(proj, dtype=np.intp)
    if (len(proj) != len(row) or quo.order != cyc.order
            or proj.max() >= quo.order):
        return False
    index = np.full(mod.order, -1, dtype=np.intp)  # mod id -> cyc id
    index[list(incl)] = np.arange(len(incl))
    image = index[row]  # phi(proj[r]) for each r
    phi = np.full(quo.order, -1, dtype=np.intp)
    phi[proj] = image
    if (image < 0).any() or (phi[proj] != image).any():
        return False  # x.r outside xR, or phi not well defined
    if not np.array_equal(np.sort(phi), np.arange(cyc.order)):
        return False
    return bool(
        (phi[quo.add] == cyc.add[phi[:, None], phi]).all()
        and (phi[quo.act] == cyc.act[phi]).all()
    )


@_property("lattice closed under meet and join")
def check_lattice_closure(ring: FiniteRing):
    reg = regular_module(ring)
    lattice = set(submodule_lattice(reg))
    for a in lattice:
        for b in lattice:
            if a & b not in lattice or submodule_sum(reg, a, b) not in lattice:
                return False, (sorted(a), sorted(b))
    return True, None


@_property("composition series independence")
def check_series_independence(ring: FiniteRing):
    for mod in _cyclic_modules(ring):
        if composition_factors(mod) != composition_factors_top_down(mod):
            return False, mod.provenance
    return True, None


@_property("uniform agrees with pairwise oracle")
def check_uniform_oracle(ring: FiniteRing):
    for mod in _cyclic_modules(ring):
        if len(submodule_lattice(mod)) <= SMALL_MODULE_ORDER:
            if is_uniform(mod) != is_uniform_bruteforce(mod):
                return False, mod.provenance
    return True, None


@_property("annihilator-set reduction")
def check_annihilator_reduction(ring: FiniteRing):
    """Shared-submodule reduction vs a literal embedding search."""
    mods = [m for m in _cyclic_modules(ring) if m.order <= 16]
    for a in mods:
        for b in mods:
            reduced = bool(annihilator_set(a) & annihilator_set(b))
            literal = any(
                len(s) > 1 and embeds_in(sub_module(a, s)[0], b)
                for s in submodule_lattice(a)
            )
            if reduced != literal:
                return False, (a.provenance, b.provenance)
    return True, None


@_property("monoform is hereditary")
def check_monoform_hereditary(ring: FiniteRing):
    """Every nonzero submodule of a monoform module is monoform."""
    for mod in _cyclic_modules(ring):
        if not is_monoform(mod):
            continue
        for sub in submodule_lattice(mod):
            if len(sub) > 1 and not is_monoform(sub_module(mod, sub)[0]):
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("monoform implies uniform")
def check_monoform_implies_uniform(ring: FiniteRing):
    for mod in _cyclic_modules(ring):
        if is_monoform(mod) and not is_uniform(mod):
            return False, mod.provenance
    return True, None


@_property("atom equivalence is an equivalence")
def check_atom_equivalence_relation(ring: FiniteRing):
    spec = atom_spectrum(ring)
    ideals = spec.comonoform_ideals()
    for p in ideals:
        if not atom_equivalent(ring, p, p):
            return False, sorted(p)
    for p, q, r in itertools.product(ideals, repeat=3):
        if atom_equivalent(ring, p, q) != atom_equivalent(ring, q, p):
            return False, (sorted(p), sorted(q))
        if (
            atom_equivalent(ring, p, q)
            and atom_equivalent(ring, q, r)
            and not atom_equivalent(ring, p, r)
        ):
            return False, (sorted(p), sorted(q), sorted(r))
    return True, None


@_property("monoform submodule sums")
def check_monoform_sum(ring: FiniteRing):
    """In a uniform module, the sum of two monoform submodules is monoform."""
    for mod in _cyclic_modules(ring):
        if not is_uniform(mod):
            continue
        monoforms = [
            s for s in submodule_lattice(mod)
            if len(s) > 1 and is_monoform(sub_module(mod, s)[0])
        ]
        for a in monoforms:
            for b in monoforms:
                total = submodule_sum(mod, a, b)
                if not is_monoform(sub_module(mod, total)[0]):
                    return False, (mod.provenance, sorted(a), sorted(b))
    return True, None


@_property("monoform agrees with socle oracle")
def check_socle_oracle(ring: FiniteRing):
    for mod in _cyclic_modules(ring):
        if is_monoform(mod) != monoform_oracle_artinian(mod):
            return False, mod.provenance
    return True, None


@_property("comonoform implies completely prime")
def check_comonoform_completely_prime(ring: FiniteRing):
    reg = regular_module(ring)
    for ideal in submodule_lattice(reg):
        if len(ideal) == ring.order:
            continue
        if is_comonoform(ring, ideal) and not is_completely_prime(ring, ideal):
            return False, sorted(ideal)
    return True, None


@_property("monoform filtrations")
def check_filtrations(ring: FiniteRing):
    reg = regular_module(ring)
    for mod in _cyclic_modules(ring):
        filt = monoform_filtration(mod)
        if list(filt.chain) != sorted(filt.chain, key=len) or any(
            not a < b for a, b in zip(filt.chain, filt.chain[1:])
        ):
            return False, mod.provenance
        for i, label in enumerate(filt.labels):
            factor = filtration_factor(mod, filt, i)
            if not is_monoform(factor):
                return False, (mod.provenance, i)
            if not is_isomorphic(factor, quotient(reg, label)):
                return False, (mod.provenance, i)
    return True, None


@_property("maximal monoform submodules")
def check_max_monoform(ring: FiniteRing):
    for mod in _cyclic_modules(ring):
        if not is_uniform(mod):
            continue
        # raises internally if the maximum fails its own verification
        max_monoform_submodule(mod)
    return True, None


@_property("support exactness")
def check_support_exactness(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _cyclic_modules(ring):
        total = atom_support(spec, mod)
        for sub in submodule_lattice(mod):
            left = atom_support(spec, sub_module(mod, sub)[0])
            right = atom_support(spec, quotient(mod, sub))
            if total != left | right:
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("associated atom sandwich")
def check_ass_sandwich(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _cyclic_modules(ring):
        mid = associated_atoms(spec, mod)
        for sub in submodule_lattice(mod):
            left = associated_atoms(spec, sub_module(mod, sub)[0])
            right = associated_atoms(spec, quotient(mod, sub))
            if not (left <= mid and mid <= left | right):
                return False, (mod.provenance, sorted(sub))
    return True, None


@_property("direct sum support additivity")
def check_direct_sum_additivity(ring: FiniteRing, pairs: int = 20, seed: int = 0):
    # factor cap keeps the summed module's tables and lattice tractable;
    # it admits the smallest cyclic module, or R itself for the zero ring
    spec = atom_spectrum(ring)
    mods = _cyclic_modules(ring) or (regular_module(ring),)
    cap = max(16, min(m.order for m in mods))
    mods = [m for m in mods if m.order <= cap]
    rng = random.Random(seed)
    for _ in range(pairs):
        a, b = rng.choice(mods), rng.choice(mods)
        s = direct_sum(a, b)
        if atom_support(spec, s) != atom_support(spec, a) | atom_support(spec, b):
            return False, (a.provenance, b.provenance)
        if associated_atoms(spec, s) != (
            associated_atoms(spec, a) | associated_atoms(spec, b)
        ):
            return False, (a.provenance, b.provenance)
    return True, None


@_property("associated atoms within support")
def check_ass_inside_support(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _cyclic_modules(ring):
        ass = associated_atoms(spec, mod)
        if not ass <= atom_support(spec, mod):
            return False, mod.provenance
        if mod.order > 1 and not ass:
            return False, mod.provenance
    return True, None


@_property("module supports are open")
def check_supports_are_open(ring: FiniteRing):
    spec = atom_spectrum(ring)
    for mod in _cyclic_modules(ring):
        if not is_open(spec, atom_support(spec, mod)):
            return False, mod.provenance
    return True, None


@_property("discrete topology")
def check_discreteness(ring: FiniteRing):
    """Finite rings: every subset of atoms is open, and the atom count is
    the number of iso-classes of simple modules."""
    spec = atom_spectrum(ring)
    k = len(spec.atoms)
    for size in range(k + 1):
        for phi in itertools.combinations(range(k), size):
            if not is_open(spec, frozenset(phi)):
                return False, list(phi)
    reg = regular_module(ring)
    simple_handles = set()
    for mod in _cyclic_modules(ring):
        if mod.order > 1 and len(submodule_lattice(mod)) == 2:
            simple_handles.add(annihilator_set(mod))
    if len(simple_handles) != k:
        return False, ("atoms", k, "simple classes", len(simple_handles))
    return True, None


@_property("monoform closure criterion")
def check_monoform_closure_equivalence(ring: FiniteRing):
    """M is non-monoform iff M falls into the Serre closure of its proper
    quotients, computed by the brute-force oracle."""
    for mod in _cyclic_modules(ring):
        if mod.order > SMALL_MODULE_ORDER:
            continue
        universe = build_universe(mod)
        gens = {
            universe.class_of(quotient(mod, sub))
            for sub in submodule_lattice(mod)
            if len(sub) > 1
        }
        in_closure = universe.class_of(mod) in closure_oracle(universe, gens)
        if in_closure != (not is_monoform(mod)):
            return False, mod.provenance
    return True, None


@_property("open set roundtrip")
def check_roundtrip_open_sets(ring: FiniteRing):
    """ASupp(ASupp^-1 phi) == phi via cyclic witnesses, for every open phi."""
    spec = atom_spectrum(ring)
    for phi in enumerate_open_sets(spec):
        covered = frozenset()
        for q in spec.comonoform_ideals():
            if spec.support_of_ideal(q) <= phi:
                covered |= spec.support_of_ideal(q)
        if covered != phi:
            return False, sorted(phi)
    return True, None


@_property("closure oracle soundness")
def check_oracle_soundness(ring: FiniteRing, trials: int = 5, seed: int = 0):
    """Every member of an oracle closure has support inside the generated
    open set."""
    spec = atom_spectrum(ring)
    reg = regular_module(ring)
    universe = build_universe(reg)
    supports = [atom_support(spec, m) for m in universe.members]
    rng = random.Random(seed)
    for _ in range(trials):
        gens = frozenset(
            i for i in range(len(universe.members)) if rng.random() < 0.4
        )
        phi = frozenset().union(frozenset(), *(supports[g] for g in gens))
        for member in closure_oracle(universe, gens):
            if not supports[member] <= phi:
                return False, sorted(gens)
    return True, None


@_property("subcategory calculus")
def check_calculus(ring: FiniteRing, samples: int = 25):
    universe = build_universe(regular_module(ring))
    result = calculus_check(universe, samples=samples)
    return result["passed"], result["violations"] or None


@_property("commutative recovery")
def check_commutative(ring: FiniteRing):
    if not ring.is_commutative():
        return True, "skipped (noncommutative)"
    report = commutative_crosscheck(ring)
    return report["passed"], None if report["passed"] else report["checks"]


def check_suite(ring: FiniteRing) -> dict:
    """Run the full battery; report pass/fail per property with witnesses.
    A property that raises fails with witness "<Type>: <message>"."""
    results = []
    for check in ALL_CHECKS:
        try:
            name, passed, witness = check(ring)
        except Exception as exc:  # a crash fails its property, not the report
            name = check.property
            passed, witness = False, f"{type(exc).__name__}: {exc}"
        entry = {"property": name, "passed": passed}
        if witness is not None:
            entry["witness"] = witness
        results.append(entry)
    return {
        "ring": ring.name or f"order {ring.order}",
        "order": ring.order,
        "properties": results,
        "passed": all(r["passed"] for r in results),
    }
