"""Serre subcategories of mod R as open subsets of the atom spectrum, and
their inclusion Hasse diagram."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .modules import submodule_key
from .rings import AtomspecError, Rows
from .spectrum import AtomSpectrum, enumerate_open_sets


class SerreError(AtomspecError):
    pass


@dataclass(frozen=True)
class SerreSubcategory:
    spectrum: AtomSpectrum
    open_set: frozenset
    generators: tuple[frozenset, ...] = ()  # comonoform ideals q, gens R/q

    def __post_init__(self):
        # every set of atom ids is open: atom_spectrum asserted discreteness
        for atom_id in self.open_set:
            if not 0 <= atom_id < len(self.spectrum.atoms):
                raise SerreError(f"unknown atom id {atom_id}")


def _minimal_ideal_generators(
    supports: Mapping, candidates: list[frozenset], phi: frozenset
) -> tuple[frozenset, ...]:
    """Greedy minimal set of comonoform ideals q with union of supports of
    the R/q equal to phi, taken in the order of `candidates`."""
    chosen: list[frozenset] = []
    covered: frozenset = frozenset()
    for q in (q for q in candidates if supports[q] <= phi):
        if covered == phi:
            break
        if not supports[q] <= covered:
            chosen.append(q)
            covered |= supports[q]
    if covered != phi:
        raise AssertionError(
            f"open set {sorted(phi)} not covered by cyclic supports"
        )
    # drop generators made redundant by later picks
    for q in list(chosen):
        if frozenset().union(*(supports[o] for o in chosen if o != q)) == phi:
            chosen.remove(q)
    return tuple(chosen)


def enumerate_serre(spec: AtomSpectrum) -> list[SerreSubcategory]:
    """One Serre subcategory per open set, each with a minimal generating
    set of cyclic modules, ordered by (size, atom ids).  The candidates
    are sorted once: largest support first, canonical order tie-break."""
    supports = spec.supports
    candidates = sorted(
        spec.comonoform_ideals(),
        key=lambda q: (-len(supports[q]), submodule_key(q)),
    )
    return [
        SerreSubcategory(
            spectrum=spec,
            open_set=phi,
            generators=_minimal_ideal_generators(supports, candidates, phi),
        )
        for phi in enumerate_open_sets(spec)
    ]


def inclusion_edges(subs: list[SerreSubcategory]) -> list[tuple[int, int]]:
    """Covering relations of the inclusion order, as (lower, upper) index
    pairs sorted by lower, then upper.

    `subs` holds every open set, as enumerate_serre returns.  Every subset
    of atoms is open, so the covers of a are the a | {x} for x outside a.
    """
    if not subs:
        return []
    k = len(subs[0].spectrum.atoms)
    position = {s.open_set: j for j, s in enumerate(subs)}
    return [
        (i, j)
        for i, s in enumerate(subs)
        for j in sorted(position[s.open_set | {x}] for x in range(k)
                        if x not in s.open_set)
    ]


def serre_lattice(spec: AtomSpectrum) -> dict:
    """The Serre subcategories and their covering edges, the `serre` verb's
    result.  The subcategories are Rows over enumerate_serre's output, so
    a row is formatted when it is read, from the sorted ids of each
    comonoform ideal, found once here; everything a row shows has been
    computed by the time this returns."""
    subs = enumerate_serre(spec)
    ids = {q: tuple(sorted(q)) for q in spec.comonoform_ideals()}
    return {
        "count": len(subs),
        "subcategories": Rows(subs, lambda s: {
            "open_set": sorted(s.open_set),
            "generators": [list(ids[q]) for q in s.generators],
        }),
        "edges": inclusion_edges(subs),
    }


def dot_lines(lattice: dict) -> Iterator[str]:
    """Hasse diagram of a serre_lattice result in DOT graph-description
    text, a line at a time, without line ends."""
    yield "digraph serre_lattice {"
    yield "  rankdir=BT;"
    for i, s in enumerate(lattice["subcategories"]):
        label = "{" + ",".join(map(str, s["open_set"])) + "}"
        gens = "; ".join(f"R/{q}" for q in s["generators"]) or "0"
        yield f'  n{i} [label="{label}\\n{gens}"];'
    for i, j in lattice["edges"]:
        yield f"  n{i} -> n{j};"
    yield "}"
