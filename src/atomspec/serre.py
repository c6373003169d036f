"""Serre subcategories of mod R as open subsets of the atom spectrum, and
their inclusion Hasse diagram."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .modules import submodule_key
from .rings import AtomspecError, Rows
from .spectrum import AtomSpectrum, SpectrumError, enumerate_open_sets, is_open


class SerreError(AtomspecError):
    pass


@dataclass(frozen=True)
class SerreSubcategory:
    spectrum: AtomSpectrum
    open_set: frozenset
    generators: tuple[frozenset, ...] = ()  # comonoform ideals q, gens R/q

    def __post_init__(self):
        try:
            opened = is_open(self.spectrum, self.open_set)
        except SpectrumError as exc:
            raise SerreError(str(exc)) from exc
        if not opened:
            raise SerreError(f"{sorted(self.open_set)} is not an open set")


def _minimal_ideal_generators(
    spec: AtomSpectrum, phi: frozenset
) -> tuple[frozenset, ...]:
    """Greedy minimal set of comonoform ideals q with union of supports of
    the R/q equal to phi; largest support first, canonical order tie-break."""
    supports = spec.supports
    candidates = sorted(
        (q for q in spec.comonoform_ideals() if supports[q] <= phi),
        key=lambda q: (-len(supports[q]), submodule_key(q)),
    )
    chosen: list[frozenset] = []
    covered: frozenset = frozenset()
    for q in candidates:
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
    set of cyclic modules, ordered by (size, atom ids)."""
    return [
        SerreSubcategory(
            spectrum=spec,
            open_set=phi,
            generators=_minimal_ideal_generators(spec, phi),
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


def _subcategory_row(s: SerreSubcategory) -> dict:
    return {
        "open_set": sorted(s.open_set),
        "generators": [sorted(q) for q in s.generators],
    }


def serre_lattice(spec: AtomSpectrum) -> dict:
    """The Serre subcategories and their covering edges, the `serre` verb's
    result.  The subcategories are Rows over enumerate_serre's output, so
    a row is formatted when it is read; everything a row shows has been
    computed by the time this returns."""
    subs = enumerate_serre(spec)
    return {
        "count": len(subs),
        "subcategories": Rows(subs, _subcategory_row),
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
