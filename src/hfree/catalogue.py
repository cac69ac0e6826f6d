"""Named graph catalogue and the ten infinite families.

The finite entries (H1..H9, A1..A9, B1..B3, D1..D2, S1..S36 and the
small 3/4-vertex graphs) are stored as graph6 strings in
``data/catalogue.g6``; a human-readable edge list lives in
``docs/catalogue_edges.txt``. Families F1..F10 are generated on demand.

The union W = named entries + families, closed under complementation, is
what the churning classifier tests membership against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import graphs as G
from .graphs import SmallGraph

SERIES = ("H", "A", "B", "D", "S")


@dataclass(frozen=True)
class NamedGraph:
    id: str
    graph: SmallGraph
    source: str  # catalogue series: H/A/B/D/S or "small"


@dataclass(frozen=True)
class FamilyId:
    family: str  # "F1".."F10"
    t: int

    def __str__(self):
        return f"{self.family}(t={self.t})"


@dataclass(frozen=True)
class WReason:
    """Which constituent of W contains the graph."""

    kind: str  # "named" or "family"
    id: str  # catalogue id or family name
    t: Optional[int] = None
    complemented: bool = False

    def __str__(self):
        base = self.id if self.t is None else f"{self.id}(t={self.t})"
        return f"co-{base}" if self.complemented else base


# family name -> minimum t; the vertex count t + offset is in _FAMILY_OFFSET
FAMILY_CONSTRAINTS = {
    "F1": 4,
    "F2": 5,
    "F3": 4,
    "F4": 4,
    "F5": 4,
    "F6": 4,
    "F7": 4,
    "F8": 6,
    "F9": 3,
    "F10": 3,
}

_FAMILY_OFFSET = {
    # n = t + offset
    "F1": 2,
    "F2": 1,
    "F3": 2,
    "F4": 3,
    "F5": 2,
    "F6": 2,
    "F7": 3,
    "F8": 1,
    "F9": 4,
    "F10": 4,
}


@functools.cache
def _load() -> dict[str, NamedGraph]:
    entries = {}
    text = resources.files("hfree.data").joinpath("catalogue.g6").read_text()
    for line in text.splitlines():
        if not line.strip():
            continue
        name, g6 = line.split()
        series = name[0] if name[0] in SERIES and name[1:].isdigit() else "small"
        entries[name] = NamedGraph(name, G.from_graph6(g6), series)
    return entries


def all_ids() -> list[str]:
    return list(_load())


def lookup(gid: str) -> NamedGraph:
    """Catalogue entry by id; 'co-X' returns the complement of entry X."""
    entries = _load()
    if gid in entries:
        return entries[gid]
    if gid.startswith("co-") and gid[3:] in entries:
        base = entries[gid[3:]]
        return NamedGraph(gid, G.complement(base.graph), base.source)
    raise KeyError(f"unknown catalogue id: {gid}")


@functools.cache
def _index() -> dict[bytes, str]:
    idx: dict[bytes, str] = {}
    for name, entry in _load().items():
        idx.setdefault(G.canonical_cert(entry.graph), name)
    return idx


def identify(g: SmallGraph) -> Optional[str]:
    """Catalogue id of g, a 'co-' id if only its complement is stored."""
    cert = G.canonical_cert(g)
    idx = _index()
    if cert in idx:
        return idx[cert]
    co = G.canonical_cert(G.complement(g))
    if co in idx:
        name = idx[co]
        return name if cert == co else f"co-{name}"
    return None


# -- families ----------------------------------------------------------------


def twin_star(l1: int, l2: int) -> SmallGraph:
    """Two adjacent centers 0,1 carrying l1 and l2 pendant leaves."""
    edges = [(0, 1)]
    v = 2
    for _ in range(l1):
        edges.append((0, v))
        v += 1
    for _ in range(l2):
        edges.append((1, v))
        v += 1
    return G.from_edges(v, edges)


def _k2_join_independent(t: int) -> SmallGraph:
    return G.join(G.complete_graph(2), G.empty_graph(t))


def _with_handle(g: SmallGraph) -> SmallGraph:
    """g plus a length-3 path glued between vertices 0 and 1."""
    n = g.n
    return G.apply_flips(
        G.disjoint_union(g, G.empty_graph(2)), [(0, n), (n, n + 1), (n + 1, 1)]
    )


def _klique_minus_e(t: int) -> SmallGraph:
    return G.delete_edge(G.complete_graph(t), 0, 1)


def generate_family(fid: FamilyId) -> SmallGraph:
    """The member of the infinite family fid, on t + offset vertices."""
    fam, t = fid.family, fid.t
    if fam not in FAMILY_CONSTRAINTS:
        raise KeyError(f"unknown family: {fam}")
    if t < FAMILY_CONSTRAINTS[fam]:
        raise ValueError(f"{fam} requires t >= {FAMILY_CONSTRAINTS[fam]}, got {t}")
    if fam == "F1":
        return G.complete_bipartite(2, t)
    if fam == "F2":
        return G.star_graph(t)
    if fam == "F3":
        return _k2_join_independent(t)
    if fam == "F4":
        return twin_star(t, 1)
    if fam == "F5":
        return G.complement(G.disjoint_union(_klique_minus_e(t), G.empty_graph(2)))
    if fam == "F6":
        return G.complement(G.disjoint_union(_klique_minus_e(t), G.complete_graph(2)))
    if fam == "F7":
        return G.disjoint_union(G.star_graph(t), G.complete_graph(2))
    if fam == "F8":
        return G.complement(G.disjoint_union(_klique_minus_e(t), G.empty_graph(1)))
    if fam == "F9":
        return _with_handle(_k2_join_independent(t))  # top vertices 0, 1
    return _with_handle(G.complete_bipartite(2, t))  # t-degree vertices 0, 1


def recognize_family(g: SmallGraph) -> Optional[FamilyId]:
    """Inverse of generate_family: the fid with g isomorphic to its member."""
    cert = None
    for fam, tmin in FAMILY_CONSTRAINTS.items():
        t = g.n - _FAMILY_OFFSET[fam]
        if t < tmin:
            continue
        member = generate_family(FamilyId(fam, t))
        if member.edge_count() != g.edge_count():
            continue
        if cert is None:
            cert = G.canonical_cert(g)
        if G.canonical_cert(member) == cert:
            return FamilyId(fam, t)
    return None


def membership_W(g: SmallGraph) -> Optional[WReason]:
    """Locate g inside W (named entries, families, and their complements).

    The set W is closed under complementation and is the same for every
    problem variant.
    """
    name = identify(g)
    if name is not None:
        base = name[3:] if name.startswith("co-") else name
        if _load()[base].source != "small":
            if name.startswith("co-"):
                return WReason("named", base, complemented=True)
            return WReason("named", name)
    fid = recognize_family(g)
    if fid is not None:
        return WReason("family", fid.family, t=fid.t)
    fid = recognize_family(G.complement(g))
    if fid is not None:
        return WReason("family", fid.family, t=fid.t, complemented=True)
    return None
