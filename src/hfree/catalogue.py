"""Named graph catalogue and the ten infinite families.

The finite entries (H1..H9, A1..A9, B1..B3, D1..D2, S1..S36 and the
small 3/4-vertex graphs) are stored as graph6 strings in
``data/catalogue.g6``; a human-readable edge list lives in
``docs/catalogue_edges.txt``. Families F1..F10 are generated on demand.

The union W = named entries + families, closed under complementation, is
what the churning classifier tests membership against. ``membership_W``
looks one certificate up in an index of W's graphs on that many vertices,
built on the first lookup at each vertex count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
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


def _co_clique_minus_e_plus(t: int, g: SmallGraph) -> SmallGraph:
    """The complement of (K_t - e) + g."""
    return G.complement(G.disjoint_union(G.delete_edge(G.complete_graph(t), 0, 1), g))


# family name -> (minimum t, vertex offset with n = t + offset, member builder)
_FAMILIES = {
    "F1": (4, 2, lambda t: G.complete_bipartite(2, t)),
    "F2": (5, 1, G.star_graph),
    "F3": (4, 2, _k2_join_independent),
    "F4": (4, 3, lambda t: twin_star(t, 1)),
    "F5": (4, 2, lambda t: _co_clique_minus_e_plus(t, G.empty_graph(2))),
    "F6": (4, 2, lambda t: _co_clique_minus_e_plus(t, G.complete_graph(2))),
    "F7": (4, 3, lambda t: G.disjoint_union(G.star_graph(t), G.complete_graph(2))),
    "F8": (6, 1, lambda t: _co_clique_minus_e_plus(t, G.empty_graph(1))),
    # handles on the two top vertices 0, 1 of K2 + tK1, and on the two
    # t-degree vertices 0, 1 of K(2, t)
    "F9": (3, 4, lambda t: _with_handle(_k2_join_independent(t))),
    "F10": (3, 4, lambda t: _with_handle(G.complete_bipartite(2, t))),
}

FAMILY_CONSTRAINTS = {fam: tmin for fam, (tmin, _, _) in _FAMILIES.items()}


def generate_family(fid: FamilyId) -> SmallGraph:
    """The member of the infinite family fid, on t + offset vertices."""
    fam, t = fid.family, fid.t
    if fam not in _FAMILIES:
        raise KeyError(f"unknown family: {fam}")
    tmin, _, build = _FAMILIES[fam]
    if t < tmin:
        raise ValueError(f"{fam} requires t >= {tmin}, got {t}")
    return build(t)


def _members(n: int) -> list[tuple[FamilyId, SmallGraph]]:
    """Every family member on n vertices, in table order."""
    return [
        (FamilyId(fam, n - offset), build(n - offset))
        for fam, (tmin, offset, build) in _FAMILIES.items()
        if n - offset >= tmin
    ]


def recognize_family(g: SmallGraph) -> Optional[FamilyId]:
    """Inverse of generate_family: the first fid in table order with g
    isomorphic to its member."""
    cert = None
    for fid, member in _members(g.n):
        if member.edge_count() != g.edge_count():
            continue
        if cert is None:
            cert = G.canonical_cert(g)
        if G.canonical_cert(member) == cert:
            return fid
    return None


@functools.lru_cache(maxsize=128)
def _w_on(n: int) -> dict[bytes, WReason]:
    """Certificate -> WReason for every graph of W on n vertices. Earlier
    entries win: named entries, their complements, family members, then the
    members' complements, each in catalogue or table order."""
    named = [
        (e.graph, WReason("named", e.id))
        for e in _load().values()
        if e.graph.n == n and e.source != "small"
    ]
    family = [(g, WReason("family", f.family, t=f.t)) for f, g in _members(n)]
    idx: dict[bytes, WReason] = {}
    for part in (named, family):
        for co in (False, True):
            for g, reason in part:
                cert = G.canonical_cert(G.complement(g) if co else g)
                idx.setdefault(cert, replace(reason, complemented=co))
    return idx


def membership_W(g: SmallGraph) -> Optional[WReason]:
    """Locate g inside W (named entries, families, and their complements).

    The set W is closed under complementation and is the same for every
    problem variant. The small 3/4-vertex entries are not part of it.
    """
    return _w_on(g.n).get(G.canonical_cert(g))
