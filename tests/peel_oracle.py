"""The peels of a graph and their easy-set shapes, computed on graphs, kept
as a test oracle for the degree-sequence versions in the package.

A peel is built as an induced subgraph: a non-regular graph without its
lowest-degree vertices (the low peel) or without its highest (the high
peel). Its shapes come from the graph predicates, the edge count and a
certificate lookup of the nine Y' graphs. A graph is in Y_D exactly when
it has a shape: a one-edge graph on at most four vertices is K2 or in Y'.
"""

from __future__ import annotations

import functools

from hfree import catalogue as C
from hfree import graphs as G
from hfree.graphs import SmallGraph

YPRIME = ("P3", "co-P3", "P4", "claw", "co-claw", "paw", "co-paw",
          "diamond", "co-diamond")


@functools.cache
def _yprime_certs() -> frozenset[bytes]:
    return frozenset(G.canonical_cert(C.lookup(name).graph) for name in YPRIME)


def peels(g: SmallGraph) -> tuple[SmallGraph, SmallGraph]:
    """The low and the high peel of a non-regular graph."""
    degs = g.degrees()
    lo, hi = min(degs), max(degs)
    assert lo < hi, "a regular graph has no peels"
    low = G.induced_subgraph(g, [v for v in range(g.n) if degs[v] != lo])
    high = G.induced_subgraph(g, [v for v in range(g.n) if degs[v] != hi])
    return low, high


def peel_types(p: SmallGraph) -> list[str]:
    """Which easy-set shapes p has, in order (non-exclusive)."""
    out = []
    if G.is_complete(p):
        out.append("complete")
    if G.is_empty(p):
        out.append("empty")
    if p.edge_count() == 1:
        out.append("near-empty")
    if p.n in (3, 4) and G.canonical_cert(p) in _yprime_certs():
        out.append("Y'")
    return out
