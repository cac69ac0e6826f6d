"""Independent oracles for isomorphism, enumeration and connectivity, kept
in the tests so that they stay apart from the code they check.

``brute_force_isomorphic`` tries vertex bijections directly;
``count_labeled_dedup`` counts isomorphism classes by canonicalizing every
labeled graph on n vertices, without canonical augmentation;
``vertex_connectivity`` finds the smallest separator by size, the oracle
for ``membership.is_3_connected``. These three are copied unchanged from the
package. ``automorphisms`` tries every permutation, and
``unpruned_falsification`` is the falsification layer of
``gadgets.verify_enforcer`` as it was before it attached once per
automorphism orbit: an attachment at every (non)edge of every host.
"""

from __future__ import annotations

import itertools

from hfree import enumeration as E
from hfree import gadgets as GD
from hfree import graphs as G
from hfree.graphs import SmallGraph


def brute_force_isomorphic(g1: SmallGraph, g2: SmallGraph) -> bool:
    """Independent oracle: backtracking search over vertex bijections."""
    if g1.n != g2.n:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    d1, d2 = g1.degrees(), g2.degrees()

    def extend(mapping: list[int], used: int) -> bool:
        v = len(mapping)
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or d1[v] != d2[w]:
                continue
            ok = True
            for u in range(v):
                if (g1.rows[v] >> u & 1) != (g2.rows[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok and extend(mapping + [w], used | 1 << w):
                return True
        return False

    return extend([], 0)


def count_labeled_dedup(n: int) -> int:
    """Independent oracle: canonicalize every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    seen: set[bytes] = set()
    for sel in range(1 << len(pairs)):
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if sel >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        seen.add(G.canonical_cert(SmallGraph(n, rows)))
    return len(seen)


def vertex_connectivity(g: SmallGraph) -> int:
    n = g.n
    if G.is_complete(g):
        return n - 1
    if not G.is_connected(g):
        return 0
    for size in range(1, n - 1):
        if next(G.separators(g, size), None) is not None:
            return size
    return n - 1  # unreachable for non-complete graphs


def automorphisms(g: SmallGraph) -> list[tuple[int, ...]]:
    """Every automorphism of g (p[v] is the image of v), by trying every
    permutation of the vertices."""
    return [
        p for p in itertools.permutations(range(g.n))
        if all(g.has_edge(p[u], p[v]) == g.has_edge(u, v)
               for u, v in itertools.combinations(range(g.n), 2))
    ]


def unpruned_falsification(enf: GD.Gadget, n_host: int):
    """``(host, pair, copy)`` for every host with 2..n_host vertices, in
    enumeration order, and each of its edges (delete mode) or nonedges
    (complete mode) (u, v), u < v, in row order. ``copy`` is the first
    induced copy of the enforcer's host graph with a vertex outside the
    host once the enforcer is attached at the pair, sorted, or None."""
    h = GD.host_graph(enf.h)
    out = []
    for n in range(2, n_host + 1):
        for host in E.graphs_on(n):
            for pair in itertools.combinations(range(n), 2):
                if host.has_edge(*pair) != (enf.mode == "delete"):
                    continue
                joined = GD.attach_enforcer(host, pair, enf, 1)
                copy = next((sorted(hit) for hit in G.find_induced(joined, h)
                             if max(hit) >= n), None)
                out.append((host, pair, copy))
    return out
