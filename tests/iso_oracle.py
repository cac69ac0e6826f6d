"""Independent oracles for isomorphism, enumeration and connectivity, kept
in the tests so that they stay apart from the code they check.

``brute_force_isomorphic`` tries vertex bijections directly;
``count_labeled_dedup`` counts isomorphism classes by canonicalizing every
labeled graph on n vertices, without canonical augmentation;
``vertex_connectivity`` finds the smallest separator by size with its own
breadth-first search over ``has_edge``, the oracle for
``membership.is_3_connected``; it calls nothing of ``graphs`` that the
package's connectivity code uses. The first two are copied unchanged from
the package. ``automorphisms`` tries every permutation, and
``unpruned_falsification`` is the falsification layer of
``gadgets.verify_enforcer`` as it was before it attached once per
automorphism orbit: an attachment at every (non)edge of every host.
``structural_layer`` is that function's layer (b) as it was before it
became one pass: each separator deleted and its components remapped, and
a fallback that recomputes the separators and searches P5 once for each.
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


def _connected_inside(g: SmallGraph, keep: list[int]) -> bool:
    """Breadth-first search over ``has_edge`` among the vertices ``keep``."""
    seen = {keep[0]}
    todo = [keep[0]]
    while todo:
        u = todo.pop()
        for w in keep:
            if w not in seen and g.has_edge(u, w):
                seen.add(w)
                todo.append(w)
    return len(seen) == len(keep)


def vertex_connectivity(g: SmallGraph) -> int:
    """n - 1 for a complete graph, else the size of the smallest vertex set
    whose removal leaves a disconnected graph."""
    n = g.n
    if all(g.has_edge(u, v) for u, v in itertools.combinations(range(n), 2)):
        return n - 1
    for size in range(n - 1):  # removing all but two non-adjacent vertices
        for drop in itertools.combinations(range(n), size):
            if not _connected_inside(g, [v for v in range(n) if v not in drop]):
                return size
    raise AssertionError("a non-complete graph has a separating set")


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


def structural_layer(h: SmallGraph, enf: GD.Gadget) -> dict:
    """The ``structural`` entry of ``verify_enforcer(enf)`` when the
    enforcer's host graph is h."""
    want_edge = enf.mode == "delete"
    seps = [
        (u, v)
        for u, v in map(G._bits, G.separators(h, 2))
        if h.has_edge(u, v) == want_edge
    ]
    if not seps:
        return {"condition": "no-matching-2-separator", "ok": True}
    all_have_common = True
    for u, v in seps:
        keep = [w for w in range(h.n) if w not in (u, v)]
        rest = G.induced_subgraph(h, keep)
        common = h.rows[u] & h.rows[v]
        for comp in G.components(rest):
            comp_orig = {keep[i] for i in comp}
            if not any(common >> w & 1 for w in comp_orig):
                all_have_common = False
    ex, ey = enf.allowed[0]
    pair_common = enf.graph.rows[ex] & enf.graph.rows[ey]
    if all_have_common and pair_common == 0:
        return {"condition": "separator-common-neighbors", "ok": True}
    if enf.mode == "delete":
        ok = not G.contains_induced(h, G.cycle_graph(4))
        return {"condition": "no-induced-C4", "ok": ok}
    want = [
        (u, v)
        for u, v in map(G._bits, G.separators(h, 2))
        if not h.has_edge(u, v)
    ]
    p5 = G.path_graph(5)
    for u, v in want:
        for hit in G.find_induced(h, p5):
            sub = G.induced_subgraph(h, hit)
            ends = [i for i in range(5) if sub.degree(i) == 1]
            orig = sorted(hit)
            endpoints = {orig[ends[0]], orig[ends[1]]}
            if endpoints == {u, v}:
                return {"condition": "no-induced-P5-between-separator", "ok": False}
    return {"condition": "no-induced-P5-between-separator", "ok": True}
