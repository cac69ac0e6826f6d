"""Independent references the benchmark checks the program against.

Nothing here calls into ``hfree``: graphs are read through their public
``n`` and ``rows`` attributes (one adjacency bitmask per vertex) and every
answer is computed from scratch, so a fault in the program's canonical
labelling, induced-subgraph search or enumeration cannot hide itself by
also corrupting its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd


# -- counting -------------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield []
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def polya_counts(n: int) -> dict[int, int]:
    """Isomorphism classes of graphs on n vertices, by edge count.

    Burnside over the cycle types of S_n acting on vertex pairs (Harary &
    Palmer, *Graphical Enumeration*): each permutation fixes prod(1 + x^len)
    over its cycles on pairs, averaged over the group.
    """
    total: dict[int, Fraction] = {}
    for cycle_type in _partitions(n):
        mult: dict[int, int] = {}
        for length in cycle_type:
            mult[length] = mult.get(length, 0) + 1
        size = factorial(n)
        for length, a in mult.items():
            size //= length**a * factorial(a)
        pair_cycles: list[int] = []
        lengths = sorted(mult)
        for length in lengths:
            a = mult[length]
            within = (length - 1) // 2 if length % 2 else (length - 2) // 2
            pair_cycles += [length] * (within * a)
            if length % 2 == 0:
                pair_cycles += [length // 2] * a
            pair_cycles += [length] * (length * a * (a - 1) // 2)
        for i, l1 in enumerate(lengths):
            for l2 in lengths[i + 1 :]:
                g = gcd(l1, l2)
                pair_cycles += [l1 * l2 // g] * (g * mult[l1] * mult[l2])
        poly = {0: 1}
        for c in pair_cycles:
            nxt = dict(poly)
            for m, coeff in poly.items():
                nxt[m + c] = nxt.get(m + c, 0) + coeff
            poly = nxt
        for m, coeff in poly.items():
            total[m] = total.get(m, 0) + Fraction(size * coeff, factorial(n))
    out = {}
    for m, value in sorted(total.items()):
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral class count at n={n}, m={m}")
        out[m] = int(value)
    return out


# -- graph basics -----------------------------------------------------------------


class RowGraph:
    """A plain graph value: n vertices, one adjacency bitmask per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = tuple(rows)


def parse_graph6(s: str) -> RowGraph:
    """Graph6 (n <= 62), decoded without the program's parser."""
    vals = [ord(c) - 63 for c in s.strip()]
    n = vals[0]
    bits = [v >> s0 & 1 for v in vals[1:] for s0 in range(5, -1, -1)]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return RowGraph(n, rows)


def degrees(g) -> list[int]:
    return [r.bit_count() for r in g.rows]


def edge_count(g) -> int:
    return sum(degrees(g)) // 2


def is_regular(g) -> bool:
    return len(set(degrees(g))) == 1


def is_trivial(g) -> bool:
    """Complete or edgeless: the easy-kernel graphs."""
    return len(set(degrees(g))) == 1 and degrees(g)[0] in (0, g.n - 1)


def connected(g) -> bool:
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(g.n):
            if frontier >> v & 1:
                nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << g.n) - 1


def is_cycle(g) -> bool:
    return g.n >= 3 and set(degrees(g)) == {2} and connected(g)


def is_path(g) -> bool:
    return connected(g) and edge_count(g) == g.n - 1 and max(degrees(g)) <= 2


def complement(g) -> RowGraph:
    return RowGraph(g.n, complement_rows(g.n, g.rows))


def complement_rows(n: int, rows) -> list[int]:
    full = (1 << n) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def edges_to_rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def permuted_rows(n: int, rows, perm) -> list[int]:
    """Rows of the graph in which old vertex v becomes perm[v]."""
    out = [0] * n
    for v, r in enumerate(rows):
        image = 0
        while r:
            low = r & -r
            image |= 1 << perm[low.bit_length() - 1]
            r ^= low
        out[perm[v]] = image
    return out


# -- graph builders for the symmetric input set -------------------------------------


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def petersen_edges():
    return (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )


def paley_edges(q: int):
    squares = {x * x % q for x in range(1, q)}
    return [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares]


def hypercube_edges(d: int):
    return [(v, v ^ 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1]


def complete_edges(n: int):
    return list(itertools.combinations(range(n), 2))


def biclique_edges(a: int, b: int):
    return [(i, a + j) for i in range(a) for j in range(b)]


def cartesian_edges(n1: int, e1, n2: int, e2):
    """G1 box G2 on vertex pairs (x, y) numbered x * n2 + y."""
    out = [(x * n2 + u, x * n2 + v) for x in range(n1) for u, v in e2]
    out += [(u * n2 + y, v * n2 + y) for y in range(n2) for u, v in e1]
    return out


# -- isomorphism ------------------------------------------------------------------------


def _refine_joint(graphs) -> list[list[int]]:
    """Colour refinement run on several graphs with one shared palette, so
    that equal colours mean the same thing in every graph."""
    cols = [[r.bit_count() for r in g.rows] for g in graphs]
    classes = len({c for cs in cols for c in cs})
    while True:
        sigs = []
        for g, cs in zip(graphs, cols):
            row_sigs = []
            for v, r in enumerate(g.rows):
                nb = []
                while r:
                    low = r & -r
                    nb.append(cs[low.bit_length() - 1])
                    r ^= low
                nb.sort()
                row_sigs.append((cs[v], tuple(nb)))
            sigs.append(row_sigs)
        palette = {s: i for i, s in enumerate(sorted({s for ss in sigs for s in ss}))}
        cols = [[palette[s] for s in ss] for ss in sigs]
        if len(palette) == classes:
            return cols
        classes = len(palette)


def isomorphic(g1, g2) -> bool:
    """Exact isomorphism test: joint colour refinement, then backtracking
    over colour-preserving maps that keep adjacency to mapped vertices."""
    if g1.n != g2.n or sorted(degrees(g1)) != sorted(degrees(g2)):
        return False
    c1, c2 = _refine_joint([g1, g2])
    if sorted(c1) != sorted(c2):
        return False
    n = g1.n
    # map rare colours first: fewer candidates near the root
    freq: dict[int, int] = {}
    for c in c1:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[c1[v]], c1[v], v))
    image = [-1] * n
    r1, r2 = g1.rows, g2.rows

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used >> w & 1 or c2[w] != c1[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if (r1[v] >> u & 1) != (r2[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                if extend(i + 1, used | 1 << w):
                    return True
        image[v] = -1
        return False

    return extend(0, 0)


def invariant(g) -> tuple:
    """An isomorphism invariant: sorted (degree, triangles at v, sorted
    neighbour degrees) over the vertices. Equal for isomorphic graphs."""
    degs = degrees(g)
    out = []
    for v, r in enumerate(g.rows):
        nbrs = [u for u in range(g.n) if r >> u & 1]
        tri = sum((g.rows[u] & r).bit_count() for u in nbrs) // 2
        out.append((degs[v], tri, tuple(sorted(degs[u] for u in nbrs))))
    return (g.n, tuple(sorted(out)))


def isomorphic_pairs(graphs) -> list[tuple[int, int]]:
    """Index pairs of isomorphic graphs in the list (an empty list means
    the graphs are pairwise non-isomorphic)."""
    buckets: dict[tuple, list[int]] = {}
    for i, g in enumerate(graphs):
        buckets.setdefault(invariant(g), []).append(i)
    out = []
    for members in buckets.values():
        for a, b in itertools.combinations(members, 2):
            if isomorphic(graphs[a], graphs[b]):
                out.append((a, b))
    return out


# -- induced subgraphs and witnesses ------------------------------------------------------


def has_induced(n: int, rows, h) -> bool:
    """True if the graph (n, rows) has an induced subgraph isomorphic to h.

    Maps h's vertices in an order where each one after the first touches an
    earlier one when h allows it; candidate sets are bitmask intersections
    of the images' rows (for h-edges) and non-rows (for h-non-edges).
    """
    hn = h.n
    if hn > n:
        return False
    full = (1 << n) - 1
    hrows = h.rows
    order = [max(range(hn), key=lambda v: (hrows[v].bit_count(), -v))]
    while len(order) < hn:
        placed = 0
        for v in order:
            placed |= 1 << v
        rest = [v for v in range(hn) if not placed >> v & 1]
        order.append(
            max(rest, key=lambda v: ((hrows[v] & placed).bit_count(), hrows[v].bit_count(), -v))
        )
    pos = {v: i for i, v in enumerate(order)}
    earlier_adj = [[pos[u] for u in order[:i] if hrows[v] >> u & 1] for i, v in enumerate(order)]
    earlier_non = [[pos[u] for u in order[:i] if not hrows[v] >> u & 1] for i, v in enumerate(order)]
    need = [hrows[v].bit_count() for v in order]
    deg_ok = [0] * hn
    for i in range(hn):
        m = 0
        for w in range(n):
            if rows[w].bit_count() >= need[i]:
                m |= 1 << w
        deg_ok[i] = m
    image = [0] * hn

    def extend(i: int, used: int) -> bool:
        if i == hn:
            return True
        cand = deg_ok[i] & ~used
        for j in earlier_adj[i]:
            cand &= rows[image[j]]
        for j in earlier_non[i]:
            cand &= full & ~rows[image[j]]
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            image[i] = w
            if extend(i + 1, used | low):
                return True
            cand ^= low
        return False

    return extend(0, 0)


def witness_problems(g, h, k: int, mode: str, witness) -> list[str]:
    """Why a claimed solution of the H-free modification instance
    (g, k, mode) is not one; an empty list if it is valid."""
    problems = []
    pairs = list(witness)
    if len(pairs) > k:
        problems.append(f"witness has {len(pairs)} pairs, budget {k}")
    rows = list(g.rows)
    for pair in pairs:
        u, v = pair
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            problems.append(f"pair {pair} is not a vertex pair")
            continue
        edge = bool(rows[u] >> v & 1)
        if mode == "delete" and not edge:
            problems.append(f"delete mode touches non-edge {pair}")
        if mode == "complete" and edge:
            problems.append(f"complete mode touches edge {pair}")
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    if len(set(map(tuple, map(sorted, pairs)))) != len(pairs):
        problems.append("witness repeats a pair")
    if has_induced(g.n, rows, h):
        problems.append("modified graph still has an induced H")
    return problems
