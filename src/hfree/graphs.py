"""Compact undirected graphs with exact structural predicates.

Vertices are 0..n-1 and adjacency is kept as one int bitmask per vertex,
which makes neighborhood operations, isomorphism certificates and the
exhaustive searches in the rest of the package cheap. Everything here is
immutable and safe to share between worker processes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

# Soft bound enforced by the reduction constructions (they refuse to emit
# bigger instances instead of silently truncating). Plain graph values may
# exceed it: gadget assemblies legitimately do.
VERTEX_CAP = 64


class SmallGraph:
    """Immutable undirected graph on vertices 0..n-1, bitmask adjacency."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(rows) != n:
            raise ValueError("row count must equal n")
        full = (1 << n) - 1
        for v, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if r >> v & 1:
                raise ValueError(f"self-loop at {v}")
        for v in range(n):
            for u in _bits(rows[v]):
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")
        self._fill(n, tuple(rows))

    @classmethod
    def _trusted(cls, n: int, rows: Sequence[int]) -> SmallGraph:
        """The graph with ``rows``, unchecked: for the package's own
        operations, whose rows are loop-free, symmetric and inside 0..n-1
        by construction. Input from outside goes through ``__init__``."""
        g = object.__new__(cls)
        g._fill(n, tuple(rows))
        return g

    def _fill(self, n: int, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((n, rows)))

    def __setattr__(self, *a):
        raise AttributeError("SmallGraph is immutable")

    def __reduce__(self):
        # unpickling runs the validating constructor, so a stream cannot
        # smuggle in an asymmetric or out-of-range adjacency
        return (SmallGraph, (self.n, self.rows))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, SmallGraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SmallGraph({self.n}, edges={sorted(self.edges())})"

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _mask(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


# -- constructors ----------------------------------------------------------


def _check_pair(n: int, u: int, v: int) -> None:
    if u == v or not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"({u}, {v}) is not two distinct vertices of 0..{n - 1}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SmallGraph:
    rows = [0] * n
    for u, v in edges:
        _check_pair(n, u, v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SmallGraph(n, rows)


def empty_graph(n: int) -> SmallGraph:
    return SmallGraph(n, [0] * n)


def complete_graph(n: int) -> SmallGraph:
    full = (1 << n) - 1
    return SmallGraph(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> SmallGraph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SmallGraph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> SmallGraph:
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(t: int) -> SmallGraph:
    """K_{1,t}: vertex 0 is the center."""
    return from_edges(t + 1, [(0, i) for i in range(1, t + 1)])


# -- elementary operations -------------------------------------------------

# These build with ``SmallGraph._trusted``: rows derived from valid graphs
# are valid. Vertex numbers taken from the caller (pairs, a vertex set, a
# permutation) are checked first, at a cost proportional to them.


def complement(g: SmallGraph) -> SmallGraph:
    full = (1 << g.n) - 1
    return SmallGraph._trusted(
        g.n, [full ^ r ^ (1 << v) for v, r in enumerate(g.rows)])


def delete_edge(g: SmallGraph, u: int, v: int) -> SmallGraph:
    _check_pair(g.n, u, v)
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return SmallGraph._trusted(g.n, rows)


def apply_flips(g: SmallGraph, pairs: Iterable[tuple[int, int]]) -> SmallGraph:
    rows = list(g.rows)
    for u, v in pairs:
        _check_pair(g.n, u, v)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return SmallGraph._trusted(g.n, rows)


def induced_subgraph(g: SmallGraph, vs: Iterable[int]) -> SmallGraph:
    """Subgraph induced by ``vs``; vertices are relabeled in sorted order."""
    keep = sorted(set(vs))
    if not keep:
        raise ValueError("induced subgraph needs at least one vertex")
    if keep[-1] >= g.n or keep[0] < 0:
        raise ValueError("vertex set not within V(g)")
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for i, v in enumerate(keep):
        r = g.rows[v]
        for u in keep:
            if r >> u & 1:
                rows[i] |= 1 << pos[u]
    return SmallGraph._trusted(len(keep), rows)


def disjoint_union(g1: SmallGraph, g2: SmallGraph) -> SmallGraph:
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return SmallGraph._trusted(g1.n + g2.n, rows)


def join(g1: SmallGraph, g2: SmallGraph) -> SmallGraph:
    n1, n2 = g1.n, g2.n
    left = (1 << n1) - 1
    right = ((1 << n2) - 1) << n1
    rows = [r | right for r in g1.rows]
    rows += [(r << n1) | left for r in g2.rows]
    return SmallGraph._trusted(n1 + n2, rows)


def relabel(g: SmallGraph, perm: Sequence[int]) -> SmallGraph:
    """Relabel so that old vertex perm[i] becomes new vertex i."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"{list(perm)} is not a permutation of 0..{g.n - 1}")
    inv = [0] * g.n
    for i, v in enumerate(perm):
        inv[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        for u in _bits(g.rows[v]):
            rows[i] |= 1 << inv[u]
    return SmallGraph._trusted(g.n, rows)


# -- assembly ----------------------------------------------------------------


class CapExceeded(RuntimeError):
    """Construction output would exceed the working vertex cap."""


class Builder:
    """Adjacency rows of a graph grown from ``g`` (or from no vertices) by
    fresh vertices and glued copies of other graphs.

    Refuses with CapExceeded a planned ``total`` or a finished graph above
    ``cap``; ``cap=None`` grows without bound.
    """

    def __init__(
        self, g: SmallGraph | None = None, cap: int | None = VERTEX_CAP,
        total: int = 0,
    ):
        self.rows = list(g.rows) if g is not None else []
        self.cap = cap
        self._check(total)

    def _check(self, n: int) -> None:
        if self.cap is not None and n > self.cap:
            raise CapExceeded(f"{n} vertices exceed cap {self.cap}")

    def fresh(self, count: int) -> list[int]:
        n = len(self.rows)
        self.rows.extend([0] * count)
        return list(range(n, n + count))

    def connect(self, a: int, b: int) -> None:
        # _check_pair's test written out: this is the hot call of the
        # constructions
        n = len(self.rows)
        if a == b or not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"({a}, {b}) is not two distinct vertices of 0..{n - 1}")
        self.rows[a] |= 1 << b
        self.rows[b] |= 1 << a

    def glue(self, h: SmallGraph, image: dict[int, int]) -> dict[int, int]:
        """Add a copy of h and return where its vertices went: those in
        ``image`` are the given ones, the others fresh in order. Pairs
        between two given vertices are left as they are."""
        local = dict(image)
        for v in range(h.n):
            if v not in local:
                (local[v],) = self.fresh(1)
        for u, v in h.edges():
            if u not in image or v not in image:
                self.connect(local[u], local[v])
        return local

    def graph(self) -> SmallGraph:
        self._check(len(self.rows))
        return SmallGraph(len(self.rows), self.rows)


# -- predicates ------------------------------------------------------------


def is_empty(g: SmallGraph) -> bool:
    return all(r == 0 for r in g.rows)


def is_complete(g: SmallGraph) -> bool:
    return all(r.bit_count() == g.n - 1 for r in g.rows)


def is_regular(g: SmallGraph) -> bool:
    d = g.rows[0].bit_count()
    return all(r.bit_count() == d for r in g.rows)


def is_connected(g: SmallGraph) -> bool:
    return _reach(g.rows, 1, (1 << g.n) - 1) == (1 << g.n) - 1


def _reach(rows: Sequence[int], seed: int, alive: int) -> int:
    """Bitmask of vertices reachable from ``seed`` inside ``alive``."""
    seen = frontier = seed & alive
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= rows[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def _component_masks(rows: Sequence[int], alive: int) -> Iterator[int]:
    """Bitmasks of the components of the subgraph induced by ``alive``,
    by ascending lowest vertex."""
    while alive:
        comp = _reach(rows, alive & -alive, alive)
        yield comp
        alive ^= comp


def components(g: SmallGraph) -> list[list[int]]:
    return [list(_bits(c)) for c in _component_masks(g.rows, (1 << g.n) - 1)]


def separators(g: SmallGraph, size: int) -> Iterator[int]:
    """Bitmasks of the ``size``-vertex sets whose removal leaves g
    disconnected, in lexicographic order of their vertices."""
    full = (1 << g.n) - 1
    for sub in itertools.combinations([1 << v for v in range(g.n)], size):
        alive = full ^ sum(sub)
        if alive and _reach(g.rows, alive & -alive, alive) != alive:
            yield full ^ alive


def is_path(g: SmallGraph) -> bool:
    """Path P_n (n >= 1): connected, two endpoints, inner degree two."""
    if g.n == 1:
        return True
    degs = sorted(g.degrees())
    if g.n == 2:
        return degs == [1, 1]
    return (
        degs[:2] == [1, 1]
        and degs[2:] == [2] * (g.n - 2)
        and is_connected(g)
    )


def is_cycle(g: SmallGraph) -> bool:
    return g.n >= 3 and all(r.bit_count() == 2 for r in g.rows) and is_connected(g)


# -- isomorphism and canonical forms ---------------------------------------


def _refine(rows: Sequence[int], cells: list[int], active: list[int]) -> list[int]:
    """Split the ordered cells (vertex bitmasks) until the partition is
    equitable or discrete.

    A round splits each non-singleton cell in place: its vertices are keyed
    by their neighbour counts in the cells of ``active``, in cell order,
    and the parts follow in descending key order. All vertices of a cell
    have the same degree, so this is the order of their sorted neighbour
    colours in plain colour refinement. The sort is a run of splits by the
    active cells' counts as bit planes (``rows[u]`` for a cell {u}), high
    bit first, each putting the part with its bit set first.

    ``active`` holds the cells whose counts may still differ inside a cell:
    all degree cells but the last, {v} after individualizing v, then the
    parts made in the last round but the last part of each split cell.
    Counts into each cell the last round began with (at the root, into V:
    the degree) are equal across each cell, so a split cell's last part
    gets its count from those before it in the key; leaving it out changes
    no part and no order, unlike leaving out the largest part.
    """
    n = len(rows)
    while active and len(cells) < n:
        splits: list[int] = []
        for a in active:
            if a & (a - 1):
                planes: list[int] = []
                while a:
                    b = a & -a
                    a ^= b
                    carry = rows[b.bit_length() - 1]
                    for k, p in enumerate(planes):
                        planes[k] = p ^ carry
                        carry &= p
                    if carry:
                        planes.append(carry)
                splits += reversed(planes)
            else:
                splits.append(rows[a.bit_length() - 1])
        out: list[int] = []
        made: list[int] = []
        for cell in cells:
            if cell & (cell - 1):
                parts = [cell]
                for s in splits:
                    if 0 != cell & s != cell:
                        cut = []
                        for p in parts:
                            q = p & s
                            if 0 != q != p:
                                cut += (q, p ^ q)
                            else:
                                cut.append(p)
                        parts = cut
                if len(parts) > 1:
                    out += parts
                    made += parts[:-1]
                    continue
            out.append(cell)
        cells = out
        active = made
    return cells


def _pack(n: int, rows: Sequence[int], perm: Sequence[int]) -> bytes:
    """Upper-triangle adjacency bits of the relabeled graph, as bytes."""
    acc = 0
    for j, v in enumerate(perm):
        rv = rows[v]
        for u in perm[:j]:
            acc = acc << 1 | (rv >> u & 1)
    k = n * (n - 1) // 2
    nbytes = (k + 7) // 8
    return bytes([n]) + (acc << (nbytes * 8 - k)).to_bytes(nbytes, "big")


def _closure(mask: int, gens: list[list[int]]) -> int:
    """The union of the orbits of the points in ``mask`` under ``gens``,
    permutations of the points: vertices or vertex sets (as bitmasks)."""
    frontier = mask
    while frontier:
        new = 0
        for v in _bits(frontier):
            for g in gens:
                new |= 1 << g[v]
        frontier = new & ~mask
        mask |= frontier
    return mask


def _leaf_search(rows: Sequence[int]) -> tuple[bytes, list[int], list[list[int]]]:
    """Smallest packed leaf of the individualization-refinement tree, that
    leaf's vertex order, and generators of the automorphism group.

    The search starts from the degree cells. Individualizing v puts {v}
    first and takes v out of its cell, and the first non-singleton cell is
    the one branched on. Cells, their order and so the leaves are those of
    the sorted-colour refinement this search used before (see ``_refine``).

    The certificate is the least leaf of the full tree; the search skips
    only subtrees whose leaves pack exactly like explored ones, so the
    bytes do not depend on what is skipped (McKay & Piperno, "Practical
    graph isomorphism, II", 2014):
    - in a twin cell (pairwise interchangeable vertices) only the lowest
      vertex is tried, and the walk down the cell refines nothing;
    - at a node, a vertex in the orbit of an explored sibling under the
      found automorphisms that fix the node's individualized vertices is
      skipped, since an automorphism maps one subtree onto the other;
    - a leaf that packs like the first leaf at the same depth gives an
      automorphism that maps the explored subtree on the first path onto
      the current one, so the search returns to where the two paths part.
    The found automorphisms generate the whole group: each first-path
    node gets one for every explored sibling in the orbit of the
    first-path child, and each twin cell walked on the first path adds
    the swap of its two lowest vertices and the cycle through the cell
    (the swap alone for two twins), which generate all its permutations.

    Every order that packs to the least bytes maps the graph onto one
    canonical graph, so the orders returned for isomorphic graphs differ
    by an isomorphism and an automorphism. The orbit of the first vertex,
    in this order, of an isomorphism-invariant vertex set is therefore the
    same for isomorphic graphs: canonical augmentation keeps x in it.
    """
    n = len(rows)
    by_deg: dict[int, int] = {}
    for v, r in enumerate(rows):
        d = r.bit_count()
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    cells = [by_deg[d] for d in sorted(by_deg)]
    gens: list[list[int]] = []
    path: list[int] = []  # the individualized vertices of the current node
    first: tuple[bytes, list[int], list[int]] | None = None  # cert, order, path
    best: tuple[bytes, list[int]] = (b"", [])  # the least leaf, its order

    def visit(cells: list[int], active: list[int]) -> int:
        """Explore one node. Returns the depth to resume at: the node's own
        depth, or a smaller one after a leaf that packs like the first."""
        nonlocal best, first
        cells = _refine(rows, cells, active)
        depth = len(path)
        if len(cells) == n:
            perm = [c.bit_length() - 1 for c in cells]
            cert = _pack(n, rows, perm)
            if first is None:
                first = (cert, perm, path[:])
                best = (cert, perm)
                return depth
            if cert < best[0]:
                best = (cert, perm)
            fcert, fperm, fpath = first
            if cert != fcert or depth != len(fpath):
                return depth
            gens.append([w for _, w in sorted(zip(fperm, perm))])
            k = 0
            while path[k] == fpath[k]:
                k += 1
            return k
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        # a twin cell: its vertices share one row, or (adjacent twins) one
        # row once each vertex's own bit is added
        low = target & -target
        r = rows[low.bit_length() - 1]
        c = target if r & target else 0
        m = target ^ low
        while m:
            b = m & -m
            m ^= b
            if rows[b.bit_length() - 1] | b & c != r | low & c:
                break
        else:
            # only the lowest is tried; every other vertex sees all of the
            # cell or none, so nothing splits and the rest is the next target
            vs = list(_bits(target))
            k = len(vs) - 1
            if first is None:  # a swap and a cycle generate the cell's symmetric group
                for cyc in (vs[:2], vs) if k > 1 else (vs,):
                    g = list(range(n))
                    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                        g[a] = b
                    gens.append(g)
            path.extend(vs[:-1])
            nxt = [1 << v for v in vs[-2::-1]] + cells
            nxt[i + k] = 1 << vs[-1]
            back = visit(nxt, [])
            del path[depth:]
            return min(back, depth)
        todo = target
        explored = 0
        while todo:
            b = todo & -todo
            todo ^= b
            if explored:
                fix = [g for g in gens if all(g[u] == u for u in path)]
                if fix and _closure(explored, fix) & b:
                    continue
            path.append(b.bit_length() - 1)
            nxt = [b] + cells
            nxt[i + 1] = target ^ b
            back = visit(nxt, [b])
            path.pop()
            if back < depth:
                return back
            explored |= b
        return depth

    visit(cells, cells[:-1])
    return *best, gens


def canonical_cert(g: SmallGraph) -> bytes:
    """Permutation-invariant certificate: equal certs iff isomorphic."""
    return _leaf_search(g.rows)[0]


def canonical_labeling(rows: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The canonical vertex order of the graph with adjacency ``rows``
    (packing the rows in this order gives ``canonical_cert``), and
    permutations (g[v] is the image of v) that generate its automorphism
    group; empty when the group is trivial. It takes bare rows so that
    the candidates of canonical augmentation need no ``SmallGraph``."""
    return _leaf_search(rows)[1:]


def are_isomorphic(g1: SmallGraph, g2: SmallGraph) -> bool:
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    return canonical_cert(g1) == canonical_cert(g2)


# -- induced subgraph search ------------------------------------------------


def _plan(h: SmallGraph, order: Sequence[int]) -> tuple[tuple, tuple]:
    """``_embed``'s ``adj`` and ``non`` for h's vertices taken in ``order``."""
    adj, non = [], []
    for i, x in enumerate(order):
        row = h.rows[x]
        adj.append(tuple(j for j in range(i) if row >> order[j] & 1))
        non.append(tuple(j for j in range(i) if not row >> order[j] & 1))
    return tuple(adj), tuple(non)


@functools.lru_cache(maxsize=256)
def _search_plan(h: SmallGraph) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """The part of ``_induced_search`` that depends on h alone. h's vertices
    are mapped by descending degree, ties by vertex number; for the i-th
    one, its degree, the earlier positions it is adjacent and non-adjacent
    to, and the earlier position (at most one) whose image its own image
    must exceed, so that only the least embedding onto each vertex set is
    tried (``_symmetry_breaks``)."""
    horder = sorted(range(h.n), key=lambda v: -h.degree(v))
    adj, non = _plan(h, horder)
    return (tuple(h.degree(v) for v in horder), adj, non,
            _symmetry_breaks(h, horder, adj, non))


def _symmetry_breaks(
    h: SmallGraph, order: Sequence[int], adj: Sequence[Sequence[int]],
    non: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """``_embed``'s ``below`` for h's vertices taken in ``order``.

    Position j > i is bound by i when order[j] is in the orbit of order[i]
    under the automorphisms of h that fix order[0..i-1]: an embedding ψ is
    the least (position by position) of the embeddings ψ∘σ, σ ∈ Aut(h),
    exactly when ψ(order[j]) > ψ(order[i]) for all such pairs (for σ ≠ id
    moving order[i] first, ψ∘σ first differs from ψ at i). Of the positions
    binding j only the largest is kept: if i1 < i2 both bind j, then i1
    binds i2 (order[i2] is an image of order[j], hence of order[i1], under
    the automorphisms fixing order[0..i1-1]), so the one bound implies the
    other.

    The orbit of order[i] under all the generators of Aut(h) that
    ``canonical_labeling`` returns holds its orbit under this stabilizer,
    and its closure under the generators that fix the earlier positions
    lies in the stabilizer's orbit. Each vertex between the two is decided
    by one embedding of h into itself (an automorphism) that fixes the
    earlier positions and maps order[i] to it; the answer holds for its
    closure under those generators too. A rigid h costs one labeling and
    no embedding.
    """
    below: list[tuple[int, ...]] = [()] * len(order)
    gens = canonical_labeling(h.rows)[1]
    if not gens:
        return tuple(below)
    pos = {v: p for p, v in enumerate(order)}
    orbit_of = [0] * h.n  # under the whole group
    for v in range(h.n):
        if not orbit_of[v]:
            c = _closure(1 << v, gens)
            for u in _bits(c):
                orbit_of[u] = c
    full = (1 << h.n) - 1
    fix = gens  # those fixing the earlier positions
    prefix = 0
    for i, v in enumerate(order):
        todo = orbit_of[v] & ~prefix
        if todo != 1 << v:
            orbit = _closure(1 << v, fix)
            todo &= ~orbit
            while todo:
                w = todo.bit_length() - 1
                starts = [1 << u for u in order[:i]] + [1 << w] + [full] * (h.n - i - 1)
                part = _closure(1 << w, fix)
                if _embed(h.rows, h.rows, starts, adj, non, True):
                    orbit |= part
                todo &= ~part
            for w in _bits(orbit ^ 1 << v):
                below[pos[w]] = (i,)
        prefix |= 1 << v
        fix = [g for g in fix if g[v] == v]
    return tuple(below)


def _embed(
    yes: Sequence[int], hard: Sequence[int], starts: Sequence[int],
    adj: Sequence[Sequence[int]], non: Sequence[Sequence[int]], first_only: bool,
    below: Sequence[Sequence[int]] | None = None,
) -> list[frozenset[int]]:
    """The vertex sets of the induced embeddings of a pattern, each once,
    in the order first found; at most one with ``first_only``.

    The pattern's i-th vertex goes into ``starts[i]``, adjacent to the
    vertices at the earlier positions ``adj[i]`` and not to those at
    ``non[i]``. Its candidates form one bitmask (Ullmann's bit-vector
    refinement): ``starts[i]`` minus the vertices used, ANDed with the row
    ``yes`` of each vertex it must be adjacent to and with the complement
    of the row ``hard`` of each it must not be (``yes`` is ``hard`` for a
    plain match), and with the vertices above the image of each earlier
    position in ``below[i]``. Candidates are tried in ascending order, so
    embeddings come in lexicographic order of their images by position.

    ``below`` breaks the pattern's symmetry (``_symmetry_breaks``): it
    keeps, of each set of embeddings that differ by an automorphism, only
    the least. That is sound when ``starts``, ``yes`` and ``hard`` treat
    automorphic embeddings alike, as they do when ``starts[i]`` depends on
    the degree of the i-th vertex alone. Every vertex set is still found,
    first by the same embedding: the least embedding onto a set is the
    least of its own class.
    """
    k = len(starts)
    found: dict[int, frozenset[int]] = {}  # by vertex bitmask
    assign = [0] * k
    if below is None:
        below = ((),) * k

    def rec(i: int, used: int) -> bool:
        if i == k:
            if used not in found:
                found[used] = frozenset(assign)
            return first_only
        cand = starts[i] & ~used
        for j in adj[i]:
            cand &= yes[assign[j]]
        for j in non[i]:
            cand &= ~hard[assign[j]]
        for j in below[i]:
            cand &= -(2 << assign[j])
        while cand:
            bit = cand & -cand
            cand ^= bit
            assign[i] = bit.bit_length() - 1
            if rec(i + 1, used | bit):
                return True
        return False

    rec(0, 0)
    return list(found.values())


def _induced_search(
    g: SmallGraph, h: SmallGraph, first_only: bool, free: Sequence[int] | None = None
) -> list[frozenset[int]]:
    """The vertex sets of g inducing h, each once, in the order first found.

    h's vertices are mapped one at a time, by descending degree, each into
    the vertices of g with a high enough degree (``_embed``). Only the
    least embedding of each class under Aut(h) is tried (``_search_plan``).
    The search meets embeddings in lexicographic order, so the first one it
    meets on a vertex set S is the least onto S; it is the least of its own
    class too, since all of them map onto S, and it is kept. So the sets,
    and the order they are first found in, are those of the unpruned
    search.

    ``free`` (per-vertex rows of a symmetric pair set) relaxes the match:
    a free pair may be an edge or a nonedge whatever h has there, and
    degrees count free pairs as edges. ``free`` marks pairs of g, not of
    h, so an automorphism of h still maps relaxed embeddings to relaxed
    embeddings and the same pruning holds; a set may then carry more than
    one class of embeddings, and is still kept once.
    """
    if h.n > g.n:
        return []
    if free is None:
        yes = hard = g.rows
    else:
        yes = [r | f for r, f in zip(g.rows, free)]  # may be an edge
        hard = [r & ~f for r, f in zip(g.rows, free)]  # must be an edge
    # atleast[d]: the vertices of g with degree >= d
    gdeg = [r.bit_count() for r in yes]
    atleast = [0] * (max(gdeg) + 2)
    for w, d in enumerate(gdeg):
        atleast[d] |= 1 << w
    for d in range(len(atleast) - 2, -1, -1):
        atleast[d] |= atleast[d + 1]
    hdeg, hadj, hnon, below = _search_plan(h)
    top = len(atleast) - 1
    starts = [atleast[min(d, top)] for d in hdeg]
    return _embed(yes, hard, starts, hadj, hnon, first_only, below)


def find_induced(
    g: SmallGraph, h: SmallGraph, free: Sequence[int] | None = None
) -> list[frozenset[int]]:
    """All vertex sets of g that induce a graph isomorphic to h.

    With ``free`` (one bitmask row per vertex of g, symmetric), the sets
    where some choice of edge or nonedge on the free pairs inside them
    induces h.
    """
    return _induced_search(g, h, first_only=False, free=free)


def contains_induced(g: SmallGraph, h: SmallGraph) -> bool:
    return bool(_induced_search(g, h, first_only=True))


def first_induced(g: SmallGraph, h: SmallGraph) -> frozenset[int] | None:
    hits = _induced_search(g, h, first_only=True)
    return hits[0] if hits else None


def is_free_of(g: SmallGraph, h: SmallGraph) -> bool:
    """No induced copy of h in g."""
    return not contains_induced(g, h)


# -- degree classes ----------------------------------------------------------


def degree_classes(g: SmallGraph) -> tuple[int, int]:
    """Bitmasks of the lowest- and highest-degree vertices of a non-regular
    graph; the middle class is the rest."""
    degs = [r.bit_count() for r in g.rows]
    lo, hi = min(degs), max(degs)
    if lo == hi:
        raise ValueError("degree partition undefined for regular graphs")
    low = high = 0
    for v, d in enumerate(degs):
        if d == lo:
            low |= 1 << v
        elif d == hi:
            high |= 1 << v
    return low, high


def peel_degrees(g: SmallGraph) -> Iterator[list[int]]:
    """Degree sequences of the low, then the high peel of g (g without its
    lowest- or highest-degree vertices), in vertex order, each computed
    only when the caller asks for it; none for a regular graph. Each kept
    row is masked by the kept vertices, with no peel graph built."""
    try:
        classes = degree_classes(g)
    except ValueError:  # regular: no peels
        return
    full = (1 << g.n) - 1
    for c in classes:
        keep = full & ~c
        yield [(r & keep).bit_count() for v, r in enumerate(g.rows) if keep >> v & 1]


# -- graph6 ------------------------------------------------------------------


def to_graph6(g: SmallGraph) -> str:
    """Header-less graph6 encoding (standard >=6-bit ASCII format)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    else:
        raise ValueError("graph too large for graph6")
    bits = []
    for j in range(1, n):
        rj = g.rows[j]
        for i in range(j):
            bits.append(rj >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = x << 1 | b
        chars.append(chr(x + 63))
    return head + "".join(chars)


def from_graph6(s: str) -> SmallGraph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    vals = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValueError("invalid graph6 character")
    if vals[0] == 63:
        if len(vals) < 4:
            raise ValueError("truncated graph6 header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n < 1:
        raise ValueError("graph6 with no vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for v in body:
        bits.extend((v >> s0 & 1) for s0 in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return SmallGraph(n, rows)
