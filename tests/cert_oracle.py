"""The certificate engine of hfree before the cell-mask rewrite, kept as a
test oracle: colour refinement by sorted neighbour colours, every leaf of
the search tree visited except the siblings inside a twin cell.

The functions below are copied unchanged, except that ``_leaf_search``
lost its root option, which nothing uses any more; ``graphs.canonical_cert``
must return exactly the bytes ``_leaf_search`` returns here.
"""

from __future__ import annotations

from typing import Sequence


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _refine(
    n: int, adj: Sequence[Sequence[int]], colors: list[int]
) -> list[int]:
    """1-dimensional color refinement to a stable partition."""
    ncls = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            nb = sorted(colors[u] for u in adj[v])
            sigs.append((colors[v], tuple(nb)))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [order[s] for s in sigs]
        k = len(order)
        if k == ncls or k == n:
            return colors
        ncls = k


def _cells(n: int, colors: list[int]) -> list[list[int]]:
    by = {}
    for v in range(n):
        by.setdefault(colors[v], []).append(v)
    return [by[c] for c in sorted(by)]


def _is_twin_cell(rows: Sequence[int], cell: list[int]) -> bool:
    """True if all cell vertices are pairwise interchangeable twins."""
    m = _mask(cell)
    inner0 = rows[cell[0]] & m
    out0 = rows[cell[0]] & ~m
    empty_in = inner0 == 0
    for v in cell:
        if rows[v] & ~m != out0:
            return False
        inner = rows[v] & m
        if empty_in:
            if inner:
                return False
        elif inner != m ^ (1 << v):
            return False
    return True


def _pack(n: int, rows: Sequence[int], perm: Sequence[int]) -> bytes:
    """Upper-triangle adjacency bits of the relabeled graph, as bytes."""
    acc = 0
    k = 0
    for j in range(1, n):
        rj = rows[perm[j]]
        for i in range(j):
            acc = acc << 1 | (rj >> perm[i] & 1)
            k += 1
    nbytes = (k + 7) // 8
    return bytes([n]) + (acc << (nbytes * 8 - k)).to_bytes(nbytes, "big")


def _leaf_search(rows: Sequence[int]) -> bytes:
    """Smallest packed leaf of the individualization-refinement tree.

    The search starts from the degree colouring. Every leaf is explored
    except the interchangeable siblings inside a twin cell, so the result
    depends only on the isomorphism class of the graph.
    """
    n = len(rows)
    adj = [tuple(_bits(r)) for r in rows]
    degs = [len(a) for a in adj]
    order = {d: i + 1 for i, d in enumerate(sorted(set(degs)))}
    start = [order[d] for d in degs]
    best: bytes | None = None
    stack = [_refine(n, adj, start)]
    while stack:
        cols = stack.pop()
        cells = _cells(n, cols)
        target = None
        for cell in cells:
            if len(cell) > 1:
                target = cell
                break
        if target is None:
            perm = [c[0] for c in cells]
            cert = _pack(n, rows, perm)
            if best is None or cert < best:
                best = cert
            continue
        branch = [target[0]] if _is_twin_cell(rows, target) else target
        for v in branch:
            nxt = [2 * c + 1 for c in cols]
            nxt[v] = 0
            stack.append(_refine(n, adj, nxt))
    assert best is not None
    return best


def canonical_cert(rows: Sequence[int]) -> bytes:
    return _leaf_search(rows)
