"""Graphs are validated where they enter the package, and only there.

``SmallGraph(...)``, ``from_edges``, ``from_graph6``, ``Builder.graph`` and
unpickling check rows in full. ``apply_flips``, ``delete_edge``,
``relabel`` and ``Builder.connect`` check the vertex numbers the caller
gives them. Every other operation builds with the unchecked
``SmallGraph._trusted``, so its result must equal what the validating
constructor makes of the same rows.
"""

import itertools
import os
import pickle
import subprocess
import sys

from hfree import enumeration as E
from hfree import graphs as G


class _Forged:
    """Pickles as a SmallGraph with an edge in one row only."""

    def __reduce__(self):
        return (G.SmallGraph, (2, (0b10, 0)))


def _built(rows):
    b = G.Builder()
    b.rows = list(rows)
    return b.graph()


def _connect(a, b):
    """Connects a and b in a 2-vertex builder; ``Builder.graph`` is not
    called, so only ``connect`` can refuse."""
    builder = G.Builder()
    builder.fresh(2)
    builder.connect(a, b)


P3 = G.path_graph(3)

# (entry, malformed call): every call must raise ValueError
REFUSALS = [
    ("SmallGraph asymmetric", lambda: G.SmallGraph(2, [0b10, 0])),
    ("SmallGraph self-loop", lambda: G.SmallGraph(2, [0b11, 0b01])),
    ("SmallGraph out of range", lambda: G.SmallGraph(2, [0b100, 0])),
    ("SmallGraph row count", lambda: G.SmallGraph(3, [0, 0])),
    ("SmallGraph no vertex", lambda: G.SmallGraph(0, [])),
    ("from_edges self-loop", lambda: G.from_edges(3, [(1, 1)])),
    ("from_edges out of range", lambda: G.from_edges(3, [(0, 3)])),
    ("from_edges negative", lambda: G.from_edges(3, [(-1, 0)])),
    ("from_graph6 short body", lambda: G.from_graph6("B")),
    ("from_graph6 long body", lambda: G.from_graph6("Bw?")),
    ("from_graph6 bad character", lambda: G.from_graph6("B\x10")),
    ("from_graph6 empty", lambda: G.from_graph6("")),
    ("Builder.graph asymmetric", lambda: _built([0b10, 0])),
    ("Builder.graph self-loop", lambda: _built([0b00, 0b10])),
    ("Builder.graph out of range", lambda: _built([0b100, 0b000])),
    ("Builder.connect out of range", lambda: _connect(0, 5)),
    ("Builder.connect negative", lambda: _connect(-1, 0)),
    ("Builder.connect loop", lambda: _connect(1, 1)),
    ("pickle asymmetric", lambda: pickle.loads(pickle.dumps(_Forged()))),
    ("apply_flips loop", lambda: G.apply_flips(P3, [(1, 1)])),
    ("apply_flips out of range", lambda: G.apply_flips(P3, [(0, 5)])),
    ("apply_flips negative", lambda: G.apply_flips(P3, [(0, 1), (-1, 2)])),
    ("delete_edge loop", lambda: G.delete_edge(P3, 2, 2)),
    ("delete_edge out of range", lambda: G.delete_edge(P3, 3, 0)),
    ("relabel short perm", lambda: G.relabel(P3, [2, 1])),
    ("relabel long perm", lambda: G.relabel(P3, [0, 1, 2, 3])),
    ("relabel repeated vertex", lambda: G.relabel(P3, [0, 0, 1])),
    ("relabel out of range", lambda: G.relabel(P3, [0, 1, 3])),
]


def not_refused() -> list[str]:
    """The refusals that did not raise ValueError, with what happened."""
    bad = []
    for name, call in REFUSALS:
        try:
            call()
        except ValueError:
            continue
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            bad.append(f"{name}: {type(exc).__name__}")
        else:
            bad.append(f"{name}: returned")
    return bad


def test_outside_entries_refuse_malformed_input():
    assert not_refused() == []


def test_refusals_are_raises_not_asserts():
    """The same refusals under ``python -O``, which strips ``assert``."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        "import sys, test_boundary\n"
        "print(sys.flags.optimize, test_boundary.not_refused())\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, here])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout.split(None, 1) == ["1", "[]\n"], out.stderr


def _same_as_checked(h: G.SmallGraph) -> None:
    checked = G.SmallGraph(h.n, h.rows)  # raises on malformed rows
    assert h == checked and hash(h) == hash(checked), G.to_graph6(h)
    assert type(h.rows) is tuple and type(h) is G.SmallGraph


def test_unchecked_results_equal_checked():
    small = [g for n in range(1, 4) for g in E.graphs_on(n)]
    for n in range(1, 7):
        verts = range(n)
        pairs = list(itertools.combinations(verts, 2))
        perms = [list(reversed(verts)), [*verts[1:], 0], list(verts)]
        for g in E.graphs_on(n):
            _same_as_checked(G.complement(g))
            for size in range(1, n + 1):
                for keep in itertools.combinations(verts, size):
                    _same_as_checked(G.induced_subgraph(g, keep))
            for s in small:
                for h in (G.join(g, s), G.join(s, g),
                          G.disjoint_union(g, s), G.disjoint_union(s, g)):
                    _same_as_checked(h)
            _same_as_checked(G.apply_flips(g, pairs))
            _same_as_checked(G.apply_flips(g, pairs[::2] + pairs[:1]))
            for p in pairs:
                _same_as_checked(G.apply_flips(g, [p]))
                _same_as_checked(G.delete_edge(g, *p))
            for perm in perms:
                _same_as_checked(G.relabel(g, perm))
    for n in range(1, 7):
        for parent in E.graphs_on(n):
            for child in E._augment(parent):
                _same_as_checked(child)
