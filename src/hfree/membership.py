"""Membership in the hard (X) and easy (Y) sets driving classification.

X_D collects the graphs with known kernel lower bounds for deletion
(long cycles/paths and their complements, nontrivial regular graphs,
3-connected graphs and complements thereof); X_E adds the one-edge
graphs on at least five vertices, which are hard for editing but
polynomial for deletion. Y_E holds the known polynomial kernels plus
the claw, which is deliberately excluded from any hardness conjecture;
Y_D adds the one-edge graphs. Y' is the finite 3/4-vertex core.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import catalogue
from . import graphs as G
from .graphs import SmallGraph


@functools.cache
def _yprime_index() -> dict[tuple[int, ...], str]:
    """Names of the nine Y' graphs, keyed by sorted degree sequence. A graph
    on 3 or 4 vertices is determined by its degree sequence (4 and 11
    classes, all sequences distinct), so no certificate is needed."""
    return {
        tuple(sorted(catalogue.lookup(name).graph.degrees())): name
        for name in ("P3", "co-P3", "P4", "claw", "co-claw", "paw",
                     "co-paw", "diamond", "co-diamond")
    }


def yprime_name(g: SmallGraph) -> str | None:
    """Name of g within Y' = {P3, P4, claw, paw, diamond, complements}."""
    if g.n not in (3, 4):
        return None
    return _yprime_index().get(tuple(sorted(g.degrees())))


def shapes(degs: list[int]) -> list[str]:
    """The easy-set shapes, in order and non-exclusive, of a graph with
    degree sequence degs: complete, empty, near-empty (one edge), Y'."""
    n = len(degs)
    out = []
    if all(d == n - 1 for d in degs):
        out.append("complete")
    if not any(degs):
        out.append("empty")
    if sum(degs) == 2:
        out.append("near-empty")
    if n in (3, 4) and tuple(sorted(degs)) in _yprime_index():
        out.append("Y'")
    return out


def is_easy(found: list[str], problem: str) -> bool:
    """Whether shapes ``found`` put a graph in Y_D (deletion: any shape) or
    Y_E (editing: not near-empty alone; with n <= 4 that is K2 or in Y')."""
    return bool(found) and (problem == "deletion" or found != ["near-empty"])


def peel_side(g: SmallGraph, problem: str) -> tuple[str | None, list[list[str]]]:
    """The side, "low" or "high", of the first peel of g outside the
    problem's easy set (Y_D for deletion, Y_E for editing), judged by the
    peels' degree sequences, or None if g is regular or both peels are
    easy; and the shapes of the peels read to decide it, low first: none
    for a regular graph, the high peel's only past an easy low peel."""
    read = []
    for side, degs in zip(("low", "high"), G.peel_degrees(g)):
        read.append(shapes(degs))
        if not is_easy(read[-1], problem):
            return side, read
    return None, read


def is_3_connected(g: SmallGraph) -> bool:
    """Vertex connectivity >= 3, with cheap degree short-circuits."""
    n = g.n
    if n < 4:
        return False
    if all(r.bit_count() == n - 1 for r in g.rows):
        return True
    if min(r.bit_count() for r in g.rows) < 3:
        # the neighbors of a low-degree vertex disconnect it
        return False
    # With n >= 4, a separating set of size 0 or 1 grows into a separating
    # pair: add a vertex of a component with 2 or more vertices, or, if
    # every component is a single vertex, any vertex (at least 2 are left).
    # So the pair scan alone decides.
    return next(G.separators(g, 2), None) is None


@dataclass(frozen=True)
class SetMembership:
    in_XD: bool
    in_XE: bool
    in_YE: bool
    in_YD: bool
    in_Yprime: bool
    witness: str


def set_membership(g: SmallGraph) -> SetMembership:
    """All five set flags with a witness for the strongest applicable one."""
    found = shapes(g.degrees())
    yname = yprime_name(g)
    xe = x_witness_for(g, "editing")
    trivial = found[0] if found and found[0] in ("complete", "empty") else None
    return SetMembership(
        in_XD=x_witness_for(g, "deletion") is not None,
        in_XE=xe is not None,
        in_YE=is_easy(found, "editing"),
        in_YD=is_easy(found, "deletion"),
        in_Yprime=yname is not None,
        witness=trivial or yname or xe or "none",
    )


def in_y_d(g: SmallGraph) -> bool:
    return is_easy(shapes(g.degrees()), "deletion")


def x_witness_for(g: SmallGraph, problem: str) -> str | None:
    """Reason g is in X for the given problem, or None.

    The complement route through a 3-connected graph needs the complement
    to be non-complete for editing (at least one edge in g) but at least
    two nonedges for deletion (at least two edges in g). One-edge graphs
    on five or more vertices are hard for editing only. Completion has no
    X set of its own (it is deletion on the complement).
    """
    if problem not in ("editing", "deletion"):
        raise ValueError(f"no X set for problem {problem!r}")
    co = G.complement(g)
    if G.is_cycle(g) and g.n >= 4:
        return "cycle>=4"
    if G.is_cycle(co) and g.n >= 4:
        return "co-cycle>=4"
    if g.n >= 5 and G.is_path(g):
        return "path>=5"
    if g.n >= 5 and G.is_path(co):
        return "co-path>=5"
    if G.is_regular(g) and not G.is_complete(g) and not G.is_empty(g):
        return "regular-nontrivial"
    if problem == "editing" and g.edge_count() == 1 and g.n >= 5:
        return "one-edge>=5-vertices"
    if not G.is_complete(g) and is_3_connected(g):
        return "3-connected"
    min_edges = 1 if problem == "editing" else 2
    if g.edge_count() >= min_edges and is_3_connected(co):
        return "co-3-connected"
    return None
