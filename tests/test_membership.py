"""Hard/easy set membership tests."""

import itertools

import pytest

from hfree import enumeration as E
from hfree import graphs as G
from hfree import membership as M
from iso_oracle import vertex_connectivity
import peel_oracle as PO


def test_set_membership_examples():
    p6 = M.set_membership(G.path_graph(6))
    assert p6.in_XD and p6.in_XE and not p6.in_YD
    assert p6.witness == "path>=5"

    near = M.set_membership(G.from_edges(6, [(0, 1)]))
    assert near.in_YD and near.in_XE
    assert not near.in_YE and not near.in_XD
    assert near.witness == "one-edge>=5-vertices"

    claw = M.set_membership(G.star_graph(3))
    assert claw.in_YE and claw.in_Yprime and not claw.in_XD
    assert claw.witness == "claw"

    c4 = M.set_membership(G.cycle_graph(4))
    assert c4.in_XD and not c4.in_YE


def test_yprime_subset_of_easy_sets():
    from hfree import catalogue as C

    for name in ("P3", "co-P3", "P4", "claw", "co-claw", "paw", "co-paw",
                 "diamond", "co-diamond"):
        g = C.lookup(name).graph
        sm = M.set_membership(g)
        assert sm.in_Yprime and sm.in_YE and sm.in_YD, name


def test_yprime_name_by_degree_sequence():
    """yprime_name keys Y' by degree sequence, which determines a graph on
    3 or 4 vertices: every graph with n <= 4 gets the name a certificate
    lookup gives it, and no two of them share a sequence."""
    from hfree import catalogue as C

    by_cert = {
        G.canonical_cert(C.lookup(name).graph): name
        for name in ("P3", "co-P3", "P4", "claw", "co-claw", "paw",
                     "co-paw", "diamond", "co-diamond")
    }
    for n in range(1, 5):
        level = E.graphs_on(n)
        assert len({tuple(sorted(g.degrees())) for g in level}) == len(level)
        for g in level:
            assert M.yprime_name(g) == by_cert.get(G.canonical_cert(g)), G.to_graph6(g)


# sorted degree sequences of P3, co-P3, P4, claw, co-claw, paw, co-paw,
# diamond and co-diamond
_YPRIME_DEGREES = (
    (1, 1, 2), (0, 1, 1), (1, 1, 2, 2), (1, 1, 1, 3), (0, 2, 2, 2),
    (1, 2, 2, 3), (0, 1, 1, 2), (2, 2, 3, 3), (0, 0, 1, 1),
)


def _shapes_by_degrees(degs):
    """The four easy-set shapes read off a degree sequence alone."""
    n = len(degs)
    out = []
    if all(d == n - 1 for d in degs):
        out.append("complete")
    if not any(degs):
        out.append("empty")
    if sum(degs) == 2:
        out.append("near-empty")
    if tuple(sorted(degs)) in _YPRIME_DEGREES:
        out.append("Y'")
    return out


def test_shapes_by_degree_sequence():
    """The shapes of a graph and of both its peels follow from the degree
    sequence: on every graph with n <= 8 and on its peels, the copy above
    agrees with is_complete, is_empty, one edge and a Y' certificate
    lookup, and Y_D (Y_E) is having a shape (one besides near-empty).
    ``membership.shapes`` agrees with the copy, and ``graphs.peel_degrees``
    gives the degree sequences of the peels, none for a regular graph."""
    near, two_k2 = G.from_edges(5, [(0, 1)]), G.from_edges(4, [(0, 1), (2, 3)])
    assert _shapes_by_degrees(near.degrees()) == PO.peel_types(near) == ["near-empty"]
    assert _shapes_by_degrees(two_k2.degrees()) == PO.peel_types(two_k2) == []
    for n in range(1, 9):
        for g in E.graphs_on(n):
            graphs = (g,) if G.is_regular(g) else (g, *PO.peels(g))
            if len(graphs) == 3:
                assert tuple(G.peel_degrees(g)) == tuple(p.degrees() for p in graphs[1:])
            else:
                assert tuple(G.peel_degrees(g)) == ()
            for h in graphs:
                want = PO.peel_types(h)
                assert _shapes_by_degrees(h.degrees()) == want, G.to_graph6(h)
                assert M.shapes(h.degrees()) == want, G.to_graph6(h)
                assert M.in_y_d(h) == bool(want), G.to_graph6(h)
                assert M.is_easy(M.shapes(h.degrees()), "editing") == bool(
                    set(want) - {"near-empty"}), G.to_graph6(h)


def test_small_graphs_all_covered():
    """Every graph on at most four vertices lies in X u Y for both
    problems."""
    for n in range(1, 5):
        for g in E.graphs_on(n):
            sm = M.set_membership(g)
            assert sm.in_XE or sm.in_YE, G.to_graph6(g)
            assert sm.in_XD or sm.in_YD, G.to_graph6(g)


def test_xy_union_closed_under_complement():
    for n in range(1, 8):
        for g in E.graphs_on(n):
            a = M.in_y_d(g) or M.x_witness_for(g, "deletion") is not None
            co = G.complement(g)
            b = M.in_y_d(co) or M.x_witness_for(co, "deletion") is not None
            assert a == b, G.to_graph6(g)


def test_xe_ye_union_equals_xd_yd_union():
    for n in range(1, 7):
        for g in E.graphs_on(n):
            sm = M.set_membership(g)
            assert (sm.in_XE or sm.in_YE) == (sm.in_XD or sm.in_YD)


def test_x_witness_problem_asymmetry():
    # one edge on five vertices: hard for editing, easy for deletion
    near = G.from_edges(5, [(0, 1)])
    assert M.x_witness_for(near, "editing") == "one-edge>=5-vertices"
    assert M.x_witness_for(near, "deletion") is None
    # K_5 minus an edge: complement route needs two edges for deletion
    k5e = G.delete_edge(G.complete_graph(5), 0, 1)
    assert M.x_witness_for(k5e, "deletion") == "3-connected"
    co = G.complement(k5e)
    assert M.x_witness_for(co, "deletion") is None
    assert M.x_witness_for(co, "editing") is not None
    # completion is deletion on the complement and has no X set of its own
    with pytest.raises(ValueError, match="no X set"):
        M.x_witness_for(co, "completion")


def test_is_3_connected_matches_connectivity():
    for n in range(1, 7):
        for g in E.graphs_on(n):
            assert M.is_3_connected(g) == (vertex_connectivity(g) >= 3)
