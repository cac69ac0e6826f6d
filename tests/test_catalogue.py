"""Catalogue transcription guards and family generator/recognizer tests."""

import os
import random

import pytest

import w_oracle
from hfree import catalogue as C
from hfree import enumeration as E
from hfree import graphs as G
from hfree import membership as M
from iso_oracle import vertex_connectivity


def test_lookup_known_identities():
    assert G.are_isomorphic(C.lookup("S1").graph, G.complete_bipartite(2, 3))
    assert G.are_isomorphic(
        C.lookup("H1").graph,
        G.disjoint_union(G.path_graph(3), G.empty_graph(2)),
    )
    assert G.are_isomorphic(C.lookup("H5").graph, G.star_graph(4))
    assert G.are_isomorphic(
        C.lookup("B1").graph,
        G.disjoint_union(G.star_graph(3), G.complete_graph(2)),
    )
    with pytest.raises(KeyError):
        C.lookup("H99")


def test_edge_list_document_matches_the_data_file():
    """docs/catalogue_edges.txt lists every entry of data/catalogue.g6, in
    the same order, with the same n, m and edges."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "catalogue_edges.txt")
    with open(path) as f:
        entries = [line.split() for line in f if ": n=" in line]
    assert [fields[0][:-1] for fields in entries] == C.all_ids()
    for name, n, m, *edges in entries:
        g = C.lookup(name[:-1]).graph
        assert (n, m) == (f"n={g.n}", f"m={g.edge_count()}"), name
        assert edges == [f"{u}-{v}" for u, v in g.edges()], name


def test_h_series_has_nine_five_vertex_graphs():
    hs = [C.lookup(f"H{i}").graph for i in range(1, 10)]
    assert all(g.n == 5 for g in hs)
    certs = {G.canonical_cert(g) for g in hs}
    certs |= {G.canonical_cert(G.complement(g)) for g in hs}
    assert len(certs) == 17  # the bull is self-complementary


def test_self_complementary_entries():
    for name in ("H9", "A4", "A5", "S12", "S24"):
        g = C.lookup(name).graph
        assert G.are_isomorphic(g, G.complement(g)), name


def test_certificates_unique_across_catalogue_and_complements():
    """Within the five main series, certificates collide only between an
    entry and its own complement (self-complementary entries)."""
    seen = {}
    for name in C.all_ids():
        if C.lookup(name).source == "small":
            continue
        g = C.lookup(name).graph
        for tag, gg in ((name, g), (f"co-{name}", G.complement(g))):
            cert = G.canonical_cert(gg)
            if cert in seen:
                base_prev = seen[cert].removeprefix("co-")
                base_new = tag.removeprefix("co-")
                assert base_prev == base_new, (seen[cert], tag)
            seen[cert] = tag


def test_a_and_b_series_two_connected_side():
    """One of {entry, complement} is 2- but not 3-connected."""
    for name in [f"A{i}" for i in range(1, 10)] + ["B1", "B2", "B3"]:
        g = C.lookup(name).graph
        co = G.complement(g)
        conns = (vertex_connectivity(g), vertex_connectivity(co))
        assert any(c == 2 for c in conns), name
        assert all(c < 3 for c in conns), name


def test_deletion_series_shapes():
    d1 = C.lookup("D1").graph
    d2 = C.lookup("D2").graph
    assert d1.n == 6 and d2.n == 6
    # the complement of D2 is (K_5 - e) plus an isolated vertex
    co = G.complement(d2)
    comps = sorted(G.components(co), key=len)
    assert [len(c) for c in comps] == [1, 5]
    k5e = G.delete_edge(G.complete_graph(5), 0, 1)
    assert G.are_isomorphic(G.induced_subgraph(co, comps[1]), k5e)


def test_s_entries_outside_x_and_y():
    for i in range(1, 37):
        g = C.lookup(f"S{i}").graph
        assert not M.in_y_d(g), f"S{i}"
        assert M.x_witness_for(g, "deletion") is None, f"S{i}"
        assert M.x_witness_for(g, "editing") is None, f"S{i}"


def test_family_generation_examples():
    f1 = C.generate_family(C.FamilyId("F1", 6))
    assert f1.n == 8 and f1.edge_count() == 12
    j3 = C.generate_family(C.FamilyId("F9", 3))
    assert j3.n == 7
    f4 = C.generate_family(C.FamilyId("F4", 4))
    assert f4.n == 7 and f4.edge_count() == 6
    with pytest.raises(ValueError):
        C.generate_family(C.FamilyId("F1", 3))
    with pytest.raises(KeyError):
        C.generate_family(C.FamilyId("F11", 5))


def test_family_recognition_roundtrip():
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, 13):
            fid = C.FamilyId(fam, t)
            g = C.generate_family(fid)
            assert C.recognize_family(g) == fid, fid


def test_family_recognition_negative():
    assert C.recognize_family(G.complete_bipartite(2, 3)) is None  # t under 4
    assert C.recognize_family(G.path_graph(5)) is None


def test_membership_w_examples():
    assert str(C.membership_W(G.complete_bipartite(2, 6))) == "F1(t=6)"
    k5k1 = G.disjoint_union(G.complete_graph(5), G.empty_graph(1))
    r = C.membership_W(k5k1)
    assert r.id == "F2" and r.complemented
    assert C.membership_W(G.cycle_graph(6)) is None
    assert C.membership_W(G.path_graph(3)) is None  # small core is not W


def test_w_closed_under_complement():
    for name in C.all_ids():
        entry = C.lookup(name)
        if entry.source == "small":
            continue
        assert C.membership_W(G.complement(entry.graph)) is not None, name
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, 9):
            g = C.generate_family(C.FamilyId(fam, t))
            assert C.membership_W(G.complement(g)) is not None, (fam, t)


def test_membership_w_matches_oracle():
    """membership_W and recognize_family answer as the oracle does on every
    graph with n <= 7, every catalogue id and co-id, and every family member
    from tmin to tmin+8 with its complement, each as stored and relabeled."""
    pool = [g for n in range(1, 8) for g in E.graphs_on(n)]
    for name in C.all_ids():
        pool += [C.lookup(name).graph, C.lookup(f"co-{name}").graph]
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, tmin + 9):
            g = C.generate_family(C.FamilyId(fam, t))
            pool += [g, G.complement(g)]
    rng = random.Random(13)
    for g in pool:
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, G.relabel(g, perm)):
            assert C.membership_W(h) == w_oracle.membership_W(h), G.to_graph6(h)
            assert C.recognize_family(h) == w_oracle.recognize_family(h)
