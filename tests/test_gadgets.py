"""Gadget table verification and mutation controls."""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from hfree import enumeration as E
from hfree import gadgets as GD
from hfree import graphs as G
from iso_oracle import automorphisms, structural_layer, unpruned_falsification


def test_table_shape():
    assert len(GD.table_rows()) == 13
    # deletion satisfaction components exist exactly for these rows
    sd_rows = [
        r for r in GD.table_rows()
        if GD.table_gadget(r, "delete", "SComponent") is not None
    ]
    assert sorted(sd_rows) == [
        "A3", "A4", "A5", "co-A1", "co-A2", "co-A3", "co-A7", "co-A9"]
    enf_d = [
        r for r in GD.table_rows()
        if GD.table_gadget(r, "delete", "Enforcer") is not None
    ]
    assert sorted(enf_d) == ["A3", "A4", "A5", "co-A1", "co-A2", "co-A3"]
    enf_c = [
        r for r in GD.table_rows()
        if GD.table_gadget(r, "complete", "Enforcer") is not None
    ]
    assert len(enf_c) == 12 and "co-A3" not in enf_c
    # rows with no deletion enforcer but a bespoke reduction instead
    assert GD.table_gadget("co-A7", "delete", "Enforcer") is None
    assert GD.table_gadget("co-A9", "delete", "Enforcer") is None


def test_check_propagational():
    def tab(**kw):
        vals = [True] * 8
        for key, val in kw.items():
            x, y, z = (int(c) for c in key[1:])
            vals[x * 4 + y * 2 + z] = val
        return GD.PropTable(tuple(vals))

    assert GD.check_propagational(tab(f100=False))
    assert not GD.check_propagational(tab())  # f(1,0,0) must be 0
    assert not GD.check_propagational(tab(f100=False, f000=False))
    assert not GD.check_propagational(tab(f100=False, f111=False))


def test_all_s_components_pass():
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            g = GD.table_gadget(row, mode, "SComponent")
            if g is None:
                continue
            table = GD.verify_s_component(g)
            assert GD.check_propagational(table), (row, mode)


def test_s_component_sabotage_fails():
    g = GD.table_gadget("co-A1", "delete", "SComponent")
    # adding the first allowed pair back into the host breaks host-freeness
    bad = GD.Gadget(
        GD.host_graph("co-A1"), "SComponent", "delete",
        tuple(sorted(GD.host_graph("co-A1").edges())[:3]), "co-A1",
    )
    with pytest.raises(GD.GadgetError):
        GD.verify_s_component(bad)
    # flipping a forbidden edge of the real gadget breaks the table
    graph = g.graph
    flip = next(
        (u, v)
        for u, v in graph.edges()
        if (u, v) not in g.allowed
    )
    mutated = GD.Gadget(
        G.delete_edge(graph, *flip), "SComponent", "delete", g.allowed, g.h
    )
    with pytest.raises(GD.GadgetError):
        GD.verify_s_component(mutated)


def test_generic_construction_first_entry_always_zero():
    """Deleting only the added pair restores the host, so f(1,0,0)=0 for
    every choice (connected non-complete hosts on 4..6 vertices, sampled)."""
    import itertools

    from hfree import enumeration as E

    for n in (4, 5):
        for h in E.graphs_on(n):
            if G.is_complete(h) or not G.is_connected(h):
                continue
            nonedges = [
                (u, v)
                for u in range(h.n)
                for v in range(u + 1, h.n)
                if not h.has_edge(u, v)
            ]
            edges = list(h.edges())
            for x in nonedges[:2]:
                y, z = edges[0], edges[1]
                gx = G.apply_flips(h, [x])
                # the f(1,0,0) entry of the toggle table
                assert not G.is_free_of(G.delete_edge(gx, *x), h)


def test_gadget_role_validation():
    host = GD.host_graph("co-A1")
    with pytest.raises(GD.GadgetError):
        GD.Gadget(host, "SComponent", "delete",
                  (sorted(host.edges())[0],), "co-A1")
    with pytest.raises(GD.GadgetError):
        GD.Gadget(host, "Enforcer", "complete",
                  (sorted(host.edges())[0],), "co-A1")  # edge, not nonedge


def test_build_truth_setting_counts():
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    tc = GD.build_truth_setting(unit)
    assert tc.graph.n == 15 * 5 - 15 * 2
    assert len(tc.allowed) == 15
    assert len(tc.variable_pairs) == 3
    assert set(tc.variable_pairs) <= set(tc.allowed)
    a3 = GD.table_gadget("A3", "delete", "BasicUnit")
    tc3 = GD.build_truth_setting(a3)
    assert len(tc3.allowed) == 18
    assert tc3.graph.n == 18 * 6 - 18 * 2
    with pytest.raises(GD.GadgetError):
        GD.build_truth_setting(unit, p=1)


def test_build_truth_setting_rejects_shared_glue_vertex():
    """Every table unit has disjoint glue pairs, so its complex has 3p
    distinct allowed pairs, each still the unit's (non)edge."""
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            unit = GD.table_gadget(row, mode, "BasicUnit")
            if unit is None:
                continue
            (a, b), (c, d) = unit.allowed
            assert not {a, b} & {c, d}, (row, mode)
            tc = GD.build_truth_setting(unit, p=2)
            assert len(set(tc.allowed)) == 6, (row, mode)
            for a, b in tc.allowed:
                assert tc.graph.has_edge(a, b) == (mode == "delete"), (row, mode)
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    assert unit.allowed == ((0, 4), (1, 2))
    bad = GD.Gadget(unit.graph, "BasicUnit", "delete", ((0, 4), (0, 2)), unit.h)
    with pytest.raises(GD.GadgetError, match="share a vertex"):
        GD.build_truth_setting(bad, p=2)


def test_truth_setting_exhaustive_short_chains():
    """Shorter cyclic chains already admit exactly the two designated
    deletion sets for the smallest host."""
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    h = GD.host_graph("co-A1")
    for p in (2, 3):
        tc = GD.build_truth_setting(unit, p=p)
        assert GD.verify_truth_setting(tc, h, "delete")


def _modification_sets_all_subsets(tc, h):
    """Reference: modification_sets as a scan over every |V(h)|-subset."""
    pairs = list(tc.allowed)
    pair_index = {p: i for i, p in enumerate(pairs)}
    base = tc.graph
    hm = h.edge_count()
    hcert = G.canonical_cert(h)
    constraints = {}
    for T in itertools.combinations(range(base.n), h.n):
        var = [q for q in itertools.combinations(T, 2) if q in pair_index]
        fixed = sum(
            1 for a, b in itertools.combinations(T, 2)
            if base.has_edge(a, b) and (a, b) not in pair_index
        )
        if not fixed <= hm <= fixed + len(var):
            continue
        sub = G.induced_subgraph(base, T)
        pos = {v: i for i, v in enumerate(T)}
        bad = set()
        for k in range(len(var) + 1):
            for sel in itertools.combinations(var, k):
                cand = G.apply_flips(sub, [(pos[a], pos[b]) for a, b in sel])
                if cand.edge_count() == hm and G.canonical_cert(cand) == hcert:
                    bad.add(sum(1 << pair_index[q] for q in sel))
        if bad:
            varmask = sum(1 << pair_index[q] for q in var)
            constraints.setdefault(varmask, set()).update(bad)
    return [
        m for m in range(1 << len(pairs))
        if all(m & vm not in bad for vm, bad in constraints.items())
    ]


def test_modification_sets_match_all_subsets():
    """The relaxed search finds the same modification sets as a scan over
    all vertex subsets, on p = 2 complexes of hosts with at most six
    vertices and on single-pair mutants of their units."""
    units = [GD.table_gadget(row, mode, "BasicUnit") for row, mode in (
        ("co-A1", "delete"), ("A3", "delete"), ("co-A2", "complete"))]
    co_a1 = units[0]
    for u, v in itertools.combinations(range(co_a1.graph.n), 2):
        if (u, v) not in co_a1.allowed:
            units.append(GD.Gadget(G.apply_flips(co_a1.graph, [(u, v)]),
                                   "BasicUnit", "delete", co_a1.allowed, co_a1.h))
    counts = set()
    for unit in units:
        tc = GD.build_truth_setting(unit, p=2)
        h = GD.host_graph(unit.h)
        good = GD.modification_sets(tc, h)
        assert good == _modification_sets_all_subsets(tc, h), unit
        counts.add(len(good))
    assert {1, 2, 18, 64} <= counts  # the mutants change the answer


def test_truth_setting_weak_property():
    for row, mode in (("co-A1", "delete"), ("co-A2", "complete"),
                      ("A3", "delete")):
        unit = GD.table_gadget(row, mode, "BasicUnit")
        tc = GD.build_truth_setting(unit)
        assert GD.verify_truth_setting_weak(tc, GD.host_graph(row)), (row, mode)


def test_truth_setting_sabotage():
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    graph = unit.graph
    flip = next(
        (u, v) for u, v in graph.edges() if (u, v) not in unit.allowed
    )
    bad_unit = GD.Gadget(
        G.delete_edge(graph, *flip), "BasicUnit", "delete", unit.allowed,
        unit.h,
    )
    tc = GD.build_truth_setting(bad_unit, p=2)
    assert not GD.verify_truth_setting(tc, GD.host_graph("co-A1"), "delete")


def test_enforcer_layers_small_host_bound():
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            enf = GD.table_gadget(row, mode, "Enforcer")
            if enf is None:
                continue
            rep = GD.verify_enforcer(enf, n_host=4)
            assert rep["ok"], (row, mode, rep)


@pytest.mark.parametrize("n_host", [1, 0, -3])
def test_enforcer_without_hosts_refused(n_host):
    """Layer (c) tries hosts from two vertices up; below that it would try
    none and pass."""
    enf = GD.table_gadget("co-A1", "complete", "Enforcer")
    with pytest.raises(ValueError, match="n_host must be at least 2"):
        GD.verify_enforcer(enf, n_host=n_host)


def test_enforcer_self_copy_fails_exact_layer():
    host = GD.host_graph("co-A1")
    bad = GD.Gadget(host, "Enforcer", "delete",
                    (sorted(host.edges())[0],), "co-A1")
    rep = GD.verify_enforcer(bad, n_host=2)
    assert not rep["layers"]["exact"]["host_free"]
    assert not rep["ok"]
    assert rep["layers"]["exact"] == GD.enforcer_exact(bad)


def _broken_co_a1_candidates():
    """co-A1 with one edge deleted, that pair distinguished, complete mode."""
    host = GD.host_graph("co-A1")
    return [
        GD.Gadget(G.delete_edge(host, u, v), "Enforcer", "complete",
                  ((u, v),), "co-A1")
        for u, v in host.edges()
    ]


def test_broken_enforcer_caught_by_falsification():
    """Some wrong distinguished pair passes the exact layer but leaks
    crossing copies on small hosts."""
    caught = 0
    for cand in _broken_co_a1_candidates():
        rep = GD.verify_enforcer(cand, n_host=5)
        if rep["layers"]["exact"]["ok"] and not rep["layers"]["falsification"]["ok"]:
            caught += 1
    assert caught > 0


def test_enforcer_report_digest():
    """Pins every enforcer report byte for byte, violations (host, pair,
    copy) included: each table enforcer at n_host = 6 and each broken
    co-A1 candidate at n_host = 3..6."""
    reports = []
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            enf = GD.table_gadget(row, mode, "Enforcer")
            if enf is not None:
                reports.append(GD.verify_enforcer(enf, n_host=6))
    for n_host in (3, 4, 5, 6):
        for cand in _broken_co_a1_candidates():
            reports.append(GD.verify_enforcer(cand, n_host=n_host))
    assert len(reports) == 46
    assert sum(not r["layers"]["falsification"]["ok"] for r in reports) == 15
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "463d61c35c5bab15c090a7f25cffcd0482c0b8e4ff3c499c7d2074b6d9dcdb69"


def test_structural_layer_matches_oracle(monkeypatch):
    """Layer (b) equals the oracle's copy of its separator scan on every
    host with 5 or 6 vertices, for four enforcers on the pair (0, 1): K2
    and K3 deleting it, 2K1 and P3 (the pair as its ends) completing it.
    Unlike the table enforcers, these reach both failing fallbacks."""
    p3 = G.from_edges(3, [(0, 2), (1, 2)])
    enforcers = [
        GD.Gadget(g, "Enforcer", mode, ((0, 1),), "host")
        for g, mode in ((G.complete_graph(2), "delete"),
                        (G.complete_graph(3), "delete"),
                        (G.empty_graph(2), "complete"), (p3, "complete"))
    ]
    outcomes = Counter()
    for host in E.graphs_on(5) + E.graphs_on(6):
        monkeypatch.setattr(GD, "host_graph", lambda h_id, host=host: host)
        for enf in enforcers:
            got = GD.verify_enforcer(enf, n_host=2)["layers"]["structural"]
            assert got == structural_layer(host, enf), (G.to_graph6(host), enf)
            outcomes[got["condition"], got["ok"]] += 1
    assert sum(outcomes.values()) == 760
    assert outcomes["no-induced-C4", False] == 70
    assert outcomes["no-induced-P5-between-separator", False] == 6


def test_crossing_copy_constant_on_ordered_pair_orbits():
    """The premise of attaching once per orbit, checked by attaching at
    every pair: on hosts with n <= 5, whether a crossing copy exists is
    the same for (u, v) and (s(u), s(v)) for every automorphism s with
    s(u) < s(v). Layer (c) then reports what the unpruned scan reports
    first."""
    table = [GD.table_gadget(row, mode, "Enforcer")
             for row in GD.table_rows() for mode in ("delete", "complete")]
    autos = {}
    for enf in [e for e in table if e is not None] + _broken_co_a1_candidates():
        scan = unpruned_falsification(enf, 5)
        crossing = {(host, pair): copy is not None for host, pair, copy in scan}
        for host, (u, v), copy in scan:
            for s in autos.setdefault(host, automorphisms(host)):
                if s[u] < s[v]:
                    assert crossing[host, (s[u], s[v])] == (copy is not None), (
                        enf.h, enf.allowed, G.to_graph6(host), (u, v), s)
        first = next(
            ([{"host": G.to_graph6(host), "pair": pair, "copy": copy}]
             for host, pair, copy in scan if copy is not None), [])
        rep = GD.verify_enforcer(enf, n_host=5)
        assert rep["layers"]["falsification"]["violations"] == first, enf


def test_falsification_attaches_at_first_pair_of_each_orbit(monkeypatch):
    """On every host with n <= 6, layer (c) attaches exactly at the
    (non)edges (u, v), u < v, that come first in row order among their
    orbit under Aut(host) acting on ordered pairs: 1 511 of the 2 760
    pairs. A pair and its reverse are not merged, though merging them
    changes no report of the table or of the broken candidates, so this
    is the test that sees it."""
    attached = []
    attach = GD.attach_enforcer

    def spy(host, pair, enf, copies):
        attached.append((host, pair))
        return attach(host, pair, enf, copies)

    monkeypatch.setattr(GD, "attach_enforcer", spy)
    for mode in ("delete", "complete"):
        assert GD.verify_enforcer(GD.table_gadget("co-A1", mode, "Enforcer"))["ok"]
    want = []
    pairs = 0
    for mode in ("delete", "complete"):
        for n in range(2, 7):
            for host in E.graphs_on(n):
                autos = automorphisms(host)
                for u, v in itertools.combinations(range(n), 2):
                    if host.has_edge(u, v) != (mode == "delete"):
                        continue
                    pairs += 1
                    if min((s[u], s[v]) for s in autos if s[u] < s[v]) == (u, v):
                        want.append((host, (u, v)))
    assert attached == want
    assert (len(want), pairs) == (1511, 2760)


def test_table_enforcers_pass_with_the_pair_reversed():
    """Layer (c) puts the distinguished pair's first vertex on u, u < v, so
    a (non)edge that no automorphism of the host reverses is tried in one
    orientation only. The other orientation, (v, u) for the first pair
    (u, v) of each orbit, which reaches every reversed pair up to an
    automorphism, gives no crossing copy either: for each of the 18 table
    enforcers on every host with n <= 6."""
    table = [GD.table_gadget(row, mode, "Enforcer")
             for row in GD.table_rows() for mode in ("delete", "complete")]
    enforcers = [e for e in table if e is not None]
    assert len(enforcers) == 18
    for enf in enforcers:
        h = GD.host_graph(enf.h)
        for n in range(2, 7):
            for host in E.graphs_on(n):
                for u, v in GD._orbit_firsts(host, enf.mode == "delete"):
                    joined = GD.attach_enforcer(host, (v, u), enf, 1)
                    assert all(max(hit) < n for hit in G.find_induced(joined, h)), (
                        enf.h, enf.mode, G.to_graph6(host), (v, u))
