"""Churn and classification tests."""

import os
import subprocess
import sys

from hfree import catalogue as C
from hfree import classify as CL
from hfree import enumeration as E
from hfree import graphs as G
from hfree import reductions as R
import peel_oracle as PO


def test_churn_regular_returns_input():
    c5 = G.cycle_graph(5)
    out = CL.churn(c5)
    assert out.result == c5 and out.trace == ()


def test_churn_star_stops_at_step_four():
    star = G.star_graph(5)
    out = CL.churn(star)
    assert out.result == star and out.trace == ()
    # both peels are easy: a single vertex and an empty graph
    assert [PO.peel_types(p) for p in PO.peels(star)] == [
        ["complete", "empty"], ["empty"]]


def _churn_reference(g, trace=()):
    """Independent straight-line reimplementation used as an oracle: the
    graph churn stops at and the (side, stage) trace that reaches it."""
    if G.is_regular(g):
        return CL.ChurnResult(g, trace)
    low, high = PO.peels(g)
    if not PO.peel_types(low):  # outside Y_D
        return _churn_reference(low, trace + (("low", low),))
    if not PO.peel_types(high):
        return _churn_reference(high, trace + (("high", high),))
    return CL.ChurnResult(g, trace)


def test_churn_matches_reference_exhaustively():
    for n in range(1, 8):
        for g in E.graphs_on(n):
            assert CL.churn(g) == _churn_reference(g), G.to_graph6(g)


def test_churn_trace_soundness():
    for n in range(5, 8):
        for g in E.graphs_on(n):
            out = CL.churn(g)
            current = g
            for side, stage in out.trace:
                low, high = G.degree_classes(current)
                removed = low if side == "low" else high
                expect = G.induced_subgraph(
                    current, [v for v in range(current.n) if not removed >> v & 1])
                assert stage == expect
                current = stage
            assert current == out.result
            final = out.result
            if not G.is_regular(final):
                assert all(map(PO.peel_types, PO.peels(final)))


def test_classify_easy_cases():
    assert CL.classify(G.path_graph(4), "editing").status == "PolyKernel"
    assert CL.classify(G.complete_graph(6), "deletion").status == "PolyKernel"
    assert CL.classify(G.empty_graph(5), "completion").status == "PolyKernel"
    v = CL.classify(G.from_edges(6, [(0, 1)]), "deletion")
    assert v.status == "PolyKernel" and v.reason == "at-most-one-edge"
    assert CL.classify(G.star_graph(3), "editing").status == "ClawExcluded"
    assert CL.classify(
        G.complement(G.star_graph(3)), "deletion"
    ).status == "ClawExcluded"


def _rules_1_to_4_by_predicates(g, problem):
    """Reference for rules 1-4 read off four graph predicates: complete,
    empty, isomorphic to one of the nine Y' graphs and (deletion only) at
    most one edge.
    (status, reason), or None where the rules pass g on to rule 5."""
    if G.is_complete(g):
        return "PolyKernel", "complete"
    if G.is_empty(g):
        return "PolyKernel", "empty"
    name = next((y for y in PO.YPRIME if g.n in (3, 4)
                 and G.are_isomorphic(g, C.lookup(y).graph)), None)
    if name is not None:
        if name in ("claw", "co-claw"):
            return "ClawExcluded", name
        return "PolyKernel", f"small-kernel:{name}"
    if problem == "deletion" and g.edge_count() <= 1:
        return "PolyKernel", "at-most-one-edge"
    return None


def test_rules_1_to_4_match_graph_predicates(monkeypatch):
    """On every graph with n <= 8, under editing and deletion, rules 1-4
    fire exactly where the graph predicates say, with the same status and
    reason, and pass every other graph on to rule 5."""
    monkeypatch.setattr(CL, "_pipeline", lambda g, problem: None)
    for n in range(1, 9):
        for g in E.graphs_on(n):
            for problem in ("editing", "deletion"):
                v = CL._decide(g, problem)
                got = None if v is None else (v.status, v.reason)
                assert got == _rules_1_to_4_by_predicates(g, problem), (
                    G.to_graph6(g), problem)
                assert v is None or (v.problem, v.chain, v.member) == (problem, (), None)


def test_classify_hard_cases():
    assert CL.classify(G.cycle_graph(4), "deletion").status == "Incompressible"
    two_k2 = G.from_edges(4, [(0, 1), (2, 3)])
    assert CL.classify(two_k2, "editing").status == "Incompressible"
    v = CL.classify(G.from_edges(6, [(0, 1)]), "editing")
    assert v.status == "Incompressible"
    assert v.reason == "one-edge>=5-vertices"


def test_classify_k26_chain():
    v = CL.classify(G.complete_bipartite(2, 6), "editing")
    assert v.status == "OpenCatalogue" and v.member == "H5"
    # chain passes through the star family on the way to the 4-star
    targets = [s.target_h.n for s in v.chain]
    assert targets == [7, 6, 5]


def test_classify_catalogue_verdicts():
    for i in range(1, 10):
        v = CL.classify(C.lookup(f"H{i}").graph, "editing")
        assert v.status == "OpenCatalogue" and v.member == f"H{i}"
    for gid in ("D1", "D2"):
        assert CL.classify(C.lookup(gid).graph, "deletion").member == gid
        assert (
            CL.classify(C.lookup(gid).graph, "editing").status
            == "Incompressible"
        )
    for i in range(1, 10):
        v = CL.classify(C.lookup(f"A{i}").graph, "deletion")
        assert v.status == "Incompressible", f"A{i}"
    for gid in ("B1", "B2", "B3"):
        assert (
            CL.classify(C.lookup(gid).graph, "deletion").status
            == "Incompressible"
        )
        assert (
            CL.classify(C.lookup(gid).graph, "editing").status
            == "Incompressible"
        )


def test_classify_whole_catalogue_terminates():
    for name in C.all_ids():
        g = C.lookup(name).graph
        for problem in CL.PROBLEMS:
            v = CL.classify(g, problem)
            assert v.status != "Unclassified", (name, problem)


def test_classify_families_terminate():
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, 9):
            g = C.generate_family(C.FamilyId(fam, t))
            for problem in ("editing", "deletion"):
                v = CL.classify(g, problem)
                assert v.status in ("OpenCatalogue", "Incompressible"), (
                    fam, t, problem, v.status)


# Verdicts of every graph with 5 <= n <= 7, by problem, n and status:
# (Incompressible, OpenCatalogue, PolyKernel).
_CENSUS = {
    "editing": {5: (15, 17, 2), 6: (110, 44, 2), 7: (912, 130, 2)},
    "deletion": {5: (14, 17, 3), 6: (99, 54, 3), 7: (789, 252, 3)},
    "completion": {5: (14, 17, 3), 6: (99, 54, 3), 7: (789, 252, 3)},
}


def test_verdict_census_n5_to_7(monkeypatch):
    """Every graph with 5 <= n <= 7 under all three problems: the counts by
    status, and each OpenCatalogue member is one of criterion 4's 19
    graphs (H1-H9 alone under editing). A cold memo keeps the counts
    independent of earlier tests."""
    monkeypatch.setattr(CL, "_memo", {})
    hs = [f"H{i}" for i in range(1, 10)]
    allowed = {"editing": set(hs)}
    allowed["deletion"] = allowed["completion"] = (
        set(hs) | {f"co-H{i}" for i in range(1, 9)} | {"D1", "D2"})
    assert len(allowed["deletion"]) == 19
    for problem, by_n in _CENSUS.items():
        for n, want in by_n.items():
            verdicts = [CL.classify(g, problem) for g in E.graphs_on(n)]
            got = [sum(v.status == s for v in verdicts)
                   for s in ("Incompressible", "OpenCatalogue", "PolyKernel")]
            assert tuple(got) == want and sum(got) == len(verdicts), (problem, n)
            members = {v.member for v in verdicts if v.status == "OpenCatalogue"}
            assert members <= allowed[problem], (problem, n, members)


def test_editing_complement_invariance_small():
    for n in range(1, 7):
        for g in E.graphs_on(n):
            a = CL.classify(g, "editing").status
            b = CL.classify(G.complement(g), "editing").status
            assert a == b, G.to_graph6(g)


def test_deletion_completion_duality_small():
    for n in range(1, 7):
        for g in E.graphs_on(n):
            a = CL.classify(g, "deletion").status
            b = CL.classify(G.complement(g), "completion").status
            assert a == b, G.to_graph6(g)


def test_chain_steps_name_low_or_high_peels():
    v = CL.classify(C.lookup("D1").graph, "editing")
    assert [s.rule for s in v.chain] == ["peel-high"]
    assert v.chain[0].target_h.edge_count() == 1
    assert v.chain[0].target_h.n == 5


def test_stored_b_and_d_graphs_pinned():
    """B1-B3, D1, D2 in their stored orientation under all three problems.
    Under editing each low peel is easy and the high peel has one edge on
    five vertices; B3 has 8 vertices, beyond the golden's levels."""
    want = {
        "deletion": {
            "B1": ("Incompressible", "two-connected-catalogue:B1", None, []),
            "B2": ("Incompressible", "two-connected-catalogue:B2", None, []),
            "B3": ("Incompressible", "two-connected-catalogue:B3", None, []),
            "D1": ("OpenCatalogue", "catalogue:D1", "D1", []),
            "D2": ("OpenCatalogue", "catalogue:D2", "D2", []),
        },
        "editing": {
            gid: ("Incompressible", "one-edge>=5-vertices", None, ["peel-high"])
            for gid in ("B1", "B2", "B3", "D1", "D2")
        },
        "completion": {
            gid: ("Incompressible", "dual:3-connected", None,
                  ["complement-duality", "peel-low"])
            for gid in ("B1", "B2", "B3", "D1", "D2")
        },
    }
    for problem, rows in want.items():
        for gid, expect in rows.items():
            v = CL.classify(C.lookup(gid).graph, problem)
            got = (v.status, v.reason, v.member, [s.rule for s in v.chain])
            assert got == expect, (gid, problem)


def test_one_certificate_per_memo_miss(monkeypatch):
    """Each graph whose verdict classify memoizes is certified once: the
    memo key's certificate also looks the graph up in W."""
    g = G.complete_bipartite(2, 8)
    for n in range(1, g.n + 1):
        C._w_on(n)  # the W indexes are built outside the count
    monkeypatch.setattr(CL, "_memo", {})
    certified = []
    cert = G.canonical_cert
    monkeypatch.setattr(G, "canonical_cert", lambda h: certified.append(h) or cert(h))
    CL.classify(g, "deletion")
    assert len(certified) == len(CL._memo) > 0


def test_rule_7_builds_only_the_peel_it_takes(monkeypatch):
    """D1 under editing reaches rule 7 with an easy low peel and takes its
    high peel: one step is built, not one for each peel tried."""
    d1 = C.lookup("D1").graph
    for n in range(1, d1.n + 1):
        C._w_on(n)
    monkeypatch.setattr(CL, "_memo", {})
    steps = []
    make = R.make_step
    monkeypatch.setattr(R, "make_step", lambda *a: steps.append(a) or make(*a))
    v = CL.classify(d1, "editing")
    assert [s[0] for s in steps] == ["peel-high"]
    assert [st.rule for st in v.chain] == ["peel-high"]


def test_symmetric_regular_graph_needs_no_certificate():
    """K6xK6 (36 vertices, 10-regular) is decided by its X witness before
    any canonical certificate."""
    code = (
        "from hfree import classify as CL, graphs as G\n"
        "rook = G.from_edges(36, [(a, b) for a in range(36)"
        " for b in range(a + 1, 36) if a // 6 == b // 6 or a % 6 == b % 6])\n"
        "print(*[CL.classify(rook, p).status for p in CL.PROBLEMS])\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.stdout.split() == ["Incompressible"] * 3, out.stderr
