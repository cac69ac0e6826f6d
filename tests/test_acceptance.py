"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (also echoed in the terminal summary)."""

import itertools
import os
import time

import pytest

from conftest import record_acceptance
from iso_oracle import count_labeled_dedup
from hfree import catalogue as C
from hfree import classify as CL
from hfree import enumeration as E
from hfree import gadgets as GD
from hfree import graphs as G
from hfree import membership as M
from hfree import reductions as R
from hfree import solver as S

WORKERS = int(os.environ.get("HFA_WORKERS", "4"))


def _check(name, ok, detail=""):
    record_acceptance(name, bool(ok), detail)
    assert ok, f"{name}: {detail}"


def test_criterion_1_case_lemmas_desk_scale(tmp_path):
    """Zero counterexamples to the peel-type case analysis up to nine
    vertices, within the fifteen-minute budget; the campaign saw all
    274 668 graphs on nine vertices."""
    t0 = time.time()
    cfg = E.EnumConfig(n_max=9, workers=WORKERS,
                       checkpoint_path=str(tmp_path / "ckpt"))
    rep = E.run_search_campaign(cfg, "case_lemmas")
    wall = time.time() - t0
    ok = (
        rep["ok"]
        and not rep["counterexamples"]
        and rep["per_n"][9]["graphs"] == E.KNOWN_COUNTS[8]
        and "empty|complete" not in rep["cells"]
        and "near-empty|complete" not in rep["cells"]
        and all(c["counterexamples"] == 0 for c in rep["cells"].values())
        and wall <= 15 * 60
    )
    _check(
        "1 case-lemmas n<=9",
        ok,
        f"{rep['checked']} graphs, {len(rep['cells'])} cells, {wall:.0f}s",
    )


def test_criterion_2_regular_tail():
    rep = E.run_search_campaign(E.EnumConfig(n_max=8, workers=WORKERS),
                                "regular_tail")
    got = {G.canonical_cert(G.from_graph6(s)) for s in rep["exceptions"]}
    want = {
        G.canonical_cert(G.from_edges(4, [(0, 1), (2, 3)])),
        G.canonical_cert(G.cycle_graph(4)),
        G.canonical_cert(G.cycle_graph(5)),
    }
    _check("2 regular-tail n<=8", got == want,
           f"exceptions={sorted(rep['exceptions'])}")


def test_criterion_3_enumeration_counts():
    counts = [len(E.graphs_on(n, workers=WORKERS)) for n in range(1, 9)]
    expected = [1, 2, 4, 11, 34, 156, 1044, 12346]
    oracle = [count_labeled_dedup(n) for n in range(1, 8)]
    ok = counts == expected and oracle == expected[:7]
    _check("3 enumeration counts n=1..8", ok,
           f"counts={counts}, oracle(n<=7)={oracle}")


def test_criterion_4_verdict_table():
    mismatches = []

    def expect(g, problem, status, label):
        v = CL.classify(g, problem)
        if v.status != status:
            mismatches.append((label, problem, v.status, v.reason))

    for problem in CL.PROBLEMS:
        for t in range(1, 8):
            expect(G.complete_graph(t), problem, "PolyKernel", f"K{t}")
            expect(G.empty_graph(t), problem, "PolyKernel", f"empty{t}")
        for name in ("P3", "co-P3", "P4", "paw", "co-paw", "diamond",
                     "co-diamond"):
            expect(C.lookup(name).graph, problem, "PolyKernel", name)
        for name in ("claw", "co-claw"):
            expect(C.lookup(name).graph, problem, "ClawExcluded", name)
        for ell in range(4, 10):
            expect(G.cycle_graph(ell), problem, "Incompressible", f"C{ell}")
            expect(G.complement(G.cycle_graph(ell)), problem,
                   "Incompressible", f"co-C{ell}")
        for ell in range(5, 10):
            expect(G.path_graph(ell), problem, "Incompressible", f"P{ell}")
            expect(G.complement(G.path_graph(ell)), problem,
                   "Incompressible", f"co-P{ell}")
    for n in range(2, 9):
        for g in E.graphs_on(n):
            if G.is_regular(g) and not G.is_complete(g) and not G.is_empty(g):
                for problem in CL.PROBLEMS:
                    expect(g, problem, "Incompressible",
                           f"regular:{G.to_graph6(g)}")
    for n in range(5, 10):
        expect(G.from_edges(n, [(0, 1)]), "editing", "Incompressible",
               f"one-edge-{n}")
    for i in range(1, 10):
        g = C.lookup(f"H{i}").graph
        v = CL.classify(g, "editing")
        if v.status != "OpenCatalogue" or v.member != f"H{i}":
            mismatches.append((f"H{i}", "editing", v.status, v.member))
    hd = (
        [C.lookup(f"H{i}").graph for i in range(1, 10)]
        + [G.complement(C.lookup(f"H{i}").graph) for i in range(1, 9)]
        + [C.lookup("D1").graph, C.lookup("D2").graph]
    )
    assert len(hd) == 19
    assert len({G.canonical_cert(g) for g in hd}) == 19
    for g in hd:
        v = CL.classify(g, "deletion")
        if v.status != "OpenCatalogue":
            mismatches.append((G.to_graph6(g), "deletion", v.status, v.member))
    _check("4 verdict table", not mismatches, f"mismatches={mismatches[:4]}")


def test_criterion_5_ppt_equivalence_suite():
    t0 = time.time()
    k23 = C.lookup("S1").graph
    cases = [
        ("biclique-shrink", k23),
        ("module-shrink", G.star_graph(5)),
        ("module-shrink", G.join(G.complete_graph(2), G.empty_graph(4))),
        ("isolated-drop", G.disjoint_union(G.star_graph(3), G.empty_graph(2))),
        ("clique-tail-drop",
         G.disjoint_union(G.complete_graph(4), G.complete_graph(2))),
        ("largest-component",
         G.disjoint_union(G.star_graph(4), G.complete_graph(2))),
    ]
    sources = [g for n in range(1, 5) for g in E.graphs_on(n)]
    bad = []
    for rule, src in cases:
        step = R.make_step(rule, src, False)
        for gp in sources:
            for k in (0, 1):
                for mode in S.MODES:
                    inst = S.EditInstance(gp, k, mode)
                    built = R.execute_step(step, inst)
                    a = S.solve(inst, step.target_h).feasible
                    b = S.solve(built, src, max_n=64).feasible
                    if a != b:
                        bad.append((rule, G.to_graph6(gp), k, mode))
    wall = time.time() - t0
    _check("5 PPT equivalence suite", not bad and wall <= 300,
           f"{len(cases)} reductions x {len(sources)} sources, {wall:.0f}s")


def test_criterion_6_gadget_suite():
    t0 = time.time()
    failures = []
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            for role in GD.ROLES:
                entry = GD.verify_row(row, mode, role, n_host=6)
                if entry is not None and not entry["ok"]:
                    detail = entry.get("error") or entry.get("layers") or "verify failed"
                    failures.append((row, mode, role, detail))
    # the named exhaustive run: 2^15 subsets for the five-vertex host
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    tc = GD.build_truth_setting(unit)
    assert len(tc.allowed) == 15
    if not GD.verify_truth_setting(tc, GD.host_graph("co-A1"), "delete"):
        failures.append(("co-A1", "delete", "BasicUnit", "2^15 check"))
    # mutation controls: one sabotaged gadget per role must fail
    sc = GD.table_gadget("co-A1", "delete", "SComponent")
    flip = next(p for p in sc.graph.edges() if p not in sc.allowed)
    broken_sc = GD.Gadget(G.delete_edge(sc.graph, *flip), "SComponent",
                          "delete", sc.allowed, sc.h)
    try:
        GD.verify_s_component(broken_sc)
        failures.append(("control", "delete", "SComponent", "not caught"))
    except GD.GadgetError:
        pass
    flip = next(p for p in unit.graph.edges() if p not in unit.allowed)
    broken_bu = GD.Gadget(G.delete_edge(unit.graph, *flip), "BasicUnit",
                          "delete", unit.allowed, unit.h)
    if GD.verify_truth_setting(
        GD.build_truth_setting(broken_bu, p=2), GD.host_graph("co-A1"),
        "delete",
    ):
        failures.append(("control", "delete", "BasicUnit", "not caught"))
    host = GD.host_graph("co-A1")
    caught = False
    for u, v in sorted(host.edges()):
        cand = GD.Gadget(G.delete_edge(host, u, v), "Enforcer", "complete",
                         ((u, v),), "co-A1")
        rep = GD.verify_enforcer(cand, n_host=5)
        if rep["layers"]["exact"]["ok"] and not rep["ok"]:
            caught = True
            break
    if not caught:
        failures.append(("control", "complete", "Enforcer", "not caught"))
    wall = time.time() - t0
    _check("6 gadget suite", not failures and wall <= 120,
           f"failures={failures[:3]}, {wall:.0f}s")


def test_criterion_7_duality_suite():
    violations = []
    for n in range(1, 8):
        for g in E.graphs_on(n):
            co = G.complement(g)
            if CL.classify(g, "deletion").status != CL.classify(
                co, "completion"
            ).status:
                violations.append(("del/comp", G.to_graph6(g)))
            if CL.classify(g, "editing").status != CL.classify(
                co, "editing"
            ).status:
                violations.append(("edit", G.to_graph6(g)))
    _check("7 duality suite n<=7", not violations,
           f"violations={violations[:4]}")


def test_criterion_8_solver_oracle_agreement():
    hs = [h for n in (3, 4) for h in E.graphs_on(n)]
    disagreements = []
    checked = 0
    for n in range(1, 6):
        for g in E.graphs_on(n):
            for h in hs:
                for k in range(3):
                    for mode in S.MODES:
                        inst = S.EditInstance(g, k, mode)
                        a = S.solve(inst, h).feasible
                        b = S.solve_exhaustive(inst, h).feasible
                        checked += 1
                        if a != b:
                            disagreements.append(
                                (G.to_graph6(g), G.to_graph6(h), k, mode)
                            )
    _check("8 solver oracle agreement", not disagreements,
           f"{checked} instances")
