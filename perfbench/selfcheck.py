"""Shows that the benchmark's correctness checks are not vacuous.

Each check in checks.py first gets a real output of the program, which it
must accept, then sabotaged copies of that output, each of which it must
reject. Exit 0 when every check behaves so, 1 otherwise.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import dataclasses
import sys

import checks as K
import oracles as O
import wl_enumerate
from common import import_hfree


def main() -> int:
    hf = import_hfree()
    G, E, C, CL, R, S = (hf[m] for m in ("graphs", "enumeration", "catalogue", "classify", "reductions", "solver"))
    cases = []  # (check, what, problems, should_fail)

    def case(check, what, problems, should_fail=True):
        cases.append((check, what, problems, should_fail))

    # levels: Pólya counts and pairwise non-isomorphism
    polya = O.polya_counts(5)
    level = list(E.graphs_on(5))
    case("level", "real level 5", K.level_problems(5, level, polya), False)
    twin = G.relabel(level[7], list(reversed(range(5))))
    case("level", "one graph dropped, one duplicated", K.level_problems(5, level[:-1] + [twin], polya))
    # with equal edge counts, the Pólya counts still match: only the
    # pairwise isomorphism test can tell
    i, j = [k for k, g in enumerate(level) if g.edge_count() == 5][:2]
    same_m = [g for k, g in enumerate(level) if k != i] + [G.relabel(level[j], [1, 0, 2, 3, 4])]
    case("level", "same edge count dropped and duplicated", K.level_problems(5, same_m, polya))
    case("level", "one graph dropped", K.level_problems(5, level[1:], polya))

    # campaigns
    cfg = E.EnumConfig(n_max=6, workers=1)
    lemmas = E.run_search_campaign(cfg, "case_lemmas")
    totals = {5: 34, 6: 156}
    case("case_lemmas", "real report n<=6", K.case_lemmas_problems(lemmas, totals), False)
    case("case_lemmas", "forbidden cell present",
         K.case_lemmas_problems({**lemmas, "cells": {**lemmas["cells"], "empty|complete": {"graphs": 1, "counterexamples": 0}}}, totals))
    case("case_lemmas", "ok flipped", K.case_lemmas_problems({**lemmas, "ok": False}, totals))
    case("case_lemmas", "a graph skipped",
         K.case_lemmas_problems({**lemmas, "per_n": {**lemmas["per_n"], 6: {"graphs": 155, "hits": 0}}}, totals))
    tail = E.run_search_campaign(cfg, "regular_tail")
    want = wl_enumerate.setup(hf, 0)["tail"]
    case("regular_tail", "real report n<=6", K.regular_tail_problems(tail, want), False)
    case("regular_tail", "one exception dropped",
         K.regular_tail_problems({**tail, "exceptions": tail["exceptions"][1:]}, want))
    case("regular_tail", "C5 replaced by C6",
         K.regular_tail_problems({**tail, "exceptions": tail["exceptions"][:-1] + [G.to_graph6(G.cycle_graph(6))]}, want))

    # verdicts
    h3 = C.lookup("H3").graph
    claw = O.RowGraph(4, O.edges_to_rows(4, O.biclique_edges(1, 3)))
    claws = [claw, O.complement(claw)]
    verdicts = {p: CL.classify(h3, p) for p in K.PROBLEMS}
    wants = K.expected_verdicts("H3", h3, claws)
    case("verdict", "real H3 verdicts", K.verdict_problems("H3", verdicts, wants), False)
    flipped = {**verdicts, "editing": dataclasses.replace(verdicts["editing"], status="Incompressible")}
    case("verdict", "editing status flipped", K.verdict_problems("H3", flipped, wants))
    renamed = {**verdicts, "editing": dataclasses.replace(verdicts["editing"], member="H4")}
    case("verdict", "wrong open member", K.verdict_problems("H3", renamed, wants))
    c7 = G.cycle_graph(7)
    c7_verdicts = {p: CL.classify(c7, p) for p in K.PROBLEMS}
    c7_wants = K.expected_verdicts("C7", c7, claws)
    case("verdict", "real C7 verdicts", K.verdict_problems("C7", c7_verdicts, c7_wants), False)
    case("verdict", "C7 deletion made PolyKernel",
         K.verdict_problems("C7", {**c7_verdicts, "deletion": dataclasses.replace(c7_verdicts["deletion"], status="PolyKernel")}, c7_wants))
    case("verdict", "a verdict made Unclassified",
         K.verdict_problems("F3", {"deletion": dataclasses.replace(c7_verdicts["deletion"], status="Unclassified")}, {}))
    hd = [C.lookup(f"H{i}").graph for i in range(1, 10)]
    open_set = hd + [G.complement(g) for g in hd] + [C.lookup("D1").graph, C.lookup("D2").graph]
    case("open_deletion", "real deletion open cases", K.open_deletion_problems(open_set), False)
    case("open_deletion", "D2 replaced by D1", K.open_deletion_problems(open_set[:-1] + open_set[-2:-1]))

    # chains
    s15 = C.lookup("S15").graph
    chain = R.derive_chain(s15, "deletion")
    case("chain", f"real S15 chain ({len(chain)} steps)", K.chain_problems(s15, chain), False)
    broken = list(chain)
    broken[1] = dataclasses.replace(broken[1], source_h=G.complement(broken[1].source_h))
    case("chain", "broken link between steps 0 and 1", K.chain_problems(s15, broken))
    case("chain", "chain of another graph", K.chain_problems(C.lookup("S16").graph, chain))

    # duality and relabelling
    co_verdicts = {p: CL.classify(G.complement(h3), p) for p in K.PROBLEMS}
    case("duality", "real H3 / co-H3", K.duality_problems("H3", verdicts, co_verdicts), False)
    case("duality", "complement deletion flipped",
         K.duality_problems("H3", verdicts, {**co_verdicts, "deletion": dataclasses.replace(co_verdicts["deletion"], status="Incompressible")}))
    case("relabel", "real relabelled H3", K.relabel_problems(
        "H3", verdicts, {p: CL.classify(G.relabel(h3, [4, 3, 2, 1, 0]), p) for p in K.PROBLEMS}), False)
    case("relabel", "warm status differs",
         K.relabel_problems("H3", verdicts, {**verdicts, "deletion": dataclasses.replace(verdicts["deletion"], status="PolyKernel")}))

    # solver witnesses and agreement
    p4 = G.path_graph(4)
    inst = S.EditInstance(G.cycle_graph(6), 2, "delete")
    sol = S.solve(inst, p4)
    case("witness", "real solve witness", K.solution_problems(inst, p4, sol), False)
    case("witness", "witness that leaves an induced H",
         K.solution_problems(inst, p4, S.Solution(True, frozenset([next(iter(sol.witness))]))))
    case("witness", "witness over budget",
         K.solution_problems(inst, p4, S.Solution(True, frozenset(G.cycle_graph(6).edges()))))
    case("witness", "delete-mode witness adds an edge",
         K.solution_problems(inst, p4, S.Solution(True, sol.witness | {(0, 3)})))
    exact = S.solve_exhaustive(inst, p4)
    case("agreement", "real solve vs exhaustive", K.agreement_problems("C6/P4", sol, exact), False)
    case("agreement", "feasibility flipped", K.agreement_problems("C6/P4", sol, S.Solution(False)))

    # gadgets
    case("gadgets", "all rows ok", K.gadget_problems([{"row": "A3", "mode": "delete", "role": "Enforcer", "ok": True}]), False)
    case("gadgets", "a row failed", K.gadget_problems([{"row": "A3", "mode": "delete", "role": "Enforcer", "ok": False}]))
    case("gadgets", "a control not caught", K.control_problems({"SComponent": True, "Enforcer": False}))

    bad = 0
    for check, what, problems, should_fail in cases:
        ok = bool(problems) == should_fail
        bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {check:<14} {what:<44} {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} self-check cases behave as required")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
