"""enumerate_check: cold graphs_on(n) for n = 1..8, then the case_lemmas and
regular_tail campaigns (n_max=8, one worker) over the cached levels.

This is ROADMAP criterion 1 scaled to a repeatable length. Canonical
certificates inside graphs_on take about 90% of it, so labelling and
generation changes show here. The seed changes nothing: the levels are
fixed by n.
"""

from __future__ import annotations

import checks as K
import oracles as O

N_MAX = 8
PHASES = ("verify_s",)


def setup(hf, seed: int) -> dict:
    del seed
    polya = {n: O.polya_counts(n) for n in range(1, N_MAX + 1)}
    tail = [
        O.RowGraph(4, O.edges_to_rows(4, [(0, 1), (2, 3)])),  # 2K2
        O.RowGraph(4, O.edges_to_rows(4, O.cycle_edges(4))),
        O.RowGraph(5, O.edges_to_rows(5, O.cycle_edges(5))),
    ]
    return {"hf": hf, "polya": polya, "tail": tail}


def run(st: dict, r) -> None:
    E = st["hf"]["enumeration"]
    cfg = E.EnumConfig(n_max=N_MAX, workers=1)
    levels = {}
    with r.tr.span("bench.levels"):
        for n in range(1, N_MAX + 1):
            levels[n] = r.op("verify_s", E.graphs_on, n)
    with r.tr.span("bench.case_lemmas"):
        lemmas = r.op("verify_s", E.run_search_campaign, cfg, "case_lemmas")
    with r.tr.span("bench.regular_tail"):
        tail = r.op("verify_s", E.run_search_campaign, cfg, "regular_tail")

    polya = st["polya"]
    for n in range(1, N_MAX + 1):
        r.expect(K.level_problems(n, levels[n], polya[n]), "graphs_on")
    totals = {n: sum(polya[n].values()) for n in range(5, N_MAX + 1)}
    r.expect(K.case_lemmas_problems(lemmas, totals), "case_lemmas")
    r.expect(K.regular_tail_problems(tail, st["tail"]), "regular_tail")
    r.facts["classes"] = sum(len(lv) for lv in levels.values() if lv)
    r.facts["case_lemmas_graphs"] = lemmas["checked"] if lemmas else 0
    r.facts["regular_tail_graphs"] = tail["checked"] if tail else 0
