"""Correctness checks on the program's outputs.

Each function returns a list of problems (empty when the output is right)
and compares against ``oracles`` or against properties stated in ROADMAP
and the source paper, never against a stored copy of the program's
earlier output. selfcheck.py feeds each one a sabotaged output to show it
can fail. No check uses ``assert``, so ``python -O`` cannot hide one.
"""

from __future__ import annotations

import oracles as O

PROBLEMS = ("editing", "deletion", "completion")
H_SERIES = tuple(f"H{i}" for i in range(1, 10))
# the deletion open cases: H1..H9, their complements and D1, D2
OPEN_DELETION = H_SERIES + tuple(f"co-{h}" for h in H_SERIES) + ("D1", "D2")
FORBIDDEN_CELLS = ("empty|complete", "near-empty|complete")


# -- enumerate_check -------------------------------------------------------------------


def level_problems(n: int, level, polya: dict[int, int]) -> list[str]:
    """One graph per isomorphism class on n vertices: right vertex count,
    Pólya class counts for every edge count, and no two isomorphic."""
    out = []
    if level is None:
        return [f"level {n} missing"]
    hist: dict[int, int] = {}
    for g in level:
        if g.n != n:
            out.append(f"level {n} holds a graph on {g.n} vertices")
            break
        m = O.edge_count(g)
        hist[m] = hist.get(m, 0) + 1
    for m in sorted(set(hist) | set(polya)):
        if hist.get(m, 0) != polya.get(m, 0):
            out.append(f"n={n} m={m}: {hist.get(m, 0)} graphs, Polya count {polya.get(m, 0)}")
    pairs = O.isomorphic_pairs(level)
    if pairs:
        out.append(f"n={n}: {len(pairs)} isomorphic pairs, first {pairs[0]}")
    return out


def case_lemmas_problems(report, totals: dict[int, int]) -> list[str]:
    if report is None:
        return ["case_lemmas report missing"]
    out = []
    if report.get("ok") is not True:
        out.append("case_lemmas not ok")
    if report.get("counterexamples"):
        out.append(f"{len(report['counterexamples'])} case-lemma counterexamples")
    cells = report.get("cells", {})
    if not cells:
        out.append("no case-table cells reported")
    for cell in FORBIDDEN_CELLS:
        if cell in cells:
            out.append(f"cell {cell} present")
    for key, cell in cells.items():
        if cell.get("counterexamples"):
            out.append(f"cell {key} has counterexamples")
    for n, want in totals.items():
        got = report.get("per_n", {}).get(n, {}).get("graphs")
        if got != want:
            out.append(f"case_lemmas checked {got} graphs at n={n}, expected {want}")
    return out


def regular_tail_problems(report, expected) -> list[str]:
    """The exceptions are exactly the expected graphs, up to isomorphism."""
    if report is None:
        return ["regular_tail report missing"]
    got = [O.parse_graph6(s) for s in report.get("exceptions", [])]
    out = []
    if len(got) != len(expected):
        out.append(f"{len(got)} regular-tail exceptions, expected {len(expected)}")
    for want in expected:
        if sum(O.isomorphic(g, want) for g in got) != 1:
            out.append("an expected regular-tail exception is missing or repeated")
    return out


# -- classify_zoo ----------------------------------------------------------------------


def expected_verdicts(label: str, g, claws) -> dict[str, tuple[str, str | None]]:
    """problem -> (status, member or None) that the paper's dichotomy fixes
    for this input, judged from its label and its own structure."""
    co = O.complement(g)
    want: dict[str, tuple[str, str | None]] = {}
    if O.is_trivial(g):
        return {p: ("PolyKernel", None) for p in PROBLEMS}
    if any(O.isomorphic(g, c) for c in claws):
        return {p: ("ClawExcluded", None) for p in PROBLEMS}
    if (
        (g.n >= 4 and (O.is_cycle(g) or O.is_cycle(co)))
        or (g.n >= 5 and (O.is_path(g) or O.is_path(co)))
        or O.is_regular(g)
    ):
        return {p: ("Incompressible", None) for p in PROBLEMS}
    if label in H_SERIES:
        want["editing"] = ("OpenCatalogue", label)
    if label in OPEN_DELETION:
        want["deletion"] = ("OpenCatalogue", None)
    return want


def verdict_problems(label: str, verdicts: dict, want) -> list[str]:
    out = []
    for p in PROBLEMS:
        v = verdicts.get(p)
        if v is None:
            continue
        if v.status == "Unclassified":
            out.append(f"{label} {p}: Unclassified")
        if p in want:
            status, member = want[p]
            if v.status != status or (member is not None and v.member != member):
                out.append(f"{label} {p}: {v.status}/{v.member}, expected {status}/{member}")
    return out


def open_deletion_problems(graphs) -> list[str]:
    """The deletion open cases form 19 distinct isomorphism classes."""
    distinct = []
    for g in graphs:
        if not any(O.isomorphic(g, d) for d in distinct):
            distinct.append(g)
    return [] if len(distinct) == 19 else [f"{len(distinct)} deletion open classes, expected 19"]


def chain_problems(source, steps) -> list[str]:
    """The chain starts at the input and consecutive steps connect: each
    step's target is isomorphic to the next step's source."""
    if not steps:
        return []
    out = []
    if not O.isomorphic(steps[0].source_h, source):
        out.append("first step does not start at the input")
    for i in range(len(steps) - 1):
        if not O.isomorphic(steps[i].target_h, steps[i + 1].source_h):
            out.append(f"steps {i} and {i + 1} do not connect")
    return out


def duality_problems(label: str, verdicts: dict, co_verdicts: dict) -> list[str]:
    """completion(g) ~ deletion(co-g) and editing(g) ~ editing(co-g)."""
    out = []
    for p, q in (("completion", "deletion"), ("editing", "editing")):
        a, b = verdicts.get(p), co_verdicts.get(q)
        if a is not None and b is not None and a.status != b.status:
            out.append(f"{label}: {p} {a.status} but complement {q} {b.status}")
    return out


def relabel_problems(label: str, cold: dict, warm: dict) -> list[str]:
    """A fresh relabelling gives the same statuses and members."""
    out = []
    for p in PROBLEMS:
        a, b = cold.get(p), warm.get(p)
        if a is not None and b is not None and (a.status, a.member) != (b.status, b.member):
            out.append(f"{label} {p}: cold {a.status}/{a.member}, warm {b.status}/{b.member}")
    return out


# -- instance_verify -------------------------------------------------------------------


def solution_problems(inst, h, sol) -> list[str]:
    """A returned solution: a feasible answer must carry a valid witness."""
    if sol is None:
        return []
    if not sol.feasible:
        return [] if not sol.witness else ["infeasible answer with a witness"]
    return O.witness_problems(inst.g, h, inst.k, inst.mode, sol.witness)


def agreement_problems(what: str, a, b) -> list[str]:
    if a is None or b is None:
        return []
    if a.feasible != b.feasible:
        return [f"{what}: feasibility {a.feasible} vs {b.feasible}"]
    return []


def gadget_problems(entries) -> list[str]:
    return [f"gadget {e['row']}/{e['mode']}/{e['role']} failed" for e in entries if e["ok"] is not True]


def control_problems(caught: dict[str, bool]) -> list[str]:
    return [f"mutation control {name} not caught" for name, ok in caught.items() if ok is not True]
