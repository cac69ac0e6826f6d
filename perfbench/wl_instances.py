"""instance_verify: concrete instances through the reductions, the solvers
and the gadget checks.

- reduce_verify_s: execute_step on every distinct chain step reached from
  the catalogue verdicts whose source has at most 7 vertices, plus the six
  ROADMAP criterion-5 rules, each on seeded random source graphs with 4-7
  vertices (edge densities stratified) and k in {0, 1}; answer
  preservation is checked with solve on both sides.
- solve_oracle_s: a seeded solve-versus-solve_exhaustive probe, plus a
  fixed edit-mode k = 3 block that includes the named repro.
- gadgets_s: the gadget table as `hfree verify-gadgets --n-host 6` runs
  it, plus the three mutation controls of ROADMAP criterion 6.

Here the induced-subgraph search looks for one copy in a large built graph,
where classify_zoo asks whether a small graph is free of H.
"""

from __future__ import annotations

import random

import checks as K
import oracles as O

SOURCE_MAX = 7
# Builds above this many vertices are dropped when inputs are generated, on
# top of the program's own 64-vertex cap: solve's H-freeness search on a
# built graph of 20-64 vertices takes from about a second to well over a
# minute per instance, which no repeatable round can hold.
BUILD_CAP = 16
PROBE_PER_CELL = 60
# Edit mode with k = 3 is where solve's repeated-flip fault lives. Drawn
# from --seed, its failures would differ from seed to seed, so this cell is
# a fixed block drawn from a constant seed: the same instances, and the same
# failures, in every run.
FIXED_SEED = 0
FIXED_BLOCK = 100
REPRO = ("FXIlW", "C^", 3, "edit")
# Edge densities of the step slots, taken in turn. A handful of
# module-shrink slots with 12-16-vertex builds take most of the phase, and
# their cost follows the source graph's density; drawn uniformly, it made
# reduce_verify_s differ by up to 45% from seed to seed. Stratified, the
# seed still places every edge but no longer picks the density mix.
SLOT_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
PHASES = ("reduce_verify_s", "solve_oracle_s", "gadgets_s")


def _random_rows(rng: random.Random, n: int, p: float | None = None) -> list[int]:
    """A random graph on n vertices with edge probability p (drawn
    uniformly when not given)."""
    if p is None:
        p = rng.random()
    return O.edges_to_rows(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _criterion5_sources(hf):
    G, C = hf["graphs"], hf["catalogue"]
    return [
        ("biclique-shrink", C.lookup("S1").graph),
        ("module-shrink", G.star_graph(5)),
        ("module-shrink", G.join(G.complete_graph(2), G.empty_graph(4))),
        ("isolated-drop", G.disjoint_union(G.star_graph(3), G.empty_graph(2))),
        ("clique-tail-drop", G.disjoint_union(G.complete_graph(4), G.complete_graph(2))),
        ("largest-component", G.disjoint_union(G.star_graph(4), G.complete_graph(2))),
    ]


def chain_steps(hf) -> list:
    """Distinct steps of the catalogue verdict chains, in a fixed order."""
    G, C, CL = hf["graphs"], hf["catalogue"], hf["classify"]
    steps = {}
    for gid in C.all_ids():
        base = C.lookup(gid).graph
        for g in (base, G.complement(base)):
            for p in CL.PROBLEMS:
                for st in CL.classify(g, p).chain:
                    if st.source_h.n <= SOURCE_MAX:
                        key = (st.construction, st.rule, st.complemented,
                               G.to_graph6(st.source_h), G.to_graph6(st.target_h))
                        steps.setdefault(key, st)
    out = list(steps.values())
    out += [hf["reductions"].make_step(rule, src, False) for rule, src in _criterion5_sources(hf)]
    return out


def _probe_instance(hf, rng, k, mode):
    G, S = hf["graphs"], hf["solver"]
    n = rng.randrange(5, 8)
    g = G.SmallGraph(n, _random_rows(rng, n))
    while True:
        hn = rng.randrange(3, 6)
        h = G.SmallGraph(hn, _random_rows(rng, hn))
        if h.edge_count():
            return S.EditInstance(g, k, mode), h


def setup(hf, seed: int) -> dict:
    G, R, S = hf["graphs"], hf["reductions"], hf["solver"]
    rng = random.Random(seed)
    slots, over_program_cap, over_bench_cap = [], 0, 0
    for i, step in enumerate(chain_steps(hf)):
        for n in range(4, 8):
            for k in (0, 1):
                # a Complement step keeps the instance's mode, which answers
                # the same question only for editing
                mode = "edit" if step.construction == "Complement" else S.MODES[(i + n + k) % 3]
                # built sizes depend on n and k only, so an edgeless probe
                # tells which slots to drop without drawing from the seed
                try:
                    size = R.execute_step(step, S.EditInstance(G.empty_graph(n), k, mode)).g.n
                except R.CapExceeded:
                    over_program_cap += 1
                    continue
                if size > BUILD_CAP:
                    over_bench_cap += 1
                    continue
                p = SLOT_DENSITIES[len(slots) % len(SLOT_DENSITIES)]
                slots.append((step, S.EditInstance(G.SmallGraph(n, _random_rows(rng, n, p)), k, mode)))

    probe = []
    for mode in S.MODES:
        for k in range(4):
            if (mode, k) != ("edit", 3):
                probe += [_probe_instance(hf, rng, k, mode) for _ in range(PROBE_PER_CELL)]
    fixed = random.Random(FIXED_SEED)
    probe += [_probe_instance(hf, fixed, 3, "edit") for _ in range(FIXED_BLOCK)]
    g6, h6, k, mode = REPRO
    probe.append((S.EditInstance(G.from_graph6(g6), k, mode), G.from_graph6(h6)))
    return {
        "hf": hf,
        "slots": slots,
        "probe": probe,
        "dropped": {"over_64_cap": over_program_cap, "over_bench_cap": over_bench_cap},
    }


def _execute_and_solve(hf, step, inst):
    R, S = hf["reductions"], hf["solver"]
    built = R.execute_step(step, inst)
    return built, S.solve(inst, step.target_h), S.solve(built, step.source_h, max_n=64)


def _both_solvers(hf, inst, h):
    S = hf["solver"]
    return S.solve(inst, h), S.solve_exhaustive(inst, h)


def _gadget_entry(GD, gadget, row, mode, role, n_host=6):
    """One row of `hfree verify-gadgets`, decided the way the CLI does."""
    entry = {"row": row, "mode": mode, "role": role}
    if role == "SComponent":
        try:
            GD.verify_s_component(gadget)
            entry["ok"] = True
        except GD.GadgetError:
            entry["ok"] = False
    elif role == "BasicUnit":
        tc = GD.build_truth_setting(gadget)
        entry["allowed"] = len(tc.allowed)
        if len(tc.allowed) <= 21 and tc.graph.n <= 50:
            entry["ok"] = GD.verify_truth_setting(tc, GD.host_graph(row), mode)
            entry["method"] = "exhaustive"
        else:
            entry["ok"] = GD.verify_truth_setting_weak(tc, GD.host_graph(row))
            entry["method"] = "weak"
    else:
        entry["ok"] = GD.verify_enforcer(gadget, n_host=n_host)["ok"]
    return entry


def _control_s_component(G, GD):
    sc = GD.table_gadget("co-A1", "delete", "SComponent")
    flip = next(p for p in sc.graph.edges() if p not in sc.allowed)
    broken = GD.Gadget(G.delete_edge(sc.graph, *flip), "SComponent", "delete", sc.allowed, sc.h)
    try:
        GD.verify_s_component(broken)
    except GD.GadgetError:
        return True
    return False


def _control_basic_unit(G, GD):
    unit = GD.table_gadget("co-A1", "delete", "BasicUnit")
    flip = next(p for p in unit.graph.edges() if p not in unit.allowed)
    broken = GD.Gadget(G.delete_edge(unit.graph, *flip), "BasicUnit", "delete", unit.allowed, unit.h)
    tc = GD.build_truth_setting(broken, p=2)
    return not GD.verify_truth_setting(tc, GD.host_graph("co-A1"), "delete")


def _control_enforcer(G, GD):
    host = GD.host_graph("co-A1")
    for u, v in sorted(host.edges()):
        cand = GD.Gadget(G.delete_edge(host, u, v), "Enforcer", "complete", ((u, v),), "co-A1")
        rep = GD.verify_enforcer(cand, n_host=5)
        if rep["layers"]["exact"]["ok"] and not rep["ok"]:
            return True
    return False


def run(st: dict, r) -> None:
    hf = st["hf"]
    G, GD = hf["graphs"], hf["gadgets"]
    built_vertices = 0
    with r.tr.span("bench.reduce_verify"):
        for step, inst in st["slots"]:
            res = r.op("reduce_verify_s", _execute_and_solve, hf, step, inst)
            if res is None:
                continue
            built, a, b = res
            built_vertices += built.g.n
            what = f"{step.rule} on {G.to_graph6(inst.g)} k={inst.k} {inst.mode}"
            r.expect(K.agreement_problems(what, a, b), "execute_step")
            r.expect(K.solution_problems(inst, step.target_h, a), f"{what} target side")
            r.expect(K.solution_problems(built, step.source_h, b), f"{what} built side")
    with r.tr.span("bench.solve_oracle"):
        for inst, h in st["probe"]:
            res = r.op("solve_oracle_s", _both_solvers, hf, inst, h)
            if res is None:
                continue
            a, b = res
            what = f"{G.to_graph6(inst.g)}/{G.to_graph6(h)} k={inst.k} {inst.mode}"
            r.expect(K.agreement_problems(what, a, b), "solve vs exhaustive")
            r.expect(K.solution_problems(inst, h, a), f"{what} solve")
            r.expect(K.solution_problems(inst, h, b), f"{what} exhaustive")
    entries = []
    with r.tr.span("bench.gadgets"):
        for row in GD.table_rows():
            for mode in ("delete", "complete"):
                for role in ("SComponent", "BasicUnit", "Enforcer"):
                    gadget = GD.table_gadget(row, mode, role)
                    if gadget is not None:
                        entries.append(r.op("gadgets_s", _gadget_entry, GD, gadget, row, mode, role))
        caught = {
            name: r.op("gadgets_s", fn, G, GD)
            for name, fn in (
                ("SComponent", _control_s_component),
                ("BasicUnit", _control_basic_unit),
                ("Enforcer", _control_enforcer),
            )
        }
    r.expect(K.gadget_problems([e for e in entries if e is not None]), "gadgets")
    named = [e for e in entries if e and (e["row"], e["mode"], e["role"]) == ("co-A1", "delete", "BasicUnit")]
    if not named or named[0].get("method") != "exhaustive" or named[0].get("allowed") != 15:
        r.expect(["co-A1 truth setting did not run as the exhaustive 2^15 check"], "gadgets")
    r.expect(K.control_problems(caught), "gadgets")
    r.facts["built_vertices"] = built_vertices
    r.facts["slots"] = len(st["slots"])
    r.facts.update(st["dropped"])
