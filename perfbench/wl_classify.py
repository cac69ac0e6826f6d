"""classify_zoo: classify on all three problems, then derive_chain
(deletion), over three input groups under a seeded random relabelling,
then a warm pass over fresh relabellings of the same inputs.

Groups: every catalogue entry and its complement; family members F1..F10
from their minimum t to tmin + FAMILY_SPAN; a symmetric set built here.
This exercises churning, catalogue and family recognition, the rules'
target computations and memo keys, and uses canonical_cert on large
symmetric graphs rather than many small asymmetric ones. K6 box K6 under
editing runs in a child process under a deadline, outside every phase.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import checks as K
import oracles as O
from common import ROOT, child_env

# F9/F10 at t = tmin + 8 have 15 vertices; their unique_degree2_path search
# (exponential in the degree-2 vertices) is then a clear share of the pass
# without dominating it.
FAMILY_SPAN = 8
DEADLINE_S = 2.0
GROUPS = ("catalogue", "families", "symmetric")
PHASES = ("classify_s", "chain_s", "classify_warm_s")
YPRIME = ("P3", "co-P3", "P4", "claw", "co-claw", "paw", "co-paw", "diamond", "co-diamond")


def _symmetric():
    """(label, n, edges, also add the complement)."""
    k4 = O.complete_edges(4)
    c5 = O.cycle_edges(5)
    out = [
        ("Petersen", 10, O.petersen_edges(), False),
        ("Paley13", 13, O.paley_edges(13), False),
        ("Paley17", 17, O.paley_edges(17), False),
        ("Q4", 16, O.hypercube_edges(4), False),
        ("K4xK4", 16, O.cartesian_edges(4, k4, 4, k4), False),
        ("C5xC5", 25, O.cartesian_edges(5, c5, 5, c5), False),
        ("K8,8", 16, O.biclique_edges(8, 8), False),
    ]
    out += [(f"C{n}", n, O.cycle_edges(n), True) for n in range(4, 21)]
    out += [(f"P{n}", n, O.path_edges(n), True) for n in range(5, 21)]
    return out


def rook66(rng) -> tuple[int, list[int]]:
    """K6 box K6 (36 vertices, 10-regular) under a seeded relabelling."""
    k6 = O.complete_edges(6)
    rows = O.edges_to_rows(36, O.cartesian_edges(6, k6, 6, k6))
    perm = list(range(36))
    rng.shuffle(perm)
    return 36, O.permuted_rows(36, rows, perm)


def setup(hf, seed: int) -> dict:
    G, C = hf["graphs"], hf["catalogue"]
    inputs: list[dict] = []
    pairs: list[tuple[int, int]] = []

    def add(group, label, n, rows):
        inputs.append({"group": group, "label": label, "plain": O.RowGraph(n, rows)})
        return len(inputs) - 1

    def add_pair(group, label, n, rows):
        i = add(group, label, n, rows)
        j = add(group, f"co-{label}", n, O.complement_rows(n, rows))
        pairs.append((i, j))

    for gid in C.all_ids():
        g = C.lookup(gid).graph
        add_pair("catalogue", gid, g.n, g.rows)
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, tmin + FAMILY_SPAN + 1):
            g = C.generate_family(C.FamilyId(fam, t))
            add("families", f"{fam}(t={t})", g.n, g.rows)
    for label, n, edges, with_complement in _symmetric():
        (add_pair if with_complement else add)("symmetric", label, n, O.edges_to_rows(n, edges))

    rng = random.Random(seed)
    for inp in inputs:
        n, rows = inp["plain"].n, inp["plain"].rows
        for key in ("cold", "warm"):
            perm = list(range(n))
            rng.shuffle(perm)
            inp[key] = G.SmallGraph(n, O.permuted_rows(n, rows, perm))

    claw = O.RowGraph(4, O.edges_to_rows(4, O.biclique_edges(1, 3)))
    claws = [claw, O.complement(claw)]
    yprime = [C.lookup(name).graph for name in YPRIME]
    for inp in inputs:
        g = inp["plain"]
        inp["want"] = K.expected_verdicts(inp["label"], g, claws)
        inp["chain"] = not O.is_trivial(g) and not any(O.isomorphic(g, y) for y in yprime)
    return {
        "hf": hf,
        "inputs": inputs,
        "pairs": pairs,
        "rook66": rook66(rng),
        "open_deletion": [i["plain"] for i in inputs if i["label"] in K.OPEN_DELETION],
    }


def classify_in_child(n: int, rows: list[int]) -> str:
    """classify(g, "editing") in a fresh process, killed after DEADLINE_S."""
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "round.py"), "--classify-editing", json.dumps([n, rows])],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=DEADLINE_S,
        )
    except subprocess.TimeoutExpired:
        raise TimeoutError(f"classify(K6xK6, editing) gave no verdict within {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-300:])
    return proc.stdout.strip()


def _pass(st, r, key, phase):
    CL = st["hf"]["classify"]
    verdicts = [{} for _ in st["inputs"]]
    for group in GROUPS:
        with r.tr.span(f"bench.{key}.{group}"):
            for i, inp in enumerate(st["inputs"]):
                if inp["group"] != group:
                    continue
                for p in K.PROBLEMS:
                    verdicts[i][p] = r.op(phase, CL.classify, inp[key], p)
    return verdicts


def run(st: dict, r) -> None:
    R = st["hf"]["reductions"]
    inputs = st["inputs"]
    with r.tr.span("bench.cold"):
        cold = _pass(st, r, "cold", "classify_s")
    chains = {}
    with r.tr.span("bench.chain"):
        for i, inp in enumerate(inputs):
            if inp["chain"]:
                chains[i] = r.op("chain_s", R.derive_chain, inp["cold"], "deletion")
    with r.tr.span("bench.warm"):
        warm = _pass(st, r, "warm", "classify_warm_s")
    status = r.untimed_op(classify_in_child, *st["rook66"])
    if status is not None and status != "Incompressible":
        r.expect([f"K6xK6 editing gave {status}, expected Incompressible"])

    for i, inp in enumerate(inputs):
        label = inp["label"]
        r.expect(K.verdict_problems(label, cold[i], inp["want"]), "cold")
        r.expect(K.relabel_problems(label, cold[i], warm[i]), "warm")
        for p, v in cold[i].items():
            if v is not None:
                r.expect(K.chain_problems(inp["cold"], v.chain), f"{label} {p} verdict chain")
        if chains.get(i) is not None:
            r.expect(K.chain_problems(inp["cold"], chains[i]), f"{label} derive_chain")
    for i, j in st["pairs"]:
        r.expect(K.duality_problems(inputs[i]["label"], cold[i], cold[j]))
        r.expect(K.duality_problems(inputs[j]["label"], cold[j], cold[i]))
    r.expect(K.open_deletion_problems(st["open_deletion"]))
    r.facts["verdicts_per_pass"] = len(inputs) * len(K.PROBLEMS)
    r.facts["chain_graphs"] = len(chains)
