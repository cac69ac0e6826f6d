"""Construction size laws, chain-table integrity, instance equivalences."""

import hashlib
import itertools
import random

import pytest

from hfree import catalogue as C
from hfree import enumeration as E
from hfree import gadgets as GD
from hfree import graphs as G
from hfree import membership as M
from hfree import reductions as R
from hfree import solver as S
from iso_oracle import vertex_connectivity


def small_graphs(n_max):
    for n in range(1, n_max + 1):
        yield from E.graphs_on(n)


def edit(g, k):
    return S.EditInstance(g, k, "edit")


# -- size laws -----------------------------------------------------------------


def test_con_main_counts():
    p3 = G.path_graph(3)
    out = R.con_main(edit(G.complete_graph(2), 1), p3, [0, 2]).g
    # 2 ordered injections x 2 satellites x 1 vertex + 2 originals
    assert out.n == 6
    assert G.induced_subgraph(out, [0, 1]) == G.complete_graph(2)


def test_con_main_size_formula_random():
    import random

    rnd = random.Random(7)
    for _ in range(10):
        n = rnd.randint(2, 4)
        gp = E.graphs_on(n)[rnd.randrange(len(E.graphs_on(n)))]
        h = G.path_graph(3)
        vp = [0, 2]
        k = rnd.randint(0, 2)
        inj = n * (n - 1)
        out = R.con_main(edit(gp, k), h, vp).g
        assert out.n == gp.n + inj * (k + 1) * 1


def test_con_mod_counts():
    out = R.con_mod(edit(G.path_graph(3), 1), 1).g
    assert out.n == 3 + 3 * 2
    with pytest.raises(R.CapExceeded):
        R.con_mod(edit(G.complete_graph(10), 5), 2)


def test_con_near_uni_counts():
    out = R.con_near_uni(edit(G.complete_graph(3), 1), 1).g
    assert out.n == 3 + 3 * 3
    # every added set is independent and near-universal
    for v in range(3, out.n):
        assert out.degree(v) == 2


def test_union_clique():
    out = R.union_clique(edit(G.star_graph(3), 2)).g
    assert out.n == 7
    comps = sorted(G.components(out), key=len)
    assert G.is_complete(G.induced_subgraph(out, comps[0]))


def test_largest_component_reduction_counts():
    h = G.disjoint_union(G.complete_graph(4), G.complete_graph(2))
    inst = R.largest_component_reduction(edit(G.complete_graph(3), 0), h)
    # K_4 unique largest: no join stage; injections of 4 into 3 are empty
    assert inst.g.n == 3 and inst.k == 0
    with pytest.raises(R.PreconditionError):
        R.largest_component_reduction(edit(G.complete_graph(3), 0), G.path_graph(4))
    # the join of k+1 copies of K3 is refused before it is built
    two_k3 = G.disjoint_union(G.complete_graph(3), G.complete_graph(3))
    with pytest.raises(R.CapExceeded):
        R.largest_component_reduction(edit(G.path_graph(3), 10**6), two_k3)


@pytest.mark.parametrize("construction", ["ConMain", "ConMod", "ConNearUni",
                                          "UnionClique", "LargestComponent"])
def test_chain_builders_refuse_forbidden_pairs(construction):
    build, names = R.CONSTRUCTIONS[construction]
    params = {"h": G.disjoint_union(G.path_graph(3), G.path_graph(3)),
              "vprime": [0, 2], "ell": 1, "t": 1}
    inst = S.EditInstance(G.path_graph(3), 1, "delete", frozenset([(0, 1)]))
    with pytest.raises(R.PreconditionError, match="unrestricted"):
        build(inst, *(params[name] for name in names))


def test_original_graph_embeds_in_outputs():
    gp = G.cycle_graph(4)
    for out in (
        R.con_mod(edit(gp, 1), 2),
        R.con_near_uni(edit(gp, 1), 1),
        R.con_main(edit(gp, 1), G.path_graph(3), [0, 2]),
    ):
        assert G.induced_subgraph(out.g, range(4)) == gp


# -- backward soundness of the satellite construction ---------------------------


def test_con_main_backward_direction():
    """A solution of the built instance restricts to one of the base
    instance (checked per mode on tiny inputs)."""
    h = G.path_graph(3)
    vp = [0, 2]
    hprime = G.induced_subgraph(h, vp)
    for gp in small_graphs(3):
        for k in (1,):
            built = R.con_main(edit(gp, k), h, vp).g
            for mode in S.MODES:
                sol = S.solve(S.EditInstance(built, k, mode), h)
                if sol.feasible:
                    inner = frozenset(
                        p for p in sol.witness if max(p) < gp.n
                    )
                    patched = G.apply_flips(gp, inner)
                    assert G.is_free_of(patched, hprime)


# -- the designated equivalence suite -------------------------------------------


def _chain_case(rule, src):
    step = R.make_step(rule, src, False)
    return (rule, src, step.target_h, lambda inst: R.execute_step(step, inst))


def designated_cases():
    """The six named reductions of the equivalence suite."""
    out = []
    out.append(_chain_case("biclique-shrink", C.lookup("S1").graph))  # to C4
    out.append(_chain_case("module-shrink", G.star_graph(5)))  # K_{1,5} -> K_{1,4}
    out.append(
        _chain_case("module-shrink", G.join(G.complete_graph(2), G.empty_graph(4)))
    )
    claw2k1 = G.disjoint_union(G.star_graph(3), G.empty_graph(2))
    out.append(_chain_case("isolated-drop", claw2k1))  # to claw u K_1
    k4k2 = G.disjoint_union(G.complete_graph(4), G.complete_graph(2))
    out.append(_chain_case("clique-tail-drop", k4k2))  # to K_4 u K_1
    k14k2 = G.disjoint_union(G.star_graph(4), G.complete_graph(2))
    step_lc = R.make_step("largest-component", k14k2, False)
    out.append(
        (
            "largest-component",
            k14k2,
            step_lc.target_h,
            lambda inst: R.execute_step(step_lc, inst),
        )
    )
    return out


def test_designated_targets():
    cases = designated_cases()
    wanted = [
        G.cycle_graph(4),
        G.star_graph(4),
        G.join(G.complete_graph(2), G.empty_graph(3)),
        G.disjoint_union(G.star_graph(3), G.empty_graph(1)),
        G.disjoint_union(G.complete_graph(4), G.empty_graph(1)),
        G.star_graph(4),
    ]
    for (rule, src, tgt, _), want in zip(cases, wanted):
        assert G.are_isomorphic(tgt, want), rule


def test_equivalence_suite_small():
    """solve(source instance) == solve(built instance) over a reduced grid;
    the acceptance suite runs the full one."""
    for rule, src, tgt, build in designated_cases():
        for gp in small_graphs(3):
            for k in (0, 1):
                for mode in S.MODES:
                    inst = S.EditInstance(gp, k, mode)
                    built = build(inst)
                    a = S.solve(inst, tgt).feasible
                    b = S.solve(built, src, max_n=40).feasible
                    assert a == b, (rule, G.to_graph6(gp), k, mode)


def test_isolated_drop_nontrivial_at_five_vertices():
    """claw u 2K_1 to claw u K_1 on hosts that can actually contain the
    target."""
    claw2k1 = G.disjoint_union(G.star_graph(3), G.empty_graph(2))
    step = R.make_step("isolated-drop", claw2k1, False)
    tgt = step.target_h
    hits = 0
    for gp in E.graphs_on(5):
        for k in (0, 1):
            inst = S.EditInstance(gp, k, "delete")
            built = R.execute_step(step, inst)
            a = S.solve(inst, tgt).feasible
            b = S.solve(built, claw2k1, max_n=40).feasible
            assert a == b
            if not a:
                hits += 1
    assert hits > 0  # the grid exercises genuinely infeasible instances


def test_star_shrink_nontrivial_at_five_vertices():
    src = G.star_graph(5)
    step = R.make_step("module-shrink", src, False)
    hits = 0
    for gp in E.graphs_on(5):
        inst = S.EditInstance(gp, 0, "delete")
        built = R.execute_step(step, inst)
        a = S.solve(inst, step.target_h).feasible
        b = S.solve(built, src, max_n=40).feasible
        assert a == b
        if not a:
            hits += 1
    assert hits > 0


# -- chain table integrity -------------------------------------------------------

EXPECTED_S_TARGETS = {
    "S1": "X", "S2": "co-H7", "S3": "H6", "S4": "H2", "S5": "X",
    "S6": "H6", "S7": "H9", "S8": "co-A1", "S9": "co-H4", "S10": "X",
    "S11": "co-H7", "S12": "S2", "S13": "S3", "S14": "B1", "S15": "H9",
    "S16": "S3", "S17": "co-H1", "S18": "co-A1", "S19": "co-S3",
    "S20": "F1(t=4)", "S21": "co-H4", "S22": "F6(t=4)", "S23": "co-A7",
    "S24": "co-S7", "S25": "co-H1", "S26": "S8", "S27": "F6(t=5)",
    "S28": "co-A9", "S29": "S17", "S30": "co-S19", "S31": "S3",
    "S32": "S16", "S33": "F7(t=4)", "S34": "F7(t=5)", "S35": "X",
    "S36": "S14",
}


def test_chain_table_matches_expected_targets():
    for sid, want in EXPECTED_S_TARGETS.items():
        h = C.lookup(sid).graph
        steps = R.steps_for(sid, h, False)
        tgt = steps[-1].target_h
        if want == "X":
            assert M.x_witness_for(tgt, "deletion") is not None, sid
        else:
            assert str(C.membership_W(tgt)) == want, sid


def test_family_chain_targets():
    expect = {
        ("F1", 4): "H5", ("F1", 6): "F2(t=6)",
        ("F2", 5): "H5", ("F3", 4): "co-H3",
        ("F4", 4): "H5", ("F5", 4): "H8", ("F5", 5): "D2",
        ("F5", 6): "F8(t=6)", ("F6", 4): "H8", ("F6", 5): "D2",
        ("F7", 4): "H5", ("F8", 6): "H5", ("F9", 3): "co-H3",
        ("F10", 3): "S1", ("F10", 4): "F1(t=4)",
    }
    for (fam, t), want in expect.items():
        h = C.generate_family(C.FamilyId(fam, t))
        steps = R.steps_for(fam, h, False)
        assert str(C.membership_W(steps[-1].target_h)) == want, (fam, t)


def test_unique_degree2_path_checker():
    for sid in ("S5", "S9", "S15", "S22"):
        h = C.lookup(sid).graph
        p, internals = R.unique_degree2_path(h)
        assert p >= 3 and internals
        assert all(h.degree(v) == 2 for v in internals)
    with pytest.raises(R.PreconditionError):
        R.unique_degree2_path(G.star_graph(3))


def _subset_scan_degree2_path(h):
    """Reference: ``unique_degree2_path`` as a scan over the subsets of the
    degree-2 vertices, each tested for inducing a path with two ends."""
    if min(h.degrees()) < 2:
        raise R.PreconditionError("path contraction needs minimum degree two")
    deg2 = [v for v in range(h.n) if h.degree(v) == 2]
    by_len = {}
    for size in range(1, len(deg2) + 1):
        for sub in itertools.combinations(deg2, size):
            mask = G._mask(sub)
            if size == 1:
                ends = set(G._bits(h.rows[sub[0]]))
            else:
                if not G.is_path(G.induced_subgraph(h, sub)):
                    continue
                tips = [v for v in sub if (h.rows[v] & mask).bit_count() == 1]
                if len(tips) != 2:
                    continue
                ends = {u for v in tips for u in G._bits(h.rows[v] & ~mask)}
            if len(ends) == 2:
                by_len.setdefault(size, set()).add(frozenset(sub))
    if not by_len:
        raise R.PreconditionError("no internal-degree-two chain")
    best = max(by_len)
    if len(by_len[best]) != 1:
        raise R.PreconditionError(
            f"longest internal-degree-two chain not unique (p={best + 1})"
        )
    return best + 1, next(iter(by_len[best]))


def _subset_scan_cut_reduce(h):
    """Reference: ``cut_reduce`` with the blocks found as the maximal vertex
    sets (three or more) whose induced subgraph is 2-connected."""
    if vertex_connectivity(h) != 1:
        raise R.PreconditionError("leaf-block drop needs connectivity exactly 1")

    def connected(mask):  # the subgraph of h induced by mask
        return G._reach(h.rows, mask & -mask, mask) == mask

    full = (1 << h.n) - 1
    cuts = {v for v in range(h.n) if not connected(full ^ 1 << v)}

    def two_connected(sub):
        mask = G._mask(sub)
        return connected(mask) and all(connected(mask ^ 1 << v) for v in sub)

    blocks = []  # largest first, so every proper superset is seen earlier
    for size in range(h.n, 2, -1):
        for sub in itertools.combinations(range(h.n), size):
            b = frozenset(sub)
            if not any(b < other for other in blocks) and two_connected(sub):
                blocks.append(b)
    leaf_blocks = [b for b in blocks if len(b & cuts) == 1]
    if not leaf_blocks:
        raise R.PreconditionError("no leaf block with exactly one cut vertex")
    smallest = min(len(b) for b in leaf_blocks)
    cands = [b for b in leaf_blocks if len(b) == smallest]
    if len(cands) != 1:
        raise R.PreconditionError("smallest leaf block not unique")
    return cands[0] - cuts, {}  # the block without its cut vertex


def _subset_scan_near_uni_reduce(h):
    """Reference: ``near_uni_reduce`` with its independent-set condition
    tested on every vertex subset of every size."""
    vh = list(G._bits(G.degree_classes(h)[1]))
    hi = h.rows[vh[0]].bit_count()
    for u, v in itertools.combinations(vh, 2):
        if not h.has_edge(u, v):
            raise R.PreconditionError("high-degree class must be a clique")
    certs = {G.canonical_cert(G.apply_flips(h, [(u, w) for w in h.neighbors(u)]))
             for u in vh}
    if len(certs) > 1:
        raise R.PreconditionError("high-vertex deletions must all be isomorphic")
    degs = h.degrees()
    for size in range(2, h.n + 1):
        for sub in itertools.combinations(range(h.n), size):
            if all(degs[v] >= hi - size + 1 for v in sub) and all(
                not h.has_edge(a, b) for a, b in itertools.combinations(sub, 2)
            ):
                raise R.PreconditionError(
                    "independent set with too-high degrees exists"
                )
    return vh[:1], {"t": h.n - hi - 1}


def _outcome(fn, h):
    try:
        return fn(h)
    except R.PreconditionError as exc:
        return str(exc)


def _rule_target_cases():
    graphs = list(small_graphs(7))
    graphs += [C.lookup(gid).graph for gid in C.all_ids()]
    graphs += [
        C.generate_family(C.FamilyId(fam, t))
        for fam, tmin in C.FAMILY_CONSTRAINTS.items()
        for t in range(tmin, tmin + 9)
    ]
    return graphs + [G.complement(g) for g in graphs]


def test_rule_targets_match_subset_scans():
    for h in _rule_target_cases():
        got = _outcome(R.unique_degree2_path, h)
        assert got == _outcome(_subset_scan_degree2_path, h), G.to_graph6(h)
        got = _outcome(R.cut_reduce, h)
        assert got == _outcome(_subset_scan_cut_reduce, h), G.to_graph6(h)
        if not G.is_regular(h):  # no degree classes
            got = _outcome(R.near_uni_reduce, h)
            assert got == _outcome(_subset_scan_near_uni_reduce, h), G.to_graph6(h)


def _catalogue_chain_steps():
    """The distinct steps of the deletion and editing chains of every
    catalogue entry in both orientations, and of the complement step that
    opens a completion chain. ``derive_chain`` keeps no memo, so the steps
    and their labels do not depend on what ran before."""
    steps = {}
    for gid in C.all_ids():
        base = C.lookup(gid).graph
        for g in (base, G.complement(base)):
            chain = [R.ReductionStep("Complement", "complement-duality", g,
                                     G.complement(g))]
            for problem in ("deletion", "editing"):
                try:
                    chain += R.derive_chain(g, problem)
                except R.PreconditionError:
                    pass  # the chain leaves the catalogue
            for st in chain:
                key = (st.construction, st.rule, st.complemented,
                       G.to_graph6(st.source_h), G.to_graph6(st.target_h))
                steps.setdefault(key, st)
    return [(key, steps[key]) for key in sorted(steps)]


def test_execute_step_digest():
    """The exact output of every catalogue chain step on every graph with
    at most four vertices, k in {0, 1} and every mode (a dash where the
    output would exceed the vertex cap)."""
    digest = hashlib.sha256()
    for key, step in _catalogue_chain_steps():
        digest.update(("|".join(map(str, key)) + "\n").encode())
        for gp in small_graphs(4):
            for k in (0, 1):
                for mode in S.MODES:
                    try:
                        out = R.execute_step(step, S.EditInstance(gp, k, mode))
                    except R.CapExceeded:
                        digest.update(b"-\n")
                        continue
                    digest.update(
                        f"{G.to_graph6(out.g)}|{out.k}|{out.mode}\n".encode())
    assert digest.hexdigest() == (
        "7966dbeb2345457dec21c658714b3f270399f88a0243fea4bb3f0ecf0e4e657e")


def _step_line(step):
    params = ",".join(
        f"{name}={G.to_graph6(v) if isinstance(v, G.SmallGraph) else repr(v)}"
        for name, v in step.params.items())
    return "|".join([step.construction, step.rule, str(step.complemented),
                     G.to_graph6(step.source_h), G.to_graph6(step.target_h),
                     step.k_map, params])


def _chain_step_listing():
    """One line per step, with its params, or per refusal message: every
    ``derive_chain`` step under deletion and editing of every catalogue
    entry and family member (t from tmin to tmin + 5) in both orientations;
    every rule run complemented through ``make_step`` on every non-regular
    graph with at most seven vertices; and both peel rules uncomplemented
    on the same graphs."""
    lines = []
    graphs = [C.lookup(gid).graph for gid in C.all_ids()]
    graphs += [
        C.generate_family(C.FamilyId(fam, t))
        for fam, tmin in C.FAMILY_CONSTRAINTS.items()
        for t in range(tmin, tmin + 6)
    ]
    for g in graphs:
        for h in (g, G.complement(g)):
            for problem in ("deletion", "editing"):
                try:
                    lines += map(_step_line, R.derive_chain(h, problem))
                except R.PreconditionError as exc:
                    lines.append(str(exc))
    runs = [(rule, True) for rule in R._RULES]
    runs += [("peel-low", False), ("peel-high", False)]
    for h in small_graphs(7):
        if G.is_regular(h):
            continue  # no degree partition
        for rule, complemented in runs:
            try:
                lines.append(_step_line(R.make_step(rule, h, complemented)))
            except R.PreconditionError as exc:
                lines.append(str(exc))
    return lines


def test_chain_steps_pinned():
    """Every rule's target and params, through ``make_step`` and along
    ``derive_chain``, pinned by the digest of the listing above."""
    lines = _chain_step_listing()
    assert len(lines) == 18272
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    assert digest.hexdigest() == (
        "5bf9b76ffbe83d3cfcdb9b7a94a8b966ac26e228d5ca8372d95851a659bc56f2")


def test_derive_chain_families_and_catalogue():
    g = G.complete_bipartite(2, 8)
    chain = R.derive_chain(g)
    assert [s.rule for s in chain] == [
        "clique-tail-drop", "module-shrink", "module-shrink",
        "module-shrink", "module-shrink",
    ]
    assert G.are_isomorphic(chain[-1].target_h, G.star_graph(4))
    # a complemented catalogue entry conjugates its rule
    co_s24 = G.complement(C.lookup("S24").graph)
    chain = R.derive_chain(co_s24)
    assert G.are_isomorphic(chain[-1].target_h, C.lookup("H9").graph)


def test_derive_chain_one_certificate_per_w_lookup(monkeypatch):
    g = G.complete_bipartite(2, 8)
    for n in range(1, g.n + 1):
        C._w_on(n)  # the W indexes are built outside the count
    certified, looked_up = [], []
    cert, member = G.canonical_cert, C.membership_W
    monkeypatch.setattr(G, "canonical_cert", lambda h: certified.append(h) or cert(h))
    monkeypatch.setattr(C, "membership_W", lambda h: looked_up.append(h) or member(h))
    assert len(R.derive_chain(g)) == 5
    assert len(certified) == len(looked_up) > 0


def test_make_step_refuses_a_rule_that_drops_nothing(monkeypatch):
    """Every step must shrink its graph, so no chain walk can revisit one."""
    monkeypatch.setitem(R._RULES, "keep-all", ("ConMain", lambda h: ((), {})))
    with pytest.raises(R.PreconditionError, match="drops no vertex"):
        R.make_step("keep-all", G.star_graph(4), False)


def test_derive_chain_completion_is_deletion_on_the_complement():
    """Completion follows by complementation: the chain of S12 is the
    complement step, then the deletion chain of its complement."""
    g = C.lookup("S12").graph
    co = G.complement(g)
    chain = R.derive_chain(g, "completion")
    assert chain[0] == R.ReductionStep("Complement", "complement-duality", g, co)
    assert chain[1:] == R.derive_chain(co, "deletion") != R.derive_chain(g, "deletion")


def test_derive_chain_terminates_on_hard_anchors():
    assert R.derive_chain(G.cycle_graph(6)) == []


def test_derive_chain_rejects_outside_graphs():
    # neither in W nor a known-hard anchor: the chain table cannot route it
    stray = G.from_graph6("E?r_")
    assert C.membership_W(stray) is None
    assert M.x_witness_for(stray, "deletion") is None
    with pytest.raises(R.PreconditionError):
        R.derive_chain(stray)


# -- tricky reductions -----------------------------------------------------------


def _restricted_deletion_instances(n_max, ks):
    """Every instance with one forbidden edge on at most n_max vertices,
    for each budget in ks."""
    for gp in small_graphs(n_max):
        for r in sorted(gp.edges()):
            for k in ks:
                yield S.EditInstance(gp, k, "delete", frozenset([r]))


def _tricky_equivalences(build, src, tgt, new_vertices):
    """solve agrees on both sides of ``build`` for one forbidden edge,
    n <= 6 and k in {0, 1, 2}; returns how many instances it accepted."""
    count = 0
    for inst in _restricted_deletion_instances(6, (0, 1, 2)):
        try:
            built = build(inst)
        except R.PreconditionError:
            continue
        assert built.g.n == inst.g.n + new_vertices(inst.k)
        a = S.solve(inst, src).feasible
        b = S.solve(built, tgt, max_n=40).feasible
        assert a == b, (G.to_graph6(inst.g), sorted(inst.forbidden), inst.k)
        count += 1
    return count


def test_tricky_a7c_equivalence():
    host = GD.host_graph("co-A7")
    assert _tricky_equivalences(
        R.tricky_a7c, host, host, lambda k: k + 3 * k) == 4140


def test_tricky_a9c_equivalence():
    host = GD.host_graph("co-A9")
    assert _tricky_equivalences(
        R.tricky_a9c, host, host, lambda k: k + 4 * k) == 4140


def test_tricky_a6c_equivalence():
    src = GD.host_graph("co-A1")
    tgt = GD.host_graph("co-A6")
    assert _tricky_equivalences(
        R.tricky_a6c, src, tgt, lambda k: 3 * (k + 1)) == 1350


def test_tricky_a6c_rejects_allowed_c4():
    c4 = G.cycle_graph(4)
    inst = S.EditInstance(c4, 1, "delete")
    with pytest.raises(R.PreconditionError):
        R.tricky_a6c(inst)


def test_all_allowed_c4_is_two_common_allowed_neighbours():
    """Reference: a 4-cycle a-b-c-d over allowed edges, found by brute
    force, on every graph with at most six vertices and each single
    forbidden edge (or none)."""
    def brute(inst):
        def ok(u, v):
            return inst.g.has_edge(u, v) and tuple(sorted((u, v))) not in inst.forbidden
        return any(ok(a, b) and ok(b, c) and ok(c, d) and ok(d, a)
                   for a, b, c, d in itertools.permutations(range(inst.g.n), 4))
    count = 0
    for gp in small_graphs(6):
        for r in [None] + sorted(gp.edges()):
            inst = S.EditInstance(gp, 0, "delete", frozenset([r] if r else []))
            assert R._has_all_allowed_c4_subgraph(inst) == brute(inst)
            count += 1
    assert count > 1000


def test_tricky_gadget_digest():
    """Each per-host gadget keeps the source on its labels, and its output
    up to isomorphism is pinned for every one-forbidden-edge instance on at
    most five vertices (a dash where the precondition refuses)."""
    digest = hashlib.sha256()
    for inst in _restricted_deletion_instances(5, (1,)):
        for fn in (R.tricky_a7c, R.tricky_a9c, R.tricky_a6c):
            try:
                out = fn(inst).g
            except R.PreconditionError:
                digest.update(b"-\n")
                continue
            assert G.induced_subgraph(out, range(inst.g.n)) == inst.g
            digest.update(G.canonical_cert(out).hex().encode() + b"\n")
    assert digest.hexdigest() == (
        "4fca6d90989879c218b6a5730202ba752a6f754ce8aa3153efb7e56780b0e36b")


def _nonedges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def _restricted_completion_instances(n_max, ks):
    """Every instance on at most n_max vertices that forbids all nonedges
    but at most two and passes the completion gadgets' precondition. (With
    one forbidden nonedge the precondition refuses every instance on five
    or more vertices.)"""
    for gp in small_graphs(n_max):
        nonedges = _nonedges(gp)
        for size in range(3):
            for allowed in itertools.combinations(nonedges, size):
                for k in ks:
                    inst = S.EditInstance(
                        gp, k, "complete", frozenset(nonedges) - frozenset(allowed))
                    try:
                        R._completion_pre(inst)
                    except R.PreconditionError:
                        continue
                    yield inst


def test_tricky_completion_equivalences():
    c4 = G.cycle_graph(4)
    a1 = GD.host_graph("co-A1")
    a6 = GD.host_graph("co-A6")
    count = 0
    for inst in _restricted_completion_instances(5, (0, 1, 2)):
        b1 = R.tricky_a1c_com(inst)
        b2 = R.tricky_a6c_com(inst)
        a = S.solve(inst, c4).feasible
        where = (G.to_graph6(inst.g), sorted(inst.forbidden), inst.k)
        assert a == S.solve(b1, a1, max_n=40).feasible, where
        assert a == S.solve(b2, a6, max_n=40).feasible, where
        count += 1
    assert count == 1914


def test_tricky_completion_equivalences_three_allowed():
    """solve agrees on both sides of both completion gadgets on 400 seeded
    accepted instances on 5-6 vertices with three allowed nonedges and
    k <= 2, some of them no-instances."""
    c4 = G.cycle_graph(4)
    a1 = GD.host_graph("co-A1")
    a6 = GD.host_graph("co-A6")
    candidates = [
        (gp, allowed, k)
        for n in (5, 6)
        for gp in E.graphs_on(n)
        for allowed in itertools.combinations(_nonedges(gp), 3)
        for k in (0, 1, 2)
    ]
    random.Random(28).shuffle(candidates)
    count = no = 0
    for gp, allowed, k in candidates:
        inst = S.EditInstance(
            gp, k, "complete", frozenset(_nonedges(gp)) - frozenset(allowed))
        try:
            b1 = R.tricky_a1c_com(inst)
        except R.PreconditionError:
            continue
        b2 = R.tricky_a6c_com(inst)
        a = S.solve(inst, c4).feasible
        where = (G.to_graph6(gp), allowed, k)
        assert a == S.solve(b1, a1, max_n=40).feasible, where
        assert a == S.solve(b2, a6, max_n=40).feasible, where
        count += 1
        no += not a
        if count == 400:
            break
    assert count == 400
    assert no > 0


def _completion_pre_outcome(inst):
    """The string "ok", or the exact refusal of ``_completion_pre``."""
    try:
        R._completion_pre(inst)
    except R.PreconditionError as e:
        return str(e)
    return "ok"


def _completion_pre_pin_instances():
    """Every graph with n <= 6 and, for 0-4 allowed nonedges, the first 20
    combinations of its nonedges; then 300 seeded sparse graphs on 7-9
    vertices with up to 12 allowed. All other nonedges forbidden, k = 1."""
    for gp in small_graphs(6):
        nonedges = _nonedges(gp)
        for size in range(5):
            for allowed in itertools.islice(itertools.combinations(nonedges, size), 20):
                yield S.EditInstance(
                    gp, 1, "complete", frozenset(nonedges) - frozenset(allowed))
    rng = random.Random(28)
    for _ in range(300):
        n = rng.randint(7, 9)
        p = rng.uniform(0.1, 0.3)
        gp = G.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        nonedges = _nonedges(gp)
        allowed = rng.sample(nonedges, min(len(nonedges), rng.randint(0, 12)))
        yield S.EditInstance(gp, 1, "complete", frozenset(nonedges) - frozenset(allowed))


def test_completion_pre_outcome_pin():
    """The outcome of the completion precondition, refusal message
    included, on 10 684 instances: each of its four refusals and "ok"
    occurs, and one sha256 pins them all in order."""
    digest = hashlib.sha256()
    counts = {}
    for inst in _completion_pre_pin_instances():
        out = _completion_pre_outcome(inst)
        counts[out] = counts.get(out, 0) + 1
        digest.update(out.encode() + b"\n")
    assert counts == {
        "ok": 4462,
        "forbidden nonedge with more than two common neighbors": 4949,
        "4-cycle with two adjacent added edges": 689,
        "4-cycle with at most one allowed edge but no forbidden diagonal": 319,
        "every 4-cycle uses two allowed nonedges": 265,
    }
    assert digest.hexdigest() == (
        "b5572dfd7695638b72475a8a56ebb524bbdc5df5db3acfb23c5936a446727b77")


def test_completion_pre_one_search_and_guard(monkeypatch):
    """On the empty graph with a path of allowed nonedges (every other
    nonedge forbidden), 18 allowed pass with one induced search; 19 are
    refused before any search."""
    calls = []
    real = G.find_induced

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(G, "find_induced", counting)

    def path_allowed(n):
        g = G.empty_graph(n)
        path = {(i, i + 1) for i in range(n - 1)}
        return S.EditInstance(g, 1, "complete", frozenset(_nonedges(g)) - path)

    R._completion_pre(path_allowed(19))
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(R.PreconditionError, match="too many allowed nonedges to certify"):
        R._completion_pre(path_allowed(20))
    assert not calls


# -- enforcer attachment ----------------------------------------------------------


def test_enforcer_attach_counts_and_equivalence():
    enf = GD.table_gadget("A3", "delete", "Enforcer")
    host = GD.host_graph("A3")
    base = G.cycle_graph(5)
    inst = S.EditInstance(base, 1, "delete", frozenset([(0, 1)]))
    out = R.enforcer_attach(inst, host)
    assert not out.forbidden
    assert out.g.n == base.n + 2 * (enf.graph.n - 2)
    # at the vertex cap: C4 with one forbidden edge gains k+1 copies of the
    # enforcer's 4 other vertices, 64 vertices at k = 14 and 68 at k = 15
    def c4_pinned(k):
        return S.EditInstance(G.cycle_graph(4), k, "delete", frozenset([(0, 1)]))

    assert R.enforcer_attach(c4_pinned(14), host).g.n == 64 == R.VERTEX_CAP
    with pytest.raises(R.CapExceeded):
        R.enforcer_attach(c4_pinned(15), host)
    # unchanged when nothing is forbidden
    free = S.EditInstance(base, 1, "delete")
    assert R.enforcer_attach(free, host).g == base
    count = 0
    for gp in small_graphs(4):
        for r in sorted(gp.edges()):
            inst = S.EditInstance(gp, 1, "delete", frozenset([r]))
            built = R.enforcer_attach(inst, host)
            a = S.solve(inst, host).feasible
            b = S.solve(built, host, max_n=40).feasible
            assert a == b, (G.to_graph6(gp), r)
            count += 1
    assert count > 10


def test_enforcer_attach_refuses_what_the_exact_layer_refuses():
    """``enforcer_attach`` (through ``_pin_forbidden``) and layer (a) of
    ``verify_enforcer`` ask the one ``enforcer_exact`` check."""
    host = GD.host_graph("co-A1")
    edge = sorted(host.edges())[0]
    inst = S.EditInstance(G.cycle_graph(4), 1, "delete", frozenset([(0, 1)]))
    not_free = GD.Gadget(host, "Enforcer", "delete", (edge,), "co-A1")
    no_copy = GD.Gadget(G.complete_graph(3), "Enforcer", "delete", ((0, 1),),
                        "co-A1")
    for enf, why in ((not_free, "not host-free"), (no_copy, "creates no copy")):
        assert not GD.verify_enforcer(enf, n_host=2)["layers"]["exact"]["ok"]
        with pytest.raises(GD.GadgetError, match=why):
            R._pin_forbidden(inst, enf)


def test_enforcer_attach_rejects_mode_mismatch():
    enf = GD.table_gadget("co-A1", "complete", "Enforcer")
    inst = S.EditInstance(G.cycle_graph(4), 1, "delete", frozenset([(0, 1)]))
    with pytest.raises(GD.GadgetError):
        R._pin_forbidden(inst, enf)
    # the table holds no deletion enforcer for co-A6, and none for C4
    for h in (GD.host_graph("co-A6"), G.cycle_graph(4)):
        with pytest.raises(R.PreconditionError, match="no delete enforcer"):
            R.enforcer_attach(inst, h)


# -- formula reduction -------------------------------------------------------------


def test_prop_formula_validation():
    R.PropFormula(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        R.PropFormula(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        R.PropFormula(2, ((0, 1, 2),))
    with pytest.raises(ValueError):
        R.PropFormula(3, ((0, 1, 2),))  # not 3-regular


def test_con_cai_structure():
    h = GD.host_graph("co-A1")
    sc = GD.table_gadget("co-A1", "delete", "SComponent")
    bu = GD.table_gadget("co-A1", "delete", "BasicUnit")
    phi = R.PropFormula(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    inst, _ = R.con_cai(phi, 1, h, sc, bu, "delete")
    assert inst.k == 3 * h.n * 1
    assert inst.mode == "delete"
    # 3 satisfaction components and 3 truth-setting components, with the
    # nine clause pairs identified pairwise
    assert inst.g.n == 3 * 5 + 3 * 45 - 9 * 2
    allowed = [
        (u, v)
        for u in range(inst.g.n)
        for v in range(u + 1, inst.g.n)
        if inst.g.has_edge(u, v) and (u, v) not in inst.forbidden
    ]
    assert len(allowed) == 3 * (3 * h.n)


def test_con_cai_assignment_soundness():
    """Deleting the allowed pairs of true variables leaves the formula
    graph host-free exactly when the assignment satisfies the formula."""
    h = GD.host_graph("co-A1")
    sc = GD.table_gadget("co-A1", "delete", "SComponent")
    bu = GD.table_gadget("co-A1", "delete", "BasicUnit")
    table = GD.verify_s_component(sc)
    phi = R.PropFormula(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    inst, per_var = R.con_cai(phi, 1, h, sc, bu, "delete")
    assert len(per_var) == 3 and all(len(c) == 15 for c in per_var)
    for assignment in itertools.product((0, 1), repeat=3):
        flips = [p for bit, c in zip(assignment, per_var) if bit for p in c]
        left = G.apply_flips(inst.g, flips)
        # every clause evaluates f on the full assignment
        satisfied = table.value(*assignment)
        assert G.is_free_of(left, h) == satisfied, assignment


def test_con_cai_degenerate_formula():
    h = GD.host_graph("co-A1")
    sc = GD.table_gadget("co-A1", "delete", "SComponent")
    bu = GD.table_gadget("co-A1", "delete", "BasicUnit")
    phi = R.PropFormula(0, ())
    inst, _ = R.con_cai(phi, 2, h, sc, bu, "delete")
    assert inst.g.n == 1
    assert S.solve_exhaustive(inst, h).feasible


# one 3-regular formula per shape: three copies of one clause, a cycle of
# clauses over four variables, and the empty formula
_CAI_FORMULAS = (
    R.PropFormula(3, ((0, 1, 2),) * 3),
    R.PropFormula(4, ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1))),
    R.PropFormula(0, ()),
)


def test_gadget_assembly_digests():
    """The exact bytes of every truth-setting complex (p = 2, 3 and the
    default) and every con_cai instance built from a gadget-table row,
    so that a change to how gadgets are glued cannot move a label."""
    ts, cai = hashlib.sha256(), hashlib.sha256()
    for row in GD.table_rows():
        for mode in ("delete", "complete"):
            unit = GD.table_gadget(row, mode, "BasicUnit")
            if unit is None:
                continue
            for p in (2, 3, None):
                tc = GD.build_truth_setting(unit, p)
                ts.update(f"{row}|{mode}|{p}|{G.to_graph6(tc.graph)}|{tc.mode}|"
                          f"{tc.allowed}|{tc.variable_pairs}|{tc.h}\n".encode())
            s_comp = GD.table_gadget(row, mode, "SComponent")
            h = GD.host_graph(row)
            for i, phi in enumerate(_CAI_FORMULAS):
                inst, per_var = R.con_cai(phi, 1, h, s_comp, unit, mode)
                cai.update(f"{row}|{mode}|{i}|{G.to_graph6(inst.g)}|{inst.k}|"
                           f"{inst.mode}|{sorted(inst.forbidden)}|{per_var}\n"
                           .encode())
    assert ts.hexdigest() == (
        "fda69228d21c7a2ce04e9eebd24f7ca8b5402e4e0bfd1f811374941ee798276a")
    assert cai.hexdigest() == (
        "367cb53be54851a95f210408de7cf0c65bd9ef9f0a0f25fb6c00c7caafd2aa56")


@pytest.mark.parametrize(
    "src,tgt", [("D__", "D^["), ("DZ[", "Dc_"), ("DHC", "Duw"), ("D{g", "DBS"), ("D|c", "DAW")]
)
def test_complement_step_swaps_delete_and_complete(src, tgt):
    """co-H-free deletion on G is H-free completion on co-G."""
    step = R.ReductionStep("Complement", "complement-duality",
                           G.from_graph6(src), G.from_graph6(tgt))
    rng = random.Random(src)
    for _ in range(12):
        n = rng.randint(4, 7)
        p = rng.random()
        g = G.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        for mode, dual in (("delete", "complete"), ("complete", "delete")):
            inst = S.EditInstance(g, rng.randint(0, 2), mode)
            built = R.execute_step(step, inst)
            assert built.mode == dual and built.g == G.complement(g)
            assert (S.solve(inst, step.target_h).feasible
                    == S.solve(built, step.source_h).feasible)
