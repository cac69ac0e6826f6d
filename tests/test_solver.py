"""Solver tests: examples, oracle agreement, monotonicity, duality."""

import collections
import itertools
import random

import pytest

from hfree import enumeration as E
from hfree import graphs as G
from hfree import solver as S


def test_cycle_deletion_examples():
    c4 = G.cycle_graph(4)
    assert S.solve(S.EditInstance(c4, 1, "delete"), c4).feasible
    assert not S.solve(S.EditInstance(c4, 0, "delete"), c4).feasible


def test_star_path_deletion():
    claw = G.star_graph(3)
    p3 = G.path_graph(3)
    assert not S.solve(S.EditInstance(claw, 1, "delete"), p3).feasible
    assert S.solve(S.EditInstance(claw, 2, "delete"), p3).feasible


def test_k23_single_deletion_insufficient():
    k23 = G.complete_bipartite(2, 3)
    c4 = G.cycle_graph(4)
    assert not S.solve(S.EditInstance(k23, 1, "delete"), c4).feasible


def test_vacuous_and_saturated_instances():
    small = G.path_graph(2)
    big_h = G.path_graph(3)
    assert S.solve(S.EditInstance(small, 0, "edit"), big_h).feasible
    g = G.cycle_graph(5)
    k = g.n * (g.n - 1) // 2
    sol = S.solve_exhaustive(S.EditInstance(g, k, "edit"), G.path_graph(3))
    assert sol.feasible


def test_forbidden_pairs_respected():
    c4 = G.cycle_graph(4)
    edges = sorted(c4.edges())
    # forbid all but one edge: deletion still feasible through the free one
    inst = S.EditInstance(c4, 1, "delete", frozenset(edges[:-1]))
    sol = S.solve(inst, c4)
    assert sol.feasible and sol.witness == {edges[-1]}
    inst_all = S.EditInstance(c4, 2, "delete", frozenset(edges))
    assert not S.solve(inst_all, c4).feasible


def test_instance_validation():
    c4 = G.cycle_graph(4)
    with pytest.raises(ValueError):
        S.EditInstance(c4, -1, "delete")
    with pytest.raises(ValueError):
        S.EditInstance(c4, 1, "delete", frozenset([(0, 2)]))  # nonedge
    with pytest.raises(ValueError):
        S.EditInstance(c4, 1, "complete", frozenset([(0, 1)]))  # edge
    with pytest.raises(ValueError):
        S.EditInstance(c4, 1, "edit", frozenset([(0, 1)]))


def test_forbidden_pairs_must_lie_in_the_vertex_range():
    c4 = G.from_graph6("C]")
    # (-1, 1) once read as the edge (3, 1), and (0, 9) as a nonedge
    for mode, pair in (("delete", (1, -1)), ("complete", (0, 9)),
                       ("delete", (0, 4))):
        with pytest.raises(ValueError, match="outside"):
            S.EditInstance(c4, 0, mode, frozenset([pair]))


def test_guardrails():
    big = G.cycle_graph(25)
    with pytest.raises(S.GuardrailError):
        S.solve(S.EditInstance(big, 1, "delete"), G.cycle_graph(4))
    with pytest.raises(S.GuardrailError):
        S.solve(S.EditInstance(G.cycle_graph(5), 5, "delete"), G.cycle_graph(4))


def test_exhaustive_guardrail(monkeypatch):
    """``solve_exhaustive`` refuses an instance with more pair sets than
    ``EXHAUSTIVE_MAX_WORK`` before any search, and takes one with exactly
    that many: the empty 30-vertex graph at k = 3 in edit mode has
    1 + 435 + C(435, 2) + C(435, 3) sets; C4 at k = 2, 1 + 6 + 15 = 22."""
    calls = []
    real = G._induced_search
    monkeypatch.setattr(G, "_induced_search",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    c4 = G.cycle_graph(4)
    total = 1 + 435 + 94_395 + 13_624_345
    assert total > S.EXHAUSTIVE_MAX_WORK
    with pytest.raises(S.GuardrailError,
                       match=f"exhaustive guardrail: {total} > {S.EXHAUSTIVE_MAX_WORK}"):
        S.solve_exhaustive(S.EditInstance(G.empty_graph(30), 3, "edit"), c4)
    assert not calls
    monkeypatch.setattr(S, "EXHAUSTIVE_MAX_WORK", 22)
    inst = S.EditInstance(c4, 2, "edit")
    assert S.solve_exhaustive(inst, c4) == S.Solution(True, frozenset([(0, 1)]))
    assert calls
    monkeypatch.setattr(S, "EXHAUSTIVE_MAX_WORK", 21)
    with pytest.raises(S.GuardrailError, match="exhaustive guardrail: 22 > 21"):
        S.solve_exhaustive(inst, c4)


def _grid(n_max=4, k_max=2, h_max=4):
    hs = [g for n in range(3, h_max + 1) for g in E.graphs_on(n)]
    for n in range(1, n_max + 1):
        for g in E.graphs_on(n):
            for h in hs:
                for k in range(k_max + 1):
                    for mode in S.MODES:
                        yield g, h, k, mode


def test_solver_oracle_agreement_small_grid():
    for g, h, k, mode in _grid(n_max=4, k_max=2):
        inst = S.EditInstance(g, k, mode)
        assert (
            S.solve(inst, h).feasible
            == S.solve_exhaustive(inst, h).feasible
        ), (G.to_graph6(g), G.to_graph6(h), k, mode)


def test_monotonicity_in_budget():
    for g, h, k, mode in _grid(n_max=4, k_max=1):
        inst = S.EditInstance(g, k, mode)
        if S.solve(inst, h).feasible:
            inst2 = S.EditInstance(g, k + 1, mode)
            assert S.solve(inst2, h).feasible


def test_complement_duality():
    for n in range(1, 5):
        for g in E.graphs_on(n):
            for h in E.graphs_on(4):
                for k in (0, 1):
                    a = S.solve(S.EditInstance(g, k, "delete"), h).feasible
                    b = S.solve(
                        S.EditInstance(G.complement(g), k, "complete"),
                        G.complement(h),
                    ).feasible
                    assert a == b


@pytest.mark.parametrize("g6,h6", [("FXIlW", "C^"), ("FOO?O", "CI"), ("F~^~w", "Bo")])
def test_edit_branch_never_reflips_a_pair(g6, h6):
    """Instances where flipping one pair twice on a branch used to yield
    a witness that leaves an induced h."""
    inst = S.EditInstance(G.from_graph6(g6), 3, "edit")
    h = G.from_graph6(h6)
    sol = S.solve(inst, h)
    assert sol.feasible == S.solve_exhaustive(inst, h).feasible
    if sol.feasible:
        assert len(sol.witness) <= 3
        assert G.is_free_of(G.apply_flips(inst.g, sol.witness), h)


def test_bad_witness_raises_witness_error():
    c4 = G.cycle_graph(4)
    with pytest.raises(S.WitnessError):
        S._check_witness(S.EditInstance(c4, 1, "delete"), c4, frozenset())
    with pytest.raises(S.WitnessError):  # (0, 2) is a nonedge: not deletable
        S._check_witness(S.EditInstance(c4, 2, "delete"), c4, frozenset([(0, 2)]))


def test_solver_oracle_agreement_seeded_random():
    """solve against solve_exhaustive on random graphs up to seven
    vertices, budgets up to three, in every mode."""
    rng = random.Random(1996)
    hs = [g for n in range(3, 6) for g in E.graphs_on(n) if g.edge_count()]
    for _ in range(1500):
        n = rng.randint(1, 7)
        p = rng.random()
        g = G.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        h = rng.choice(hs)
        k = rng.randint(0, 3)
        for mode in S.MODES:
            inst = S.EditInstance(g, k, mode)
            assert S.solve(inst, h).feasible == S.solve_exhaustive(inst, h).feasible, (
                G.to_graph6(g), G.to_graph6(h), k, mode)


def _plain_exhaustive(inst, h):
    """The brute force in its plainest form: every permissible pair set,
    by size then in combinations order, each flipped graph searched."""
    pairs = inst.permissible_pairs()
    for size in range(min(inst.k, len(pairs)) + 1):
        for sel in itertools.combinations(pairs, size):
            if G.is_free_of(G.apply_flips(inst.g, sel), h):
                return S.Solution(True, frozenset(sel))
    return S.Solution(False)


def _witness_pin_instances():
    """Seeded instances: graphs on 1-7 vertices, h on 2-5, k <= 3, every
    mode, and restricted delete/complete instances with forbidden pairs;
    then C4 with every edge forbidden, a copy no flip set can touch."""
    rng = random.Random(27)
    hs = {n: E.graphs_on(n) for n in range(2, 6)}
    for _ in range(400):
        h = rng.choice(hs[rng.randint(2, 5)])
        n = rng.randint(h.n - 1, 7)
        p = rng.random()
        g = G.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        k = rng.randint(0, 3)
        for mode in S.MODES:
            yield S.EditInstance(g, k, mode), h
        edges = sorted(g.edges())
        nonedges = [e for e in itertools.combinations(range(n), 2) if e not in edges]
        for mode, pool in (("delete", edges), ("complete", nonedges)):
            forbidden = frozenset(e for e in pool if rng.random() < 0.4)
            yield S.EditInstance(g, k, mode, forbidden), h
    c4 = G.cycle_graph(4)
    yield S.EditInstance(c4, 2, "delete", frozenset(c4.edges())), c4


def test_exhaustive_witness_matches_plain_loop():
    """solve_exhaustive returns the very Solution, witness included, of
    the plain loop over combinations: its first h-free flip set."""
    shapes = collections.Counter()
    for inst, h in _witness_pin_instances():
        sol = S.solve_exhaustive(inst, h)
        assert sol == _plain_exhaustive(inst, h), (
            G.to_graph6(inst.g), G.to_graph6(h), inst.k, inst.mode,
            sorted(inst.forbidden))
        shapes[sol.feasible, len(sol.witness)] += 1
    # no-instances, and witnesses of every size, are well represented
    assert shapes == {(False, 0): 573, (True, 0): 1225, (True, 1): 137,
                      (True, 2): 52, (True, 3): 14}


def test_exhaustive_searches_only_sets_that_hit_every_copy(monkeypatch):
    """A flip set that misses some induced copy of h in g leaves it, so
    solve_exhaustive searches only the sets that meet every copy."""
    calls = []
    is_free_of = G.is_free_of
    monkeypatch.setattr(G, "is_free_of", lambda g, h: calls.append(g) or is_free_of(g, h))
    c4 = G.cycle_graph(4)
    inst = S.EditInstance(c4, 2, "delete", frozenset(c4.edges()))
    assert S.solve_exhaustive(inst, c4) == S.Solution(False)
    assert calls == []

    rng = random.Random(8)
    hs = [g for n in range(3, 6) for g in E.graphs_on(n) if g.edge_count()]
    checked = searched = 0
    for _ in range(2000):
        n = rng.randint(6, 7)
        p = rng.random()
        g = G.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        )
        inst = S.EditInstance(g, 3, rng.choice(S.MODES))
        h = rng.choice(hs)
        calls.clear()
        if S.solve_exhaustive(inst, h).feasible:
            continue
        copies = G.find_induced(g, h)
        hitting = sum(
            all(any(u in vs and v in vs for u, v in sel) for vs in copies)
            for size in range(inst.k + 1)
            for sel in itertools.combinations(inst.permissible_pairs(), size)
        )
        assert len(calls) == hitting, (G.to_graph6(g), G.to_graph6(h), inst.k, inst.mode)
        checked += 1
        searched += hitting
    assert (checked, searched) == (94, 441)


def test_solver_oracle_agreement_seeded_n8():
    """solve against solve_exhaustive on random 8-vertex graphs, budgets up
    to three, in every mode."""
    rng = random.Random(2020)
    hs = [g for n in range(3, 6) for g in E.graphs_on(n) if g.edge_count()]
    feasible = 0
    for _ in range(300):
        p = rng.random()
        g = G.from_edges(
            8, [e for e in itertools.combinations(range(8), 2) if rng.random() < p]
        )
        h = rng.choice(hs)
        k = rng.randint(0, 3)
        for mode in S.MODES:
            inst = S.EditInstance(g, k, mode)
            sol = S.solve(inst, h)
            assert sol.feasible == S.solve_exhaustive(inst, h).feasible, (
                G.to_graph6(g), G.to_graph6(h), k, mode)
            feasible += sol.feasible
    assert feasible == 736  # of 900: both answers are well represented
