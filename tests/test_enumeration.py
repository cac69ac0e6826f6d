"""Enumeration counts, closure, campaigns, checkpointing."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future
from math import factorial, gcd

import pytest

from hfree import __version__, cli
from hfree import catalogue as C
from hfree import classify as CL
from hfree import enumeration as E
from hfree import graphs as G
from hfree import membership as M
from iso_oracle import count_labeled_dedup
import peel_oracle as PO


def _cycle_types(n: int, largest: int | None = None):
    """Partitions of n into cycle lengths, largest first."""
    if n == 0:
        yield []
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - first, first):
            yield [first] + rest


def _polya_counts(n: int) -> list[int]:
    """Graphs on n vertices per edge count, by Burnside's lemma over the
    cycle types of S_n acting on vertex pairs (Harary & Palmer 1973)."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for cycles in _cycle_types(n):
        perms = factorial(n)
        for length, mult in Counter(cycles).items():
            perms //= length**mult * factorial(mult)
        pair_cycles = []
        for i, a in enumerate(cycles):
            pair_cycles += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                pair_cycles.append(a // 2)
            for b in cycles[i + 1 :]:
                pair_cycles += [a * b // gcd(a, b)] * gcd(a, b)
        fixed = [1]  # edge sets fixed by the permutation, by size
        for length in pair_cycles:
            fixed = [
                (fixed[m] if m < len(fixed) else 0)
                + (fixed[m - length] if m >= length else 0)
                for m in range(len(fixed) + length)
            ]
        for m, c in enumerate(fixed):
            total[m] += perms * c
    return [t // factorial(n) for t in total]


def test_counts_match_labeled_oracle():
    for n in range(1, 6):
        assert len(E.graphs_on(n)) == count_labeled_dedup(n)


def test_counts_match_reference_sequence():
    for n in range(1, 8):
        assert len(E.graphs_on(n)) == E.KNOWN_COUNTS[n - 1]


def test_counts_match_polya_per_edge_count():
    assert _polya_counts(4) == [1, 1, 2, 3, 2, 1, 1]
    for n in range(1, 8):
        hist = Counter(g.edge_count() for g in E.graphs_on(n))
        assert [hist[m] for m in range(n * (n - 1) // 2 + 1)] == _polya_counts(n)


def test_generation_order_pinned():
    """The graph6 lines of levels 1-8, level by level in generation order.
    Checkpoint shard files hold the levels in this order, so a change of
    order must bump ``_CHECKPOINT_FORMAT``."""
    digest = hashlib.sha256()
    for n in range(1, 9):
        for g in E.graphs_on(n):
            digest.update((G.to_graph6(g) + "\n").encode())
    assert E._CHECKPOINT_FORMAT == 4
    assert digest.hexdigest() == (
        "c556f280e50a3d15b6ababf85022e4acb4c7e32a47a435cb1731e7e150becbd5")


def test_augment_labels_only_children_with_ties(monkeypatch):
    """_augment labels each parent once, and a child once exactly when x
    has the maximal key (degree, neighbour-degree sum) and some other
    vertex shares it; the other children need no search."""
    labeling, calls = G.canonical_labeling, []

    def counted(rows):
        calls.append(len(rows))
        return labeling(rows)

    monkeypatch.setattr(G, "canonical_labeling", counted)
    for parent in E.graphs_on(6):
        calls.clear()
        E._augment(parent)
        gens = labeling(parent.rows)[1]
        tables = [[G._mask(p[v] for v in G._bits(m)) for m in range(1 << 6)]
                  for p in gens]
        tied = 0
        for mask in range(1 << 6):
            if G._closure(1 << mask, tables) & ((1 << mask) - 1):
                continue  # not the least mask of its orbit
            rows = [r | (mask >> v & 1) << 6 for v, r in enumerate(parent.rows)]
            child = G.SmallGraph(7, rows + [mask])
            deg = child.degrees()
            key = [(deg[v], sum(deg[u] for u in child.neighbors(v))) for v in range(7)]
            tied += key[6] == max(key) and key.count(key[6]) > 1
        assert calls == [6] + [7] * tied, G.to_graph6(parent)


def test_graphs_pickle_through_the_constructor():
    """Worker tasks and results are pickled graphs; this runs before the
    pool tests because a graph that fails to unpickle in the parent stalls
    the pool instead of raising."""
    for n in range(1, 6):
        for g in E.graphs_on(n):
            assert pickle.loads(pickle.dumps(g)) == g

    class Forged:  # pickles as a SmallGraph with an edge in one row only
        def __reduce__(self):
            return (G.SmallGraph, (2, (0b10, 0)))

    with pytest.raises(ValueError, match="symmetric"):
        pickle.loads(pickle.dumps(Forged()))


def test_serial_parallel_checkpoint_paths_agree(tmp_path, monkeypatch):
    monkeypatch.setattr(E, "_SHARD_PARENTS", 4)  # several shards per level
    cp = str(tmp_path / "ckpt")
    runs = []
    # the last run resumes from the shard files the one before it wrote
    for workers, path in ((1, None), (2, None), (2, cp), (1, cp)):
        monkeypatch.setattr(E, "_levels", {})
        runs.append([[G.to_graph6(g) for g in E.graphs_on(n, workers, path)]
                     for n in range(1, 7)])
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert [len(level) for level in runs[0]] == list(E.KNOWN_COUNTS[:6])


def test_stream_is_complement_closed():
    for n in range(1, 8):
        certs = {G.canonical_cert(g) for g in E.graphs_on(n)}
        co = {G.canonical_cert(G.complement(g)) for g in E.graphs_on(n)}
        assert certs == co


def test_guardrail():
    with pytest.raises(E.ResourceGuard):
        E.EnumConfig(n_max=11)
    with pytest.raises(E.ResourceGuard):
        E.graphs_on(11)
    with pytest.raises(E.ResourceGuard):
        E.graphs_on(12)


def test_cli_refuses_n_max_above_limit_before_enumerating(monkeypatch, capsys):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("graphs_on called")

    monkeypatch.setattr(E, "graphs_on", enumerate_nothing)
    code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "11"])
    assert code == 2
    assert "limit" in capsys.readouterr().err


def test_cli_has_no_force_flag(capsys):
    code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "5",
                     "--force"])
    assert code == 2
    assert "--force" in capsys.readouterr().err


def test_campaign_regular_tail():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "regular_tail")
    # at six vertices the only leftovers are the four- and five-vertex ones
    decoded = sorted(
        sorted(G.from_graph6(s).degrees()) for s in rep["exceptions"]
    )
    assert decoded == [[1, 1, 1, 1], [2, 2, 2, 2], [2, 2, 2, 2, 2]]
    assert rep["ok"]
    # the expectation is cut to the sizes searched: C5 needs five vertices
    rep4 = E.run_search_campaign(E.EnumConfig(n_max=4), "regular_tail")
    assert len(rep4["exceptions"]) == 2 and rep4["ok"]


def test_campaign_regular_tail_flags_deviation(monkeypatch, capsys):
    monkeypatch.setattr(E, "REGULAR_TAIL_EXCEPTIONS", ("C`", "Cl"))  # C5 dropped
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "regular_tail")
    assert len(rep["exceptions"]) == 3 and not rep["ok"]
    code = cli.main(["verify", "--campaign", "regular_tail", "--n-max", "6"])
    assert code == 1
    capsys.readouterr()


def test_campaign_flags_a_miscounted_level(monkeypatch, capsys):
    """A cached level that lost a class fails the campaign: the report
    names the level and is not ok, and ``hfree verify`` exits 1. A normal
    report has no such key. ``setitem`` puts the true level back."""
    good = E.run_search_campaign(E.EnumConfig(n_max=6), "regular_tail")
    assert good["ok"] and "miscounted_levels" not in good
    monkeypatch.setitem(E._levels, 6, E.graphs_on(6)[:-1])
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "regular_tail")
    assert rep["per_n"][6]["graphs"] == E.KNOWN_COUNTS[5] - 1
    assert rep["miscounted_levels"] == [6] and not rep["ok"]
    code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "6"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["miscounted_levels"] == [6]


def test_campaign_case_lemma_cells():
    cells = E.run_search_campaign(E.EnumConfig(n_max=7), "case_lemmas")["cells"]
    assert "empty|complete" not in cells
    assert cells["Y'|Y'"]["counterexamples"] == 0
    assert cells["complete|complete"]["graphs"] > 0
    assert cells["complete|complete"]["counterexamples"] == 0


def test_campaign_case_lemmas_small():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "case_lemmas")
    assert rep["ok"] and not rep["counterexamples"]
    assert "empty|complete" not in rep["cells"]
    assert "near-empty|complete" not in rep["cells"]


def test_campaign_churn_totality_small():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "churn_totality")
    assert rep["ok"], rep["counterexamples"][:3]


def test_churn_totality_fails_on_a_member_outside_the_open_set(monkeypatch):
    """An OpenCatalogue verdict naming a member outside the problem's open
    set (here S36) is a counterexample. A fresh memo keeps the stubbed
    verdicts out of other tests."""
    monkeypatch.setattr(CL, "_memo", {})
    monkeypatch.setattr(CL, "_terminal", lambda g, wr, problem: CL.Verdict(
        problem, "OpenCatalogue", "catalogue:S36", member="S36"))
    rep = E.run_search_campaign(E.EnumConfig(n_max=5), "churn_totality")
    assert not rep["ok"]
    assert {v for h in rep["counterexamples"] for k, v in h.items() if k != "g6"} == {
        "OpenCatalogue:S36"}


def test_campaign_unknown():
    with pytest.raises(ValueError):
        E.run_search_campaign(E.EnumConfig(n_max=5), "nope")


def test_campaign_reports_pinned():
    """Pins each campaign's whole report at n_max = 7 apart from its run
    time: per-level sizes and hits, cells, counterexamples, exceptions,
    checked and ok."""
    assert E.CAMPAIGNS == ("case_lemmas", "regular_tail", "churn_totality")
    digests = {}
    for name in E.CAMPAIGNS:
        rep = E.run_search_campaign(E.EnumConfig(n_max=7), name)
        del rep["runtime_sec"]
        blob = json.dumps(rep, sort_keys=True).encode()
        digests[name] = hashlib.sha256(blob).hexdigest()
    assert digests == {
        "case_lemmas": "30eb45393b3b719a34867f615f81cb45c42816c6b9eb6e039ca6260395cba666",
        "regular_tail": "b78f06d6683ede03e636e76996df8ea467bd959bf2240ba98a31305134dc902e",
        "churn_totality": "4af307e5c25af65d22761364d79e0d3768f1b27e66d1dc078cc422165dbe7ac5",
    }


def test_case_lemmas_report_pinned_n8():
    """The whole n_max = 8 ``case_lemmas`` report apart from its run time,
    pinned as ``test_campaign_reports_pinned`` pins n_max = 7."""
    rep = E.run_search_campaign(E.EnumConfig(n_max=8), "case_lemmas")
    del rep["runtime_sec"]
    blob = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "e70943ab46e820098492ecd5fbbb83d4d9a74c60ea8c76e24eb2f5e3291e8c8e"
    )


def _witness_first_case_lemmas(g: G.SmallGraph):
    """The case-lemma check with the X-witness search first: a graph in
    Y_D or X is dropped before its peels are looked at."""
    if M.in_y_d(g) or M.x_witness_for(g, "deletion") is not None:
        return None
    tl, th = map(PO.peel_types, PO.peels(g))
    if not tl or not th:
        return None
    member = C.membership_W(g)
    return {
        "g6": G.to_graph6(g),
        "cells": [(a, b) for a in tl for b in th],
        "in_W": member is not None,
        "member": str(member) if member else None,
    }


def test_case_lemma_check_equals_witness_first():
    """The campaign's check gives the witness-first check's result, dict
    or None, on every graph with 5 <= n <= 8."""
    hits = 0
    for n in range(5, 9):
        for g in E.graphs_on(n):
            got = E._check_case_lemmas(g)
            assert got == _witness_first_case_lemmas(g), G.to_graph6(g)
            hits += got is not None
    assert hits == 21 + 32 + 25 + 29


def test_case_lemma_check_searches_witnesses_only_past_both_peels(monkeypatch):
    """The X-witness search runs only on graphs whose two peels are both
    easy: 312 of the 13 580 graphs with 5 <= n <= 8."""
    calls = []
    search = M.x_witness_for
    monkeypatch.setattr(M, "x_witness_for", lambda *a: calls.append(a) or search(*a))
    rep = E.run_search_campaign(E.EnumConfig(n_max=8), "case_lemmas")
    assert rep["ok"] and 0 < len(calls) <= 312


def test_case_lemma_check_builds_no_peel_graph(monkeypatch):
    """The check judges both peels by their degree sequences: an n_max = 8
    run builds no induced subgraph (one per low peel, 15 119, when each
    peel was built as a graph)."""
    for n in range(1, 9):
        E.graphs_on(n)  # the levels are built outside the count
    built = []
    induced = G.induced_subgraph
    monkeypatch.setattr(G, "induced_subgraph", lambda *a: built.append(a) or induced(*a))
    rep = E.run_search_campaign(E.EnumConfig(n_max=8), "case_lemmas")
    assert rep["ok"] and rep["checked"] == 13_580 and built == []


def test_case_lemma_check_reads_a_high_peel_only_past_an_easy_low_peel(monkeypatch):
    """The check asks churn's stop test, which reads a high peel's degree
    sequence only where the low peel is easy: for 1 578 of the 13 541
    non-regular graphs with 5 <= n <= 8 (for all of them when both peels
    were read at once)."""
    high = []
    peel_degrees = G.peel_degrees

    def counted(g):
        for i, degs in enumerate(peel_degrees(g)):
            if i:
                high.append(g)
            yield degs

    monkeypatch.setattr(G, "peel_degrees", counted)
    rep = E.run_search_campaign(E.EnumConfig(n_max=8), "case_lemmas")
    assert rep["ok"] and rep["checked"] == 13_580
    assert all(PO.peel_types(PO.peels(g)[0]) for g in high)
    assert len(set(high)) == 1_578


def test_case_lemma_check_reads_each_peel_once(monkeypatch):
    """The check takes the peels' shapes from churn's stop test, so an
    n_max = 8 run finds each graph's degree classes once (13 580, where
    the 39 regular graphs and the 312 with two easy peels read theirs
    twice) and reads each peel's degree sequence once: 13 541 low and
    1 578 high peels (15 743 when the 312 read both again)."""
    for n in range(1, 9):
        E.graphs_on(n)  # the levels are built outside the count
    classes, peels = [], []
    degree_classes = G.degree_classes

    def counted(g):
        classes.append(g)
        return degree_classes(g)

    peel_degrees = G.peel_degrees

    def counted_peels(g):
        for degs in peel_degrees(g):
            peels.append(g)
            yield degs

    monkeypatch.setattr(G, "degree_classes", counted)
    monkeypatch.setattr(G, "peel_degrees", counted_peels)
    rep = E.run_search_campaign(E.EnumConfig(n_max=8), "case_lemmas")
    assert rep["ok"] and rep["checked"] == 13_580
    assert len(classes) == len(set(classes)) == 13_580
    assert len(peels) == 13_541 + 1_578


@pytest.mark.parametrize(
    "campaign, n_max", [("case_lemmas", 4), ("case_lemmas", 3),
                        ("regular_tail", 3), ("regular_tail", -2),
                        ("churn_totality", 4)])
def test_campaign_below_its_first_level_refused(campaign, n_max):
    """A campaign whose n_max is below its first level would check nothing
    and still report ok, so it is refused."""
    with pytest.raises(ValueError, match="first level"):
        E.run_search_campaign(E.EnumConfig(n_max=n_max), campaign)


def test_regular_tail_at_its_first_level():
    """n_max = 4 checks level 4 alone; its exceptions are 2K2 and C4."""
    rep = E.run_search_campaign(E.EnumConfig(n_max=4), "regular_tail")
    assert rep["ok"] and rep["checked"] == 11 and len(rep["exceptions"]) == 2


@pytest.mark.parametrize("campaign", ["case_lemmas", "regular_tail", "churn_totality"])
def test_campaign_worker_determinism(campaign, monkeypatch):
    """Two workers give the serial report. Level 6 is four check slices
    here, so its checks run in worker processes."""
    monkeypatch.setattr(E, "_CHECK_CHUNK", 40)
    reports = []
    for workers in (1, 2):
        rep = E.run_search_campaign(E.EnumConfig(n_max=6, workers=workers), campaign)
        del rep["runtime_sec"], rep["workers"]
        reports.append(rep)
    assert reports[0] == reports[1]


def test_checkpoint_roundtrip(tmp_path):
    cp = str(tmp_path / "ckpt")
    os.makedirs(cp, exist_ok=True)
    first = E._extend(E.graphs_on(4), 5, 1, cp)
    assert len(first) == 34
    shard = os.path.join(cp, "level-05.shard-0000.txt")
    with open(shard) as f:
        assert [line.strip() for line in f] == [G.to_graph6(g) for g in first]
    # a second run reuses the shard files
    second = E._extend(E.graphs_on(4), 5, 1, cp)
    assert [G.to_graph6(g) for g in first] == [G.to_graph6(g) for g in second]


def test_resume_rewrites_exactly_the_missing_shard(tmp_path, monkeypatch):
    monkeypatch.setattr(E, "_SHARD_PARENTS", 4)  # level 6 has 9 shards
    monkeypatch.setattr(E, "_levels", {})
    serial = [G.to_graph6(g) for g in E.graphs_on(6)]
    cp = str(tmp_path / "ckpt")
    monkeypatch.setattr(E, "_levels", {})
    E.graphs_on(6, workers=2, checkpoint_path=cp)
    files = sorted(os.listdir(cp))
    assert not [f for f in files if f.endswith(".g6")]  # no whole-level files
    shards = [f for f in files if f.startswith("level-06.shard-")]
    assert len(shards) == 9
    victim = os.path.join(cp, shards[4])
    with open(victim, "rb") as f:
        want = f.read()
    os.remove(victim)
    written = []
    write_lines = E._write_lines

    def record(path, lines):
        written.append(os.path.basename(path))
        write_lines(path, lines)

    monkeypatch.setattr(E, "_write_lines", record)
    monkeypatch.setattr(E, "_levels", {})
    resumed = E.graphs_on(6, workers=2, checkpoint_path=cp)
    assert [G.to_graph6(g) for g in resumed] == serial
    assert written == [shards[4]]
    assert sorted(os.listdir(cp)) == files
    with open(victim, "rb") as f:
        assert f.read() == want


def test_killed_run_keeps_finished_shards(tmp_path, monkeypatch):
    class Killed(Exception):
        pass

    monkeypatch.setattr(E, "_SHARD_PARENTS", 4)  # level 6 has 9 shards
    monkeypatch.setattr(E, "_levels", {})
    serial = [G.to_graph6(g) for g in E.graphs_on(6)]
    cp = str(tmp_path / "ckpt")
    monkeypatch.setattr(E, "_levels", {})
    E.graphs_on(5, checkpoint_path=cp)
    augment, calls = E._augment_shard, []

    def killed_after_three(parents):
        if len(calls) == 3:
            raise Killed
        calls.append(parents)
        return augment(parents)

    monkeypatch.setattr(E, "_augment_shard", killed_after_three)
    with pytest.raises(Killed):
        E.graphs_on(6, checkpoint_path=cp)
    assert sorted(f for f in os.listdir(cp) if f.startswith("level-06")) == [
        f"level-06.shard-{i:04d}.txt" for i in range(3)
    ]
    monkeypatch.setattr(E, "_augment_shard", augment)
    assert [G.to_graph6(g) for g in E.graphs_on(6, checkpoint_path=cp)] == serial


def test_format_2_checkpoint_refused(tmp_path, capsys):
    """Format 2 (whole-level files) and format 3 (shard files in the
    generation order before one labeling per child) are both refused."""
    lines = "".join(G.to_graph6(g) + "\n" for g in E.graphs_on(5))
    for fmt, name in ((2, "level-05.g6"), (3, "level-05.shard-0000.txt")):
        cp = tmp_path / f"format-{fmt}"
        cp.mkdir()
        old = {"format": fmt, "shard_parents": E._SHARD_PARENTS,
               "version": __version__}
        (cp / "manifest.json").write_text(json.dumps(old, sort_keys=True) + "\n")
        (cp / name).write_text(lines)
        with pytest.raises(ValueError, match="manifest"):
            E.graphs_on(5, checkpoint_path=str(cp))
        code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "5",
                         "--resume", str(cp)])
        assert code == 2
        assert "manifest" in capsys.readouterr().err


def test_resume_path_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "not-a-dir"
    path.write_text("x\n")
    code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "5",
                     "--resume", str(path)])
    assert code == 2
    assert "not a directory" in capsys.readouterr().err
    assert path.read_text() == "x\n"

def test_checkpoint_manifest_written_and_checked(tmp_path, monkeypatch):
    cp = str(tmp_path / "ckpt")
    monkeypatch.setattr(E, "_levels", {})
    E.graphs_on(5, checkpoint_path=cp)
    with open(os.path.join(cp, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["shard_parents"] == E._SHARD_PARENTS
    monkeypatch.setattr(E, "_levels", {})
    assert len(E.graphs_on(6, checkpoint_path=cp)) == 156  # resumes
    manifest["format"] -= 1
    with open(os.path.join(cp, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="manifest"):
        E.graphs_on(6, checkpoint_path=cp)


def test_checkpoint_without_manifest_refused(tmp_path, capsys):
    cp = tmp_path / "old"
    cp.mkdir()
    g = E.graphs_on(5)[3]
    # a shard in the earlier layout: certificate hex, then graph6
    (cp / "level-05.shard-0000.txt").write_text(
        f"{G.canonical_cert(g).hex()} {G.to_graph6(g)}\n"
    )
    with pytest.raises(ValueError, match="manifest"):
        E.graphs_on(5, checkpoint_path=str(cp))
    code = cli.main(["verify", "--campaign", "case_lemmas", "--n-max", "5",
                     "--resume", str(cp)])
    assert code == 2
    assert "manifest" in capsys.readouterr().err



def test_checkpoint_after_cached_levels_is_complete(tmp_path, monkeypatch):
    """Levels already in memory still get their shard files when a
    checkpoint directory first appears, byte for byte as a cold run
    writes them, and the manifest is opened once per call."""
    monkeypatch.setattr(E, "_SHARD_PARENTS", 4)  # several shards per level
    cold = str(tmp_path / "cold")
    monkeypatch.setattr(E, "_levels", {})
    E.graphs_on(6, checkpoint_path=cold)
    monkeypatch.setattr(E, "_levels", {})
    E.graphs_on(5)
    opened = []
    open_checkpoint = E._open_checkpoint
    monkeypatch.setattr(E, "_open_checkpoint",
                        lambda cp: opened.append(cp) or open_checkpoint(cp))
    late = str(tmp_path / "late")
    E.graphs_on(6, checkpoint_path=late)
    assert opened == [late]
    files = sorted(os.listdir(cold))
    assert sorted(os.listdir(late)) == files
    assert {f[:8] for f in files if f.startswith("level-")} == {
        f"level-{n:02d}" for n in range(2, 7)}
    for name in files:
        with open(os.path.join(cold, name), "rb") as a, \
                open(os.path.join(late, name), "rb") as b:
            assert a.read() == b.read(), name

    def no_augmenting(parents):
        raise AssertionError("augmented a shard the checkpoint holds")

    monkeypatch.setattr(E, "_augment_shard", no_augmenting)
    monkeypatch.setattr(E, "_levels", {})
    assert len(E.graphs_on(6, checkpoint_path=late)) == 156


def test_worker_count_is_checked_and_capped(monkeypatch, capsys):
    with pytest.raises(ValueError, match="workers"):
        E.EnumConfig(n_max=5, workers=0)
    code = cli.main(["verify", "--campaign", "regular_tail", "--n-max", "5",
                     "--workers", "0"])
    assert code == 2 and "workers" in capsys.readouterr().err
    # the acceptance suite's variable does not reach the command line
    seen = []
    monkeypatch.setenv("HFA_WORKERS", "abc")
    monkeypatch.setattr(E, "run_search_campaign",
                        lambda cfg, name: seen.append(cfg.workers) or {"ok": True})
    code = cli.main(["verify", "--campaign", "regular_tail", "--n-max", "5",
                     "--workers", "1"])
    assert code == 0 and seen == [1]
    capsys.readouterr()

    class Pool:  # records its size and runs the tasks in this process
        sizes: list[int] = []

        def __init__(self, size):
            Pool.sizes.append(size)

        def submit(self, fn, task):
            done = Future()
            done.set_result(fn(task))
            return done

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    tasks = [(i, i) for i in range(3)]
    assert sorted(E._shard_map(abs, tasks, 64)) == tasks
    assert sorted(E._shard_map(abs, tasks, 2)) == tasks
    assert Pool.sizes == [3, 2]


def test_shard_map_raises_on_unloadable_result(tmp_path):
    """A worker result that cannot be unpickled in the parent raises
    BrokenProcessPool instead of stalling the pool (run in a child
    process under a timeout, so a hang fails the test)."""
    (tmp_path / "unloadable.py").write_text(
        "def _refuse():\n"
        "    raise RuntimeError('refused to load')\n"
        "\n"
        "class Unloadable:\n"
        "    def __reduce__(self):\n"
        "        return (_refuse, ())\n"
        "\n"
        "def make(task):\n"
        "    return Unloadable()\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "from hfree import enumeration as E\n"
        "import unloadable\n"
        "list(E._shard_map(unloadable.make, [(0, 0), (1, 1)], 2))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr, proc.stderr
