"""Enumeration counts, closure, campaigns, checkpointing."""

import json
import os
from collections import Counter
from math import factorial, gcd

import pytest

from hfree import cli
from hfree import enumeration as E
from hfree import graphs as G


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
        assert len(E.graphs_on(n)) == E.count_labeled_dedup(n)


def test_counts_match_reference_sequence():
    for n in range(1, 8):
        assert len(E.graphs_on(n)) == E.KNOWN_COUNTS[n - 1]


def test_counts_match_polya_per_edge_count():
    assert _polya_counts(4) == [1, 1, 2, 3, 2, 1, 1]
    for n in range(1, 8):
        hist = Counter(g.edge_count() for g in E.graphs_on(n))
        assert [hist[m] for m in range(n * (n - 1) // 2 + 1)] == _polya_counts(n)


def test_serial_parallel_checkpoint_paths_agree(tmp_path, monkeypatch):
    monkeypatch.setattr(E, "_SHARD_PARENTS", 4)  # several shards per level
    runs = []
    for workers, cp in ((1, None), (2, None), (1, str(tmp_path / "ckpt"))):
        monkeypatch.setattr(E, "_levels", {})
        runs.append([[G.to_graph6(g) for g in E.graphs_on(n, workers, cp)]
                     for n in range(1, 7)])
    assert runs[0] == runs[1] == runs[2]
    assert [len(level) for level in runs[0]] == list(E.KNOWN_COUNTS[:6])


def test_stream_is_complement_closed():
    for n in range(1, 8):
        certs = {G.canonical_cert(g) for g in E.graphs_on(n)}
        co = {G.canonical_cert(G.complement(g)) for g in E.graphs_on(n)}
        assert certs == co


def test_guardrail():
    with pytest.raises(E.ResourceGuard):
        E.EnumConfig(n_max=11)
    E.EnumConfig(n_max=11, force=True)
    with pytest.raises(E.ResourceGuard):
        E.graphs_on(12)


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


def test_campaign_case_lemmas_small():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "case_lemmas")
    assert rep["ok"] and not rep["counterexamples"]
    assert "empty|complete" not in rep["cells"]
    assert "near-empty|complete" not in rep["cells"]


def test_campaign_w_closure():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "W_closure")
    assert rep["ok"] and rep["checked"] > 100


def test_campaign_churn_totality_small():
    rep = E.run_search_campaign(E.EnumConfig(n_max=6), "churn_totality")
    assert rep["ok"], rep["counterexamples"][:3]


def test_campaign_unknown():
    with pytest.raises(ValueError):
        E.run_search_campaign(E.EnumConfig(n_max=5), "nope")


def test_campaign_worker_determinism():
    a = E.run_search_campaign(E.EnumConfig(n_max=6, workers=1), "case_lemmas")
    b = E.run_search_campaign(E.EnumConfig(n_max=6, workers=2), "case_lemmas")
    for key in ("cells", "counterexamples", "checked", "per_n"):
        assert a[key] == b[key]


def test_checkpoint_roundtrip(tmp_path):
    cp = str(tmp_path / "ckpt")
    os.makedirs(cp, exist_ok=True)
    first = E._extend_parallel(E.graphs_on(4), 1, cp, 5)
    assert len(first) == 34
    shard = os.path.join(cp, "level-05.shard-0000.txt")
    with open(shard) as f:
        assert [line.strip() for line in f] == [G.to_graph6(g) for g in first]
    # a second run reuses the shard files
    second = E._extend_parallel(E.graphs_on(4), 1, cp, 5)
    assert [G.to_graph6(g) for g in first] == [G.to_graph6(g) for g in second]


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


def test_filters():
    level = E.graphs_on(4)
    conn = E._filtered(level, {"connected": True})
    assert len(conn) == 6
    degs = E._filtered(level, {"degree_sequence": [1, 1, 2, 2]})
    assert len(degs) == 1  # the four-vertex path
