"""Exhaustive enumeration of small graphs and the verification campaigns.

Graphs on n vertices come from the (n-1)-vertex representatives by
canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998). A child is a parent plus a new vertex x joined to a
subset of the parent's vertices, and it is kept only if x lies in the
child's canonical orbit: x maximises the key (degree, sum of neighbour
degrees), and x is in the orbit of the first vertex of that key in the
child's canonical labeling. Most children fail the key test and need no
labeling, nor does a child where no other vertex has x's key. The key
is invariant, and so is the orbit (see ``graphs._leaf_search``), so two
isomorphic kept children always come from the same parent, through
masks in one orbit of the parent's automorphism group, and only the
least mask of each orbit is tried; there is no dedup set and parent
ranges are independent shards.

One loop, ``_shard_map``, runs every shard: the augmentation of a range
of parents, and a campaign check over a slice of a level. It runs them in
this process or across worker processes, which receive and return
``SmallGraph`` values. With a checkpoint directory each finished
augmentation shard is written at once as newline-delimited graph6 next to
a manifest, and a resumed run computes only the missing shards.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from . import __version__
from . import catalogue as C
from . import classify as CL
from . import graphs as G
from . import membership as M
from .graphs import SmallGraph

# the largest n enumerated: level 11 has 1 018 997 864 classes (OEIS
# A000088), about a thousand times level 10 and beyond a desk machine
N_LIMIT = 10
_SHARD_PARENTS = 384
_CHECK_CHUNK = 2000
_CACHE_MAX = 8
# checkpoint layout: each shard file holds the graph6 of the kept children
# of its parents, parent by parent, and nothing else is written per level;
# bump when the layout or the generation order changes
_CHECKPOINT_FORMAT = 4

_levels: dict[int, list[SmallGraph]] = {}

# reference counts for cross-checks: isomorphism classes on 1..9 vertices
# (OEIS A000088)
KNOWN_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


class ResourceGuard(RuntimeError):
    pass


@dataclass
class EnumConfig:
    n_max: int = 9
    workers: int = 1
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        if self.n_max > N_LIMIT:
            raise ResourceGuard(f"n_max={self.n_max} above the limit {N_LIMIT}")
        if self.workers < 1:
            raise ValueError(f"workers={self.workers}: need at least one")


def _augment(parent: SmallGraph) -> list[SmallGraph]:
    """The children of ``parent`` that canonical augmentation keeps."""
    n, prow = parent.n, parent.rows
    deg = [r.bit_count() for r in prow]
    dsum = [0]  # dsum[m]: the degree sum of the vertex set m
    for d in deg:
        dsum += [t + d for t in dsum]
    nsum = [dsum[r] for r in prow]
    top = max(deg)
    tables = []  # each automorphism lifted to vertex sets: mask -> image
    for p in G.canonical_labeling(prow)[1]:
        img = [0]
        for v in range(n):
            img += [m | 1 << p[v] for m in img]
        tables.append(img)
    x = 1 << n
    out: list[SmallGraph] = []
    for mask in range(x):
        s = mask.bit_count()
        if s < top:
            continue  # a vertex of top degree would outrank x
        xsum = s + dsum[mask]
        ties = x  # x and the parent vertices whose key equals x's
        for v in range(n):  # a break means some vertex outranks x
            inx = mask >> v & 1
            d = deg[v] + inx
            if d < s:
                continue
            if d > s:
                break
            t = nsum[v] + (prow[v] & mask).bit_count() + inx * s
            if t > xsum:
                break
            if t == xsum:
                ties |= 1 << v
        else:
            if G._closure(1 << mask, tables) & ((1 << mask) - 1):
                continue  # the least mask of the orbit gave this child
            rows = [r | (mask >> v & 1) << n for v, r in enumerate(prow)]
            rows.append(mask)
            if ties != x:
                order, cgens = G.canonical_labeling(rows)
                first = next(v for v in order if ties >> v & 1)
                if not G._closure(1 << first, cgens) & x:
                    continue  # x is not in the canonical orbit
            out.append(SmallGraph._trusted(n + 1, rows))
    return out


def _augment_shard(parents: list[SmallGraph]) -> list[SmallGraph]:
    return [c for p in parents for c in _augment(p)]


def _shard_map(
    fn: Callable, tasks: list[tuple[int, object]], workers: int
) -> Iterator[tuple[int, object]]:
    """Yield ``(i, fn(task))`` for each ``(i, task)`` in ``tasks`` as it
    finishes: in this process when ``workers`` is 1 or there is one task,
    otherwise on a pool of ``workers`` processes, one per task at most. A
    worker that dies, or a result that cannot be unpickled here, raises
    ``BrokenProcessPool``; tasks not yet started are cancelled."""
    if workers <= 1 or len(tasks) <= 1:
        for i, task in tasks:
            yield i, fn(task)
        return
    # imported here: a serial run need not load the process machinery
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(min(workers, len(tasks)))
    try:
        index = {pool.submit(fn, task): i for i, task in tasks}
        for done in as_completed(index):
            yield index[done], done.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _extend(
    parents: list[SmallGraph], level: int, workers: int, cp: Optional[str]
) -> list[SmallGraph]:
    """Level ``level`` from the level below, shard by shard: a shard whose
    checkpoint file exists is read back, the rest are augmented and each
    one's file is written as soon as it finishes."""
    shards = range(0, len(parents), _SHARD_PARENTS)
    done: dict[int, list[SmallGraph]] = {}
    tasks = []
    for i, start in enumerate(shards):
        path = _shard_path(cp, level, i)
        if path is not None and os.path.exists(path):
            with open(path) as f:
                done[i] = [G.from_graph6(line) for line in f.read().split()]
        else:
            tasks.append((i, parents[start : start + _SHARD_PARENTS]))
    for i, children in _shard_map(_augment_shard, tasks, workers):
        done[i] = children
        path = _shard_path(cp, level, i)
        if path is not None:
            _write_lines(path, [G.to_graph6(g) for g in children])
    return [g for i in range(len(shards)) for g in done[i]]


def _shard_path(cp: Optional[str], level: int, idx: int) -> Optional[str]:
    if cp is None:
        return None
    return os.path.join(cp, f"level-{level:02d}.shard-{idx:04d}.txt")


def _write_lines(path: str, lines: list[str]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        for line in lines:
            f.write(line + "\n")
    os.replace(tmp, path)


def _open_checkpoint(cp: str) -> None:
    """Refuse a checkpoint directory whose files this version cannot trust;
    start a fresh one with its manifest."""
    if os.path.exists(cp) and not os.path.isdir(cp):
        raise ValueError(f"checkpoint {cp} exists and is not a directory")
    want = {
        "format": _CHECKPOINT_FORMAT,
        "shard_parents": _SHARD_PARENTS,
        "version": __version__,
    }
    path = os.path.join(cp, "manifest.json")
    if os.path.exists(path):
        with open(path) as f:
            try:
                got = json.load(f)
            except json.JSONDecodeError:
                got = None
        if got != want:
            raise ValueError(
                f"checkpoint {cp} has manifest {got}, this version writes "
                f"{want}; use a fresh directory"
            )
        return
    if os.path.isdir(cp) and any(f.startswith("level-") for f in os.listdir(cp)):
        raise ValueError(
            f"checkpoint {cp} holds level files but no manifest.json; "
            "use a fresh directory"
        )
    os.makedirs(cp, exist_ok=True)
    _write_lines(path, [json.dumps(want, sort_keys=True)])


def graphs_on(
    n: int, workers: int = 1, checkpoint_path: Optional[str] = None
) -> list[SmallGraph]:
    """All non-isomorphic graphs on exactly n vertices."""
    if not 1 <= n <= N_LIMIT:
        raise ResourceGuard(f"n={n} outside 1..{N_LIMIT}")
    if checkpoint_path is not None:
        _open_checkpoint(checkpoint_path)
    return _graphs_on(n, workers, checkpoint_path)


def _graphs_on(n: int, workers: int, cp: Optional[str]) -> list[SmallGraph]:
    """Level n, from the cache when there is no checkpoint; with one, every
    shard file of levels 2..n is in ``cp`` afterwards."""
    level = _levels.get(n)
    if level is not None and cp is None:
        return level
    if n == 1:
        level = [G.empty_graph(1)]  # level 1 has no shard files
    else:
        level = _extend(_graphs_on(n - 1, workers, cp), n, workers, cp)
    if n <= _CACHE_MAX:
        _levels[n] = level
    return level


# -- campaigns ----------------------------------------------------------------

# graph6 of the only nontrivial regular graphs with r > n - 5 where neither
# the graph nor its complement is 3-connected: 2K2, C4 and C5
REGULAR_TAIL_EXCEPTIONS = ("C`", "Cl", "Dhc")


def _check_case_lemmas(g: SmallGraph) -> Optional[dict]:
    # A hit is a non-regular graph where churn stops, outside Y_D and X.
    # Cheapest test first; each is a pure predicate, so the order changes
    # no hit. A regular graph has no peels, so no cells: it is complete or
    # empty (in Y_D) or nontrivial regular (in X). Few graphs have two easy
    # peels (312 of 13 580 with n <= 8), and only those reach the X-witness
    # search.
    side, peel_shapes = M.peel_side(g, "deletion")
    if side is not None or not peel_shapes:
        return None  # churn goes on, or g is regular: not a case-table graph
    if M.in_y_d(g) or M.x_witness_for(g, "deletion") is not None:
        return None
    tl, th = peel_shapes
    member = C.membership_W(g)
    return {
        "g6": G.to_graph6(g),
        "cells": [(a, b) for a in tl for b in th],
        "in_W": member is not None,
        "member": str(member) if member else None,
    }


def _fold_case_lemmas(hits: list[dict], n_max: int) -> dict:
    """Hits per (low, high) peel-type cell; a hit outside W fails."""
    cells: dict[str, dict] = {}
    for h in hits:
        for a, b in h.pop("cells"):
            c = cells.setdefault(f"{a}|{b}", {"graphs": 0, "counterexamples": 0})
            c["graphs"] += 1
            if not h["in_W"]:
                c["counterexamples"] += 1
    found = sorted((h for h in hits if not h["in_W"]), key=lambda d: d["g6"])
    return {
        "cells": {k: cells[k] for k in sorted(cells)},
        "counterexamples": found,
        "ok": not found,
    }


def _check_regular_tail(g: SmallGraph) -> Optional[dict]:
    if not G.is_regular(g) or G.is_complete(g) or G.is_empty(g):
        return None
    r = g.degree(0)
    if r <= g.n - 5:
        return None
    ok = M.is_3_connected(g) or M.is_3_connected(G.complement(g))
    return {"g6": G.to_graph6(g), "r": r, "three_connected_side": ok}


def _fold_regular_tail(hits: list[dict], n_max: int) -> dict:
    """Hits with no 3-connected side: the known exceptions up to n_max."""
    got = sorted({h["g6"] for h in hits if not h["three_connected_side"]})
    expected = [G.from_graph6(s) for s in REGULAR_TAIL_EXCEPTIONS]
    want = {G.canonical_cert(g) for g in expected if g.n <= n_max}
    certs = [G.canonical_cert(G.from_graph6(s)) for s in got]
    return {"exceptions": got, "ok": len(certs) == len(want) and set(certs) == want}


def _check_churn_totality(g: SmallGraph) -> Optional[dict]:
    found = M.shapes(g.degrees())
    out = {}
    for problem in ("deletion", "editing"):
        if not M.is_easy(found, problem):
            v = CL.classify(g, problem)
            if v.status == "Incompressible" or v.member in CL.OPEN_MEMBERS[problem]:
                continue  # only OpenCatalogue verdicts name a member
            out[problem] = v.status if v.member is None else f"{v.status}:{v.member}"
    return {"g6": G.to_graph6(g), **out} if out else None


def _fold_churn_totality(hits: list[dict], n_max: int) -> dict:
    return {"counterexamples": sorted(hits, key=lambda d: d["g6"]), "ok": not hits}


# level campaign -> (first n, check, fold). The check runs on every graph
# of levels first n .. n_max and returns a hit or None; the fold turns all
# the hits, in level order, into the report's result keys, "ok" among them.
_LEVEL_CAMPAIGNS: dict[str, tuple[int, Callable, Callable]] = {
    "case_lemmas": (5, _check_case_lemmas, _fold_case_lemmas),
    "regular_tail": (4, _check_regular_tail, _fold_regular_tail),
    "churn_totality": (5, _check_churn_totality, _fold_churn_totality),
}
CAMPAIGNS = tuple(_LEVEL_CAMPAIGNS)


def _check_shard(task: tuple[str, list[SmallGraph]]) -> list[dict]:
    """The hits of one level campaign's check on a slice of a level."""
    name, graphs = task
    check = _LEVEL_CAMPAIGNS[name][1]
    return [h for h in map(check, graphs) if h is not None]


def run_search_campaign(cfg: EnumConfig, campaign: str) -> dict:
    """Execute one named verification campaign; see CAMPAIGNS."""
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign}; pick from {CAMPAIGNS}")
    first_n, _, fold = _LEVEL_CAMPAIGNS[campaign]
    if cfg.n_max < first_n:  # it would check nothing and report ok
        raise ValueError(f"{campaign} needs n_max >= {first_n}, its first level")
    t0 = time.time()
    report: dict = {
        "campaign": campaign,
        "n_max": cfg.n_max,
        "workers": cfg.workers,
        "per_n": {},
        "counterexamples": [],
    }
    hits: list[dict] = []
    miscounted = []
    checked = 0
    for n in range(first_n, cfg.n_max + 1):
        level = graphs_on(n, cfg.workers, cfg.checkpoint_path)
        checked += len(level)
        if n <= len(KNOWN_COUNTS) and len(level) != KNOWN_COUNTS[n - 1]:
            miscounted.append(n)
        tasks = [
            (i, (campaign, level[start : start + _CHECK_CHUNK]))
            for i, start in enumerate(range(0, len(level), _CHECK_CHUNK))
        ]
        out = dict(_shard_map(_check_shard, tasks, cfg.workers))
        found = [h for i in range(len(tasks)) for h in out[i]]
        report["per_n"][n] = {"graphs": len(level), "hits": len(found)}
        hits += found
    report.update(fold(hits, cfg.n_max))
    if miscounted:
        # a level of the wrong size makes every check above meaningless
        report["miscounted_levels"] = miscounted
        report["ok"] = False
    report["checked"] = checked
    report["runtime_sec"] = round(time.time() - t0, 3)
    return report
