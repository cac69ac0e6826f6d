"""Satisfaction-testing components, truth-setting components, enforcers.

Everything here is definitional verification: the gadget table rows are
checked against their role's definition rather than trusted. An S-component
must induce a propagational function through (non)edge toggles; a basic
unit must chain into a truth-setting component whose only modification
sets are the empty set and the set of all allowed pairs; an enforcer must
pin its distinguished pair without leaking induced copies across the
attachment boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import catalogue
from . import enumeration
from . import graphs as G
from ._gadget_table import GADGET_TABLE
from .graphs import SmallGraph

ROLES = ("SComponent", "BasicUnit", "Enforcer")
_ROLE_KEY = {"SComponent": "s_component", "BasicUnit": "basic_unit",
             "Enforcer": "enforcer"}


# the most allowed pairs a truth-setting complex may have for its 2**n toggle
# masks to be scanned one by one (``modification_sets``)
EXHAUSTIVE_PAIRS = 21


class GadgetError(ValueError):
    pass


@dataclass(frozen=True)
class Gadget:
    graph: SmallGraph
    role: str
    mode: str  # "delete" or "complete"
    allowed: tuple[tuple[int, int], ...]  # ordered distinguished pairs
    h: str  # catalogue id of the target graph

    def __post_init__(self):
        if self.role not in ROLES:
            raise GadgetError(f"unknown role {self.role}")
        if self.mode not in ("delete", "complete"):
            raise GadgetError(f"unknown mode {self.mode}")
        want = {"SComponent": 3, "BasicUnit": 2, "Enforcer": 1}[self.role]
        if len(self.allowed) != want:
            raise GadgetError(f"{self.role} needs {want} allowed pairs")
        for u, v in self.allowed:
            edge = self.graph.has_edge(u, v)
            if self.mode == "delete" and not edge:
                raise GadgetError("allowed pair must be an edge in delete mode")
            if self.mode == "complete" and edge:
                raise GadgetError("allowed pair must be a nonedge in complete mode")


def host_graph(h_id: str) -> SmallGraph:
    return catalogue.lookup(h_id).graph


def table_rows() -> list[str]:
    return sorted(GADGET_TABLE)


def table_gadget(h_id: str, mode: str, role: str) -> Optional[Gadget]:
    """The gadget stored for (host, mode, role), or None for an empty cell."""
    cell = GADGET_TABLE.get(h_id, {}).get(mode, {}).get(_ROLE_KEY[role])
    if cell is None:
        return None
    g = G.from_edges(cell["n"], cell["edges"])
    allowed = cell["marked"]
    if role in ("SComponent", "BasicUnit"):
        allowed = _order_allowed(g, allowed, host_graph(h_id))
    return Gadget(g, role, mode, tuple(tuple(p) for p in allowed), h_id)


def _order_allowed(g, marked, h):
    """Put the pair recovering the host graph first: that pair is x of an
    S-component and the glue-in side of a basic unit."""
    xs = [p for p in marked if G.are_isomorphic(G.apply_flips(g, [p]), h)]
    if not xs:
        raise GadgetError("no marked pair recovers the host graph")
    x = xs[0]
    rest = [p for p in marked if p != x]
    return [x] + rest


# -- propagational tables ----------------------------------------------------


@dataclass(frozen=True)
class PropTable:
    """f(x,y,z) for all eight assignments, indexed x*4 + y*2 + z."""

    values: tuple[bool, ...]

    def __post_init__(self):
        if len(self.values) != 8:
            raise GadgetError("PropTable needs exactly eight entries")

    def value(self, x: int, y: int, z: int) -> bool:
        return self.values[x * 4 + y * 2 + z]


def check_propagational(t: PropTable) -> bool:
    """f(1,0,0)=0 and f(0,0,0)=f(1,0,1)=f(1,1,0)=f(1,1,1)=1."""
    return (
        not t.value(1, 0, 0)
        and t.value(0, 0, 0)
        and t.value(1, 0, 1)
        and t.value(1, 1, 0)
        and t.value(1, 1, 1)
    )


def verify_s_component(gadget: Gadget) -> PropTable:
    """Check the S-component definition; return the induced table.

    Raises GadgetError if the gadget graph contains the host or the table
    of toggle outcomes is not propagational. The eight toggles of
    (x, y, z), x as bit 0, are read from one search (``_toggle_copies``);
    mask 0 is host-freeness.
    """
    if gadget.role != "SComponent":
        raise GadgetError("gadget role must be SComponent")
    copies = _toggle_copies(gadget.graph, gadget.allowed, host_graph(gadget.h))
    free = _free_masks(copies, range(8))
    if 0 not in free:
        raise GadgetError("S-component is not host-free")
    table = PropTable(tuple(bx | by << 1 | bz << 2 in free
                            for bx, by, bz in itertools.product((0, 1), repeat=3)))
    if not check_propagational(table):
        raise GadgetError(f"table not propagational: {table.values}")
    return table


# -- truth-setting components -------------------------------------------------


@dataclass(frozen=True)
class TruthSetting:
    """Cyclically chained basic units with three variable pairs."""

    graph: SmallGraph
    mode: str
    allowed: tuple[tuple[int, int], ...]  # all 3p allowed pairs
    variable_pairs: tuple[tuple[int, int], ...]  # the three chain joints
    h: str


def build_truth_setting(unit: Gadget, p: Optional[int] = None) -> TruthSetting:
    """Three chains of p units each, attached in a cycle.

    Each unit is glued to the next by identifying its second allowed pair
    with the next unit's first allowed pair; the three chain-to-chain
    joints are the variable pairs. p defaults to the host's vertex count.
    """
    if unit.role != "BasicUnit":
        raise GadgetError("gadget role must be BasicUnit")
    if p is None:
        p = host_graph(unit.h).n
    if p < 2:
        raise GadgetError("chains need at least two units")
    u = unit.graph
    glue_in, glue_out = unit.allowed  # e' (recovers host), e
    if set(glue_in) & set(glue_out):
        raise GadgetError("the unit's two glue pairs share a vertex")
    grow = G.Builder(u, cap=None)
    ins = [tuple(sorted(glue_in))]  # each unit's glue-in pair, in chain order
    prev_out = glue_out
    for i in range(1, 3 * p):
        image = dict(zip(glue_in, prev_out))
        closing = i == 3 * p - 1
        if closing:  # its glue-out pair is the first unit's glue-in pair
            image.update(zip(glue_out, glue_in))
        at = grow.glue(u, image)
        if closing:  # glue leaves pairs between given vertices alone
            for a, b in itertools.product(glue_in, glue_out):
                if u.has_edge(a, b):
                    grow.connect(at[a], at[b])
        ins.append(tuple(sorted((at[glue_in[0]], at[glue_in[1]]))))
        prev_out = (at[glue_out[0]], at[glue_out[1]])
    # the glue pairs are disjoint and glue never touches a pair between
    # given vertices, so the 3p glue-in pairs are distinct and each keeps
    # the unit's (non)edge; the chain joints are those of units p, 2p, 0
    variable_pairs = (ins[p], ins[2 * p], ins[0])
    return TruthSetting(grow.graph(), unit.mode, tuple(sorted(ins)),
                        variable_pairs, unit.h)


def _toggle_copies(graph: SmallGraph, pairs, h: SmallGraph) -> list[tuple[int, set[int]]]:
    """Which toggles of ``pairs`` give graph an induced copy of h.

    One relaxed search (``find_induced`` with the pairs free) finds each
    vertex set that induces h for some toggle of the pairs inside it; each
    toggle of those pairs that leaves h's edge count is then checked by one
    embedding of h into the toggled copy. Returned as ``(varmask, patterns)``
    bitmasks over ``pairs`` (each taken as u < v), merged by varmask: the
    pairs inside a copy, and the toggles of those pairs that make it h.
    Toggling the pairs in a mask leaves graph h-free exactly when no entry
    has ``mask & varmask`` in its patterns (``_free_masks``).
    """
    pair_index = {(min(p), max(p)): i for i, p in enumerate(pairs)}
    free = [0] * graph.n
    for a, b in pair_index:
        free[a] |= 1 << b
        free[b] |= 1 << a
    hm = h.edge_count()
    copies: dict[int, set[int]] = {}
    for hit in G.find_induced(graph, h, free=free):
        T = sorted(hit)
        var = [(a, b) for a, b in itertools.combinations(T, 2) if free[a] >> b & 1]
        bits = [1 << pair_index[p] for p in var]
        sub = G.induced_subgraph(graph, T)
        pos = {v: i for i, v in enumerate(T)}
        for sel in range(1 << len(var)):
            picked = [i for i in range(len(var)) if sel >> i & 1]
            cand = G.apply_flips(sub, [(pos[var[i][0]], pos[var[i][1]]) for i in picked])
            # an embedding of h into a graph of its size is an isomorphism
            if cand.edge_count() == hm and G.contains_induced(cand, h):
                copies.setdefault(sum(bits), set()).add(sum(bits[i] for i in picked))
    return list(copies.items())


def _free_masks(copies, masks) -> list[int]:
    """The masks, in order, whose toggle leaves the graph h-free, read from
    its ``_toggle_copies``."""
    good = []
    for mask in masks:
        for varmask, patterns in copies:
            if mask & varmask in patterns:
                break
        else:
            good.append(mask)
    return good


def modification_sets(tc: TruthSetting, h: SmallGraph) -> list[int]:
    """All subsets of allowed pairs whose toggle leaves the complex h-free,
    as bitmasks over tc.allowed: every mask, read from one search
    (``_toggle_copies``), guarded at 2**EXHAUSTIVE_PAIRS subsets."""
    if len(tc.allowed) > EXHAUSTIVE_PAIRS:
        raise GadgetError(
            f"{len(tc.allowed)} allowed pairs exceed exhaustive guard {EXHAUSTIVE_PAIRS}")
    return _free_masks(_toggle_copies(tc.graph, tc.allowed, h), range(1 << len(tc.allowed)))


def verify_truth_setting(tc: TruthSetting, h: SmallGraph, mode: str) -> bool:
    """Exactly two modification sets: empty and all allowed pairs."""
    if mode != tc.mode:
        raise GadgetError("mode mismatch")
    good = modification_sets(tc, h)
    full = (1 << len(tc.allowed)) - 1
    return sorted(good) == [0, full]


def verify_truth_setting_weak(tc: TruthSetting, h: SmallGraph) -> bool:
    """Weaker property for large complexes: the two designated sets leave
    the complex h-free, and toggling any single allowed pair creates an
    induced copy. Of mask 0, the full mask and the single-pair masks, read
    from one search (``_toggle_copies``), exactly the first two must leave
    it h-free.

    That copy contains a further allowed pair, which forces the chain: a
    copy free of other allowed pairs would survive toggling them all,
    which the all-toggled check rules out, so it needs no test of its own.
    """
    n = len(tc.allowed)
    masks = [0, (1 << n) - 1] + [1 << i for i in range(n)]
    return _free_masks(_toggle_copies(tc.graph, tc.allowed, h), masks) == masks[:2]


# -- enforcers ----------------------------------------------------------------


def attach_enforcer(
    g: SmallGraph, pair: tuple[int, int], enf: Gadget, copies: int
) -> SmallGraph:
    """Identify the enforcer's distinguished pair with ``pair``, k+1 times."""
    (ex, ey) = enf.allowed[0]
    grow = G.Builder(g, cap=None)
    for _ in range(copies):
        grow.glue(enf.graph, {ex: pair[0], ey: pair[1]})
    if enf.graph.has_edge(ex, ey):
        grow.connect(*pair)
    return grow.graph()


def enforcer_exact(enf: Gadget) -> dict:
    """Layer (a) of ``verify_enforcer``: whether the gadget is host-free
    and whether toggling its distinguished pair creates an induced host
    copy, masks 0 and 1 of one search (``_toggle_copies``)."""
    free = _free_masks(_toggle_copies(enf.graph, enf.allowed, host_graph(enf.h)), (0, 1))
    return {"host_free": 0 in free, "toggle_creates": 1 not in free, "ok": free == [0]}


def verify_enforcer(enf: Gadget, n_host: int = 6) -> dict:
    """Three-layer evidence report for an enforcer gadget.

    (a) exact: the gadget is host-free and toggling the distinguished pair
        creates an induced host copy;
    (b) structural: the sufficient separator condition behind the gadget's
        correctness argument, checked exactly on the host graph;
    (c) falsification: whether attaching to a host graph with at most
        n_host vertices at a (non)edge gives a crossing induced copy, for
        every host and (non)edge (u, v), u < v, with the distinguished
        pair's first vertex on u. Each pair is decided on the host alone
        from the enforcer's residual patterns, attaching only at the
        reported pair (see ``_first_crossing_copy``).

    The result is evidence, not proof: (b) and (c) bound, but do not
    decide, the universally quantified attachment condition.
    """
    if enf.role != "Enforcer":
        raise GadgetError("gadget role must be Enforcer")
    if n_host < 2:  # layer (c) would try no host and pass
        raise ValueError(f"n_host must be at least 2, got {n_host}")
    if n_host > enumeration.N_LIMIT:  # refused before any level is built
        raise ValueError(
            f"n_host must be at most {enumeration.N_LIMIT}, got {n_host}")
    h = host_graph(enf.h)
    report: dict = {"h": enf.h, "mode": enf.mode, "layers": {}}

    report["layers"]["exact"] = enforcer_exact(enf)

    # layer (b): the host's 2-separators of the distinguished pair's type
    want_edge = enf.mode == "delete"
    seps = [(u, v) for u, v in map(G._bits, G.separators(h, 2))
            if h.has_edge(u, v) == want_edge]
    ex, ey = enf.allowed[0]
    full = (1 << h.n) - 1
    if not seps:
        cond, ok_b = "no-matching-2-separator", True
    elif not enf.graph.rows[ex] & enf.graph.rows[ey] and all(
        comp & h.rows[u] & h.rows[v]  # a common neighbor in each component
        for u, v in seps
        for comp in G._component_masks(h.rows, full ^ (1 << u | 1 << v))
    ):
        cond, ok_b = "separator-common-neighbors", True
    elif want_edge:  # the fallbacks: cycle and path freeness arguments
        cond, ok_b = "no-induced-C4", not G.contains_induced(h, G.cycle_graph(4))
    else:  # no induced P5 has its two ends on a separator
        ends = set()
        for hit in G.find_induced(h, G.path_graph(5)):
            inside = G._mask(hit)
            ends.add(G._mask(w for w in hit if (h.rows[w] & inside).bit_count() == 1))
        cond = "no-induced-P5-between-separator"
        ok_b = not any((1 << u | 1 << v) in ends for u, v in seps)
    report["layers"]["structural"] = {"condition": cond, "ok": ok_b}

    # layer (c): bounded falsification over all small hosts
    violation = _first_crossing_copy(enf, h, n_host)
    violations = [] if violation is None else [violation]
    report["layers"]["falsification"] = {
        "n_host": n_host,
        "violations": violations,
        "ok": not violations,
    }
    report["ok"] = all(layer["ok"] for layer in report["layers"].values())
    return report


def _first_crossing_copy(enf: Gadget, h: SmallGraph, n_host: int) -> Optional[dict]:
    """The first violation of layer (c): hosts by size, in enumeration
    order, then their (non)edges (u, v), u < v, in row order.

    Each pair is decided by ``_crosses`` on the host alone, against the
    enforcer's residual patterns (``_residual_patterns``), and only at the
    first pair that crosses is the enforcer attached and searched for the
    copy to report. A host on n vertices embeds no pattern of more than
    n - 2 vertices, so sizes below the smallest pattern's plus two are
    skipped, and an enforcer with no pattern walks no host at all.

    A walk that reaches hosts above the levels with known counts (9)
    raises ValueError before it builds one: level 10 alone is about
    5.7 GB in-process."""
    patterns = _residual_patterns(enf, h)
    if not patterns:
        return None
    want_edge = enf.mode == "delete"
    for n in range(min(len(sides) for sides, _, _ in patterns) + 2, n_host + 1):
        if n > len(enumeration.KNOWN_COUNTS):
            raise ValueError(
                f"layer (c) of the {enf.h} {enf.mode} enforcer found no violation "
                f"on hosts with at most {n - 1} vertices and would need level {n}; "
                f"use n_host <= {len(enumeration.KNOWN_COUNTS)}")
        for host in enumeration.graphs_on(n):
            for pair in itertools.combinations(range(n), 2):
                if (host.has_edge(*pair) != want_edge
                        or not _crosses(host, pair, patterns)):
                    continue
                joined = attach_enforcer(host, pair, enf, 1)
                for hit in G.find_induced(joined, h):
                    if any(w >= n for w in hit):
                        return {"host": G.to_graph6(host), "pair": pair,
                                "copy": sorted(hit)}
                raise RuntimeError(
                    f"a residual pattern of the {enf.h} {enf.mode} enforcer "
                    f"embeds in {G.to_graph6(host)} at {pair}, but attaching "
                    "it there gives no crossing copy")
    return None


def _residual_patterns(enf: Gadget, h: SmallGraph) -> tuple[tuple, ...]:
    """What a host must hold for one attachment of ``enf`` to give an
    induced copy of h through the enforcer's own vertices N.

    In the joined graph N is adjacent only to itself and to the pair
    (u, v) that the distinguished pair (ex, ey) lands on. A copy meeting N
    thus maps at most one vertex a of h onto u and one b onto v, the rest
    X of its enforcer side into N, and the rest Y into the host minus the
    pair, with no edge of h between X and Y: X is a nonempty union of
    components of h - {a, b}. The enforcer side is an induced embedding of
    h[X + {a, b}] into the enforcer with a on ex, b on ey and X in N; the
    host side is h[Y] with each vertex's adjacency to a and b. The pair's
    own adjacency always agrees, as the mode fixes it on both sides.

    One pattern per distinct host side, as ``(sides, adj, non)``: for each
    vertex of Y, ``(to_u, to_v)`` with ``to_u`` 0 when a is unused, else 1
    for adjacent to a and 2 for not (``to_v`` the same for b), and the
    earlier vertices it is adjacent and non-adjacent to (``graphs._plan``).
    The empty pattern means the enforcer holds a crossing copy by itself.
    An empty set means that no host of any size gives a crossing copy with
    one attachment.
    """
    e = enf.graph
    ex, ey = enf.allowed[0]
    inner = (1 << e.n) - 1 & ~(1 << ex | 1 << ey)
    ends = [None, *range(h.n)]
    patterns = set()
    for a, b in itertools.product(ends, ends):
        if a is not None and a == b:
            continue
        pinned = [(x, 1 << w) for x, w in ((a, ex), (b, ey)) if x is not None]
        rest = (1 << h.n) - 1 & ~G._mask(x for x, _ in pinned)
        comps = list(G._component_masks(h.rows, rest))
        for pick in range(1, 1 << len(comps)):
            xs = 0
            for i, comp in enumerate(comps):
                if pick >> i & 1:
                    xs |= comp
            order = [x for x, _ in pinned] + list(G._bits(xs))
            starts = [w for _, w in pinned] + [inner] * xs.bit_count()
            if not G._embed(e.rows, e.rows, starts, *G._plan(h, order), True):
                continue
            ys = list(G._bits(rest & ~xs))
            sides = tuple((_side(h, y, a), _side(h, y, b)) for y in ys)
            patterns.add((sides, *G._plan(h, ys)))
    return tuple(sorted(patterns))


def _side(h: SmallGraph, y: int, end: Optional[int]) -> int:
    return 0 if end is None else 1 if h.has_edge(y, end) else 2


def _crosses(host: SmallGraph, pair: tuple[int, int], patterns) -> bool:
    """Whether attaching the enforcer whose residual patterns are
    ``patterns`` at ``pair`` of host, its distinguished pair's first vertex
    on pair[0], gives a crossing induced copy: whether host minus the pair
    embeds one of them."""
    u, v = pair
    rows = host.rows
    full = (1 << host.n) - 1
    base = full & ~(1 << u | 1 << v)
    to_u = (full, rows[u], ~rows[u])
    to_v = (full, rows[v], ~rows[v])
    return any(
        G._embed(rows, rows, [base & to_u[cu] & to_v[cv] for cu, cv in sides],
                 adj, non, True)
        for sides, adj, non in patterns)


# -- the table ----------------------------------------------------------------


def verify_row(row: str, mode: str, role: str, n_host: int = 6) -> Optional[dict]:
    """Check one cell of the gadget table; None for an empty cell, and
    ValueError for a row the table lacks, whose cells would all be empty.

    The entry records the outcome under "ok", plus the toggle table (or the
    error) of an S-component, the method of a basic unit and the layers of an
    enforcer. A basic unit's complex is checked exhaustively when it has at
    most ``EXHAUSTIVE_PAIRS`` allowed pairs and 50 vertices, else by the
    weak forcing check.
    """
    if row not in GADGET_TABLE:
        raise ValueError(
            f"no gadget-table row {row!r}; rows: {', '.join(table_rows())}")
    gadget = table_gadget(row, mode, role)
    if gadget is None:
        return None
    entry: dict = {"row": row, "mode": mode, "role": role}
    if role == "SComponent":
        try:
            entry["table"] = list(verify_s_component(gadget).values)
            entry["ok"] = True
        except GadgetError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
    elif role == "BasicUnit":
        tc = build_truth_setting(gadget)
        h = host_graph(row)
        if len(tc.allowed) <= EXHAUSTIVE_PAIRS and tc.graph.n <= 50:
            entry["ok"] = verify_truth_setting(tc, h, mode)
            entry["method"] = "exhaustive"
        else:
            entry["ok"] = verify_truth_setting_weak(tc, h)
            entry["method"] = "weak"
    else:
        rep = verify_enforcer(gadget, n_host=n_host)
        entry["ok"] = rep["ok"]
        entry["layers"] = rep["layers"]
    return entry
