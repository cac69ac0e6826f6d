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

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from . import catalogue
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
    of toggle outcomes is not propagational.
    """
    if gadget.role != "SComponent":
        raise GadgetError("gadget role must be SComponent")
    h = host_graph(gadget.h)
    if G.contains_induced(gadget.graph, h):
        raise GadgetError("S-component is not host-free")
    x, y, z = gadget.allowed
    vals = []
    for bx, by, bz in itertools.product((0, 1), repeat=3):
        toggled = [p for p, b in ((x, bx), (y, by), (z, bz)) if b]
        vals.append(G.is_free_of(G.apply_flips(gadget.graph, toggled), h))
    table = PropTable(tuple(vals))
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


def modification_sets(tc: TruthSetting, h: SmallGraph) -> list[int]:
    """All subsets of allowed pairs whose toggle leaves the complex h-free.

    Returned as bitmasks over tc.allowed. The candidate vertex sets are
    those that induce h for some toggle of the allowed pairs inside them,
    found by one relaxed search (``find_induced`` with the allowed pairs
    free); each is then checked pattern by pattern. The final scan over
    all masks is exhaustive, guarded at 2**EXHAUSTIVE_PAIRS subsets.
    """
    pairs = list(tc.allowed)
    np_ = len(pairs)
    if np_ > EXHAUSTIVE_PAIRS:
        raise GadgetError(
            f"{np_} allowed pairs exceed exhaustive guard {EXHAUSTIVE_PAIRS}")
    pair_index = {p: i for i, p in enumerate(pairs)}
    base = tc.graph
    hm = h.edge_count()
    hcert = G.canonical_cert(h)
    # Constraints: for each candidate set T, which local toggle patterns make
    # T induce h. A global mask is bad iff its projection hits a bad pattern.
    constraints: dict[int, set[int]] = {}
    allowed_rows = [0] * base.n
    for a, b in pairs:
        allowed_rows[a] |= 1 << b
        allowed_rows[b] |= 1 << a
    for hit in G.find_induced(base, h, free=allowed_rows):
        T = sorted(hit)
        var = [
            (a, b)
            for a, b in itertools.combinations(T, 2)
            if allowed_rows[a] >> b & 1
        ]
        varmask = 0
        for p in var:
            varmask |= 1 << pair_index[p]
        sub = G.induced_subgraph(base, T)
        pos = {v: i for i, v in enumerate(T)}
        bad: set[int] = set()
        for sel in range(1 << len(var)):
            toggled = [
                (pos[var[i][0]], pos[var[i][1]])
                for i in range(len(var))
                if sel >> i & 1
            ]
            cand = G.apply_flips(sub, toggled)
            if cand.edge_count() != hm:
                continue
            if G.canonical_cert(cand) == hcert:
                # the copy appears exactly when the global mask projects
                # onto these toggled pairs
                patt = 0
                for i in range(len(var)):
                    if sel >> i & 1:
                        patt |= 1 << pair_index[var[i]]
                bad.add(patt)
        if bad:
            constraints.setdefault(varmask, set()).update(bad)
    cons = list(constraints.items())
    good = []
    for mask in range(1 << np_):
        ok = True
        for varmask, bad in cons:
            if mask & varmask in bad:
                ok = False
                break
        if ok:
            good.append(mask)
    return good


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
    induced copy that contains a further allowed pair (forcing the chain).

    The last test is implied by the all-toggled check before it: a copy
    free of other allowed pairs would survive toggling them all. It stays
    as a direct statement of the forcing property.
    """
    if G.contains_induced(tc.graph, h):
        return False
    all_toggled = G.apply_flips(tc.graph, tc.allowed)
    if G.contains_induced(all_toggled, h):
        return False
    allowed = set(tc.allowed)
    for p in tc.allowed:
        created = G.apply_flips(tc.graph, [p])
        hit = G.first_induced(created, h)
        if hit is None:
            return False
        inside = {
            q
            for q in itertools.combinations(sorted(hit), 2)
            if q in allowed and q != p
        }
        if not inside:
            return False
    return True


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
    copy."""
    h = host_graph(enf.h)
    free = not G.contains_induced(enf.graph, h)
    toggled = G.apply_flips(enf.graph, [enf.allowed[0]])
    creates = G.contains_induced(toggled, h)
    return {"host_free": free, "toggle_creates": creates, "ok": free and creates}


def verify_enforcer(enf: Gadget, n_host: int = 6) -> dict:
    """Three-layer evidence report for an enforcer gadget.

    (a) exact: the gadget is host-free and toggling the distinguished pair
        creates an induced host copy;
    (b) structural: the sufficient separator condition behind the gadget's
        correctness argument, checked exactly on the host graph;
    (c) falsification: attach to every host graph with at most n_host
        vertices at every (non)edge and look for a crossing induced copy;
        one attachment per Aut(host)-orbit of ordered pairs finds the same
        first violation (see ``_first_crossing_copy``). The pair's first
        vertex goes on u, u < v, so a (non)edge that no automorphism of the
        host reverses is tried in one orientation only.

    The result is evidence, not proof: (b) and (c) bound, but do not
    decide, the universally quantified attachment condition.
    """
    if enf.role != "Enforcer":
        raise GadgetError("gadget role must be Enforcer")
    if n_host < 2:  # layer (c) would try no host and pass
        raise ValueError(f"n_host must be at least 2, got {n_host}")
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
    order, then their (non)edges (u, v), u < v, in row order. The enforcer
    is attached only at the first pair of each Aut(host)-orbit
    (``_orbit_firsts``): an automorphism mapping (u, v) onto (u', v') maps
    one joined graph onto the other and fixes the enforcer's own vertices,
    so both have a crossing copy or neither has. The first violating pair
    is therefore the first of its orbit, and the search that reports it is
    the one an attachment at every pair would make."""
    # imported here: gadgets -> enumeration -> classify -> reductions -> gadgets
    from . import enumeration

    want_edge = enf.mode == "delete"
    for n in range(2, n_host + 1):
        for host in enumeration.graphs_on(n):
            for pair in _orbit_firsts(host, want_edge):
                joined = attach_enforcer(host, pair, enf, 1)
                for hit in G.find_induced(joined, h):
                    if any(w >= n for w in hit):
                        return {"host": G.to_graph6(host), "pair": pair,
                                "copy": sorted(hit)}
    return None


@functools.lru_cache(maxsize=512)
def _orbit_firsts(host: SmallGraph, want_edge: bool) -> tuple[tuple[int, int], ...]:
    """The edges (want_edge) or nonedges (u, v), u < v, of host that come
    first in row order within their orbit under Aut(host) acting on
    ordered pairs. It depends on the host and the mode alone, so the 18
    table enforcers share one labeling per host; the bound holds every
    host with n <= 6 (207 of them) in both modes."""
    n = host.n
    # Aut(host) acting on ordered pairs, point u * n + v
    gens = [[g[u] * n + g[v] for u in range(n) for v in range(n)]
            for g in G.canonical_labeling(host.rows)[1]]
    firsts = []
    done = 0
    for u in range(n):
        for v in range(u + 1, n):
            if host.has_edge(u, v) == want_edge and not done >> (u * n + v) & 1:
                done |= G._closure(1 << (u * n + v), gens)
                firsts.append((u, v))
    return tuple(firsts)


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
