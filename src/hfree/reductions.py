"""Executable polynomial parameter transformations.

Every reduction here maps a concrete instance of one H'-free modification
problem to an instance of an H-free problem with the same answer, with the
budget growing at most polynomially. The generic constructions (satellite
copies over injections, per-subset cliques, near-universal independent
sets) power the simulation chains; the formula reduction and the per-host
attachment gadgets power the restricted-problem hardness routes.

Every construction but the formula reduction is a row of ``CONSTRUCTIONS``:
it takes an ``EditInstance`` plus named params, checks its own
precondition, and returns an ``EditInstance``. ``execute_step`` and
``hfree reduce`` both run the rows from there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, perm
from typing import Collection, Sequence

from . import catalogue as C
from . import gadgets as GD
from . import graphs as G
from . import membership as M
from .graphs import VERTEX_CAP, Builder, CapExceeded, SmallGraph
from .solver import EditInstance


class PreconditionError(ValueError):
    """Input does not satisfy the reduction's side conditions."""


# -- generic constructions ----------------------------------------------------


def _unrestricted(inst: EditInstance) -> SmallGraph:
    """The graph of a chain-step source, which has no forbidden pairs."""
    if inst.forbidden:
        raise PreconditionError("chain steps execute on unrestricted instances")
    return inst.g


def con_main(inst: EditInstance, h: SmallGraph, vprime: Sequence[int]) -> EditInstance:
    """Satellite construction over all injective placements of h[vprime].

    For every injective map f of vprime into V(G'), add k+1 fresh copies
    of h - vprime, wiring each copy so that f(vprime) plus the copy
    induces h. The original graph is untouched on its own labels.
    """
    gprime, k = _unrestricted(inst), inst.k
    vp = sorted(set(vprime))
    if any(v < 0 or v >= h.n for v in vp):
        raise ValueError("vprime must be a subset of V(h)")
    total = gprime.n + perm(gprime.n, len(vp)) * (k + 1) * (h.n - len(vp))
    grow = Builder(gprime, total=total)
    for placement in itertools.permutations(range(gprime.n), len(vp)):
        image = dict(zip(vp, placement))
        for _ in range(k + 1):
            grow.glue(h, image)
    return EditInstance(grow.graph(), k, inst.mode)


def con_mod(inst: EditInstance, ell: int) -> EditInstance:
    """A fresh (k+1)-clique fully joined to every ell-subset of vertices.

    Sources with fewer than ell vertices have no such subsets and come
    back unchanged.
    """
    gprime, k = _unrestricted(inst), inst.k
    if ell < 1:
        raise ValueError("ell must be positive")
    grow = Builder(gprime, total=gprime.n + comb(gprime.n, ell) * (k + 1))
    unit = G.complete_graph(ell + k + 1)
    for sub in itertools.combinations(range(gprime.n), ell):
        grow.glue(unit, dict(enumerate(sub)))
    return EditInstance(grow.graph(), k, inst.mode)


def con_near_uni(inst: EditInstance, t: int) -> EditInstance:
    """A fresh independent (k+2)-set joined to everything except each
    t-subset. Sources with fewer than t vertices come back unchanged."""
    gprime, k = _unrestricted(inst), inst.k
    if t < 1:
        raise ValueError("t must be positive")
    grow = Builder(gprime, total=gprime.n + comb(gprime.n, t) * (k + 2))
    unit = G.complete_bipartite(max(gprime.n - t, 0), k + 2)
    for sub in itertools.combinations(range(gprime.n), t):
        others = [v for v in range(gprime.n) if v not in sub]
        grow.glue(unit, dict(enumerate(others)))
    return EditInstance(grow.graph(), k, inst.mode)


def union_clique(inst: EditInstance) -> EditInstance:
    """Disjoint union with a (k+1)-clique (isolated-vertex removal step)."""
    gprime, k = _unrestricted(inst), inst.k
    grow = Builder(gprime, total=gprime.n + k + 1)
    grow.glue(G.complete_graph(k + 1), {})
    return EditInstance(grow.graph(), k, inst.mode)


def largest_component_reduction(inst: EditInstance, h: SmallGraph) -> EditInstance:
    """Composition reducing (largest component of h)-free to h-free.

    First the input gains the join of k+1 copies of the largest component
    (only needed when h has several copies of it), then satellites are
    attached over all placements of the copies.
    """
    gprime, k = _unrestricted(inst), inst.k
    comps = G.components(h)
    if len(comps) < 2:
        raise PreconditionError("h must be disconnected")
    big = max(map(len, comps))
    hprime = G.induced_subgraph(h, next(c for c in comps if len(c) == big))
    iso_comps = [
        c
        for c in comps
        if len(c) == big and G.are_isomorphic(G.induced_subgraph(h, c), hprime)
    ]
    copies = k + 1 if len(iso_comps) > 1 else 0
    grow = Builder(gprime, total=gprime.n + copies * hprime.n)
    if copies:
        joined = hprime
        for _ in range(k):
            joined = G.join(joined, hprime)
        grow.glue(joined, {})
    vprime = sorted(v for c in iso_comps for v in c)
    return con_main(EditInstance(grow.graph(), k, inst.mode), h, vprime)


_DUAL_MODE = {"delete": "complete", "complete": "delete", "edit": "edit"}


def complement_instance(inst: EditInstance) -> EditInstance:
    """H-free deletion on G is co-H-free completion on co-G: the same
    budget and forbidden pairs (edges turn into nonedges) under the dual
    mode."""
    if inst.g.n > VERTEX_CAP:
        raise CapExceeded(f"{inst.g.n} vertices exceed cap {VERTEX_CAP}")
    return EditInstance(
        G.complement(inst.g), inst.k, _DUAL_MODE[inst.mode], inst.forbidden)


# -- formula reduction ---------------------------------------------------------


@dataclass(frozen=True)
class PropFormula:
    """3-regular conjunctive formula of a propagational ternary function."""

    vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        counts = [0] * self.vars
        for cl in self.clauses:
            if len(set(cl)) != 3:
                raise ValueError("clause variables must be distinct")
            for v in cl:
                if not 0 <= v < self.vars:
                    raise ValueError("variable out of range")
                counts[v] += 1
        if self.vars and any(c != 3 for c in counts):
            raise ValueError("formula must be 3-regular")


def con_cai(
    phi: PropFormula,
    k: int,
    h: SmallGraph,
    s_comp: GD.Gadget,
    basic_unit: GD.Gadget,
    mode: str,
) -> tuple[EditInstance, list[list[tuple[int, int]]]]:
    """Clause components plus cyclic truth-setting components, restricted.

    Every clause gets one satisfaction-testing component; every variable a
    truth-setting component whose three variable pairs are identified with
    the clause pairs of its three occurrences. All pairs except the unit
    pairs are forbidden; the budget becomes 3*|V(h)|*k. Returns the
    instance and, per variable, its allowed pairs.
    """
    if mode not in ("delete", "complete"):
        raise ValueError("mode must be delete or complete")
    if s_comp.role != "SComponent" or basic_unit.role != "BasicUnit":
        raise GD.GadgetError("gadget role mismatch")
    if s_comp.mode != mode or basic_unit.mode != mode:
        raise GD.GadgetError("gadget mode mismatch")

    # occurrence table: variable -> list of (clause index, position)
    occ: dict[int, list[tuple[int, int]]] = {v: [] for v in range(phi.vars)}
    for ci, cl in enumerate(phi.clauses):
        for pos, v in enumerate(cl):
            occ[v].append((ci, pos))

    grow = Builder(cap=None)
    clause_pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for ci in range(len(phi.clauses)):
        at = grow.glue(s_comp.graph, {})
        for pos, (a, b) in enumerate(s_comp.allowed):
            clause_pairs[ci, pos] = (at[a], at[b])

    tc = GD.build_truth_setting(basic_unit)
    per_var: list[list[tuple[int, int]]] = []
    for v in range(phi.vars):
        image = {}
        for (ci, pos), (pa, pb) in zip(occ[v], tc.variable_pairs):
            image[pa], image[pb] = clause_pairs[ci, pos]
        at = grow.glue(tc.graph, image)
        per_var.append(sorted(tuple(sorted((at[a], at[b]))) for a, b in tc.allowed))
    allowed = frozenset(pair for mine in per_var for pair in mine)
    # the empty formula gives a single-vertex instance, trivially free
    graph = grow.graph() if phi.clauses else G.empty_graph(1)

    forbidden = frozenset(EditInstance(graph, 0, mode).permissible_pairs()) - allowed
    return EditInstance(graph, 3 * h.n * k, mode, forbidden), per_var


def enforcer_attach(inst: EditInstance, h: SmallGraph) -> EditInstance:
    """Drop the forbidden set by pinning each forbidden pair with k+1
    copies of the gadget table's enforcer for h in the instance's mode."""
    rows = [r for r in GD.table_rows() if G.are_isomorphic(GD.host_graph(r), h)]
    enforcer = GD.table_gadget(rows[0], inst.mode, "Enforcer") if rows else None
    if enforcer is None:
        raise PreconditionError(f"the gadget table has no {inst.mode} enforcer for h")
    return _pin_forbidden(inst, enforcer)


def _pin_forbidden(inst: EditInstance, enforcer: GD.Gadget) -> EditInstance:
    """``enforcer_attach`` with the enforcer given, checked by the exact
    layer of ``gadgets.verify_enforcer``."""
    if enforcer.role != "Enforcer":
        raise GD.GadgetError("gadget role mismatch")
    if enforcer.mode != inst.mode:
        raise GD.GadgetError("enforcer mode does not match instance mode")
    exact = GD.enforcer_exact(enforcer)
    if not exact["host_free"]:
        raise GD.GadgetError("unverified enforcer: gadget not host-free")
    if not exact["toggle_creates"]:
        raise GD.GadgetError("unverified enforcer: toggle creates no copy")
    g = inst.g
    total = g.n + len(inst.forbidden) * (inst.k + 1) * (enforcer.graph.n - 2)
    if total > VERTEX_CAP:
        raise CapExceeded(f"{total} vertices exceed cap {VERTEX_CAP}")
    for pair in sorted(inst.forbidden):
        g = GD.attach_enforcer(g, pair, enforcer, inst.k + 1)
    return EditInstance(g, inst.k, inst.mode)


# -- tricky per-host reductions ------------------------------------------------

def _has_all_allowed_c4_subgraph(inst: EditInstance) -> bool:
    """A 4-cycle subgraph (not necessarily induced) avoiding forbidden
    edges entirely: two vertices with two common allowed neighbours."""
    rows = list(inst.g.rows)
    for u, v in inst.forbidden:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return any((rows[a] & rows[b]).bit_count() >= 2
               for a, b in itertools.combinations(range(len(rows)), 2))


def _tricky_clique(inst: EditInstance, q: bool) -> EditInstance:
    """A fresh k-set W joined to V(G'); each forbidden uv gets k-sets X on
    u and Y on v, both joined to W, and a fresh Z[i] on X[i] and Y[i]
    (with ``q``, also a fresh Q[i] on them, joined to W); all the X and Y
    vertices form one clique."""
    if inst.mode != "delete":
        raise PreconditionError("source must be a restricted deletion instance")
    k = inst.k
    gp = inst.g
    R = sorted(inst.forbidden)
    grow = Builder(gp, total=gp.n + k + (4 if q else 3) * k * len(R))
    W = grow.fresh(k)
    for w in W:
        for v in range(gp.n):
            grow.connect(w, v)
    C: list[int] = []
    for (u, v) in R:
        Q = grow.fresh(k) if q else []
        X = grow.fresh(k)
        Y = grow.fresh(k)
        Z = grow.fresh(k)
        for x in X:
            grow.connect(u, x)
        for y in Y:
            grow.connect(v, y)
        for w in W:
            for t in Q + X + Y:
                grow.connect(w, t)
        for i in range(k):
            for t in (X[i], Y[i]):
                grow.connect(t, Z[i])
                if q:
                    grow.connect(t, Q[i])
        C.extend(X)
        C.extend(Y)
    for a, b in itertools.combinations(C, 2):
        grow.connect(a, b)
    return EditInstance(grow.graph(), k, "delete")


def tricky_a7c(inst: EditInstance) -> EditInstance:
    """Restricted deletion for the co-A7 host to unrestricted deletion."""
    return _tricky_clique(inst, q=False)


def tricky_a9c(inst: EditInstance) -> EditInstance:
    """Restricted deletion for the co-A9 host to unrestricted deletion."""
    return _tricky_clique(inst, q=True)


# the unit glued at each forbidden edge uv: u is 0, v is 1, then x, y, z
_A6C_UNIT = G.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (3, 4)])


def tricky_a6c(inst: EditInstance) -> EditInstance:
    """Restricted co-A1 deletion (no all-allowed 4-cycle subgraph) to
    unrestricted co-A6 deletion: k+1 unit copies at each forbidden edge."""
    if inst.mode != "delete":
        raise PreconditionError("source must be a restricted deletion instance")
    if _has_all_allowed_c4_subgraph(inst):
        raise PreconditionError("input contains an all-allowed 4-cycle subgraph")
    gp, copies = inst.g, inst.k + 1
    grow = Builder(gp, total=gp.n + 3 * copies * len(inst.forbidden))
    for u, v in sorted(inst.forbidden):
        for _ in range(copies):
            grow.glue(_A6C_UNIT, {0: u, 1: v})
    return EditInstance(grow.graph(), inst.k, "delete")


# the most allowed nonedges whose 2^n subsets _completion_pre walks
_COMPLETION_MAX_ALLOWED = 18


def _completion_pre(inst: EditInstance) -> None:
    """Check the structured-completion conditions on a restricted C4
    completion instance: the common-neighbor bound, then the 4-cycle
    conditions on each subset of allowed nonedges, all read from one
    search (``gadgets._toggle_copies``). A copy with allowed pairs ``var``
    is a 4-cycle after adding ``p = mask & var`` when p is one of its
    patterns. Every nonedge of g is allowed or forbidden, and a 4-cycle has
    exactly two nonedges, so it lacks a forbidden diagonal exactly when two
    allowed pairs of the copy are left unadded."""
    if inst.mode != "complete":
        raise PreconditionError("source must be a restricted completion instance")
    g = inst.g
    allowed = inst.permissible_pairs()
    gall = G.apply_flips(g, allowed)
    for u, v in inst.forbidden:
        if (gall.rows[u] & gall.rows[v]).bit_count() > 2:
            raise PreconditionError(
                "forbidden nonedge with more than two common neighbors"
            )
    if len(allowed) > _COMPLETION_MAX_ALLOWED:
        raise PreconditionError("too many allowed nonedges to certify")
    copies = GD._toggle_copies(g, allowed, G.cycle_graph(4))
    for mask in range(1 << len(allowed)):
        hits = [(var, mask & var) for var, patterns in copies if mask & var in patterns]
        for _, p in hits:
            ends = [v for i, e in enumerate(allowed) if p >> i & 1 for v in e]
            if len(set(ends)) < len(ends):
                raise PreconditionError("4-cycle with two adjacent added edges")
        if any(p.bit_count() <= 1 and (var ^ p).bit_count() == 2 for var, p in hits):
            raise PreconditionError(
                "4-cycle with at most one allowed edge but no forbidden diagonal"
            )
        if hits and all(p.bit_count() >= 2 for _, p in hits):
            raise PreconditionError("every 4-cycle uses two allowed nonedges")


def _completion_gadget(inst: EditInstance, tail: bool) -> EditInstance:
    """Each forbidden nonedge xy with a common neighbor gets a fresh vertex
    on x, y and their first common neighbor (with ``tail``, also a fresh
    pendant on that vertex and y); every nonedge at a fresh vertex becomes
    forbidden."""
    _completion_pre(inst)
    g = inst.g
    grow = Builder(g)
    new: list[int] = []
    for (x, y) in sorted(inst.forbidden):
        common = g.rows[x] & g.rows[y]
        if not common:
            continue  # no induced P3 x-z-y
        mid = (common & -common).bit_length() - 1
        (v,) = grow.fresh(1)
        for t in (x, y, mid):
            grow.connect(v, t)
        new.append(v)
        if tail:
            (u,) = grow.fresh(1)
            grow.connect(u, v)
            grow.connect(u, y)
            new.append(u)
    out = grow.graph()
    forbidden = set(inst.forbidden)
    for v in new:
        for t in range(out.n):
            if t != v and not out.has_edge(t, v):
                forbidden.add(tuple(sorted((t, v))))
    return EditInstance(out, inst.k, "complete", frozenset(forbidden))


def tricky_a1c_com(inst: EditInstance) -> EditInstance:
    """Restricted C4 completion to restricted co-A1 completion."""
    return _completion_gadget(inst, tail=False)


def tricky_a6c_com(inst: EditInstance) -> EditInstance:
    """Restricted C4 completion to restricted co-A6 completion."""
    return _completion_gadget(inst, tail=True)


# construction -> (builder called as builder(inst, *params) on an
# EditInstance, returning one; the names of its params). Chain steps and
# ``hfree reduce`` run the same rows; every row refuses outputs above
# VERTEX_CAP.
CONSTRUCTIONS = {
    "ConMain": (con_main, ("h", "vprime")),
    "ConMod": (con_mod, ("ell",)),
    "ConNearUni": (con_near_uni, ("t",)),
    "UnionClique": (union_clique, ()),
    "LargestComponent": (largest_component_reduction, ("h",)),
    "Complement": (complement_instance, ()),
    "TrickyA6c": (tricky_a6c, ()),
    "TrickyA7c": (tricky_a7c, ()),
    "TrickyA9c": (tricky_a9c, ()),
    "TrickyA1cCom": (tricky_a1c_com, ()),
    "TrickyA6cCom": (tricky_a6c_com, ()),
    "EnforcerAttach": (enforcer_attach, ("h",)),
}


# -- simulation chain machinery -------------------------------------------------


@dataclass(frozen=True)
class ReductionStep:
    """One executable simulation step: source_h simulates target_h."""

    construction: str
    rule: str
    source_h: SmallGraph
    target_h: SmallGraph
    params: dict = field(default_factory=dict)
    k_map: str = "k'=k"
    complemented: bool = False

    def describe(self) -> dict:
        return {
            "construction": self.construction,
            "rule": self.rule,
            "from": G.to_graph6(self.source_h),
            "to": G.to_graph6(self.target_h),
            "k_map": self.k_map,
            "complemented": self.complemented,
        }


def execute_step(step: ReductionStep, inst: EditInstance) -> EditInstance:
    """Map an instance of the target_h-free problem to one of the
    source_h-free problem (hardness flows from target to source). A
    complemented step runs its construction between two complements."""
    build, names = CONSTRUCTIONS[step.construction]
    if step.complemented:
        inst = complement_instance(inst)
    out = build(inst, *(step.params[name] for name in names))
    return complement_instance(out) if step.complemented else out


# -- chain rules ------------------------------------------------------------------
#
# Each rule checks its preconditions on h and returns the vertices it drops
# plus its construction's numeric params; ``make_step`` builds the target
# and the params that name h or the kept vertices.


def mod_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Remove one vertex from each module inside the low-degree class.

    Checks the module-shrink preconditions: low degree 1 or 2 on an
    independent class, a connected remainder every high vertex sees, and
    the middle-class degree condition.
    """
    low, high = G.degree_classes(h)
    vl = list(G._bits(low))
    ell = h.rows[vl[0]].bit_count()
    if not (1 <= ell <= 2 and h.n >= 5):
        raise PreconditionError("module-shrink needs ell in {1,2} and n >= 5")
    if any(h.rows[v] & low for v in vl):
        raise PreconditionError("low-degree class must be independent")
    rest = ((1 << h.n) - 1) ^ low
    if G._reach(h.rows, rest & -rest, rest) != rest:
        raise PreconditionError("high+middle classes must induce a connected graph")
    if any(not h.rows[v] & low for v in G._bits(high)):
        raise PreconditionError("every high vertex needs a low neighbor")
    mid = rest ^ high
    vm = list(G._bits(mid))
    cond_a = all((h.rows[v] & ~mid).bit_count() >= ell + 1 for v in vm)
    cond_b = True
    for u, v in itertools.combinations(vm, 2):
        if h.has_edge(u, v):
            nu = h.rows[u] & ~(1 << v) & ~(1 << u)
            nv = h.rows[v] & ~(1 << u) & ~(1 << v)
            if nu == nv:
                cond_b = False
    if not (cond_a or cond_b):
        raise PreconditionError("middle class fails the module condition")
    # modules inside an independent class are exactly its equal-neighborhood
    # groups; drop one representative from each
    groups: dict[int, int] = {}
    for v in vl:
        groups.setdefault(h.rows[v], v)
    return list(groups.values()), {"ell": ell}


def near_uni_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Remove one highest-degree vertex (near-universal class shrink)."""
    vh = list(G._bits(G.degree_classes(h)[1]))
    hi = h.rows[vh[0]].bit_count()
    for u, v in itertools.combinations(vh, 2):
        if not h.has_edge(u, v):
            raise PreconditionError("high-degree class must be a clique")
    # h - u and h - v are isomorphic iff they are with u and v isolated
    certs = {G.canonical_cert(G.apply_flips(h, [(u, w) for w in h.neighbors(u)]))
             for u in vh}
    if len(certs) > 1:
        raise PreconditionError("high-vertex deletions must all be isomorphic")
    degs = h.degrees()
    for size in range(2, h.n + 1):
        cand = G._mask(v for v in range(h.n) if degs[v] >= hi - size + 1)
        if _has_independent_set(h.rows, cand, size):
            raise PreconditionError(
                "independent set with too-high degrees exists"
            )
    return vh[:1], {"t": h.n - hi - 1}


def _has_independent_set(rows: Sequence[int], cand: int, size: int) -> bool:
    """Whether the vertices of bitmask cand hold an independent set of the
    given size: take or skip the lowest candidate, dropping its neighbors
    when taken."""
    if size <= 0:
        return True
    if cand.bit_count() < size:
        return False
    v = (cand & -cand).bit_length() - 1
    rest = cand & (cand - 1)
    return (_has_independent_set(rows, rest & ~rows[v], size - 1)
            or _has_independent_set(rows, rest, size))


def unique_degree2_path(h: SmallGraph) -> tuple[int, frozenset[int]]:
    """Internal vertices of the unique longest degree-two chain of h.

    A chain is a nonempty set of degree-2 vertices inducing a path, whose
    two outside attachment vertices are distinct; it is the set of internal
    vertices of a path of length chain-size + 1 (whose endpoints may or may
    not be adjacent). The longest chain must be unique.

    Chains lie inside runs, the components of the degree-2 vertices. A run
    of s vertices with two attachments is the one longest chain of its run;
    with one attachment (a cycle through it) its longest chains drop either
    tip, two of s - 1; with none (a cycle component) they drop two
    consecutive vertices, s of s - 2.
    """
    if min(h.degrees()) < 2:
        raise PreconditionError("path contraction needs minimum degree two")
    deg2 = G._mask(v for v, r in enumerate(h.rows) if r.bit_count() == 2)
    if not deg2:
        raise PreconditionError("no internal-degree-two chain")
    longest = []  # (size, count, run) of each run's longest chains
    for run in G._component_masks(h.rows, deg2):
        s = run.bit_count()
        ends = 0
        for v in G._bits(run):
            ends |= h.rows[v]
        size, count = ((s - 2, s), (s - 1, 2), (s, 1))[(ends & ~run).bit_count()]
        longest.append((size, count, run))
    best = max(size for size, _, _ in longest)
    top = [(count, run) for size, count, run in longest if size == best]
    if len(top) != 1 or top[0][0] != 1:
        raise PreconditionError(
            f"longest internal-degree-two chain not unique (p={best + 1})"
        )
    return best + 1, frozenset(G._bits(top[0][1]))


def path_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    return unique_degree2_path(h)[1], {}


def cut_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Drop the unique smallest leaf block, keeping its cut vertex.

    Blocks of two vertices (bridges) do not count. A leaf block of three or
    more is K + c for a cut vertex c and a component K of h - c that has at
    least two vertices and no cut vertex.
    """
    cuts = sum(G.separators(h, 1))  # one bit per cut vertex
    # K2 has connectivity 1 but no cut vertex
    if not G.is_connected(h) or not cuts and h.n != 2:
        raise PreconditionError("leaf-block drop needs connectivity exactly 1")
    leaves = [  # the K of each leaf block
        comp
        for c in G._bits(cuts)
        for comp in G._component_masks(h.rows, ((1 << h.n) - 1) ^ (1 << c))
        if comp.bit_count() >= 2 and not comp & cuts
    ]
    if not leaves:
        raise PreconditionError("no leaf block with exactly one cut vertex")
    smallest = min(k.bit_count() for k in leaves)
    cands = [k for k in leaves if k.bit_count() == smallest]
    if len(cands) != 1:
        raise PreconditionError("smallest leaf block not unique")
    return frozenset(G._bits(cands[0])), {}


def deg3_pair_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Drop the unique adjacent pair of degree-3 vertices."""
    degs = h.degrees()
    pairs = [
        (u, v)
        for u in range(h.n)
        for v in range(u + 1, h.n)
        if degs[u] == 3 and degs[v] == 3 and h.has_edge(u, v)
    ]
    if len(pairs) != 1:
        raise PreconditionError("adjacent degree-3 pair not unique")
    return pairs[0], {}


def jukt_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Drop one vertex of the low-degree clique component."""
    low = G.degree_classes(h)[0]
    vl = list(G._bits(low))
    for v in vl:
        if h.rows[v] & ~low:
            raise PreconditionError("low class must be a separate component")
        if h.rows[v] & low != low ^ (1 << v):
            raise PreconditionError("low class must induce a clique")
    return vl[:1], {}


def jutk1_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """Drop one isolated vertex (the rest must avoid clique components)."""
    isolated = [v for v in range(h.n) if h.rows[v] == 0]
    if len(isolated) < 2:
        raise PreconditionError("need at least two isolated vertices")
    for comp in G.components(h):
        if len(comp) > 1 and all(h.degree(v) == len(comp) - 1 for v in comp):
            raise PreconditionError("non-trivial clique component present")
    return isolated[:1], {}


def largest_component_target(h: SmallGraph) -> tuple[Collection[int], dict]:
    comps = G.components(h)
    if len(comps) < 2:
        raise PreconditionError("h must be disconnected")
    return set(range(h.n)).difference(max(comps, key=len)), {}


def biclique_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """The bespoke K_{2,3}-to-C4 shrink."""
    if not G.are_isomorphic(h, G.complete_bipartite(2, 3)):
        raise PreconditionError("rule applies to K_{2,3} only")
    return [next(G._bits(G.degree_classes(h)[0]))], {"ell": 2}


def near_kt_euk1_reduce(h: SmallGraph) -> tuple[Collection[int], dict]:
    """(K_t - e) u K_1 drops its two sub-maximum-degree vertices."""
    degs = h.degrees()
    t = h.n - 1
    low = [v for v in range(h.n) if degs[v] == t - 2]
    iso = [v for v in range(h.n) if degs[v] == 0]
    if len(low) != 2 or len(iso) != 1 or h.has_edge(*low):
        raise PreconditionError("shape is not (K_t - e) u K_1")
    return low, {"t": 1}


def peel_reduce(h: SmallGraph, side: str) -> tuple[Collection[int], dict]:
    low, high = G.degree_classes(h)
    return list(G._bits(low if side == "low" else high)), {}


_RULES = {
    # rule -> (construction, rule function)
    "module-shrink": ("ConMod", mod_reduce),
    "near-universal-shrink": ("ConNearUni", near_uni_reduce),
    "degree2-path-contract": ("ConMain", path_reduce),
    "leaf-block-drop": ("ConMain", cut_reduce),
    "unique-deg3-pair-drop": ("ConMain", deg3_pair_reduce),
    "clique-tail-drop": ("ConMain", jukt_reduce),
    "isolated-drop": ("UnionClique", jutk1_reduce),
    "largest-component": ("LargestComponent", largest_component_target),
    "biclique-shrink": ("ConMod", biclique_reduce),
    "near-clique-pair-drop": ("ConNearUni", near_kt_euk1_reduce),
    "peel-low": ("ConMain", lambda h: peel_reduce(h, "low")),
    "peel-high": ("ConMain", lambda h: peel_reduce(h, "high")),
}

# chain table: catalogue id -> ordered rule list; each entry is
# (rule name, apply to the complement of the stored orientation)
CHAIN_TABLE: dict[str, list[tuple[str, bool]]] = {
    "S1": [("biclique-shrink", False)],
    "S2": [("near-universal-shrink", False)],
    "S3": [("near-universal-shrink", False)],
    "S4": [("isolated-drop", False)],
    "S5": [("degree2-path-contract", False)],
    "S6": [("isolated-drop", False)],
    "S7": [("module-shrink", False)],
    "S8": [("module-shrink", False)],
    "S9": [("degree2-path-contract", False)],
    "S10": [("module-shrink", False)],
    "S11": [("module-shrink", False)],
    "S12": [("module-shrink", False)],
    "S13": [("module-shrink", False)],
    "S14": [("module-shrink", True)],
    "S15": [("degree2-path-contract", False), ("peel-high", False)],
    "S16": [("near-universal-shrink", False), ("peel-low", False)],
    "S17": [("near-universal-shrink", False), ("peel-low", False)],
    "S18": [("module-shrink", False)],
    "S19": [("module-shrink", False)],
    "S20": [("leaf-block-drop", False)],
    "S21": [("module-shrink", False)],
    "S22": [("degree2-path-contract", False)],
    "S23": [("module-shrink", False)],
    "S24": [("module-shrink", False)],
    "S25": [("module-shrink", False)],
    "S26": [("module-shrink", False)],
    "S27": [("leaf-block-drop", False)],
    "S28": [("module-shrink", False)],
    "S29": [("module-shrink", False)],
    "S30": [("module-shrink", False)],
    "S31": [
        ("near-universal-shrink", False),
        ("peel-low", False),
        ("peel-high", False),
    ],
    "S32": [("module-shrink", True)],
    "S33": [("module-shrink", True)],
    "S34": [("module-shrink", True)],
    "S35": [("unique-deg3-pair-drop", False)],
    "S36": [("module-shrink", True)],
    "F1": [("clique-tail-drop", True)],
    "F2": [("module-shrink", False)],
    "F3": [("module-shrink", False)],
    "F4": [("module-shrink", False)],
    "F5": [("isolated-drop", True)],
    "F6": [("clique-tail-drop", True)],
    "F7": [("largest-component", False)],
    "F8": [("near-clique-pair-drop", True)],
    "F9": [("degree2-path-contract", False)],
    "F10": [("degree2-path-contract", False)],
    # complements of the deletion-side 2-connected entries peel down to
    # 3-connected graphs
    "co-B1": [("peel-low", False)],
    "co-B2": [("peel-low", False)],
    "co-B3": [("peel-low", False)],
    "co-D1": [("peel-low", False)],
    "co-D2": [("peel-low", False)],
}


def make_step(rule: str, h: SmallGraph, complemented: bool) -> ReductionStep:
    """Build one executable step for h (given in its stored orientation):
    the rule runs on h, or on its complement for a complemented step; the
    target is what the rule keeps, complemented back."""
    construction, fn = _RULES[rule]
    raw = G.complement(h) if complemented else h
    drop, params = fn(raw)
    keep = [v for v in range(raw.n) if v not in drop]
    if len(keep) == raw.n:
        # so every step shrinks its graph, and no chain walk can revisit one
        raise PreconditionError(f"{rule} drops no vertex")
    target = G.induced_subgraph(raw, keep)
    given = {"h": raw, "vprime": keep, **params}
    return ReductionStep(
        construction=construction,
        rule=rule,
        source_h=h,
        target_h=G.complement(target) if complemented else target,
        params={name: given[name] for name in CONSTRUCTIONS[construction][1]},
        complemented=complemented,
    )


def steps_for(entry_id: str, h: SmallGraph, entry_complemented: bool) -> list[ReductionStep]:
    """The chain-table steps for a W member (conjugated if the graph is
    the complement of the stored entry)."""
    if entry_id not in CHAIN_TABLE:
        raise KeyError(f"no chain rule for {entry_id}")
    steps = []
    current = h
    for rule, flip in CHAIN_TABLE[entry_id]:
        step = make_step(rule, current, flip ^ entry_complemented)
        steps.append(step)
        current = step.target_h
    return steps


def w_steps(h: SmallGraph, wr) -> list[ReductionStep] | None:
    """Chain-table steps for h, located in W by ``wr`` (a catalogue
    ``WReason``), or None for a terminal member: H, A, and B/D in their
    stored orientation. Complemented B/D have their own table rows; other
    complemented members run their entry's rules conjugated."""
    if wr.kind == "named":
        if wr.id[0] in "HA" or (wr.id[0] in "BD" and not wr.complemented):
            return None
        if wr.complemented and f"co-{wr.id}" in CHAIN_TABLE:
            return steps_for(f"co-{wr.id}", h, False)
    return steps_for(wr.id, h, wr.complemented)


def complement_step(g: SmallGraph) -> ReductionStep:
    """The step from g to its complement: completion for g is deletion for
    the complement, and editing is the same problem for both."""
    return ReductionStep("Complement", "complement-duality", g, G.complement(g))


def derive_chain(h: SmallGraph, problem: str = "deletion") -> list[ReductionStep]:
    """Full simulation chain from h down to the finite core or a known-hard
    anchor, following the chain table. Every step shrinks its graph, so the
    walk ends within h.n steps. Completion is deletion on the complement,
    behind a complement step."""
    if problem == "completion":
        step = complement_step(h)
        return [step] + derive_chain(step.target_h, "deletion")
    steps: list[ReductionStep] = []
    current = h
    while M.x_witness_for(current, problem) is None:
        wr = C.membership_W(current)
        if wr is None:
            raise PreconditionError(
                "graph left the catalogue without reaching a hard anchor"
            )
        new = w_steps(current, wr)
        if new is None:
            break
        steps.extend(new)
        current = steps[-1].target_h
    return steps
