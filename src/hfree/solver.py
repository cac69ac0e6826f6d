"""Exact decision procedures for (restricted) H-free edge modification.

Two routes to the same answer: a bounded-depth branching search
(``solve``) and brute-force enumeration of all small modification sets
(``solve_exhaustive``). The test suite keeps them in agreement; the
reduction equivalence checks lean on them as oracles. Both rest on one
fact: a solution flips a pair inside every induced copy of h in g.
``solve`` branches on the pairs of one copy; ``solve_exhaustive`` uses it
only to skip sets it already knows fail, and searches every other set in
full, in the order of the plain loop, so its witness is the plain loop's.
They are not independent all the way down: both find copies through
``graphs._induced_search``, and every witness is checked by a full search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

from . import graphs as G
from .graphs import SmallGraph

MODES = ("edit", "delete", "complete")

# the most pair sets solve_exhaustive may try
EXHAUSTIVE_MAX_WORK = 10_000_000
# the largest budget solve branches on
SOLVE_MAX_K = 4


def _norm_pair(p) -> tuple[int, int]:
    u, v = p
    if u == v:
        raise ValueError("pair with equal endpoints")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class EditInstance:
    """A graph, a budget, a modification mode, and forbidden pairs."""

    g: SmallGraph
    k: int
    mode: str
    forbidden: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.k < 0:
            raise ValueError("budget must be nonnegative")
        pairs = frozenset(_norm_pair(p) for p in self.forbidden)
        object.__setattr__(self, "forbidden", pairs)
        for u, v in pairs:
            if u < 0 or v >= self.g.n:
                raise ValueError(f"forbidden pair ({u}, {v}) outside 0..{self.g.n - 1}")
            if self.mode == "delete" and not self.g.has_edge(u, v):
                raise ValueError("forbidden pair is not an edge")
            if self.mode == "complete" and self.g.has_edge(u, v):
                raise ValueError("forbidden pair is not a nonedge")
            if self.mode == "edit":
                raise ValueError("edit instances are unrestricted")

    def permissible_pairs(self) -> list[tuple[int, int]]:
        """All pairs a solution may touch, in fixed lexicographic order."""
        n = self.g.n
        out = []
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in self.forbidden:
                    continue
                e = self.g.has_edge(u, v)
                if (self.mode == "delete" and not e) or (
                    self.mode == "complete" and e
                ):
                    continue
                out.append((u, v))
        return out


@dataclass(frozen=True)
class Solution:
    feasible: bool
    witness: frozenset[tuple[int, int]] = frozenset()


class GuardrailError(RuntimeError):
    """Raised when an exact search would exceed its configured budget."""


class WitnessError(RuntimeError):
    """A search produced a witness that is not a solution of its instance."""


def _check_witness(inst: EditInstance, h: SmallGraph, pairs) -> None:
    allowed = set(inst.permissible_pairs())
    if not all(p in allowed for p in pairs):
        raise WitnessError(f"witness {sorted(pairs)} touches a pair the mode forbids")
    if not G.is_free_of(G.apply_flips(inst.g, pairs), h):
        raise WitnessError(f"witness {sorted(pairs)} leaves an induced copy of h")


def solve(
    inst: EditInstance,
    h: SmallGraph,
    max_n: int = 20,
) -> Solution:
    """Bounded-depth branching search, deterministic branch order.

    Finds one induced copy of h, branches over every permissible pair
    inside it not yet flipped on the current branch, and recurses with a
    decremented budget. This is complete (Cai, IPL 1996): a solution that
    extends the branch's flips must flip some other pair of the copy.
    """
    if inst.g.n > max_n:
        raise GuardrailError(f"solve guardrail: n={inst.g.n} > {max_n}")
    if inst.k > SOLVE_MAX_K:
        raise GuardrailError(f"solve guardrail: k={inst.k} > {SOLVE_MAX_K}")
    # an unflipped pair keeps inst.g's adjacency, so the mode test on
    # inst.g holds on every branch
    allowed = set(inst.permissible_pairs())

    def rec(
        g: SmallGraph, k: int, flipped: frozenset[tuple[int, int]]
    ) -> Optional[frozenset[tuple[int, int]]]:
        hit = G.first_induced(g, h)
        if hit is None:
            return flipped
        if k == 0:
            return None
        vs = sorted(hit)
        for u, v in itertools.combinations(vs, 2):
            if (u, v) not in allowed or (u, v) in flipped:
                continue
            found = rec(G.apply_flips(g, [(u, v)]), k - 1, flipped | {(u, v)})
            if found is not None:
                return found
        return None

    witness = rec(inst.g, inst.k, frozenset())
    if witness is None:
        return Solution(False)
    _check_witness(inst, h, witness)
    return Solution(True, witness)


def solve_exhaustive(inst: EditInstance, h: SmallGraph) -> Solution:
    """Brute force over all permissible pair sets of size at most k.

    Sets are tried by size, then in ``itertools.combinations`` order over
    ``permissible_pairs()``; the first whose flips leave g h-free is the
    witness. The induced copies of h in g are found once, each held as the
    bitmask of the permissible pairs inside it (bit i for pair i). A set
    whose mask misses some copy's mask leaves that copy as it is, so the
    flipped graph still holds h: it is skipped with no graph built and no
    search. Every other set is searched in full, as in the plain loop, so
    the first free set, and the witness, are the plain loop's. The empty
    set is the first set, and it is free exactly when g has no copy; a
    copy with no permissible pair inside survives every set. The guardrail
    counts every set, skipped or not.
    """
    pairs = inst.permissible_pairs()
    total = sum(comb(len(pairs), i) for i in range(min(inst.k, len(pairs)) + 1))
    if total > EXHAUSTIVE_MAX_WORK:
        raise GuardrailError(f"exhaustive guardrail: {total} > {EXHAUSTIVE_MAX_WORK}")
    bits = [1 << i for i in range(len(pairs))]
    copies = {
        sum(b for b, (u, v) in zip(bits, pairs) if u in vs and v in vs)
        for vs in G.find_induced(inst.g, h)
    }
    if not copies:  # g is h-free: the empty set comes first
        _check_witness(inst, h, frozenset())
        return Solution(True)
    if 0 in copies:  # a copy no permissible pair touches
        return Solution(False)
    for size in range(1, min(inst.k, len(pairs)) + 1):
        for sel in itertools.combinations(bits, size):
            fm = sum(sel)
            if any(not c & fm for c in copies):
                continue
            flips = [p for b, p in zip(bits, pairs) if b & fm]
            if G.is_free_of(G.apply_flips(inst.g, flips), h):
                witness = frozenset(flips)
                _check_witness(inst, h, witness)
                return Solution(True, witness)
    return Solution(False)
