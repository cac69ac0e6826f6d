"""End-to-end classification: churning, catalogue resolution, verdicts.

classify() walks one ordered rule table for one of the three problems:
easy kernels first, then known-hard witnesses, then catalogue members
resolved through their simulation chains and the peels of the churning
loop. Every verdict carries the executable chain that justifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalogue as C
from . import graphs as G
from . import membership as M
from . import reductions as R
from .graphs import SmallGraph

PROBLEMS = ("editing", "deletion", "completion")

# The members an OpenCatalogue verdict may name: H1-H9 under editing, and
# criterion 4's 19 graphs under deletion (completion names its dual's).
_H = [f"H{i}" for i in range(1, 10)]
OPEN_MEMBERS = {
    "editing": frozenset(_H),
    "deletion": frozenset(_H + [f"co-{h}" for h in _H[:8]] + ["D1", "D2"]),
}


@dataclass(frozen=True)
class Verdict:
    problem: str
    status: str
    reason: str
    chain: tuple[R.ReductionStep, ...] = ()
    member: Optional[str] = None  # catalogue id for OpenCatalogue verdicts


@dataclass(frozen=True)
class ChurnResult:
    result: SmallGraph
    trace: tuple[tuple[str, SmallGraph], ...]  # ("low"/"high", graph after)


# The verdicts of rules 6-8, keyed by (canonical certificate, problem).
# Unbounded: an evicted entry would come back labeled after another graph
# of its class.
_memo: dict[tuple[bytes, str], Verdict] = {}


def churn(g: SmallGraph) -> ChurnResult:
    """Peel extreme degree classes until regular or both peels are easy.

    Step 1: a regular graph comes straight back. Step 2/3: move to the low
    peel if it lies outside the easy deletion set Y_D, else to the high
    peel if that does. Step 4: stop at a graph whose peels are both in Y_D.
    The trace records each side taken and the graph that remains.
    """
    trace = []
    while (side := M.peel_side(g, "deletion")[0]) is not None:
        g = R.make_step(f"peel-{side}", g, False).target_h
        trace.append((side, g))
    return ChurnResult(g, tuple(trace))


def _prefixed(steps, sub: Verdict) -> Verdict:
    return Verdict(sub.problem, sub.status, sub.reason,
                   tuple(steps) + sub.chain, sub.member)


def classify(g: SmallGraph, problem: str) -> Verdict:
    """Kernelization verdict with its justifying simulation chain."""
    if problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}")
    if problem == "completion":
        step = R.complement_step(g)
        dual = classify(step.target_h, "deletion")
        return Verdict("completion", dual.status, f"dual:{dual.reason}",
                       (step,) + dual.chain, dual.member)
    v = _decide(g, problem)
    if problem == "editing" and v.status in ("OpenCatalogue", "Unclassified"):
        # Editing is complement-invariant, but the churning paths of a graph
        # and its complement can end differently (one may reach a known-hard
        # anchor while the other stops at an open catalogue member): keep
        # the stronger verdict.
        step = R.complement_step(g)
        v2 = _decide(step.target_h, "editing")
        if v2.status == "Incompressible" or (
            v.status != "OpenCatalogue" and v2.status == "OpenCatalogue"
        ):
            return _prefixed((step,), v2)
    return v


# -- the rule table ----------------------------------------------------------
# 1 complete, 2 empty, 3 Y' (claw excluded, the rest small kernels),
# 4 at most one edge (deletion): one easy-set test of the degree sequence,
# with no canonical certificate.
# 5 X witness: peels and chain targets enter the table here.
# 6 W member, 7 the low, else the high peel outside the problem's easy set
# (Y_E for editing, Y_D for deletion), 8 exhausted: memoized by certificate.


def _decide(g: SmallGraph, problem: str) -> Verdict:
    """Rules 1-8 for g, the first that fires decides."""
    found = M.shapes(g.degrees())
    if not M.is_easy(found, problem):
        return _pipeline(g, problem)
    if found[0] in ("complete", "empty"):
        return Verdict(problem, "PolyKernel", found[0])
    if "Y'" in found:
        yname = M.yprime_name(g)
        if yname in ("claw", "co-claw"):
            return Verdict(problem, "ClawExcluded", yname)
        return Verdict(problem, "PolyKernel", f"small-kernel:{yname}")
    return Verdict(problem, "PolyKernel", "at-most-one-edge")


def _pipeline(g: SmallGraph, problem: str) -> Verdict:
    """Rules 5-8: the X witness, then the memoized chain-producing part."""
    w = M.x_witness_for(g, problem)
    if w is not None:
        return Verdict(problem, "Incompressible", w)
    cert = G.canonical_cert(g)
    hit = _memo.get((cert, problem))
    if hit is None:
        hit = _memo[cert, problem] = _chain_part(g, cert, problem)
    return hit


def _chain_part(g: SmallGraph, cert: bytes, problem: str) -> Verdict:
    """Rules 6-8 for g, whose certificate is cert. Every step shrinks its
    graph, so the walk ends within g.n steps."""
    wr = C._w_on(g.n).get(cert)  # membership_W(g) without a second certificate
    if wr is not None:
        steps = R.w_steps(g, wr)
        if steps is not None:
            return _prefixed(steps, _pipeline(steps[-1].target_h, problem))
        v = _terminal(g, wr, problem)
        if v is not None:
            return v
    side = M.peel_side(g, problem)[0]
    if side is not None:
        step = R.make_step(f"peel-{side}", g, False)
        return _prefixed((step,), _pipeline(step.target_h, problem))
    return Verdict(problem, "Unclassified", "pipeline-exhausted")


def _terminal(g: SmallGraph, wr: C.WReason, problem: str) -> Optional[Verdict]:
    """The fixed verdict of a W member without chain-table steps (H, A, B,
    D), or None for B/D under editing, which go on to the peels."""
    series = wr.id[0]
    member = str(wr)
    if series == "A" or (series == "B" and problem == "deletion"):
        return Verdict(problem, "Incompressible",
                       f"two-connected-catalogue:{member}")
    if problem == "deletion":
        return Verdict(problem, "OpenCatalogue", f"catalogue:{member}",
                       member=member)
    if series == "H":
        # editing names the stored orientation via complement invariance
        chain = (R.complement_step(g),) if wr.complemented else ()
        return Verdict(problem, "OpenCatalogue", f"catalogue:{wr.id}",
                       chain, member=wr.id)
    return None
