"""Each guarded entry refuses what it cannot answer: the exception type,
exactly, and its message, for refusals no other test reaches."""

import pytest

from hfree import classify as CL
from hfree import gadgets as GD
from hfree import graphs as G
from hfree import reductions as R
from hfree import solver as S

P3 = G.path_graph(3)


def _gadget(role, mode="delete", allowed=((0, 1),)):
    return GD.Gadget(P3, role, mode, allowed, "co-A1")


def _table(role, mode="delete"):
    return GD.table_gadget("co-A1", mode, role)


def _complex(pairs, mode="delete"):
    return GD.TruthSetting(G.empty_graph(2 * pairs), mode,
                           tuple((2 * i, 2 * i + 1) for i in range(pairs)), (), "co-A1")


def _cai(mode, s_role="SComponent"):
    """con_cai on the empty formula with the co-A1 delete gadgets."""
    return R.con_cai(R.PropFormula(0, ()), 1, GD.host_graph("co-A1"),
                     _table(s_role), _table("BasicUnit"), mode)


def _inst(g=P3):
    return S.EditInstance(g, 1, "delete")


# (id, call, exception type, message pattern)
REFUSALS = [
    ("classify unknown problem", lambda: CL.classify(P3, "insertion"),
     ValueError, r"problem must be one of \('editing', 'deletion', 'completion'\)"),
    ("EditInstance unknown mode", lambda: S.EditInstance(P3, 1, "insert"),
     ValueError, r"mode must be one of \('edit', 'delete', 'complete'\)"),
    ("EditInstance equal endpoints",
     lambda: S.EditInstance(P3, 1, "delete", frozenset([(1, 1)])),
     ValueError, "pair with equal endpoints"),
    ("Gadget unknown role", lambda: _gadget("Clause"), GD.GadgetError, "unknown role Clause"),
    ("Gadget unknown mode", lambda: _gadget("Enforcer", "edit"),
     GD.GadgetError, "unknown mode edit"),
    ("Gadget delete nonedge", lambda: _gadget("Enforcer", allowed=((0, 2),)),
     GD.GadgetError, "allowed pair must be an edge in delete mode"),
    ("PropTable seven entries", lambda: GD.PropTable((True,) * 7),
     GD.GadgetError, "PropTable needs exactly eight entries"),
    ("modification_sets above EXHAUSTIVE_PAIRS",
     lambda: GD.modification_sets(_complex(GD.EXHAUSTIVE_PAIRS + 1), P3),
     GD.GadgetError, "22 allowed pairs exceed exhaustive guard 21"),
    ("verify_truth_setting mode mismatch",
     lambda: GD.verify_truth_setting(_complex(2), P3, "complete"),
     GD.GadgetError, "mode mismatch"),
    ("verify_s_component role", lambda: GD.verify_s_component(_table("Enforcer")),
     GD.GadgetError, "gadget role must be SComponent"),
    ("build_truth_setting role", lambda: GD.build_truth_setting(_table("SComponent")),
     GD.GadgetError, "gadget role must be BasicUnit"),
    ("verify_enforcer role", lambda: GD.verify_enforcer(_table("BasicUnit")),
     GD.GadgetError, "gadget role must be Enforcer"),
    ("con_main vprime outside V(h)", lambda: R.con_main(_inst(), P3, [0, 3]),
     ValueError, r"vprime must be a subset of V\(h\)"),
    ("con_mod ell below 1", lambda: R.con_mod(_inst(), 0), ValueError, "ell must be positive"),
    ("con_near_uni t below 1", lambda: R.con_near_uni(_inst(), 0),
     ValueError, "t must be positive"),
    ("complement_instance above VERTEX_CAP",
     lambda: R.complement_instance(_inst(G.empty_graph(G.VERTEX_CAP + 1))),
     G.CapExceeded, "65 vertices exceed cap 64"),
    ("con_cai mode", lambda: _cai("edit"), ValueError, "mode must be delete or complete"),
    ("con_cai role", lambda: _cai("delete", s_role="Enforcer"),
     GD.GadgetError, "gadget role mismatch"),
    ("con_cai gadget mode", lambda: _cai("complete"), GD.GadgetError, "gadget mode mismatch"),
    ("steps_for unknown id", lambda: R.steps_for("H1", P3, False),
     KeyError, "no chain rule for H1"),
    ("cycle_graph(2)", lambda: G.cycle_graph(2), ValueError, "cycle needs >= 3 vertices"),
    ("induced_subgraph empty", lambda: G.induced_subgraph(P3, []),
     ValueError, "induced subgraph needs at least one vertex"),
    ("induced_subgraph out of range", lambda: G.induced_subgraph(P3, [0, 3]),
     ValueError, r"vertex set not within V\(g\)"),
    ("from_graph6 truncated header", lambda: G.from_graph6("~??"),
     ValueError, "truncated graph6 header"),
    ("from_graph6 zero vertices", lambda: G.from_graph6("?"),
     ValueError, "graph6 with no vertices"),
]


@pytest.mark.parametrize("call,exc,message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal(call, exc, message):
    with pytest.raises(exc, match=message) as info:
        call()
    assert type(info.value) is exc
