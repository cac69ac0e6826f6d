"""Per-layer figures of a traced round, from its spans and the facts the
workload recorded. Every figure is reported on every workload; one that a
workload does not exercise reads 0. README.md maps each figure to the
end-to-end metric and workload it should move."""

from __future__ import annotations

from tracing import INDUCED_SEARCH

SEARCH = tuple(f"graphs.{f}" for f in INDUCED_SEARCH)

# name -> unit, in report order
UNITS = {
    "graphs.canonical_cert.calls": "count",
    "graphs.canonical_cert.self_s": "s",
    "graphs.canonical_cert.us_per_call": "us",
    "graphs.induced_search.calls": "count",
    "graphs.induced_search.self_s": "s",
    "graphs.induced_subgraph.calls": "count",
    "graphs.induced_subgraph.self_s": "s",
    "enumeration.graphs_on.s": "s",
    "enumeration.classes_per_s": "1/s",
    "enumeration.certs_per_class": "ratio",
    "enumeration.case_lemmas.us_per_graph": "us",
    "enumeration.regular_tail.us_per_graph": "us",
    "membership.x_witness_for.calls": "count",
    "membership.x_witness_for.self_s": "s",
    "membership.in_y_d.calls": "count",
    "membership.in_y_d.self_s": "s",
    "catalogue.membership_W.calls": "count",
    "catalogue.membership_W.self_s": "s",
    "catalogue.recognize_family.self_s": "s",
    "classify.calls": "count",
    "classify.cold_ms_per_verdict": "ms",
    "classify.warm_ms_per_verdict": "ms",
    "classify.symmetric_s": "s",
    "reductions.make_step.calls": "count",
    "reductions.make_step.self_s": "s",
    "reductions.unique_degree2_path.self_s": "s",
    "reductions.derive_chain.ms_per_graph": "ms",
    "reductions.execute_step.calls": "count",
    "reductions.execute_step.self_s": "s",
    "reductions.built_vertices_mean": "vertices",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solve_exhaustive.self_s": "s",
    "gadgets.modification_sets.calls": "count",
    "gadgets.verify_truth_setting.s": "s",
    "gadgets.verify_truth_setting_weak.s": "s",
    "gadgets.verify_enforcer.s": "s",
    "gadgets.verify_s_component.s": "s",
    "trace.overhead.verify_s": "s",
    "trace.overhead.classify_s": "s",
    "trace.overhead.reduce_verify_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(s, facts: dict, classes: int) -> dict[str, float]:
    """Figures from a SpanSummary s; trace.overhead.* are added by run.py,
    which also has the untraced round."""
    cert_calls = s.calls("graphs.canonical_cert")
    cert_self = s.self_s("graphs.canonical_cert")
    graphs_on_s = s.incl_s("enumeration.graphs_on")
    solve_s = s.incl_s("solver.solve")
    nodes = s.calls(*SEARCH, parent_in=("solver.solve",))
    verdicts = facts.get("verdicts_per_pass", 0)
    out = {
        "graphs.canonical_cert.calls": cert_calls,
        "graphs.canonical_cert.self_s": cert_self,
        "graphs.canonical_cert.us_per_call": 1e6 * _ratio(cert_self, cert_calls),
        "graphs.induced_search.calls": s.calls(*SEARCH, outermost=True),
        "graphs.induced_search.self_s": s.self_s(*SEARCH),
        "graphs.induced_subgraph.calls": s.calls("graphs.induced_subgraph"),
        "graphs.induced_subgraph.self_s": s.self_s("graphs.induced_subgraph"),
        "enumeration.graphs_on.s": graphs_on_s,
        "enumeration.classes_per_s": _ratio(classes, graphs_on_s),
        "enumeration.certs_per_class": _ratio(
            s.calls("graphs.canonical_cert", parent_in=("enumeration.graphs_on",)), classes
        ),
        "enumeration.case_lemmas.us_per_graph": 1e6
        * _ratio(s.incl_s("bench.case_lemmas"), facts.get("case_lemmas_graphs", 0)),
        "enumeration.regular_tail.us_per_graph": 1e6
        * _ratio(s.incl_s("bench.regular_tail"), facts.get("regular_tail_graphs", 0)),
        "membership.x_witness_for.calls": s.calls("membership.x_witness_for"),
        "membership.x_witness_for.self_s": s.self_s("membership.x_witness_for"),
        "membership.in_y_d.calls": s.calls("membership.in_y_d"),
        "membership.in_y_d.self_s": s.self_s("membership.in_y_d"),
        "catalogue.membership_W.calls": s.calls("catalogue.membership_W"),
        "catalogue.membership_W.self_s": s.self_s("catalogue.membership_W"),
        "catalogue.recognize_family.self_s": s.self_s("catalogue.recognize_family"),
        "classify.calls": s.calls("classify.classify"),
        "classify.cold_ms_per_verdict": 1e3
        * _ratio(s.incl_s("classify.classify", within=("bench.cold",)), verdicts),
        "classify.warm_ms_per_verdict": 1e3
        * _ratio(s.incl_s("classify.classify", within=("bench.warm",)), verdicts),
        "classify.symmetric_s": s.incl_s("classify.classify", within=("bench.cold.symmetric",)),
        "reductions.make_step.calls": s.calls("reductions.make_step"),
        "reductions.make_step.self_s": s.self_s("reductions.make_step"),
        "reductions.unique_degree2_path.self_s": s.self_s("reductions.unique_degree2_path"),
        "reductions.derive_chain.ms_per_graph": 1e3
        * _ratio(s.incl_s("reductions.derive_chain"), s.calls("reductions.derive_chain", outermost=True)),
        "reductions.execute_step.calls": s.calls("reductions.execute_step"),
        "reductions.execute_step.self_s": s.self_s("reductions.execute_step"),
        "reductions.built_vertices_mean": _ratio(facts.get("built_vertices", 0), facts.get("slots", 0)),
        "solver.solve.calls": s.calls("solver.solve"),
        "solver.solve.self_s": s.self_s("solver.solve"),
        "solver.nodes": nodes,
        "solver.nodes_per_s": _ratio(nodes, solve_s),
        "solver.solve_exhaustive.self_s": s.self_s("solver.solve_exhaustive"),
        "gadgets.modification_sets.calls": s.calls("gadgets.modification_sets"),
        "gadgets.verify_truth_setting.s": s.incl_s("gadgets.verify_truth_setting"),
        "gadgets.verify_truth_setting_weak.s": s.incl_s("gadgets.verify_truth_setting_weak"),
        "gadgets.verify_enforcer.s": s.incl_s("gadgets.verify_enforcer"),
        "gadgets.verify_s_component.s": s.incl_s("gadgets.verify_s_component"),
        "trace.spans": len(s.dur),
    }
    return out
