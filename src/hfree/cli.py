"""Command-line frontend: classification, campaigns, reductions, solving.

JSON reports go to stdout, human-readable summaries to stderr. Exit codes:
0 success, 1 a verification found counterexamples, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import catalogue as C
from . import classify as CL
from . import enumeration as E
from . import gadgets as GD
from . import graphs as G
from . import membership as M
from . import reductions as R
from . import solver as S

PROBLEM_ALIASES = {
    "edit": "editing",
    "editing": "editing",
    "del": "deletion",
    "deletion": "deletion",
    "comp": "completion",
    "completion": "completion",
}


def _parse_graph(text: str) -> G.SmallGraph:
    """A catalogue id, family id like F2:6, or a graph6 string."""
    try:
        return C.lookup(text).graph
    except KeyError:
        pass
    if ":" in text:
        fam, _, t = text.partition(":")
        if fam in C.FAMILY_CONSTRAINTS:
            return C.generate_family(C.FamilyId(fam, int(t)))
    return G.from_graph6(text)


_MODES = {"edit": "edit", "del": "delete", "comp": "complete"}


def _parse_instance(args) -> S.EditInstance:
    """The instance given by --graph, --k, --mode and --forbidden."""
    pairs = []
    for part in args.forbidden.split(",") if args.forbidden else ():
        a, _, b = part.partition("-")
        pairs.append((int(a), int(b)))
    return S.EditInstance(
        _parse_graph(args.graph), args.k, _MODES[args.mode], frozenset(pairs))


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def _chain_json(chain) -> list[dict]:
    """Each step's ``describe()`` with its rule shown as the citation."""
    out = []
    for s in chain:
        d = s.describe()
        d["citation"] = d.pop("rule")
        out.append(d)
    return out


def cmd_classify(args) -> int:
    g = _parse_graph(args.graph)
    problem = PROBLEM_ALIASES[args.problem]
    v = CL.classify(g, problem)
    payload = {
        "graph": G.to_graph6(g),
        "n": g.n,
        "problem": problem,
        "status": v.status,
        "reason": v.reason,
        "member": v.member,
        "chain": _chain_json(v.chain),
    }
    _emit(payload, f"{args.graph}: {v.status} ({v.reason})")
    return 0


def cmd_churn(args) -> int:
    g = _parse_graph(args.graph)
    out = CL.churn(g)
    payload = {
        "graph": G.to_graph6(g),
        "result": G.to_graph6(out.result),
        "trace": [
            {"removed": side, "graph": G.to_graph6(stage)}
            for side, stage in out.trace
        ],
    }
    _emit(payload, f"churn: {len(out.trace)} peel(s)")
    return 0


def cmd_chain(args) -> int:
    g = _parse_graph(args.graph)
    chain = R.derive_chain(g, PROBLEM_ALIASES[args.problem])
    payload = {"graph": G.to_graph6(g), "chain": _chain_json(chain)}
    _emit(payload, f"chain: {len(chain)} step(s)")
    return 0


# how ``hfree reduce`` reads each construction parameter from its flag
_REDUCE_PARAMS = {
    "h": _parse_graph,
    "vprime": lambda text: [int(v) for v in text.split(",")],
    "ell": int,
    "t": int,
}


def cmd_reduce(args) -> int:
    build, names = R.CONSTRUCTIONS[args.construction]
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"--construction {args.construction} needs {' and '.join(missing)}"
        )
    inst = _parse_instance(args)
    params = [_REDUCE_PARAMS[name](getattr(args, name)) for name in names]
    out = build(inst, *params)
    payload = {"input": G.to_graph6(inst.g), "output": G.to_graph6(out.g),
               "n": out.g.n, "k_out": out.k, "mode": out.mode,
               "forbidden": sorted(out.forbidden),
               "construction": args.construction, "k": inst.k}
    _emit(payload, f"reduce: {inst.g.n} -> {out.g.n} vertices")
    return 0


def cmd_solve(args) -> int:
    inst = _parse_instance(args)
    h = _parse_graph(args.h)
    sol = S.solve(inst, h)
    payload = {
        "graph": G.to_graph6(inst.g),
        "h": G.to_graph6(h),
        "k": inst.k,
        "mode": inst.mode,
        "feasible": sol.feasible,
        "witness": sorted(sol.witness),
    }
    _emit(payload, f"solve: {'yes' if sol.feasible else 'no'}")
    return 0


def cmd_verify(args) -> int:
    cfg = E.EnumConfig(
        n_max=args.n_max, workers=args.workers, checkpoint_path=args.resume
    )
    report = E.run_search_campaign(cfg, args.campaign)
    _emit(report, f"campaign {args.campaign}: ok={report['ok']}")
    return 0 if report["ok"] else 1


def cmd_verify_gadgets(args) -> int:
    rows = [args.row] if args.row else GD.table_rows()
    reports = []
    for row in rows:
        for mode in ("delete", "complete"):
            for role in GD.ROLES:
                entry = GD.verify_row(row, mode, role, n_host=args.n_host)
                if entry is not None:
                    reports.append(entry)
    all_ok = all(entry["ok"] for entry in reports)
    _emit({"rows": reports, "ok": all_ok}, f"gadgets ok={all_ok}")
    return 0 if all_ok else 1


def cmd_catalogue(args) -> int:
    if args.action == "list":
        _emit({"ids": C.all_ids()}, f"{len(C.all_ids())} entries")
        return 0
    if args.id is None:
        raise ValueError("catalogue show needs an id")
    entry = C.lookup(args.id)
    g = entry.graph
    payload = {
        "id": entry.id,
        "series": entry.source,
        "graph": G.to_graph6(g),
        "n": g.n,
        "m": g.edge_count(),
        "edges": sorted(g.edges()),
        "degrees": sorted(g.degrees()),
        "connected": G.is_connected(g),
        "membership": dataclasses.asdict(M.set_membership(g)),
    }
    _emit(payload, f"{entry.id}: n={g.n} m={g.edge_count()}")
    return 0


def _add_instance_args(p, mode_default=None) -> None:
    """The flags ``_parse_instance`` reads; --mode is required unless it
    has a default."""
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=sorted(_MODES), default=mode_default,
                   required=mode_default is None)
    p.add_argument("--forbidden", help="comma-separated pairs like 0-1,2-3")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hfree",
        description="Classification and verification for H-free edge "
        "modification problems.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="kernelization verdict for a graph")
    p.add_argument("--problem", required=True, choices=sorted(PROBLEM_ALIASES))
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("churn", help="run the peeling procedure")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_churn)

    p = sub.add_parser("chain", help="simulation chain for a catalogue graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--problem", default="del", choices=sorted(PROBLEM_ALIASES))
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("reduce", help="run one construction on an instance")
    p.add_argument("--construction", required=True,
                   choices=sorted(R.CONSTRUCTIONS))
    _add_instance_args(p, mode_default="edit")
    p.add_argument("--h")
    p.add_argument("--vprime", help="comma-separated vertices of h")
    p.add_argument("--ell", type=int)
    p.add_argument("--t", type=int)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve", help="exact decision for one instance")
    _add_instance_args(p)
    p.add_argument("--h", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run a search campaign")
    p.add_argument("--campaign", required=True, choices=E.CAMPAIGNS)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", help="checkpoint directory")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-gadgets", help="check the gadget table")
    p.add_argument("--row")
    p.add_argument("--n-host", type=int, default=6)
    p.set_defaults(fn=cmd_verify_gadgets)

    p = sub.add_parser("catalogue", help="catalogue access")
    p.add_argument("action", choices=["show", "list"])
    p.add_argument("id", nargs="?")
    p.set_defaults(fn=cmd_catalogue)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
