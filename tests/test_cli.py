"""CLI surface tests: JSON schema, exit codes, subcommands."""

import hashlib
import json

import pytest

from hfree import catalogue as C
from hfree import cli
from hfree import enumeration as E
from hfree import gadgets as GD
from hfree import graphs as G
from hfree import solver as S


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


def test_classify_json(capsys):
    g6 = G.to_graph6(G.path_graph(4))
    code, payload, err = run(
        capsys, "classify", "--problem", "edit", "--graph", g6
    )
    assert code == 0
    assert payload["status"] == "PolyKernel"
    assert payload["n"] == 4
    assert payload["graph"] == g6
    # report reserializes byte-identically
    assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(
        json.loads(json.dumps(payload, indent=2, sort_keys=True)),
        indent=2,
        sort_keys=True,
    )


def test_classify_catalogue_id(capsys):
    code, payload, _ = run(
        capsys, "classify", "--problem", "del", "--graph", "D1"
    )
    assert code == 0 and payload["status"] == "OpenCatalogue"
    assert payload["member"] == "D1"


def test_classify_chain_schema(capsys):
    code, payload, _ = run(
        capsys, "classify", "--problem", "edit", "--graph", "F1:6"
    )
    assert code == 0
    for step in payload["chain"]:
        assert set(step) >= {"from", "to", "construction", "citation"}
        G.from_graph6(step["from"])
        G.from_graph6(step["to"])


def test_churn(capsys):
    code, payload, _ = run(capsys, "churn", "--graph", "S1")
    assert code == 0 and payload["trace"] == []


def test_chain(capsys):
    code, payload, _ = run(capsys, "chain", "--graph", "S12")
    assert code == 0
    assert len(payload["chain"]) >= 2


def test_chain_completion_is_deletion_on_the_complement(capsys):
    code, payload, _ = run(capsys, "chain", "--graph", "S12", "--problem", "comp")
    co = G.to_graph6(G.complement(C.lookup("S12").graph))
    _, dual, _ = run(capsys, "chain", "--graph", co, "--problem", "del")
    assert code == 0
    assert payload["chain"][0]["citation"] == "complement-duality"
    assert payload["chain"][0]["to"] == co
    assert payload["chain"][1:] == dual["chain"]


def test_reduce(capsys):
    g6 = G.to_graph6(G.path_graph(3))
    code, payload, _ = run(
        capsys, "reduce", "--construction", "ConMod", "--graph", g6,
        "--k", "1", "--ell", "1",
    )
    assert code == 0 and payload["n"] == 9


def test_solve(capsys):
    g6 = G.to_graph6(G.cycle_graph(4))
    code, payload, _ = run(
        capsys, "solve", "--graph", g6, "--h", "C4", "--k", "1",
        "--mode", "del",
    )
    assert code == 0 and payload["feasible"] is True
    code, payload, _ = run(
        capsys, "solve", "--graph", g6, "--h", "C4", "--k", "1",
        "--mode", "del", "--forbidden", "0-1,1-2,2-3,0-3",
    )
    assert code == 0 and payload["feasible"] is False


def test_verify_small(capsys):
    code, payload, _ = run(
        capsys, "verify", "--campaign", "regular_tail", "--n-max", "5"
    )
    assert code == 0 and payload["ok"]


@pytest.mark.parametrize(
    "campaign, n_max", [("case_lemmas", "3"), ("regular_tail", "-2")])
def test_verify_below_the_first_level_is_a_usage_error(capsys, campaign, n_max):
    """A campaign with no level to check exits 2 instead of reporting ok."""
    code, payload, err = run(
        capsys, "verify", "--campaign", campaign, "--n-max", n_max
    )
    assert code == 2 and payload is None and "first level" in err


def test_verify_gadgets_single_row(capsys):
    code, payload, _ = run(
        capsys, "verify-gadgets", "--row", "co-A1", "--n-host", "3"
    )
    assert code == 0
    roles = {(r["mode"], r["role"]) for r in payload["rows"]}
    assert ("delete", "SComponent") in roles
    assert ("complete", "Enforcer") in roles


def test_verify_gadgets_n_host_7_pinned(capsys):
    """The whole table's report at --n-host 7, byte for byte: layer (c)
    over every host with at most 7 vertices for all 18 enforcers."""
    code = cli.main(["verify-gadgets", "--n-host", "7"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "254a410432ed43caa0c84083750794bf70ba4b2eeddb1a9145fbd4e45dc45ae8")


@pytest.mark.parametrize("n_host", ["1", "-3"])
def test_verify_gadgets_without_hosts_is_a_usage_error(capsys, n_host):
    """An --n-host below 2 leaves layer (c) no host to try: exit 2, not ok."""
    code, payload, err = run(
        capsys, "verify-gadgets", "--row", "co-A1", "--n-host", n_host
    )
    assert code == 2 and payload is None and "n_host" in err


def test_verify_gadgets_n_host_above_the_limit_is_a_usage_error(capsys, monkeypatch):
    """--n-host 11 exits 2 before any level is built, instead of building
    levels 9 and 10 and then refusing."""
    def no_levels(n, *args, **kwargs):
        raise AssertionError(f"graphs_on({n}) called")

    monkeypatch.setattr(E, "graphs_on", no_levels)
    code, payload, err = run(
        capsys, "verify-gadgets", "--row", "co-A1", "--n-host", "11"
    )
    assert code == 2 and payload is None and "n_host" in err


def test_verify_gadgets_above_the_known_levels_is_a_usage_error(capsys, monkeypatch):
    """An enforcer whose layer (c) finds nothing below level 10 and would
    walk it exits 2 instead of building it. The empty residual pattern
    fits every host; the levels below 10 are stubbed empty."""
    def below_ten(n):
        if n >= 10:
            raise AssertionError(f"graphs_on({n}) called")
        return []

    monkeypatch.setattr(GD, "_residual_patterns", lambda enf, h: (((), (), ()),))
    monkeypatch.setattr(E, "graphs_on", below_ten)
    code, payload, err = run(
        capsys, "verify-gadgets", "--row", "co-A1", "--n-host", "10"
    )
    assert code == 2 and payload is None and "would need level 10" in err


@pytest.mark.parametrize("row", ["NOPE", "H1"])
def test_verify_gadgets_unknown_row_is_a_usage_error(capsys, row):
    """A --row with no gadget-table row (a typo, or a catalogue id the
    table lacks) would check no cell: exit 2 naming the rows, not ok."""
    code, payload, err = run(capsys, "verify-gadgets", "--row", row)
    assert code == 2 and payload is None
    assert repr(row) in err and "co-A1" in err


def test_catalogue_show_and_list(capsys):
    code, payload, _ = run(capsys, "catalogue", "show", "H5")
    assert code == 0 and payload["n"] == 5 and payload["m"] == 4
    code, payload, _ = run(capsys, "catalogue", "list")
    assert code == 0 and "S36" in payload["ids"]


def test_usage_errors(capsys):
    code, payload, err = run(capsys, "classify", "--problem", "edit",
                             "--graph", "notagraph??")
    assert code == 2
    code, _, _ = run(capsys, "catalogue", "show", "H99")
    assert code == 2
    assert cli.main(["bogus"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["catalogue", "show"],
        ["reduce", "--construction", "ConMain", "--graph", "Ch", "--k", "1"],
        ["reduce", "--construction", "ConMain", "--graph", "Ch", "--k", "1",
         "--h", "P3"],
        ["reduce", "--construction", "ConMod", "--graph", "Ch", "--k", "1"],
        ["reduce", "--construction", "ConNearUni", "--graph", "Ch", "--k", "1"],
        ["reduce", "--construction", "Nope", "--graph", "Ch", "--k", "1"],
    ],
)
def test_missing_arguments_are_usage_errors(capsys, argv):
    code, payload, err = run(capsys, *argv)
    assert code == 2 and payload is None
    assert "error:" in err and "Traceback" not in err


# one small valid instance per table construction, with its params
_P3, _C4, _C5 = G.path_graph(3), G.cycle_graph(4), G.cycle_graph(5)
_REDUCE_CASES = {
    "ConMain": (S.EditInstance(_P3, 1, "edit"), {"h": _P3, "vprime": [0, 2]}),
    "ConMod": (S.EditInstance(_P3, 1, "edit"), {"ell": 1}),
    "ConNearUni": (S.EditInstance(_C4, 1, "delete"), {"t": 2}),
    "UnionClique": (S.EditInstance(G.star_graph(3), 2, "complete"), {}),
    "LargestComponent": (
        S.EditInstance(_C4, 1, "edit"),
        {"h": G.disjoint_union(_P3, _P3)}),
    "Complement": (S.EditInstance(_C4, 1, "delete", frozenset([(0, 1)])), {}),
    "TrickyA6c": (S.EditInstance(_P3, 1, "delete", frozenset([(0, 1)])), {}),
    "TrickyA7c": (S.EditInstance(_C4, 1, "delete", frozenset([(0, 1)])), {}),
    "TrickyA9c": (S.EditInstance(_C4, 2, "delete", frozenset([(0, 1)])), {}),
    "TrickyA1cCom": (
        S.EditInstance(_P3, 1, "complete", frozenset([(0, 2)])), {}),
    "TrickyA6cCom": (
        S.EditInstance(_P3, 1, "complete", frozenset([(0, 2)])), {}),
    "EnforcerAttach": (
        S.EditInstance(_C5, 1, "delete", frozenset([(0, 1)])),
        {"h": C.lookup("A3").graph}),
}
_MODE_FLAGS = {"edit": "edit", "delete": "del", "complete": "comp"}


def _param_flag(value):
    if isinstance(value, G.SmallGraph):
        return G.to_graph6(value)
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("construction", sorted(cli.R.CONSTRUCTIONS))
def test_reduce_runs_every_table_construction(capsys, construction):
    """Every table row runs from ``hfree reduce`` and prints what the
    direct call builds."""
    inst, params = _REDUCE_CASES[construction]
    build, names = cli.R.CONSTRUCTIONS[construction]
    argv = ["reduce", "--construction", construction,
            "--graph", G.to_graph6(inst.g), "--k", str(inst.k),
            "--mode", _MODE_FLAGS[inst.mode]]
    if inst.forbidden:
        argv.append("--forbidden=" + ",".join(f"{u}-{v}" for u, v in inst.forbidden))
    for name in names:
        argv += [f"--{name}", _param_flag(params[name])]
    code, payload, _ = run(capsys, *argv)
    out = build(inst, *(params[name] for name in names))
    assert code == 0
    assert payload == {"input": G.to_graph6(inst.g), "output": G.to_graph6(out.g),
                       "n": out.g.n, "k_out": out.k, "mode": out.mode,
                       "forbidden": [list(p) for p in sorted(out.forbidden)],
                       "construction": construction, "k": inst.k}
    assert out.g.n > inst.g.n or construction == "Complement"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--graph", "C]", "--h", "C4", "--k", "0", "--mode", "del",
         "--forbidden=1--1"],
        ["solve", "--graph", "C]", "--h", "C4", "--k", "0", "--mode", "comp",
         "--forbidden", "0-9"],
        ["reduce", "--construction", "TrickyA7c", "--graph", "C]", "--k", "1",
         "--mode", "del", "--forbidden=1--1"],
        ["reduce", "--construction", "Complement", "--graph", "C]", "--k", "0",
         "--mode", "comp", "--forbidden", "0-9"],
    ],
)
def test_forbidden_pairs_outside_the_graph_are_usage_errors(capsys, argv):
    code, payload, err = run(capsys, *argv)
    assert code == 2 and payload is None
    assert "outside" in err and "Traceback" not in err


def test_reduce_refusals_are_usage_errors(capsys):
    """A chain construction given forbidden pairs, and a restricted
    gadget given an edit instance, refuse with exit code 2."""
    for argv in (
        ["--construction", "ConMod", "--graph", "Cl", "--k", "1", "--ell", "1",
         "--mode", "del", "--forbidden", "0-1"],
        ["--construction", "TrickyA7c", "--graph", "Cl", "--k", "1"],
        ["--construction", "EnforcerAttach", "--graph", "Cl", "--k", "1",
         "--h", "C4", "--mode", "del", "--forbidden", "0-1"],
    ):
        code, payload, err = run(capsys, "reduce", *argv)
        assert code == 2 and payload is None
        assert "error:" in err and "Traceback" not in err
