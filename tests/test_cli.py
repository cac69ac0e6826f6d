"""CLI surface tests: JSON schema, exit codes, subcommands."""

import json

import pytest

from hfree import cli
from hfree import graphs as G


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
        capsys, "verify", "--campaign", "W_closure", "--n-max", "5"
    )
    assert code == 0 and payload["ok"]


def test_verify_gadgets_single_row(capsys):
    code, payload, _ = run(
        capsys, "verify-gadgets", "--row", "co-A1", "--n-host", "3"
    )
    assert code == 0
    roles = {(r["mode"], r["role"]) for r in payload["rows"]}
    assert ("delete", "SComponent") in roles
    assert ("complete", "Enforcer") in roles


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
