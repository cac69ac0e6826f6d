#!/usr/bin/env python3
"""Inspect and verify the gadget table.

For each populated cell the corresponding verifier runs: satisfaction
components get their full toggle table, basic units get chained into a
truth-setting complex, enforcers get the three-layer evidence report. Run:

    python demos/gadget_gallery.py [row]
"""

import sys

from hfree import gadgets as GD


def show_row(row: str):
    host = GD.host_graph(row)
    print(f"\n== {row}: {host.n} vertices, {host.edge_count()} edges")
    for mode in ("delete", "complete"):
        sc = GD.verify_row(row, mode, "SComponent")
        if sc:
            allowed = GD.table_gadget(row, mode, "SComponent").allowed
            if sc["ok"]:
                bits = "".join(str(int(v)) for v in sc["table"])
            else:
                bits = f"FAILS ({sc['error']})"
            print(f"   {mode:>8} S-component : toggle table {bits} "
                  f"(x,y,z = {allowed})")
        bu = GD.verify_row(row, mode, "BasicUnit")
        if bu:
            tc = GD.build_truth_setting(GD.table_gadget(row, mode, "BasicUnit"))
            if bu["method"] == "exhaustive":
                how = f"exhaustive over 2^{len(tc.allowed)} subsets"
            else:
                how = "single-toggle forcing check"
            print(f"   {mode:>8} basic unit  : complex on {tc.graph.n} "
                  f"vertices, {'passes' if bu['ok'] else 'FAILS'} ({how})")
        enf = GD.verify_row(row, mode, "Enforcer", n_host=5)
        if enf:
            lay = enf["layers"]
            print(f"   {mode:>8} enforcer    : exact={lay['exact']['ok']} "
                  f"structural={lay['structural']['ok']} "
                  f"({lay['structural']['condition']}) "
                  f"falsification={lay['falsification']['ok']}")


def main():
    rows = [sys.argv[1]] if len(sys.argv) > 1 else GD.table_rows()
    for row in rows:
        show_row(row)


if __name__ == "__main__":
    main()
