"""Golden classification fingerprints and derive_chain describe lists.

The data in ``tests/data/golden_classify.json`` pins every verdict and
chain for the graphs on at most seven vertices, every catalogue chain,
and the chain (or the exception and its message) of every family member
F1..F10 with t = tmin..tmin+8 and of its complement, so that refactors
of the decision layer cannot change an answer. A level's fingerprints
are sorted and keyed by certificate, so they do not pin which labeled
representative enumeration picks for each class.
Regenerate it only when a verdict is meant to change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_classify.json

``python tests/test_golden.py 8`` prints the digests up to n = 8.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hfree import catalogue as C  # noqa: E402
from hfree import classify as CL  # noqa: E402
from hfree import enumeration as E  # noqa: E402
from hfree import graphs as G  # noqa: E402
from hfree import reductions as R  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_classify.json")
GOLDEN_N = 7
FAMILY_SPAN = 8


def fingerprint(g, problem: str) -> str:
    """Verdict of g without labeling: g and the chain's steps are keyed by
    certificate, since a memo hit returns a chain labeled after the first
    isomorphic graph seen and a level's representatives are one labeling
    among many."""
    v = CL.classify(g, problem)
    parts = [G.canonical_cert(g).hex(), v.status, v.reason, str(v.member)]
    for s in v.chain:
        parts += [
            s.construction,
            s.rule,
            s.k_map,
            str(s.complemented),
            G.canonical_cert(s.source_h).hex(),
            G.canonical_cert(s.target_h).hex(),
        ]
    return "|".join(parts)


def classify_digests(n_max: int) -> dict[str, str]:
    out = {}
    for n in range(1, n_max + 1):
        level = E.graphs_on(n)
        for problem in CL.PROBLEMS:
            text = "\n".join(sorted(fingerprint(g, problem) for g in level))
            out[f"{n}:{problem}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def derive_chain_lists() -> dict[str, object]:
    out: dict[str, object] = {}
    for base in C.all_ids():
        for gid in (base, f"co-{base}"):
            g = C.lookup(gid).graph
            for problem in ("deletion", "editing"):
                try:
                    got: object = [s.describe() for s in R.derive_chain(g, problem)]
                except Exception as exc:  # the exception name is pinned too
                    got = type(exc).__name__
                out[f"{gid}|{problem}"] = got
    return out


def family_chain_lists() -> dict[str, object]:
    out: dict[str, object] = {}
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        for t in range(tmin, tmin + FAMILY_SPAN + 1):
            g = C.generate_family(C.FamilyId(fam, t))
            name = f"{fam}(t={t})"
            for gid, h in ((name, g), (f"co-{name}", G.complement(g))):
                for problem in ("deletion", "editing"):
                    try:
                        got: object = [s.describe() for s in R.derive_chain(h, problem)]
                    except Exception as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    out[f"{gid}|{problem}"] = got
    return out


def _golden() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def test_classify_fingerprints_match_golden():
    assert classify_digests(GOLDEN_N) == _golden()["digests"]


def test_derive_chain_matches_golden():
    want = _golden()["derive_chain"]
    got = derive_chain_lists()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_family_chain_matches_golden():
    assert family_chain_lists() == _golden()["family_chain"]


if __name__ == "__main__":
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_N
    payload = {
        "digests": classify_digests(n_max),
        "derive_chain": derive_chain_lists(),
        "family_chain": family_chain_lists(),
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
