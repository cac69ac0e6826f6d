"""W membership as the catalogue answered it before the per-size index, kept
as a test oracle: look g up by certificate, then its complement, among the
named entries; then build every family member on g.n vertices and compare
certificates, for g and then for its complement.

``identify``, ``recognize_family`` and ``membership_W`` are copied from the
package with the catalogue's private tables replaced by its public API: the
vertex offset of a family is read off its smallest member.
"""

from __future__ import annotations

import functools
from typing import Optional

from hfree import catalogue as C
from hfree import graphs as G
from hfree.graphs import SmallGraph


@functools.cache
def _index() -> dict[bytes, str]:
    idx: dict[bytes, str] = {}
    for name in C.all_ids():
        idx.setdefault(G.canonical_cert(C.lookup(name).graph), name)
    return idx


@functools.cache
def _offset(fam: str) -> int:
    tmin = C.FAMILY_CONSTRAINTS[fam]
    return C.generate_family(C.FamilyId(fam, tmin)).n - tmin


def identify(g: SmallGraph) -> Optional[str]:
    """Catalogue id of g, a 'co-' id if only its complement is stored."""
    cert = G.canonical_cert(g)
    idx = _index()
    if cert in idx:
        return idx[cert]
    co = G.canonical_cert(G.complement(g))
    if co in idx:
        name = idx[co]
        return name if cert == co else f"co-{name}"
    return None


def recognize_family(g: SmallGraph) -> Optional[C.FamilyId]:
    """The fid with g isomorphic to its member, first in table order."""
    cert = None
    for fam, tmin in C.FAMILY_CONSTRAINTS.items():
        t = g.n - _offset(fam)
        if t < tmin:
            continue
        member = C.generate_family(C.FamilyId(fam, t))
        if member.edge_count() != g.edge_count():
            continue
        if cert is None:
            cert = G.canonical_cert(g)
        if G.canonical_cert(member) == cert:
            return C.FamilyId(fam, t)
    return None


def membership_W(g: SmallGraph) -> Optional[C.WReason]:
    """Named entries first (small ones skipped), then families, each before
    its complement."""
    name = identify(g)
    if name is not None:
        base = name[3:] if name.startswith("co-") else name
        if C.lookup(base).source != "small":
            if name.startswith("co-"):
                return C.WReason("named", base, complemented=True)
            return C.WReason("named", name)
    fid = recognize_family(g)
    if fid is not None:
        return C.WReason("family", fid.family, t=fid.t)
    fid = recognize_family(G.complement(g))
    if fid is not None:
        return C.WReason("family", fid.family, t=fid.t, complemented=True)
    return None
