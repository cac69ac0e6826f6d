"""Spans around the calls into hfree's public functions.

The traced run replaces selected module attributes with wrappers that
record a span (name, start, end, parent) per call; ``hfree`` itself is not
edited. Modules call each other as ``G.canonical_cert(...)`` and call their
own functions through module globals, so replacing the attribute catches
every such call. Spans are kept in flat arrays and reduced to per-layer
figures when the round ends. Untraced runs use ``NullTracer``, whose only
cost is a no-op context manager around each phase and input group.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

# module -> public functions wrapped in a traced run
TRACED = {
    "graphs": (
        "canonical_cert",
        "first_induced",
        "contains_induced",
        "find_induced",
        "is_free_of",
        "induced_subgraph",
    ),
    "enumeration": ("graphs_on", "run_search_campaign"),
    "membership": ("x_witness_for", "in_y_d"),
    "catalogue": ("membership_W", "recognize_family"),
    "classify": ("classify",),
    "reductions": ("make_step", "derive_chain", "execute_step", "unique_degree2_path"),
    "solver": ("solve", "solve_exhaustive"),
    "gadgets": (
        "modification_sets",
        "verify_truth_setting",
        "verify_truth_setting_weak",
        "verify_enforcer",
        "verify_s_component",
    ),
}

INDUCED_SEARCH = ("first_induced", "contains_induced", "find_induced", "is_free_of")


class NullTracer:
    """Stand-in for untraced rounds: spans cost nothing and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Records nested spans; install() wraps the functions in TRACED."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        # graphs_on level sizes by n: the classes enumerated in this process
        self.level_sizes: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attrs in TRACED.items():
            module = modules[mod_name]
            for attr in attrs:
                fn = getattr(module, attr)
                setattr(module, attr, self._wrap(fn, self._id(f"{mod_name}.{attr}")))
                self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, nid: int):
        enter, exit_ = self._enter, self._exit
        if self.names[nid] == "enumeration.graphs_on":
            sizes = self.level_sizes

            @functools.wraps(fn)
            def graphs_on(n, *args, **kwargs):
                idx = enter(nid)
                try:
                    level = fn(n, *args, **kwargs)
                finally:
                    exit_(idx)
                sizes[n] = len(level)
                return level

            return graphs_on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return wrapper


class SpanSummary:
    """Per-name call counts, inclusive and self times, and parent links."""

    def __init__(self, tr: Tracer):
        n = len(tr.name)
        self.names = tr.names
        self.name = tr.name
        self.parent = tr.parent
        self.dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]
        self.by_name: dict[int, list[int]] = {}
        for i, nid in enumerate(tr.name):
            self.by_name.setdefault(nid, []).append(i)

    def ids(self, *names: str) -> set[int]:
        return {i for i, nm in enumerate(self.names) if nm in names}

    def under(self, i: int, anc: set[int]) -> bool:
        """True if some enclosing span of span i has a name id in anc."""
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in anc:
                return True
            p = self.parent[p]
        return False

    def select(self, names, outermost=False, within=None, parent_in=None) -> list[int]:
        """Spans with one of the names. outermost: no enclosing span of the
        same group. within: some enclosing span has a name in that tuple.
        parent_in: the direct parent has a name in that tuple."""
        want = self.ids(*names)
        anc = self.ids(*within) if within else None
        par = self.ids(*parent_in) if parent_in else None
        out = []
        for i in sorted(i for nid in want for i in self.by_name.get(nid, ())):
            if outermost and self.under(i, want):
                continue
            if anc is not None and not self.under(i, anc):
                continue
            if par is not None and (self.parent[i] < 0 or self.name[self.parent[i]] not in par):
                continue
            out.append(i)
        return out

    def calls(self, *names, **kw) -> int:
        return len(self.select(names, **kw))

    def self_s(self, *names, **kw) -> float:
        return sum(self.self_time[i] for i in self.select(names, **kw))

    def incl_s(self, *names, **kw) -> float:
        """Inclusive time of the outermost spans among names."""
        return sum(self.dur[i] for i in self.select(names, outermost=True, **kw))
