"""Shared pieces of one benchmark round: locating and importing hfree from
the checkout, and the bookkeeping of operations, phase times and checks."""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "graphs",
    "enumeration",
    "membership",
    "catalogue",
    "classify",
    "reductions",
    "solver",
    "gadgets",
)


class MissingProgram(RuntimeError):
    """The checkout has no hfree sources next to the benchmark."""


def check_checkout() -> None:
    if not (SRC / "hfree" / "__init__.py").is_file():
        raise MissingProgram(f"no hfree package under {SRC}")


def import_hfree() -> dict[str, object]:
    """Import every hfree module from this checkout's src/ (never from an
    installed copy) and return them by short name."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"hfree.{name}") for name in MODULES}
    origin = Path(mods["graphs"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"hfree imported from {origin}, not from {SRC}")
    return mods


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: fixed string hashing so that
    set and dict layouts, and with them the work done, repeat exactly."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Round:
    """Counts operations and failures, sums the time of each timed phase
    and collects correctness problems for one round of a workload."""

    def __init__(self, tracer, phases, sampler):
        self.tr = tracer
        self.sampler = sampler
        self.phases = {name: 0.0 for name in phases}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.problem_count = 0
        self.facts: dict[str, float] = {}

    def op(self, phase: str, fn, *args, **kwargs):
        """Run one program operation, timed into phase (host speed probes
        that ran meanwhile excluded). An exception counts the operation as
        failed and returns None; the round goes on."""
        probed = self.sampler.spent
        t0 = perf_counter()
        try:
            return self.untimed_op(fn, *args, **kwargs)
        finally:
            self.phases[phase] += perf_counter() - t0 - (self.sampler.spent - probed)

    def untimed_op(self, fn, *args, **kwargs):
        """An operation whose time is kept out of every phase."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, counted and reported
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}"[:300])
            return None

    def expect(self, problems, context: str = "") -> None:
        """Record correctness problems (the first 50 are kept verbatim)."""
        for p in problems:
            self.problem_count += 1
            if len(self.problems) < 50:
                self.problems.append(f"{context}: {p}" if context else p)
