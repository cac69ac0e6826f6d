"""The benchmark's traced run patches hfree attributes by name; a rename
must fail here rather than silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}"
        for mod, attrs in tracing.TRACED.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"hfree.{mod}"), attr, None))
    ]
    assert missing == []
