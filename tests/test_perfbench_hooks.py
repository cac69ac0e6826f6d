"""The benchmark reaches hfree by attribute name: its traced run patches
functions named in ``perfbench/tracing.py``, and its workloads call
``hf["<module>"].<attr>``. A rename or move must fail here rather than
silently break ``perfbench/run.py``."""

import ast
import glob
import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


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


def _module_of(node):
    """The module short name of ``hf["m"]`` or ``<x>["hf"]["m"]``, else None."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "hf" or (
        isinstance(base, ast.Subscript) and isinstance(base.slice, ast.Constant)
        and base.slice.value == "hf"
    ):
        return node.slice.value
    return None


def _aliases(tree):
    """Names bound to hfree modules in one file: ``X = hf["m"]``,
    ``X, Y = hf["m"], hf["n"]`` and ``X, Y = (hf[m] for m in ("m", "n"))``."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name):
            names, mods = [target], [_module_of(value)]
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            names, mods = target.elts, [_module_of(v) for v in value.elts]
        elif (isinstance(target, ast.Tuple) and isinstance(value, ast.GeneratorExp)
              and isinstance(value.elt, ast.Subscript)
              and isinstance(value.elt.value, ast.Name) and value.elt.value.id == "hf"
              and isinstance(value.generators[0].iter, ast.Tuple)):
            names = target.elts
            mods = [c.value for c in value.generators[0].iter.elts]
        else:
            continue
        for name, mod in zip(names, mods):
            if isinstance(name, ast.Name) and mod is not None:
                out.setdefault(name.id, set()).add(mod)
    return out


def test_workload_names_resolve():
    """Every ``<alias>.<attr>`` and ``hf["m"].<attr>`` in perfbench/*.py,
    where the alias is bound to an hfree module in the same file, names an
    attribute of that module."""
    refs = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            mod = _module_of(node.value)
            if mod is not None:
                refs.add((os.path.basename(path), frozenset([mod]), node.attr))
            elif isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs.add((os.path.basename(path), frozenset(aliases[node.value.id]), node.attr))
    assert ("round.py", frozenset(["classify"]), "classify") in refs
    assert ("wl_instances.py", frozenset(["gadgets"]), "verify_enforcer") in refs
    missing = sorted(
        f"{path}: {'/'.join(sorted(mods))}.{attr}"
        for path, mods, attr in refs
        if not any(hasattr(importlib.import_module(f"hfree.{m}"), attr) for m in mods)
    )
    assert missing == []
