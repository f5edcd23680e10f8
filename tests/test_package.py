import ast
import functools
import types
from pathlib import Path

import nmchain

SRC = Path(nmchain.__file__).parent


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    dunder = alias.name.startswith("__") and alias.name.endswith("__")
                    if alias.name.startswith("_") and not dunder:
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not found, found


def test_all_lists_no_modules():
    assert nmchain.__all__
    modules = [n for n in nmchain.__all__ if isinstance(getattr(nmchain, n), types.ModuleType)]
    assert not modules, modules


def _bench_constants(*names):
    """Module-level constants of perfbench/run.py, evaluated without running it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names:
            code = compile(ast.Expression(node.value), "run.py", "eval")
            found[node.targets[0].id] = eval(code, {"__builtins__": {"tuple": tuple}})
    assert set(found) == set(names), found
    return found


def test_benchmark_trace_names_resolve():
    # a renamed function would silently zero its per-layer benchmark row
    consts = _bench_constants("SPAN_METRICS", "SCHEDULE_SCANS")
    names = list(consts["SPAN_METRICS"].values()) + list(consts["SCHEDULE_SCANS"])
    assert names
    missing = []
    for name in names:
        try:
            target = functools.reduce(getattr, name.split("."), nmchain)
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(name)
    assert not missing, missing
