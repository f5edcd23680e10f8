import ast
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
