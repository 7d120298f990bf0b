"""Every name the benchmark imports from ``chio`` exists.

The benchmark under ``perfbench/`` imports library functions by name, so
renaming or deleting one would break it only when it next runs.  This
reads its source with ``ast`` and imports nothing from it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def chio_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every ``chio`` import in the benchmark's
    files; ``name`` is None for a plain ``import chio...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [(alias.name, None) for alias in node.names]
            else:
                continue
            for module, name in modules:
                if module == "chio" or module.startswith("chio."):
                    found.append((path.name, module, name))
    return found


def resolves(module: str, name: str | None) -> bool:
    if importlib.util.find_spec(module) is None:
        return False
    if name is None:
        return True
    return hasattr(importlib.import_module(module), name) or (
        importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_every_chio_name_the_benchmark_imports_exists():
    imports = chio_imports()
    # The benchmark drives every layer; an empty list would mean the
    # files were not found or not parsed.
    assert {module for _, module, _ in imports} >= {"chio.signed_graph", "chio.switching"}
    missing = [entry for entry in imports if not resolves(*entry[1:])]
    assert not missing, f"perfbench imports names chio lacks: {missing}"
