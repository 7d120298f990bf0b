"""Every name the benchmark imports from ``chio`` exists, and every call
it makes of a ``chio`` callable binds to that callable's signature.

The benchmark under ``perfbench/`` imports library functions by name and
calls them with positional arguments and keywords, so renaming or
deleting a function or a parameter would break it only when it next
runs.  This reads its source with ``ast`` and imports nothing from it.
"""

import ast
import importlib
import importlib.util
import inspect
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


def chio_bindings(tree: ast.AST) -> dict[str, object]:
    """Local name -> object of every ``from chio... import name [as alias]``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "chio" or node.module.startswith("chio."):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            continue  # a missing name, reported by the test above
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
    return bound


def callee(func: ast.expr, bound: dict[str, object]):
    """The chio object a call's ``name`` or ``name.attr...`` refers to, or None."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        owner = callee(func.value, bound)
        return None if owner is None else getattr(owner, func.attr, None)
    return None


def chio_calls() -> list[tuple[str, int, object, int, list[str], bool]]:
    """(file, line, callable, positional count, keywords, starred) of every
    call of a chio name; ``starred`` is set when a ``*`` or ``**`` argument
    hides how many arguments the call passes."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = chio_bindings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = callee(node.func, bound)
            if not callable(target):
                continue
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            starred = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            found.append((path.name, node.lineno, target, len(positional), keywords, starred))
    return found


def binds(target, npos: int, keywords: list[str], partial: bool) -> bool:
    """Whether ``npos`` positional arguments and ``keywords`` bind to the
    signature of ``target``; ``partial`` lets required parameters go unbound."""
    signature = inspect.signature(target)
    bind = signature.bind_partial if partial else signature.bind
    try:
        bind(*[None] * npos, **dict.fromkeys(keywords))
    except TypeError:
        return False
    return True


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    calls = [call for call in chio_calls() if call[4]]
    names = {(target.__name__, k) for _, _, target, _, keywords, _ in calls for k in keywords}
    # The walk reaches the calls the benchmark's workloads depend on.
    assert names >= {
        ("count_failures", "workers"),
        ("run_suites", "seed"),
        ("run_suites", "workers"),
        ("CensusConfig", "filters"),
        ("CensusConfig", "chunk_size"),
    }
    wrong = [
        (file, line, target.__name__, k)
        for file, line, target, _, keywords, _ in calls
        for k in keywords
        if not binds(target, 0, [k], partial=True)
    ]
    assert not wrong, f"perfbench passes keywords chio does not take: {wrong}"


def test_every_call_the_benchmark_makes_binds():
    calls = chio_calls()
    # The walk reaches positional calls too, among them the one that keeps
    # balance_summary's unused grid size in its signature.
    assert ("balance_summary", 2) in {(target.__name__, npos) for _, _, target, npos, _, _ in calls}
    wrong = [
        (file, line, target.__name__, npos, keywords)
        for file, line, target, npos, keywords, starred in calls
        if not binds(target, npos, keywords, partial=starred)
    ]
    assert not wrong, f"perfbench calls chio with arguments that do not bind: {wrong}"
