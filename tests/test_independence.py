"""The independence rule: no oracle is merged into the code it checks.

A recount is a check only while it shares no code with what it checks.
This reads the sources of ``src/chio`` with ``ast`` and builds a
name-level reach graph.  Its nodes are ``(module, name)``: module-level
functions, classes with their methods, and module-level assignments.  A
node has an edge to every node its body names, in its own module or
through a ``from .x import y`` binding, top-level or inside the body,
and to ``(x, y)`` for ``x.y`` where ``x`` is a package module.
Annotations are skipped: ``from __future__ import annotations`` leaves
them unevaluated.  One table, ``RULES``, pins what each checked path
may not reach.  The same graph pins that the library holds no function,
class or method that only the tests reach.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

from test_perfbench_imports import chio_imports

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chio"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


class Rule(NamedTuple):
    """``sources`` may reach no ``forbidden`` node except the ``allowed``
    ones.  An entry ``"m"`` names every node of module m, ``"m.f"`` one node."""

    sources: tuple[str, ...]
    forbidden: tuple[str, ...]
    exempt: tuple[str, ...] = ()  # sources the rule does not hold for
    allowed: tuple[str, ...] = ()


RULES = {
    # The brute census engine is the oracle of every measure, balance and
    # failure formula.  kwise_agreement_check is a check of the engine; it
    # stays in census_oracle only because the benchmark imports it from there.
    "census engine": Rule(
        sources=("census_oracle",),
        forbidden=("measures", "signed_graph", "failure_enum", "switching", "verify", "cli"),
        exempt=("census_oracle.kwise_agreement_check",),
    ),
    # The recipe re-derives p_chio by circuits and sign parities, so it may
    # use the degree-based circuit tests and nothing of the balance code.
    "recipe": Rule(
        sources=("measures.recipe_p_chio",),
        forbidden=("signed_graph",),
        allowed=(
            "signed_graph.four_circuits",
            "signed_graph.is_six_circuit",
            "signed_graph._all_degrees_two",
        ),
    ),
    # The enumerators are the oracle of the closed-form failure counts.
    "failure enumerators": Rule(
        sources=("failure_enum.count_failures", "failure_enum.enumerate_failures"),
        forbidden=(
            "failure_enum._realizations",
            "failure_enum._EDGES_AND_RANK",
            "failure_enum.realization_table",
            "failure_enum.failure_count_formula",
        ),
    ),
}


def _import_targets(node: ast.ImportFrom) -> list[tuple[str, tuple[str, str | None]]]:
    """(bound name, target) of a ``from .x import y`` or ``from chio.x import y``;
    the target is ``(x, y)``, or ``(y, None)`` for a module imported as
    ``from . import y``."""
    if node.level == 1:
        module = node.module
    elif node.level == 0 and node.module.split(".")[0] == "chio":
        module = node.module.partition(".")[2] or None
    else:
        return []
    found = []
    for alias in node.names:
        if module is None:
            target = (alias.name, None) if alias.name in MODULES else ("__init__", alias.name)
        else:
            target = (module, alias.name)
        found.append((alias.asname or alias.name, target))
    return found


def _walk(node: ast.AST):
    """``ast.walk`` that does not enter annotations."""
    yield node
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child)


def _module_nodes(tree: ast.Module):
    """Top-level ``(name, body)`` nodes and ``from .x import`` bindings of a module."""
    nodes: dict[str, ast.AST] = {}
    bindings: dict[str, tuple[str, str | None]] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                # ``a, b = ...`` binds each name of the tuple to the whole value.
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    if isinstance(name, ast.Name):
                        nodes[name.id] = stmt.value
        elif isinstance(stmt, ast.ImportFrom):
            bindings.update(_import_targets(stmt))
    return nodes, bindings


PARSED = {m: _module_nodes(ast.parse((PACKAGE / f"{m}.py").read_text())) for m in MODULES}


def reach_graph() -> dict[tuple[str, str | None], set[tuple[str, str | None]]]:
    """Edges of the name-level reach graph of ``src/chio``.  A module node
    ``(m, None)`` has an edge to every node of m."""
    graph = {}
    for module, (nodes, bindings) in PARSED.items():
        graph[(module, None)] = {(module, name) for name in nodes}
        for name, body in nodes.items():
            edges = set()
            module_attrs = set()  # the module Names of ``x.y``, already resolved
            for sub in _walk(body):
                if isinstance(sub, ast.ImportFrom):
                    edges.update(target for _, target in _import_targets(sub))
                elif isinstance(sub, ast.Import):
                    # ``import chio.x`` inside a body: all of x, conservatively.
                    names = [a.name.split(".") for a in sub.names]
                    edges.update((n[1], None) for n in names if n[0] == "chio" and len(n) > 1)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    target = bindings.get(sub.value.id)
                    if target is not None and target[1] is None:
                        edges.add((target[0], sub.attr))
                        module_attrs.add(sub.value)
                elif isinstance(sub, ast.Name) and sub not in module_attrs:
                    if sub.id in nodes:
                        edges.add((module, sub.id))
                    elif sub.id in bindings:
                        edges.add(bindings[sub.id])
            graph[(module, name)] = edges
    return graph


GRAPH = reach_graph()


def reach(start: tuple[str, str | None]) -> set[tuple[str, str | None]]:
    """Every node reachable from ``start``, itself excluded unless on a cycle."""
    seen: set = set()
    stack = list(GRAPH.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(GRAPH.get(node, ()))
    return seen


def matches(node: tuple[str, str | None], patterns: tuple[str, ...]) -> bool:
    module, name = node
    return module in patterns or f"{module}.{name}" in patterns


def named_nodes(patterns: tuple[str, ...]) -> set[tuple[str, str | None]]:
    return {node for node in GRAPH if node[1] is not None and matches(node, patterns)}


def test_every_node_a_rule_names_exists():
    # A misspelt name would make its rule hold vacuously.
    for rule in RULES.values():
        for pattern in (*rule.sources, *rule.forbidden, *rule.exempt, *rule.allowed):
            assert named_nodes((pattern,)), f"{pattern} names no node of src/chio"


def test_the_graph_follows_imports_and_calls():
    # Edges through a top-level import, a function-local import and a
    # module attribute, and a chain of calls inside one module.
    assert ("signed_graph", "matrix_balance") in reach(("measures", "p_chio"))
    assert ("failure_enum", "enumerate_failures") in reach(
        ("census_oracle", "kwise_agreement_check")
    )
    assert ("parallel", "run_tasks_iter") in reach(("census_oracle", "run_census"))
    assert ("census_oracle", "_condensate_masks") in reach(("verify", "suite_measures"))
    assert ("failure_enum", "_realizations") in reach(("failure_enum", "failure_count_formula"))


@pytest.mark.parametrize("name", sorted(RULES))
def test_rule(name):
    rule = RULES[name]
    sources = named_nodes(rule.sources) - named_nodes(rule.exempt)
    breaches = sorted(
        (f"{source[0]}.{source[1]}", f"{target[0]}.{target[1]}")
        for source in sources
        for target in reach(source)
        if matches(target, rule.forbidden) and not matches(target, rule.allowed)
    )
    assert not breaches, f"{name}: reaches what it checks: {breaches}"


def test_census_engine_imports_only_the_matrix_core_and_the_pool():
    # An import the engine does not use yet is refused too.
    tree = ast.parse((PACKAGE / "census_oracle.py").read_text())
    imported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            imported.update(target[0] for _, target in _import_targets(stmt))
        elif isinstance(stmt, ast.Import):
            imported.update(a.name for a in stmt.names if a.name.split(".")[0] == "chio")
    assert imported == {"matrix_core", "parallel"}


def test_oracles_import_nothing_from_chio():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not {m for m in imported if m.startswith(".") or m.split(".")[0] == "chio"}


def test_the_library_asserts_nothing():
    """Formulas compute and ``verify`` compares: a self-check inside a
    formula would crash ``chio verify`` before the check that can FAIL."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                isinstance(raised, ast.Name) and raised.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or raise AssertionError in src/chio: {found}"


def test_only_run_suites_reads_a_clock():
    """``verify.run_suites`` times every check of ``chio verify``; a check
    or a command that read a clock itself would be a second timer beside it,
    with its own rounding.  A clock is anything of the ``time`` module."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"
                ) or (isinstance(node, ast.ImportFrom) and node.module == "time"):
                    found.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    assert found == {"verify.run_suites"}, f"the time module read in src/chio at: {sorted(found)}"


def defining_node(module: str, name: str | None) -> tuple[str, str | None]:
    """The node that ``name``, as bound in ``module``, refers to: followed
    through ``from .x import y`` bindings to where it is defined."""
    while name is not None and (module, name) not in GRAPH:
        module, name = PARSED[module][1][name]
    return module, name


def reached_nodes() -> set[tuple[str, str | None]]:
    """The nodes reached from ``cli.main``, from the names ``chio/__init__.py``
    binds and from the ``chio`` names the benchmark imports, roots included."""
    roots = {("cli", "main")}
    roots.update(defining_node(*target) for target in PARSED["__init__"][1].values())
    for _, module, name in chio_imports():
        sub = module.partition(".")[2]
        if not sub:  # from chio import name
            sub, name = (name, None) if name in MODULES else ("__init__", name)
        roots.add(defining_node(sub, name))
    return set(roots).union(*(reach(root) for root in roots))


def test_every_module_level_def_is_reached_from_a_caller():
    """Every module-level ``def`` and ``class`` of ``src/chio`` is reached from
    ``cli.main``, from the names ``chio/__init__.py`` binds, or from the
    ``chio`` names the benchmark imports.  Anything else is reached only by
    the tests, and belongs in them.

    The graph does not follow a call on an object, so a class counts as
    reached as a whole, and what its methods name counts as reached too;
    the next test checks the methods.
    """
    defs = {
        (module, name)
        for module, (nodes, _) in PARSED.items()
        for name, body in nodes.items()
        if isinstance(body, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    unreached = sorted(f"{module}.{name}" for module, name in defs - reached_nodes())
    assert not unreached, f"reached by no command, check or benchmark: {unreached}"


def test_every_method_is_named_by_a_caller():
    """Every method, property, classmethod and staticmethod of a ``src/chio``
    class, dunders aside, is named as an attribute (``x.name``) in the body
    of a node reached from the roots above, or in ``perfbench/*.py``.

    The check goes by name, not by class: a dead method whose name another
    class uses, such as a second ``to_json_dict``, slips through.
    """
    named = set()
    for module, name in reached_nodes():
        if name is not None:
            body = PARSED[module][0][name]
            named.update(sub.attr for sub in _walk(body) if isinstance(sub, ast.Attribute))
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        named.update(sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute))
    unnamed = sorted(
        f"{module}.{cls}.{method.name}"
        for module, (nodes, _) in PARSED.items()
        for cls, body in nodes.items()
        if isinstance(body, ast.ClassDef)
        for method in body.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in named
    )
    assert not unnamed, f"named by no command, check or benchmark: {unnamed}"
