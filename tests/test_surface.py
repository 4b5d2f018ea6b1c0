"""Guard against regrowth of code that only the tests use.

Every public module-level function and class in ``src/hybridfleet``, and
every public method or property of such a class, must be referenced by name
(an AST ``Name`` or ``Attribute``) somewhere in ``src/`` outside its own
definition, or in ``perfbench/``. A second implementation of a concept that
no pipeline step runs shows up here as an unreferenced name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hybridfleet"
PERFBENCH = ROOT / "perfbench"

# name -> why it stays without a caller in src/ or perfbench/
ALLOWED = {
    "ipd_distribution": "acceptance criterion 8 compares job placement by it",
    "ks_statistic": "acceptance criterion 8 compares job placement by it",
    "prioritization_effect": "the paper's second result; to be printed by `report`",
}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(name, definition node) of the public module-level functions and
    classes and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield item.name, item


def _references(tree):
    """(name, line) of every Name and Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.rglob("*.py"))}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _definitions(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(ref == name and not (other == path and line in inside)
                       for other, pairs in refs.items() for ref, line in pairs)
            if not used:
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_name_has_a_caller():
    unused = _unreferenced()
    missing = [q for q in unused if q.split(".")[-1] not in ALLOWED]
    assert missing == [], f"public names without a caller in src/ or perfbench/: {missing}"
    # an allowlisted name that gains a caller, or goes away, leaves the list
    assert set(ALLOWED) <= {q.split(".")[-1] for q in unused}
