"""Guard against regrowth of code that only the tests use.

Every public module-level function and class in ``src/hybridfleet``, and
every public method or property of such a class, must be referenced by name
(an AST ``Name`` or ``Attribute``) somewhere in ``src/`` outside its own
definition, or in ``perfbench/``. A second implementation of a concept that
no pipeline step runs shows up here as an unreferenced name.

Likewise every annotated field of a class in ``src/hybridfleet`` must be read
by name in ``src/`` or ``perfbench/`` outside its own declaration: as an
attribute load, or as a string constant, which ``getattr`` and dict keys use.
A field that is only written shows up here as an unread name.

And no module of ``src/hybridfleet`` imports another's private name: what two
modules share is public, with one owner.
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

# field -> why it stays without a reader in src/ or perfbench/
FIELDS_ALLOWED = {
    "leg_out_m": "asdict writes it to plan files, and check_plan compares it",
    "leg_back_m": "asdict writes it to plan files, and check_plan compares it",
    "hover_wait": "asdict writes it to plan files, and check_plan compares it",
    "size_bytes": "perfbench passes it to run_cam_traffic positionally",
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


def _fields(tree):
    """(name, declaration node) of every annotated field of every class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item


def _reads(tree):
    """(name, line) of every attribute load and every string constant in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unreferenced(declared, uses) -> list[str]:
    """module.name of each name that ``declared`` yields for a module of src/
    and that no ``uses`` pair names outside its own node."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.rglob("*.py"))}
    refs = {path: list(uses(tree)) for path, tree in trees.items()}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for name, node in declared(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(ref == name and not (other == path and line in inside)
                       for other, pairs in refs.items() for ref, line in pairs)
            if not used:
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_name_has_a_caller():
    unused = _unreferenced(_definitions, _references)
    missing = [q for q in unused if q.split(".")[-1] not in ALLOWED]
    assert missing == [], f"public names without a caller in src/ or perfbench/: {missing}"
    # an allowlisted name that gains a caller, or goes away, leaves the list
    assert set(ALLOWED) <= {q.split(".")[-1] for q in unused}


def test_every_field_has_a_reader():
    unread = _unreferenced(_fields, _reads)
    missing = [q for q in unread if q.split(".")[-1] not in FIELDS_ALLOWED]
    assert missing == [], f"fields without a reader in src/ or perfbench/: {missing}"
    # an allowlisted field that gains a reader, or goes away, leaves the list
    assert set(FIELDS_ALLOWED) <= {q.split(".")[-1] for q in unread}


def test_no_module_imports_a_private_name():
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                # dunders such as __version__ are public
                imported += [f"{path.stem}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert imported == [], f"private names imported across modules: {imported}"
