"""Static checks over the package source."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "sepaird")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _imported_names(tree: ast.Module) -> dict:
    """The name each import binds, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _bound_names(node: ast.stmt) -> list:
    """The names a def, class or assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _private_definitions(tree: ast.Module) -> dict:
    """The module-level ``_name`` each def, class or assignment binds,
    mapped to its line; dunder names are not private."""
    return {
        name: node.lineno for node in tree.body for name in _bound_names(node) if _is_private(name)
    }


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_used(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = {name: line for name, line in _private_definitions(tree).items() if name not in read}
    assert not unused, f"{module} defines private names it never uses: {unused}"


def _foreign_private_reads(source: str) -> dict:
    """The private attributes (``obj._name``) the source reads but never
    assigns, defines as a class member or deletes, mapped to a line."""
    tree = ast.parse(source)
    owned, read = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owned.update(name for member in node.body for name in _bound_names(member))
        elif isinstance(node, ast.Attribute) and _is_private(node.attr):
            if isinstance(node.ctx, ast.Load):
                read.setdefault(node.attr, node.lineno)
            else:
                owned.add(node.attr)
    return {name: line for name, line in read.items() if name not in owned}


def test_private_read_check_flags_a_foreign_attribute():
    source = (
        "class Stream:\n"
        "    def __init__(self):\n"
        "        self._gen = None\n"
        "    def _draw(self):\n"
        "        return self._gen\n"
        "def walk(stream, registry):\n"
        "    return stream._draw(), registry._cl_neighbors, stream.__class__\n"
    )
    assert _foreign_private_reads(source) == {"_cl_neighbors": 7}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_attribute_of_another_module_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        foreign = _foreign_private_reads(fh.read())
    assert not foreign, f"{module} reads private attributes it does not own: {foreign}"


def _foreign_private_imports(tree: ast.Module) -> dict:
    """The private names (``from .other import _name``) imported from
    another module, mapped to their line."""
    return {
        alias.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if _is_private(alias.name)
    }


def test_private_import_check_flags_a_foreign_name():
    source = "from .montecarlo import _BLOCK, DatasetError\nfrom .abm import __doc__\n"
    assert _foreign_private_imports(ast.parse(source)) == {"_BLOCK": 1}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_of_another_module_is_imported(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        foreign = _foreign_private_imports(ast.parse(fh.read()))
    assert not foreign, f"{module} imports private names of other modules: {foreign}"
