"""Nothing in the package exists only for its tests.

Every top-level and class-level ``def`` and ``class`` in ``src/odchain`` must
be used, as a name or an attribute, somewhere in ``src/odchain`` or in the
benchmark under ``odbench``.  Imports do not count as uses, and dunder
methods are called by Python itself.  A helper that only tests call belongs
in the tests; the oracle below is the exception.

Every other name a module binds at its top level, by assignment or import,
must be read: in that module, as an attribute somewhere in ``src/odchain`` or
``odbench``, or through an import of it by name from that module there; a
name that ``__all__`` exports counts as read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "odchain"
USERS = (PACKAGE, ROOT / "odbench")

#: Names kept in the package for the tests alone, each with its reason.
ALLOWED = {
    "two_od_closed_form": "acceptance test 3 imports this oracle from odchain.legs, "
                          "and the acceptance tests are kept byte for byte",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined() -> dict[str, str]:
    """Name -> defining file of every top-level and class-level definition."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, _DEFS):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + [m for m in members if isinstance(m, _DEFS)]:
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    out[item.name] = path.name
    return out


def _used() -> set[str]:
    names = set()
    for root in USERS:
        for path in root.glob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_definition_has_a_caller_outside_tests():
    used = _used()
    unused = {name: where for name, where in _defined().items() if name not in used}
    assert set(unused) == set(ALLOWED), (
        f"defined in src/odchain but used only by tests or nowhere: "
        f"{sorted(f'{where}:{name}' for name, where in unused.items() if name not in ALLOWED)}; "
        f"allowlisted but now used or gone: {sorted(set(ALLOWED) - set(unused))}"
    )


def test_kalman_imports_nothing_from_assignment():
    """The interval filter reads its measurement matrix from its caller, so it
    does not depend on how the assignment is stored."""
    imported = []
    for node in ast.walk(_parse(PACKAGE / "kalman.py")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module, *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "numpy" in imported
    assert not [name for name in imported if "assignment" in name.split(".")]


def _bound(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements bind by assignment or
    import, dunders and ``__future__`` features aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read_in(tree: ast.Module) -> set[str]:
    """The names a module reads, and the names its ``__all__`` exports."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
    return names


def _imported_by_name() -> dict[str, set[str]]:
    """Module name -> the names imported from it by name in ``src/odchain``
    and ``odbench``, relative (``from .assignment import x``) or absolute."""
    out: dict[str, set[str]] = {}
    for root in USERS:
        for path in root.glob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.ImportFrom) and node.module:
                    module = node.module if node.level else node.module.removeprefix("odchain.")
                    out.setdefault(module, set()).update(a.name for a in node.names)
    return out


def test_every_module_level_name_is_read():
    attributes = {n.attr for root in USERS for path in root.glob("*.py")
                  for n in ast.walk(_parse(path)) if isinstance(n, ast.Attribute)}
    imported = _imported_by_name()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _read_in(tree) | attributes | imported.get(path.stem, set())
        unread += [f"{path.name}:{name}" for name in sorted(_bound(tree) - used)]
    assert unread == [], f"bound at module level in src/odchain and read nowhere: {unread}"
