"""Nothing in the package exists only for its tests.

Every top-level and class-level ``def`` and ``class`` in ``src/odchain`` must
be used, as a name or an attribute, somewhere in ``src/odchain`` or in the
benchmark under ``odbench``.  Imports do not count as uses, and dunder
methods are called by Python itself.  A helper that only tests call belongs
in the tests; the oracle below is the exception.
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
