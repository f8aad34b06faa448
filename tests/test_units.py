"""Generation, estimation and scoring are three units.

Generation imports nothing of estimation or of the run.  Estimation imports
nothing of the run and not the day generator, so it reads of a day only
what its caller hands it.  ``experiment``, which runs the three in turn, is
the one module that imports both.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "odchain"


def _imports(path: pathlib.Path) -> set[tuple[str, str | None]]:
    """``(module, name)`` of every import in ``path``, the module named
    within the package (``generation``, not ``odchain.generation``), and
    ``name`` ``None`` where a whole module is imported."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "odchain" and not module.startswith("odchain."):
                    continue
                module = module.removeprefix("odchain").removeprefix(".")
            for alias in node.names:
                out.add((module, alias.name) if module else (alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("odchain."):
                    out.add((alias.name.removeprefix("odchain."), None))
    return out


def _modules(path: pathlib.Path) -> set[str]:
    return {module for module, _ in _imports(path)}


def test_generation_imports_neither_estimation_nor_the_run():
    assert _modules(PACKAGE / "generation.py").isdisjoint({"estimation", "experiment"})


def test_estimation_cannot_reach_the_run_or_the_generator():
    imports = _imports(PACKAGE / "estimation.py")
    assert "experiment" not in {module for module, _ in imports}
    assert not [(m, n) for m, n in imports if n == "generate_truth_and_history"]


def test_only_the_run_imports_both_generation_and_estimation():
    both = sorted(path.name for path in PACKAGE.glob("*.py")
                  if {"generation", "estimation"} <= _modules(path))
    assert both == ["experiment.py"]

