"""No public function or class in the package may go unreached.

A public module-level function or class of ``src/v2i_fairness`` must be
referenced somewhere in ``src/``, ``scripts/`` or ``benchmark/`` outside its
own definition.  References are counted on the syntax tree: a ``Name`` in the
defining module, an ``Attribute`` on the module's name (``experiments.run``),
or a ``from ... import`` of the name from that module.  Mentions in
``__all__``, docstrings and comments are strings, not references, and do not
count.  Tests do not count either: code that only its tests call is dead.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "v2i_fairness"
SEARCH_ROOTS = ("src", "scripts", "benchmark")

# Kept although no verb reaches them, each for one stated reason.
EXEMPT: dict[str, str] = {}


def public_definitions(package: Path) -> dict[str, ast.AST]:
    """``module.name`` -> definition node, for public top-level defs."""
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[f"{path.stem}.{node.name}"] = node
    return found


def referenced(package: Path, roots: list[Path]) -> set[str]:
    """Every ``module.name`` some file refers to outside the name's own definition."""
    modules = {path.stem for path in package.glob("*.py")}
    refs: set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = path.stem if path.parent == package else None
            skip = set()
            if own is not None:
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                        skip |= {(id(sub), node.name) for sub in ast.walk(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and own is not None:
                    if (id(node), node.id) not in skip:
                        refs.add(f"{own}.{node.id}")
                elif (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    refs.add(f"{node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source = node.module.rsplit(".", 1)[-1]
                    if source in modules:
                        refs |= {f"{source}.{alias.name}" for alias in node.names}
    return refs


def unreached(package: Path, roots: list[Path]) -> list[str]:
    refs = referenced(package, roots)
    return sorted(name for name in public_definitions(package)
                  if name not in refs and name not in EXEMPT)


def test_every_public_definition_is_reached():
    roots = [REPO_ROOT / root for root in SEARCH_ROOTS]
    assert unreached(PACKAGE, roots) == []


def test_exemptions_name_existing_definitions():
    assert set(EXEMPT) <= set(public_definitions(PACKAGE))


def test_checker_flags_a_definition_only_its_own_body_uses(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '__all__ = ["dead", "live"]\n'
        "def dead(n):\n"
        '    """dead() is named here and calls itself."""\n'
        "    return dead(n - 1) if n else 0  # dead\n"
        "def live():\n"
        "    return 1\n"
        "class Kept:\n"
        "    pass\n", encoding="utf-8")
    (package / "user.py").write_text(
        "from .mod import Kept\n"
        "import mod\n"
        "x = mod.live()\n", encoding="utf-8")
    assert unreached(package, [package]) == ["mod.dead"]
