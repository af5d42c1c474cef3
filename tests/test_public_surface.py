"""A public name stays only if something reads it (ROADMAP item 14's rule).

Every name in a ``chaoslab`` module's ``__all__`` must be referenced outside
its own definition and its ``__all__`` entry: by a name or an attribute
anywhere in ``src/chaoslab``, or as a word in the acceptance gate, in
perfbench or in ROADMAP.md."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chaoslab"
READERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "ROADMAP.md"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _references(tree: ast.Module) -> set:
    """(name, owner) of every name a module loads and every attribute it
    reads, where owner is the top-level definition the reference sits in
    (None outside one)."""
    refs = set()
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
    return refs


def _surface():
    """{"module.name": name} of every public name, and the names read in
    ``src/chaoslab`` outside their own definitions."""
    public, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        public.update({f"{path.stem}.{name}": name for name in _exports(tree)})
        read.update(name for name, owner in _references(tree) if owner != name)
    return public, read


PUBLIC, READ_IN_SRC = _surface()
READER_TEXT = "\n".join(path.read_text() for path in READERS)


@pytest.mark.parametrize("name", list(PUBLIC.values()), ids=list(PUBLIC))
def test_public_name_has_a_reader(name):
    assert name in READ_IN_SRC or re.search(rf"\b{re.escape(name)}\b", READER_TEXT), (
        f"{name} is public, but no module, acceptance gate, perfbench file or "
        "ROADMAP item reads it")


def test_surface_is_found():
    # The rule is vacuous if the parse finds no exports.
    assert "bounds.chaos_bound_conditional" in PUBLIC
    assert "chaos_bound_conditional" in READ_IN_SRC
