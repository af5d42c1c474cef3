"""The README's module table names the library's modules, and every name in
a row's "computes" cell exists in the code."""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import chaoslab

README = Path(__file__).resolve().parent.parent / "README.md"
# The error types have their own sentence above the table.
UNLISTED = {"errors"}
MODULES = {m.name for m in pkgutil.iter_modules(chaoslab.__path__)} - UNLISTED


def _module_table() -> dict:
    """{module: computes cell} of the table under the header
    ``| module | computes | accuracy | raises |``."""
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if re.fullmatch(r"\| module \| computes \| accuracy \| raises \|", line.strip()):
            break
    else:
        raise AssertionError("README has no module table")
    next(lines)  # the |---| row
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        rows[cells[0].strip("`")] = cells[1]
    return rows


TABLE = _module_table()


def _is_attribute(cls, name: str) -> bool:
    return hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {})


def _resolves(module, token: str) -> bool:
    """Whether ``token`` (a name, optionally with a call's arguments) is a name
    of ``module``, an attribute of a class defined there, or a dotted
    ``module.name`` or ``Class.attr``."""
    match = re.fullmatch(r"([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(\(.*\))?", token)
    if match is None:
        return False
    head, attr = match.group(1), match.group(2)
    if attr is None:
        own = [obj for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
        return hasattr(module, head) or any(_is_attribute(cls, head) for cls in own)
    if head in MODULES | UNLISTED:
        return hasattr(importlib.import_module(f"chaoslab.{head}"), attr)
    owner = getattr(module, head, None)
    return inspect.isclass(owner) and _is_attribute(owner, attr)


def test_every_module_has_one_row():
    assert sorted(TABLE) == sorted(MODULES)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_every_name_in_a_row_resolves(name):
    module = importlib.import_module(f"chaoslab.{name}")
    tokens = re.findall(r"`([^`]+)`", TABLE[name])
    assert tokens, f"the {name} row names nothing"
    assert [t for t in tokens if not _resolves(module, t)] == []
