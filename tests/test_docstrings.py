"""Every public name of the library documents itself."""
import importlib
import inspect
import pkgutil

import pytest

import chaoslab

MODULES = ["chaoslab"] + [f"chaoslab.{m.name}"
                          for m in pkgutil.iter_modules(chaoslab.__path__)]


def _public_objects():
    """{"module.name": object} of every public class and function."""
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            # Constants carry a comment; only classes and functions can
            # carry a docstring.
            if inspect.isclass(obj) or inspect.isroutine(obj):
                found[f"{module_name}.{name}"] = obj
    return found


PUBLIC = _public_objects()


@pytest.mark.parametrize("name, obj", list(PUBLIC.items()), ids=list(PUBLIC))
def test_public_name_has_its_own_docstring(name, obj):
    doc = obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    # A dataclass without a docstring gets its signature as one.
    assert not (inspect.isclass(obj) and doc.startswith(f"{obj.__name__}(")), (
        f"{name} has only the dataclass's generated signature as its docstring")
