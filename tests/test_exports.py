"""Each module's ``__all__`` lists exactly the public functions and
classes it defines, every entry resolves, and every entry has a caller
outside the tests; so does every public member of the cell tables."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import tropmoduli
from tropmoduli.cones import ConeComplex
from tropmoduli.enumeration import StratumCatalog

from shared import assertion_raises

MODULES = [tropmoduli] + [
    importlib.import_module(f"tropmoduli.{m.name}")
    for m in pkgutil.iter_modules(tropmoduli.__path__)
    if m.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_matches_the_module(module):
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = [
        n
        for n, v in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in listed] == []


SRC = Path(tropmoduli.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _used_names(path, imports_only=False):
    """Names a file imports from a module, plus (unless ``imports_only``)
    every name it reads or binds as a plain identifier."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            not imports_only or (node.module or "").startswith("tropmoduli")
        ):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and not imports_only:
            used.add(node.id)
    return used


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ must be used by package code (the
    # package's own re-exports do not count) or imported by the benchmark;
    # one only tests call belongs in tests/
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(path)
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            used |= _used_names(path, imports_only=True)
    unused = [
        f"{module.__name__}.{name}"
        for module in MODULES
        if module is not tropmoduli and hasattr(module, "__all__")
        for name in module.__all__
        if name not in used
    ]
    assert unused == []


def _read_attributes(path):
    """Every attribute name a file reads from an object other than
    ``self``, as in ``cx.name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "self"
    }


@pytest.mark.parametrize("cls", [StratumCatalog, ConeComplex])
def test_every_public_table_member_has_a_reader(cls):
    # a public method or property of the cell tables must be read from
    # outside its class by package code or by the benchmark: one that only
    # tests read belongs in tests/, and one only its class reads is private
    read = set()
    for path in SRC.glob("*.py"):
        read |= _read_attributes(path)
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            read |= _read_attributes(path) | _used_names(path, imports_only=True)
    members = [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(getattr(value, "__get__", None))
    ]
    assert members
    assert [name for name in members if name not in read] == []


# what every module has, before it binds anything of its own
MODULE_DUNDERS = {
    "__builtins__", "__cached__", "__doc__", "__file__",
    "__loader__", "__name__", "__package__", "__path__", "__spec__",
}


def test_the_package_binds_only_its_version():
    # each public name is reached one way, from the module that defines
    # it; importing a submodule binds it on the package, which is no
    # second copy of a name
    bound = {
        name
        for name, value in vars(tropmoduli).items()
        if getattr(value, "__name__", None) != f"tropmoduli.{name}"
    }
    assert bound - MODULE_DUNDERS == {"__version__"}


# each ``raise AssertionError`` of these modules is reached by a fault row
# (the ``unreached_raises`` tests in test_cones, test_cli and test_genus2)
FAULT_ROW_MODULES = {"tropmoduli.cones", "tropmoduli.automorphisms", "tropmoduli.genus2"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_only_modules_with_fault_rows_raise_assertion_error(module):
    # a new ``raise AssertionError`` elsewhere fails here until the module
    # gets fault rows that reach it
    assert bool(assertion_raises(module)) == (module.__name__ in FAULT_ROW_MODULES)
