"""Each module's ``__all__`` lists exactly the public functions and
classes it defines, and every entry resolves."""

import importlib
import inspect
import pkgutil

import pytest

import tropmoduli

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
