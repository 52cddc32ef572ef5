"""Cached builders shared across test modules (catalogs and complexes
are immutable, so one instance per n serves the whole run), the CLI run
in-process, call and object counters, and the guard that every
``raise AssertionError`` of a module has a fault row."""

import ast
import inspect
import io
import sys
from collections import Counter
from functools import lru_cache

import pytest

from tropmoduli.cli import run
from tropmoduli.cones import build_complex
from tropmoduli.enumeration import enumerate_strata
from tropmoduli.trees import CanonicalForm, LeggedTree


@lru_cache(maxsize=None)
def catalog(n):
    return enumerate_strata(n)


@lru_cache(maxsize=None)
def complex_for(n):
    return build_complex(n, catalog(n))


def invoke(*argv):
    """Run the CLI in-process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def one_check_failed(err):
    """The one ``check failed:`` line a failed internal check prints."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("check failed: "), err
    return lines[0]


def ray_mask(rays) -> int:
    """The bitmask of a set of ray indices (bit r is ray r)."""
    mask = 0
    for r in rays:
        mask |= 1 << r
    return mask


def cell_of(cx, rays) -> int:
    """The index of the cell with the given rays, looked up in ``cx.index``."""
    return cx.index[ray_mask(rays)]


def count_tree_objects(monkeypatch) -> Counter:
    """Count the LeggedTree and CanonicalForm objects built from now on
    (through ``__post_init__``), by class name."""
    return count_built(monkeypatch, LeggedTree, CanonicalForm)


def count_built(monkeypatch, *classes) -> Counter:
    """Count the objects of the given classes built from now on (through
    ``__post_init__``), by class name."""
    built = Counter()
    for cls in classes:
        monkeypatch.setattr(cls, "__post_init__", _counted(built, cls))
    return built


def count_calls(monkeypatch, module, name, key=lambda *args: None) -> Counter:
    """Count the calls to ``module.name`` made from now on, by ``key`` of
    their arguments."""
    calls = Counter()
    original = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counted(counter, cls):
    original = cls.__post_init__

    def wrapper(self):
        counter[cls.__name__] += 1
        original(self)

    return wrapper


def assertion_raises(module) -> list[ast.Raise]:
    """The ``raise AssertionError(...)`` statements of ``module``."""
    with open(module.__file__) as f:
        tree = ast.parse(f.read())
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "AssertionError"
    ]


def unreached_raises(module, rows) -> list[str]:
    """The ``raise AssertionError(...)`` statements of ``module`` that no
    fault row in ``rows`` reaches, by line and source."""
    raises = assertion_raises(module)
    assert raises
    reached = set().union(*(_assertion_lines(module, row) for row in rows))
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in raises
        if not any(node.lineno <= line <= node.end_lineno for line in reached)
    ]


def _assertion_lines(module, row) -> set[int]:
    """The lines of ``module`` at which running ``row`` raises an
    ``AssertionError``."""
    lines = set()

    def local(frame, event, arg):
        if event == "exception" and arg[0] is AssertionError:
            lines.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        with pytest.MonkeyPatch.context() as mp:
            row(mp) if inspect.signature(row).parameters else row()
    except (AssertionError, pytest.fail.Exception):
        pass  # the row's own test reports how it fails
    finally:
        sys.settrace(previous)
    return lines
