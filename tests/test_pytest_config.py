"""The pytest configuration: every warning fails the run, and the suite
imports nothing beyond the standard library, pytest and the package."""

import ast
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_other_deprecation_warnings_still_fail():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)


def test_tests_import_only_stdlib_pytest_and_the_package():
    local = {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"pytest", "tropmoduli"} | local
    foreign = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert foreign == []
