"""AST checks of the test files themselves.

Every `pytest.raises` names its message: a bare one passes on any exception
of its type, even one raised for another argument or rule.  No test module
imports another: helpers shared between test files live in `conftest.py`,
so running one file never runs, or depends on, the tests of another.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TEST_MODULES = {path.stem for path in TESTS.glob("test_*.py")}


def _nodes():
    """(file name, node) of every AST node of every Python file in tests/."""
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _is_loose_raises(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "pytest"
            and "match" not in {keyword.arg for keyword in node.keywords})


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def test_every_pytest_raises_has_a_match():
    assert [f"{name}:{node.lineno}" for name, node in _nodes() if _is_loose_raises(node)] == []


def test_no_test_module_imports_another():
    assert [f"{name}:{node.lineno}" for name, node in _nodes()
            if TEST_MODULES.intersection(_imported_modules(node))] == []
