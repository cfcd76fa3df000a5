"""Every `pytest.raises` in the tests names its message: a bare one passes on
any exception of its type, even one raised for another argument or rule."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _is_loose_raises(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "pytest"
            and "match" not in {keyword.arg for keyword in node.keywords})


def test_every_pytest_raises_has_a_match():
    loose = [f"{path.name}:{node.lineno}" for path in sorted(TESTS.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if _is_loose_raises(node)]
    assert loose == []
