"""Every tolerance of the package is defined in ``ncmart/tolerances.py``."""

import ast
from pathlib import Path

import ncmart

PACKAGE = Path(ncmart.__file__).parent


def tolerance_literals(path):
    """(line, value) of every float literal with 0 < |value| <= 1e-6 in a module.

    Docstrings are string nodes, so a tolerance named in prose is not a hit.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) <= 1e-6]


def test_no_tolerance_literal_outside_the_table():
    hits = [f"{path.relative_to(PACKAGE)}:{line}: {value!r}"
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "tolerances.py"
            for line, value in tolerance_literals(path)]
    assert not hits, "tolerance literals outside ncmart/tolerances.py:\n" + "\n".join(hits)


def test_the_table_holds_tolerances():
    assert tolerance_literals(PACKAGE / "tolerances.py")
