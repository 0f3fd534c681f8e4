"""Every tolerance of the package is defined in ``ncmart/tolerances.py``,
every residual fold goes through its ``worst``, one function makes every
check record, and one element and a stack run one path outside a named
few functions."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ncmart
from ncmart.tolerances import worst

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


# The modules that fold residual terms into one residual per record.
FOLDING_MODULES = ("harness/checks.py", "processes.py", "doob_meyer.py", "harness/report.py",
                   "harness/commands.py")


def builtin_max_min_calls(path):
    """(line, name) of every call of the builtin ``max`` or ``min`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, node.func.id) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min")]


def test_no_hand_written_fold_in_the_folding_modules():
    # max(0.0, nan) is 0.0, so a builtin fold drops NaN terms; worst() does not
    hits = [f"{name}:{line}: {func}("
            for name in FOLDING_MODULES
            for line, func in builtin_max_min_calls(PACKAGE / name)]
    assert not hits, "builtin max/min outside tolerances.worst:\n" + "\n".join(hits)


def sites(match):
    """(module, innermost enclosing function, line) of every node of the package
    that ``match`` accepts; ``<module>`` for a node at top level."""
    found = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.add((module, owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path.relative_to(PACKAGE).as_posix(), "<module>")
    return found


def callers(name):
    """(module, innermost enclosing function) of every call of ``name`` in the
    package, plain or as an attribute."""
    return {(module, owner) for module, owner, _ in sites(
        lambda node: isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)))}


def test_one_record_path():
    # every check family returns rows, by_instance alone turns them into a record
    # table, and the table alone makes its records
    assert callers("RecordTable") == {("harness/checks.py", "by_instance")}
    assert callers("record") == {("harness/checks.py", "records")}
    assert callers("CheckRecord") == {("harness/checks.py", "record")}


def test_one_verdict():
    # by_instance alone compares a residual with its tolerance; the records, the
    # summary, the JSON writer and all_passed read the verdicts it makes
    def judges(node):
        return isinstance(node, ast.Compare) and any(
            getattr(operand, "id", getattr(operand, "attr", None)) in ("tolerance", "tol")
            for operand in (node.left, *node.comparators))
    assert [(module, owner) for module, owner, _ in sorted(sites(judges))
            if module.startswith("harness/")] == [("harness/checks.py", "by_instance")]


def test_one_fold_of_elements():
    # every discrete stochastic sum starts from zero in partial_sums and nowhere else
    assert callers("zero") == {("processes.py", "partial_sums")}


# The functions that may tell one element from a stack: the number a kernel
# returns, the fold whose terms may be numbers, and input decoding.
SHAPE_FORKS = {("algebra.py", "_each"), ("tolerances.py", "worst"),
               ("harness/config.py", "decode_matrix")}


def is_shape_fork(node):
    """Whether a node is a ``.ndim`` or an ``isinstance(..., np.ndarray)``."""
    if isinstance(node, ast.Attribute) and node.attr == "ndim":
        return True
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and any(isinstance(n, ast.Attribute) and n.attr == "ndarray"
                    for arg in node.args[1:] for n in ast.walk(arg)))


def test_one_path_for_one_element_and_a_stack():
    hits = [f"{module}:{line} in {owner}" for module, owner, line in sorted(sites(is_shape_fork))
            if (module, owner) not in SHAPE_FORKS]
    assert not hits, "one-element forks outside the allow-list:\n" + "\n".join(hits)


class TestWorst:
    def test_empty_is_zero(self):
        assert worst([]) == 0.0
        assert worst(iter(())) == 0.0

    def test_negatives_clamp_to_zero(self):
        assert worst([-3.0, -1e-300]) == 0.0
        assert math.copysign(1.0, worst([-0.0])) == 1.0

    def test_largest_term(self):
        assert worst([1e-12, 3.0, 2.0]) == 3.0
        assert worst(x for x in (0.5, -1.0)) == 0.5
        assert worst([np.float64(2.5), 1.0]) == 2.5

    def test_infinities(self):
        assert worst([1.0, math.inf, 2.0]) == math.inf
        assert worst([-math.inf]) == 0.0
        assert worst([-math.inf, 1.0]) == 1.0

    @pytest.mark.parametrize("terms", [
        [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
        [math.inf, math.nan], [-1.0, np.float64("nan")]])
    def test_nan_anywhere_is_nan(self, terms):
        assert math.isnan(worst(terms))

    def test_stops_at_the_first_nan(self):
        seen = []

        def terms():
            for t in (1.0, math.nan, 2.0):
                seen.append(t)
                yield t
        assert math.isnan(worst(terms()))
        assert seen == [1.0, math.nan]

    def test_stack_terms_fold_per_element(self):
        out = worst([np.array([1.0, -2.0, 0.5]), np.array([3.0, -1.0, 0.25])])
        assert out.tolist() == [3.0, 0.0, 0.5]
        assert math.copysign(1.0, worst([np.array([-0.0, -1.0])])[0]) == 1.0

    def test_a_number_counts_for_every_element(self):
        assert worst([np.array([1.0, 3.0]), 2.0]).tolist() == [2.0, 3.0]
        assert worst([2.0, np.array([1.0, 3.0])]).tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("terms", [
        [np.array([1.0, math.nan, 0.5]), np.array([2.0, 5.0, -1.0])],
        [np.array([1.0, 4.0, 0.5]), np.array([2.0, math.nan, -1.0])],
        [np.array([2.0, 9.0, 0.5]), np.array([1.0, math.nan, 3.0]), np.array([0.0, 1.0, 0.0])]])
    def test_nan_in_one_element_is_nan_in_that_element_only(self, terms):
        out = worst(terms)
        assert math.isnan(out[1])
        assert [out[0], out[2]] == [max(0.0, *(t[k] for t in terms)) for k in (0, 2)]
