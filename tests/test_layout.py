"""Layout of src/: every name defined there has a caller outside the
tests, and src/phasekit stays within its line budget.

Every module-level function and class of src/phasekit, and every public
method of those classes, must occur as an ast.Name or ast.Attribute
somewhere in src/, demos/ or perfbench/.  Only code counts: a docstring
is a string constant and an import line holds aliases, so neither is a
Name or an Attribute, and neither are the strings of phasekit.__all__.

Known limit: names are matched, not bindings.  A method whose name
another name shares counts as reached once either is used; RunConfig's
plan method and the plan field of a MeasurementSet, for example.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phasekit"

# Ceiling on the lines of src/phasekit/*.py, counted as wc -l does
# (ROADMAP E: every addition is paid for by a removal).
SRC_LINE_BUDGET = 2994

# Names kept for the ROADMAP item that gives them their caller.
AWAITING_CALLER = {
    "aliasing_bias": "G",
    "smear_bias": "G",
    "chi_squared": "I",
}


def _defined(tree):
    """Module-level functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_src_name_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    defined = {name for path, tree in trees.items() if SRC in path.parents
               for name in _defined(tree)}
    referenced = {name for tree in trees.values()
                  for name in _referenced(tree)}
    assert defined - referenced == set(AWAITING_CALLER)


def test_src_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, (
        "src/phasekit/*.py is %d lines, over the budget of %d"
        % (lines, SRC_LINE_BUDGET))
