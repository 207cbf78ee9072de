"""No floating point decides anything: an AST scan of ``src/gnk``.

The scan fails on a float literal, on a ``float(...)`` call, and on any
name taken from ``math`` other than the exact integer functions
``EXACT_MATH``.  ``ALLOWED`` lists the functions exempt from the scan,
each with the ROADMAP item that removes its float.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXACT_MATH = {"gcd", "lcm", "comb", "factorial", "isqrt"}

ALLOWED = {
    # circle_points' angles from math.tan: ROADMAP item 2(a)
    "geometry._tan_half_approx",
}


def _float_uses(tree, module):
    """(line, qualified name of the enclosing definition, what) of each
    float use in a module's tree, outside the ``ALLOWED`` functions."""
    math_names = set()      # names bound to the math module
    found = []

    def visit(node, qual):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = "%s.%s" % (qual, node.name) if qual else node.name
            if "%s.%s" % (module, qual) in ALLOWED:
                return
        what = None
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            what = "float literal %r" % (node.value,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            what = "float(...) call"
        elif isinstance(node, ast.Import):
            math_names.update(a.asname or a.name for a in node.names
                              if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in EXACT_MATH]
            if bad:
                what = "from math import %s" % ", ".join(bad)
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in math_names
                and node.attr not in EXACT_MATH):
            what = "math.%s" % node.attr
        if what:
            found.append((node.lineno, qual or "<module>", what))
        for child in ast.iter_child_nodes(node):
            visit(child, qual)

    visit(tree, "")
    return found


def test_no_float_in_src():
    found = []
    for path in sorted((ROOT / "src" / "gnk").glob("*.py")):
        for line, qual, what in _float_uses(ast.parse(path.read_text()),
                                            path.stem):
            found.append("%s:%d (%s): %s" % (path.name, line, qual, what))
    assert not found, "floating point in src/gnk: %s" % found


def test_scan_sees_each_kind_of_float():
    # the scan itself: every kind is caught, the exact math functions and
    # the allowed function are not
    src = ("import math\n"
           "from math import gcd, sqrt\n"
           "X = 0.5\n"
           "def f(x):\n"
           "    return float(x) + math.floor(x) + math.pi + math.isqrt(x)\n"
           "def _tan_half_approx(k, n):\n"
           "    return math.tan(1e-3)\n")
    found = [(line, qual, what.split()[0]) for line, qual, what
             in _float_uses(ast.parse(src), "geometry")]
    assert found == [(2, "<module>", "from"), (3, "<module>", "float"),
                     (5, "f", "float(...)"), (5, "f", "math.floor"),
                     (5, "f", "math.pi")]
