"""Every name in ``src/gnk`` is reached, or is a statement of the paper.

An AST scan of ``src/gnk``: each top-level function or class, and each
public method, must be used in ``src/gnk`` outside its own definition, in
``perfbench/*.py`` or in ``tests/test_acceptance.py``, or be listed in
``PAPER_STATEMENTS``.  A function or class is used where its name occurs
as a name, an attribute or an import; a method only where it is read as an
attribute (``x.method``), so a local variable of the same name does not
count.  ``perfbench/spans.py`` names what it wraps in strings, so a
perfbench string equal to ``"name"`` or ``"Class.method"`` counts too.
Each listed name has a row in the "Library surface" section of
``DECISIONS.md`` that states the paper's statement and the tests that
check it.  A name that only unit tests call is deleted, or moved to
``tests/`` when it checks other code.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.name or module.Class.method; the row of each is in DECISIONS.md,
# "Library surface"
PAPER_STATEMENTS = (
    "braids.eta",                   # the map eta, parity -> dotted
    "braids.kappa",                 # the map kappa, dotted -> G_{n+1}^2
    "braids.phi_parity",            # phi^m_{i,j} = w^P o chi o omega_m
    "cancel.check_cp",              # the condition C(p)
    "cancel.check_tq",              # the condition T(q)
    "fliplab.sl2_edge_matrices",    # SL2 labels of a truncated triangle
    "fliplab.sl2_flip_equations",   # SL2 form of the Ptolemy flip
    "gamma.gamma4_presentation",    # the presentation of Gamma_n^4
    "gnk.forget_index",             # index forgetting G_n^k -> G_{n-1}^{k-1}
    "gnk.MNContext.psi_word",       # psi of a word, the MN state map
    "gnk.eliminate_last_letter",    # last-letter elimination in G_{k+1}^k
    "gnk.bigon_reduce_g2",          # bigon reduction in G_n^2
)


def _uses(tree):
    """(names, attributes, strings) occurring in ``tree``, counted: names
    include imported names, and attributes are the names read as
    ``x.attribute``."""
    names, attributes, strings = Counter(), Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings[node.value] += 1
    return names, attributes, strings


def _definitions(tree):
    """(qualified name within the module, node, is a method) of each
    top-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")):
                    yield "%s.%s" % (node.name, m.name), m, True


def _library_surface():
    """{module.qualified name: reached} over ``src/gnk``."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "gnk").glob("*.py"))}
    roots = list(modules.values()) + [
        ast.parse(p.read_text())
        for p in [*sorted((ROOT / "perfbench").glob("*.py")),
                  ROOT / "tests" / "test_acceptance.py"]]
    names, attributes = Counter(), Counter()
    for tree in roots:
        n, a, _ = _uses(tree)
        names += n
        attributes += a
    perfbench_strings = Counter()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        perfbench_strings += _uses(ast.parse(p.read_text()))[2]
    surface = {}
    for mod, tree in modules.items():
        for qual, node, method in _definitions(tree):
            own_names, own_attributes, _ = _uses(node)
            used = attributes[node.name] - own_attributes[node.name]
            if not method:
                used += names[node.name] - own_names[node.name]
            used += perfbench_strings[qual]
            surface["%s.%s" % (mod, qual)] = used > 0
    return surface


def _decision_rows():
    """{first cell: decision cell} of the table rows of DECISIONS.md's
    "Library surface" section, backquotes stripped."""
    text = (ROOT / "DECISIONS.md").read_text()
    assert "\n## Library surface\n" in text
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.split("|")]
            rows[cells[1].strip("`")] = cells[3]
    return rows


def test_every_name_is_reached_or_a_paper_statement():
    surface = _library_surface()
    unreached = sorted(q for q, reached in surface.items()
                       if not reached and q not in PAPER_STATEMENTS)
    assert not unreached, (
        "reached only by unit tests: delete each, move it to tests/, or "
        "record it as a paper statement in DECISIONS.md: %s" % unreached)


def test_paper_statements_are_defined_and_recorded():
    surface = _library_surface()
    rows = _decision_rows()
    assert len(set(PAPER_STATEMENTS)) == len(PAPER_STATEMENTS)
    for name in PAPER_STATEMENTS:
        assert name in surface, "%s is not defined in src/gnk" % name
        assert rows.get(name) == "kept", (
            "%s has no \"kept\" row in DECISIONS.md" % name)
