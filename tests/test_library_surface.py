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
BENCHMARK_NAMES = (
    "braids.iota",                      # parity round trips
    "braids.pr",
    "fliplab.RationalExpr.substitute",  # label checks of the flip replays
    "geometry.PredicatePoly.interpolate",   # wrapped: geometry.predicates
    "geometry.Trajectory.reversed",     # reversal check of the compiles
    "geometry.Trajectory.to_json",      # canonical trajectory inputs
    "geometry.point_in_circumcircle",   # wrapped: geometry.exact_predicates
    "gnk.GnkPresentation",              # G_n^k presentation jobs
    "gnk.tetrahedron_relation_count",   # their tetrahedron count check
)

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
    "gnk.delete_strand",            # strand deletion q_m: G_n^k -> G_{n-1}^k
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
    """{module.qualified name: the roots that reach it} over ``src/gnk``;
    the roots are "src", "perfbench" and "acceptance"."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "gnk").glob("*.py"))}
    roots = {"src": list(modules.values()),
             "perfbench": [ast.parse(p.read_text()) for p in
                           sorted((ROOT / "perfbench").glob("*.py"))],
             "acceptance": [ast.parse(
                 (ROOT / "tests" / "test_acceptance.py").read_text())]}
    uses = {}
    for root, trees in roots.items():
        names, attributes, strings = Counter(), Counter(), Counter()
        for tree in trees:
            n, a, s = _uses(tree)
            names += n
            attributes += a
            strings += s
        uses[root] = names, attributes, strings
    # a function or class that perfbench defines itself (its oracles) is
    # what perfbench means by that name, not the src name it shadows
    own = {q for tree in roots["perfbench"] for q, _, method in
           _definitions(tree) if not method}
    surface = {}
    for mod, tree in modules.items():
        for qual, node, method in _definitions(tree):
            own_names, own_attributes, _ = _uses(node)
            reached = set()
            for root, (names, attributes, strings) in uses.items():
                used = attributes[node.name]
                if not method:
                    used += names[node.name]
                    if root == "perfbench" and node.name in own:
                        used = 0
                if root == "src":
                    used -= own_attributes[node.name]
                    if not method:
                        used -= own_names[node.name]
                if root == "perfbench":
                    used += strings[qual]
                if used > 0:
                    reached.add(root)
            surface["%s.%s" % (mod, qual)] = reached
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


def test_benchmark_only_names_are_recorded():
    # a name that only perfbench/ reaches is kept because the benchmark
    # calls or wraps it, not because a command or the paper needs it; each
    # is listed, so that the next change to the benchmark can prune it
    surface = _library_surface()
    rows = _decision_rows()
    benchmark_only = sorted(q for q, reached in surface.items()
                            if reached == {"perfbench"})
    assert benchmark_only == sorted(BENCHMARK_NAMES), (
        "names reached only through perfbench/: %s" % benchmark_only)
    for name in BENCHMARK_NAMES:
        assert rows.get(name) == "kept for the benchmark", (
            "%s has no \"kept for the benchmark\" row in DECISIONS.md"
            % name)
