"""Every public name of orw has a caller outside the tests, or backs a
paper claim.

The candidates are the names in a module's `__all__` and the public methods
of the classes listed there.  A candidate is used when its name occurs as a
code token of `src/orw/*.py` or `perfbench/*.py` outside its own
definition; strings and comments do not count, and neither does the name
token of a `def` or `class` statement.  The only names allowed no such use
are those a test calls to check a paper claim, each with the claim it
backs.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "orw").glob("*.py"))
SCANNED = MODULES + sorted((ROOT / "perfbench").glob("*.py"))

TEST_FACING = {
    "canonical_form": "criterion 2: the form the isomorph-free search "
                      "orders its survivors by, and that its survivor pins "
                      "hash",
    "assignment_from_coloring": "criterion 5: every catalogue clause holds "
                                "on the construction's own color tables",
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _definitions():
    """(name, path, first line, last line) of every candidate."""
    exported = set().union(*(_exported(ast.parse(p.read_text()))
                             for p in MODULES))
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name not in exported:
                    continue
                yield name, path, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if (isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")):
                            yield (item.name, path,
                                   min([item.lineno] + [d.lineno for d in
                                                        item.decorator_list]),
                                   item.end_lineno)


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Where each name occurs as a code token, bar def/class names."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for path in SCANNED:
        previous = None
        for tok in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and previous not in ("def", "class"):
                out.setdefault(tok.string, []).append((path, tok.start[0]))
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                previous = tok.string
    return out


def _unused() -> set[str]:
    uses = _uses()
    return {name for name, path, first, last in _definitions()
            if not any(p != path or not first <= line <= last
                       for p, line in uses.get(name, []))}


def test_every_public_name_has_a_caller_or_backs_a_claim():
    assert {name: TEST_FACING.get(name) for name in _unused()} == TEST_FACING

