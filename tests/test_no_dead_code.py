"""Every function, class and method in the engine has a caller in it.

A name counts as used when it occurs as a whole word somewhere in
`src/siltengine` other than on a line that defines it.  This is a name
check, not a call graph: a dead method that shares its name with a live
one elsewhere goes unnoticed.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "siltengine"

# Library API that only the tests call, kept for users of the package.
ALLOWED = {
    "structure_constant_algebra",  # algebras given by a multiplication table
    "two_term_complex",  # [P^{-1} -> P^0] from classes and entries
    "summand_count",  # number of indecomposable projective summands
}


def _definitions():
    """(name, file, line number) of each top-level def/class and method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += node.body
            for d in defs:
                if isinstance(
                    d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    out.append((d.name, path.name, d.lineno))
    return out


def test_every_definition_has_a_use():
    lines = {
        path.name: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(SRC.glob("*.py"))
    }
    defs = _definitions()
    def_lines = {}
    for name, fname, lineno in defs:
        def_lines.setdefault(name, set()).add((fname, lineno))
    unused = []
    for name in sorted(def_lines):
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in ALLOWED:
            continue
        word = re.compile(r"\b%s\b" % re.escape(name))
        used = any(
            word.search(text)
            for fname, text_lines in lines.items()
            for lineno, text in enumerate(text_lines, start=1)
            if (fname, lineno) not in def_lines[name]
        )
        if not used:
            unused.append(name)
    assert unused == [], "defined but never used: %s" % ", ".join(unused)


def test_allowlist_names_exist():
    names = {name for name, _, _ in _definitions()}
    assert ALLOWED <= names
