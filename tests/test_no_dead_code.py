"""Every function, class and method in the engine has a caller in it.

A name counts as used when it occurs as a whole word somewhere in
`src/siltengine` other than on a line that defines it.  This is a name
check, not a call graph: a dead method that shares its name with a live
one elsewhere goes unnoticed.

Every parameter of every function, method and lambda other than `self`
is read somewhere in its body, and so is every local name it stores.  A
stored name that is meant to go unread (an unpacking target) starts with
an underscore.

Every attribute the engine stores (`obj.name = ...`) is loaded somewhere
in it, as `.name` or as the string of a `getattr`.  Like the first check
this goes by name, not by class.
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
    "Ppp",  # P'' of the silting triangle, minimized on first read
    "is_tilting",  # silting and Hom(P, P[-1]) = 0, as one predicate
}

# Attributes that only the tests read, kept on the objects as reference
# data for them.
ATTRS_ALLOWED = {
    "gen",  # generator e_c of the projective module e_c A
    "pclass",  # class c of the projective module e_c A
    "incls",  # inclusions of a ProjSum's summands
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


def _functions():
    """(file name, node) of every function, method and lambda."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(
                fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                yield path.name, fn


def _read_names(fn):
    """Names loaded anywhere in fn, nested functions included."""
    return {
        n.id for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_every_parameter_is_read():
    unread = []
    for fname, fn in _functions():
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = _read_names(fn)
        name = getattr(fn, "name", "<lambda>")
        unread += [
            "%s:%d %s(%s)" % (fname, fn.lineno, name, p)
            for p in params if p != "self" and p not in read
        ]
    assert unread == [], "parameters never read: %s" % ", ".join(unread)


def test_every_local_is_read():
    unread = []
    for fname, fn in _functions():
        read = _read_names(fn)
        declared = set()
        stored = {}
        for n in ast.walk(fn):
            if isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
        name = getattr(fn, "name", "<lambda>")
        unread += [
            "%s:%d %s(%s)" % (fname, lineno, name, local)
            for local, lineno in sorted(stored.items(), key=lambda t: t[1])
            if not local.startswith("_")
            and local not in read and local not in declared
        ]
    assert unread == [], "locals never read: %s" % ", ".join(unread)


def _attributes():
    """({stored attribute: first "file:line"}, loaded attribute names),
    with `getattr(x, "name", ...)` counted as a load of name."""
    stored = {}
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                if isinstance(n.ctx, ast.Store):
                    stored.setdefault(n.attr, "%s:%d" % (path.name, n.lineno))
                else:
                    loaded.add(n.attr)
            elif (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "getattr"
                and len(n.args) >= 2
                and isinstance(n.args[1], ast.Constant)
            ):
                loaded.add(n.args[1].value)
    return stored, loaded


def test_every_stored_attribute_is_loaded():
    stored, loaded = _attributes()
    unread = [
        "%s %s" % (where, name) for name, where in sorted(stored.items())
        if name not in loaded and name not in ATTRS_ALLOWED
    ]
    assert unread == [], "attributes never loaded: %s" % ", ".join(unread)


def test_attribute_allowlist_is_stored_and_unread():
    stored, loaded = _attributes()
    assert ATTRS_ALLOWED <= set(stored)
    assert not ATTRS_ALLOWED & loaded
