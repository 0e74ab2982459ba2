"""The knitted module battery: the naive closure as an oracle, the knit's
own moves, and battery sizes known from theory.

`ref_module_battery` is the closure that re-applies radical, socle
quotient, tau and tau inverse to every module and takes the middle terms
of every Ext^1 extension between every pair, each round.  The battery in
`silting` knits along almost split sequences instead; both must return
the same number of modules, the same ordered list of dimension vectors
and the same `certified` flag.  Only the draws from the battery's own
seeded generator differ between the two.

The cases cover A with and without its torsion pair on the fixtures and
linear A4 / A5, B = End(P) with its torsion pair, the fixtures over Q, and
small `cap` and `max_dim`, which drop modules.  The pins from theory
count the indecomposables of representation-finite algebras: n(n+1)/2 on
linear A_n (one per interval of vertices) and n*l on the self-injective
Nakayama algebra N(n, l) (the uniserials of length 1..l at each vertex).
The Kronecker algebra is representation-infinite, so its battery is never
certified.
"""

import collections
import functools
import os
import random
import sys

import numpy as np
import pytest

from siltengine import cli, linalg
from siltengine import modules as mod
from siltengine import silting

from test_golden import FIXDIR, GOLDEN, linear_a4_text

FIXTURES = ("a2_tilt", "a3_silt", "paper_nakayama2")
LINEAR = ("linear_a4", "linear_a5")


def _fresh_tau(M):
    return mod.dual_module(mod.transpose_module(M))


def _fresh_tau_inverse(M):
    return mod.transpose_module(mod.dual_module(M))


def ref_module_battery(A, torsion=None, max_dim=30, cap=60, seed=0,
                       rounds=8):
    """Naive closure: every move on every module and every Ext pair, each
    round, and a closing tau / tau inverse pass over every module."""
    rng = random.Random(seed)
    F = A.field
    items = []
    state = {"dropped": False}

    def add(M):
        if M.total == 0:
            return
        for grp in mod.decompose_module(M, rng):
            S = grp[0][0]
            if S.total > max_dim:
                state["dropped"] = True
                continue
            if any(
                mod.modules_isomorphic(S, X, rng) is not None for X in items
            ):
                continue
            if len(items) >= cap:
                state["dropped"] = True
                continue
            items.append(S)

    for c in range(A.nclasses):
        add(mod.simple_module(A, c))
        add(mod.projective_module(A, c))
        add(mod.injective_module(A, c))
    if torsion is not None:
        add(torsion.h0)
        add(torsion.cogen)
        add(torsion.tnuA)
        add(torsion.AtA)
        for c in range(A.nclasses):
            P = mod.projective_module(A, c)
            tP, _, PtP, _ = torsion.canonical_sequence(P)
            add(tP)
            add(PtP)
    for _ in range(rounds):
        before = len(items)
        for M in list(items):
            add(mod.submodule(M, mod.radical_vectors(M))[0])
            add(mod.quotient_module(M, mod.socle_vectors(M))[0])
            add(_fresh_tau(M))
            add(_fresh_tau_inverse(M))
        for M in list(items):
            for N in list(items):
                ext = mod.ext_space(M, N, 1)
                if ext.dim == 0:
                    continue
                quot = linalg.complement(F, ext.coboundaries, ext.cocycles)
                for r in range(quot.shape[0]):
                    E, _, _ = mod.extension_sequence(M, N, ext, quot[r])
                    add(E)
        if len(items) == before:
            break
    else:
        state["dropped"] = True
    before = len(items)
    for M in list(items):
        add(_fresh_tau(M))
        add(_fresh_tau_inverse(M))
    certified = (len(items) == before) and not state["dropped"]
    order = sorted(
        range(len(items)),
        key=lambda k: (items[k].total, tuple(items[k].dims), k),
    )
    return [items[k] for k in order], certified


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@functools.lru_cache(maxsize=None)
def _context(name, field=None):
    """SiltingContext of a fixture or of linear A4 / A5, built once."""
    if name == "linear_a4":
        atext = linear_a4_text()
    elif name == "linear_a5":
        atext = _read(os.path.join(GOLDEN, "linear_a5.alg"))
    else:
        atext = _read(os.path.join(FIXDIR, name + ".alg"))
    base = GOLDEN if name in LINEAR else FIXDIR
    A = cli.parse_algebra(
        atext, cli.parse_field(field) if field is not None else None
    )
    P = cli.parse_complex(_read(os.path.join(base, name + ".cpx")), A)[1]
    return silting.SiltingContext(P)


def _side(ctx, side):
    """(algebra, torsion pair or None) for one battery side."""
    return {
        "A": (ctx.A, None),
        "A+torsion": (ctx.A, ctx.torsion_A),
        "B+torsion": (ctx.B, ctx.torsion_B),
    }[side]


CASES = (
    [(name, None, side, {})
     for name in FIXTURES + LINEAR for side in ("A", "A+torsion")]
    + [(name, None, "B+torsion", {}) for name in FIXTURES + ("linear_a4",)]
    + [(name, "Q", "A", {}) for name in FIXTURES]
    + [("a2_tilt", "Q", "A+torsion", {})]
    + [(name, None, "A+torsion", kw)
       for name in ("paper_nakayama2", "linear_a4")
       for kw in ({"cap": 3}, {"max_dim": 1})]
)


def _case_id(case):
    name, field, side, kw = case
    parts = [name, side] + (["Q"] if field else [])
    parts += ["%s=%d" % item for item in sorted(kw.items())]
    return "-".join(parts)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_battery_matches_naive_closure(case):
    name, field, side, kw = case
    A, torsion = _side(_context(name, field), side)
    got, got_cert = silting.module_battery(A, torsion, **kw)
    want, want_cert = ref_module_battery(A, torsion, **kw)
    assert len(got) == len(want)
    assert [M.dims for M in got] == [M.dims for M in want]
    assert got_cert == want_cert


def _is_projective(X):
    ps, _ = mod.projective_cover(X)
    return ps.module.total == X.total


@pytest.mark.parametrize("name,side,kw", [
    ("paper_nakayama2", "A+torsion", {}), ("linear_a4", "A+torsion", {}),
    ("linear_a4", "B+torsion", {}), ("linear_a4", "A+torsion", {"cap": 3}),
], ids=["paper_nakayama2", "linear_a4", "linear_a4-B", "linear_a4-cap=3"])
def test_knit_takes_each_module_once_along_its_left_neighbours(
        name, side, kw, monkeypatch):
    """The battery itself builds the almost split sequence ending at each
    non-projective module and the radical of each projective one, once
    each and for nothing else; Ext^1 is computed only inside ar_sequence,
    and tau inverse and socles are never taken."""
    A, torsion = _side(_context(name), side)
    calls = collections.defaultdict(list)  # name -> [(caller, args)]

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__].append((sys._getframe(1).f_code.co_name, args))
            return fn(*args)
        return wrapper

    for fname in ("ar_sequence", "radical_vectors", "ext_space",
                  "tau_inverse", "socle_vectors"):
        monkeypatch.setattr(mod, fname, counted(getattr(mod, fname)))
    battery, _ = silting.module_battery(A, torsion, **kw)
    monkeypatch.undo()

    def direct(fname):
        return [args[0] for caller, args in calls[fname]
                if caller == "module_battery"]

    projective = [_is_projective(X) for X in battery]
    assert 0 < sum(projective) < len(battery)
    ar_args, rad_args = direct("ar_sequence"), direct("radical_vectors")
    assert len(ar_args) + len(rad_args) == len(battery)
    for X, proj in zip(battery, projective):
        assert sum(Y is X for Y in ar_args) == (not proj)
        assert sum(Y is X for Y in rad_args) == proj
    assert len(calls["ar_sequence"]) == len(ar_args)
    assert {caller for caller, _ in calls["ext_space"]} == {"ar_sequence"}
    assert not calls["tau_inverse"] and not calls["socle_vectors"]


def test_small_limits_drop_modules():
    """The small-limit cases above do exercise the dropped flag."""
    ctx = _context("linear_a4")
    for kw in ({"cap": 3}, {"max_dim": 1}):
        _, certified = silting.module_battery(ctx.A, ctx.torsion_A, **kw)
        assert not certified, kw


# ---- pins from theory --------------------------------------------------------


def _linear_text(n):
    lines = ["field 32003", "vertices %d" % n]
    lines += ["arrow x%d %d %d" % (i, i, i + 1) for i in range(1, n)]
    return "\n".join(lines) + "\n"


def _nakayama_text(n, length):
    """N(n, length): the n-cycle a<i>: i -> i+1 with every path of the
    given length zero."""
    lines = ["field 32003", "vertices %d" % n]
    lines += ["arrow a%d %d %d" % (i, i, i % n + 1) for i in range(1, n + 1)]
    for i in range(n):
        lines.append("relation " + ".".join(
            "a%d" % ((i + k) % n + 1) for k in range(length)))
    lines.append("nilpotency %d" % (length + 1))
    return "\n".join(lines) + "\n"


def _dims(battery):
    return sorted(tuple(int(d) for d in M.dims) for M in battery)


@pytest.mark.parametrize("n", range(4, 9))
def test_linear_an_battery_holds_every_interval_module(n):
    """Linear A_n has one indecomposable per interval [i, j] of vertices."""
    battery, certified = silting.module_battery(
        cli.parse_algebra(_linear_text(n)))
    want = sorted(tuple(int(i <= v <= j) for v in range(n))
                  for i in range(n) for j in range(i, n))
    assert certified
    assert len(battery) == n * (n + 1) // 2
    assert _dims(battery) == want


@pytest.mark.parametrize("n,length", [(3, 3), (3, 4), (4, 5)])
def test_nakayama_battery_holds_every_uniserial(n, length):
    """N(n, l) has n*l indecomposables, the uniserial modules; the one of
    length m at vertex i has one basis vector at each of i, ..., i+m-1
    (mod n), whichever way the cycle is read."""
    battery, certified = silting.module_battery(
        cli.parse_algebra(_nakayama_text(n, length)))
    want = []
    for i in range(n):
        for m in range(1, length + 1):
            dims = [0] * n
            for k in range(m):
                dims[(i + k) % n] += 1
            want.append(tuple(dims))
    assert certified
    assert len(battery) == n * length
    assert _dims(battery) == sorted(want)


def test_paper_nakayama2_battery_has_six_modules():
    """The fixture is N(2, 3)."""
    battery, certified = silting.module_battery(
        cli.parse_algebra(_read(os.path.join(FIXDIR, "paper_nakayama2.alg"))))
    assert certified
    assert len(battery) == 6


KRONECKER = "field 32003\nvertices 2\narrow a 1 2\narrow b 1 2\n"


def test_kronecker_battery_is_not_certified():
    """The Kronecker algebra is representation-infinite: the knit from its
    injectives runs into max_dim and never closes."""
    battery, certified = silting.module_battery(
        cli.parse_algebra(KRONECKER), max_dim=10)
    assert not certified
    assert battery and all(M.total <= 10 for M in battery)


def _same_action(M, N):
    return M.dims == N.dims and all(
        np.array_equal(a, b) for a, b in zip(M.act, N.act)
    )


@pytest.mark.parametrize("name", FIXTURES + ("linear_a4",))
def test_tau_is_memoized_and_equals_a_fresh_build(name):
    ctx = _context(name)
    battery, _ = silting.module_battery(ctx.A, ctx.torsion_A)
    for M in battery:
        assert mod.tau(M) is mod.tau(M)
        assert _same_action(mod.tau(M), _fresh_tau(M))
        assert mod.tau_inverse(M) is mod.tau_inverse(M)
        assert _same_action(mod.tau_inverse(M), _fresh_tau_inverse(M))
