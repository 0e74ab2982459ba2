"""The semi-naive module battery adds the same modules as the naive one.

`ref_module_battery` is the closure that re-applies every move to every
module and recomputes Ext^1 for every pair each round.  The battery in
`silting` applies each move once per module and each Ext pair once; both
must return the same number of modules, the same ordered list of dimension
vectors and the same `certified` flag.  Only the draws from the battery's
own seeded generator differ between the two.

The cases cover A with and without its torsion pair on the fixtures and
linear A4 / A5, B = End(P) with its torsion pair, the fixtures over Q, and
small `cap`, `max_dim` and `rounds`, which drop modules and leave work for
the closing tau / tau inverse pass.
"""

import collections
import functools
import os
import random

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
       for kw in ({"cap": 3}, {"max_dim": 1}, {"rounds": 1})]
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


@pytest.mark.parametrize("name,kw", [
    ("paper_nakayama2", {}), ("linear_a4", {}), ("linear_a4", {"rounds": 1}),
], ids=["paper_nakayama2", "linear_a4", "linear_a4-rounds=1"])
def test_each_move_once_per_module_and_each_ext_pair_once(
        name, kw, monkeypatch):
    """Socle quotient, tau and tau inverse run once per module and Ext^1
    once per ordered pair; with rounds to spare every module gets every
    move and every pair, and when the rounds run out the closing pass
    still gives every module tau and tau inverse."""
    ctx = _context(name)
    seen = collections.defaultdict(list)

    def counted(fn):
        def wrapper(*args):
            seen[fn.__name__].append(args)
            return fn(*args)
        return wrapper

    for fname in ("socle_vectors", "tau", "tau_inverse", "ext_space"):
        monkeypatch.setattr(mod, fname, counted(getattr(mod, fname)))
    battery, certified = silting.module_battery(
        ctx.A, ctx.torsion_A, **kw
    )
    monkeypatch.undo()

    def counts(fname):
        return [sum(a[0] is X for a in seen[fname]) for X in battery]

    pair_counts = [
        sum(a[0] is M and a[1] is N for a in seen["ext_space"])
        for M in battery for N in battery
    ]
    ones = [1] * len(battery)
    assert len(seen["ext_space"]) == sum(pair_counts)
    assert counts("tau") == ones
    assert counts("tau_inverse") == ones
    if certified:
        assert counts("socle_vectors") == ones
        assert pair_counts == [1] * len(pair_counts)
    else:
        assert max(counts("socle_vectors")) == 1
        assert max(pair_counts) == 1
        assert min(counts("socle_vectors")) == 0


def test_small_limits_drop_modules():
    """The small-limit cases above do exercise the dropped flag."""
    ctx = _context("linear_a4")
    for kw in ({"cap": 3}, {"max_dim": 1}, {"rounds": 1}):
        _, certified = silting.module_battery(ctx.A, ctx.torsion_A, **kw)
        assert not certified, kw


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
