"""Objects a SiltingContext builds once must equal the ones built afresh.

The context decomposes P and Q once, memoizes Hom(P, -) and Hom(Q, -) per
(module, shift), and builds the middle terms of the `tgen` and `fcogen`
torsion resolutions from the H^0(P_i), resp. H^{-1}(nu P_i), so they lie in
add H^0(P), resp. add H^{-1}(nu P), without decomposing them.  These tests
compare each shortcut with the longer path it replaces, on the three
fixtures and on linear A4.
"""

import os
import random

import numpy as np
import pytest

from siltengine import cli
from siltengine import complexes as cx
from siltengine import modules as mod
from siltengine import silting

from test_golden import FIXDIR, GOLDEN, linear_a4_text


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _input(name):
    """(A, P) for a fixture name or "linear_a4"."""
    if name == "linear_a4":
        A = cli.parse_algebra(linear_a4_text())
        ctext = _read(os.path.join(GOLDEN, "linear_a4.cpx"))
    else:
        A = cli.parse_algebra(_read(os.path.join(FIXDIR, name + ".alg")))
        ctext = _read(os.path.join(FIXDIR, name + ".cpx"))
    return A, cli.parse_complex(ctext, A)[1]


NAMES = ("a2_tilt", "a3_silt", "paper_nakayama2", "linear_a4")


@pytest.fixture(scope="module", params=NAMES)
def case(request):
    """(P, context, battery over A, battery over B) for one input."""
    A, P = _input(request.param)
    ctx = silting.SiltingContext(P)
    battery, _ = silting.module_battery(A, ctx.torsion_A)
    battery_b, _ = silting.module_battery(ctx.B, ctx.torsion_B)
    return P, ctx, battery, battery_b


def _same_module(M, N):
    return M.dims == N.dims and all(
        np.array_equal(a, b) for a, b in zip(M.act, N.act)
    )


def test_context_verdicts_match_the_predicates(case):
    P, ctx, _, _ = case
    assert ctx.tilting == silting.is_tilting(P)[0]
    assert len(ctx.summands) == len(silting.basic_part(P)[1])
    assert ctx.q_classes == ctx.B.nclasses


def test_cone_is_minimized_on_first_read_of_Ppp(case):
    _, ctx, _, _ = case
    assert "Ppp" not in vars(ctx)
    assert ctx.Ppp is ctx.Ppp
    assert ctx.Ppp.classes == cx.minimize(ctx.cone).classes


def test_hom_P_of_is_memoized_and_equals_a_fresh_build(case):
    _, ctx, battery, _ = case
    for X in battery:
        for shift in (0, 1):
            h = ctx.hom_P_of(X, shift)
            assert h is ctx.hom_P_of(X, shift)
            fresh = silting.HomPModule(ctx.endo, cx.stalk_complex(X), shift)
            assert _same_module(h.module, fresh.module)


def test_q_hom_is_memoized_and_equals_a_fresh_build(case):
    _, ctx, _, battery_b = case
    for N in battery_b:
        for shift in (0, 1):
            q = ctx.q_hom(N, shift)
            assert q is ctx.q_hom(N, shift)
            fresh = silting.QHomModule(ctx, N, shift)
            assert _same_module(q.module, fresh.module)


def _in_add_by_decomposing(X, G, rng):
    """The check the `tgen` / `fcogen` resolutions leave out: decompose
    both X and G and match every summand of X with one of G."""
    gparts = [grp[0][0] for grp in mod.decompose_module(G, rng)]
    return silting._in_add(X, gparts, rng)


def test_approximation_middle_terms_lie_in_add_of_the_generator(case):
    _, ctx, battery, _ = case
    tp = ctx.torsion_A
    rng = random.Random(0)
    nonzero = 0
    for X in battery:
        variants = []
        if tp.in_torsion(X):
            variants.append(("tgen", tp.h0))
        if tp.in_free(X):
            variants.append(("fcogen", tp.cogen))
        for variant, G in variants:
            _, E, _, _, _, mid = silting.torsion_resolution(ctx, X, variant)
            assert mid
            assert _in_add_by_decomposing(E, G, rng)
            nonzero += E.total > 0
    assert nonzero > 0
