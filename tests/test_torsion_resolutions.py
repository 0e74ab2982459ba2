"""The four torsion resolutions against the routines they replaced.

`torsion_resolution` takes the `tgen` and `fcogen` middle terms from
`minimal_approximation` over the stalk modules H^0(P_i), resp.
H^{-1}(nu P_i), and the `tcogen` envelope as D of the projective cover of
DX over A^op.  The references below are the earlier bodies:
`_ref_approximation` sums every map between the whole H^0(P) (or
H^{-1}(nu P)) and X, and `_ref_injective_envelope` searches Hom(X, I) for
an injective map.  On every battery module of the fixtures, linear A4 and
N(3,3), over GF(32003) and Q, each sequence must be exact with its end
term in the right class, and no middle term may be larger than the
reference's.  The minimal approximations must have as many generators as
theory says: the top of Hom(P, X) over B for `tgen`, and the socle of
Hom(P, X[1]) for `fcogen`, since Hom(X, H^{-1}(nu P)) = D Hom(P, X[1]).

`minimal_approximation` reads its generators off the top of the Hom
module, `modules.top_generators` of a `HomPModule`.
`_ref_minimal_approximation` is its earlier body, which summed the
images of the corner parts of every radical basis element of End(P)
summand by summand.  On every call that the triangle of
`SiltingContext`, the `tgen` and `fcogen` resolutions and
`bongartz_complete` make, both must give the same generators: the same
summand, and the same chain-map blocks with the same dtype.
"""

import os
import random

import numpy as np
import pytest

from siltengine import cli
from siltengine import complexes as cx
from siltengine import linalg
from siltengine import modules as mod
from siltengine import silting

from test_coordinates import _input as _fixture_input
from test_golden import GOLDEN
from test_seeded_search import _ref_injective_envelope

NAMES = ("a2_tilt", "a3_silt", "paper_nakayama2", "linear_a4",
         "nakayama_3_3")


def _ref_approximation(G, X, side):
    """(G-power S, candidate map, summands) from every map between G and X.

    side "right": every map G -> X, summed into a surjection candidate
    S -> X; side "left": every map X -> G, stacked into an injection
    candidate X -> S.  The summands are the modules S was summed from,
    all G.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    maps, _ = mod.hom_space(X, G) if left else mod.hom_space(G, X)
    parts = [G] * len(maps)
    if not maps:
        S = cx.zero_module(X.A)
        return S, mod.zero_map(X, S) if left else mod.zero_map(S, X), parts
    S = mod.direct_sum(parts)[0]
    # S lays out its copies of G one after another in every class, so the
    # map into S is the maps side by side and the map out of S is them
    # stacked
    mats = [
        np.concatenate([m.mats[c] for m in maps], axis=1 if left else 0)
        for c in range(X.A.nclasses)
    ]
    big = mod.ModuleMap(X, S, mats) if left else mod.ModuleMap(S, X, mats)
    return S, big, parts


def _ref_minimal_approximation(endp, X, side):
    """minimal_approximation as it was: for each summand i, the radical
    image in Hom(X, P_i) (or Hom(P_i, X)) summed from the corner parts of
    every radical basis element of End(P), one induced map per nonzero
    part, and a complement of it against the identity."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    F = endp.field
    B = endp.B
    left = side == "left"
    n = len(endp.mq)
    # corner (i, j): the Hom space mq[j] -> mq[i], with the flats of the
    # reps of its basis elements B.corner(i, j)
    corners = {}
    for i in range(n):
        for j in range(n):
            ks = B.corner(i, j)
            if ks:
                hs = cx.HomSpace(endp.mq[j], endp.mq[i])
                rows = np.stack([hs.flat_of(endp.reps[k]) for k in ks])
                corners[(i, j)] = (ks, hs, rows)

    def corner_rep(vec, i, j):
        if (i, j) not in corners:
            return None
        ks, hs, rows = corners[(i, j)]
        x = vec[ks]
        if not np.any(x != 0):
            return None
        return hs.map_from_flat(F.matmul(x.reshape(1, -1), rows)[0])

    V = [cx.HomSpace(X, q) if left else cx.HomSpace(q, X) for q in endp.mq]
    radB = B.radical()
    gens = []
    for i in range(n):
        if V[i].dim == 0:
            continue
        blocks = []
        for r in range(radB.shape[0]):
            for j in range(n):
                rep = corner_rep(radB[r], i, j) if left else \
                    corner_rep(radB[r], j, i)
                if rep is None:
                    continue
                blocks.append(
                    V[j].induced(V[i], right=rep) if left
                    else V[j].induced(V[i], left=rep)
                )
        radimg = (
            linalg.row_space(F, np.concatenate(blocks, axis=0))
            if blocks
            else F.zeros((0, V[i].dim))
        )
        for row in linalg.complement(F, radimg, F.eye(V[i].dim)):
            flat = F.matmul(row.reshape(1, -1), V[i].class_basis)[0]
            gens.append((i, V[i].map_from_flat(flat)))
    return gens


def _ref_factor(pr, f):
    """The per-class solve `fgen` made before
    `modules.factor_through_projection`."""
    F = pr.field
    return [linalg.solve_matrix(F, pr.mats[c], f.mats[c])
            for c in range(pr.src.A.nclasses)]


def _input(name, field):
    if not name.startswith("nakayama"):
        return _fixture_input(name, field)
    with open(os.path.join(GOLDEN, name + ".alg"), encoding="utf-8") as fh:
        A = cli.parse_algebra(fh.read(), cli.parse_field(field))
    with open(os.path.join(GOLDEN, name + ".cpx"), encoding="utf-8") as fh:
        return A, cli.parse_complex(fh.read(), A)[1]


@pytest.fixture(
    scope="module",
    params=[(n, f) for n in NAMES for f in ("32003", "Q")],
    ids=lambda p: "%s-%s" % p,
)
def case(request):
    """(context, battery over A)."""
    A, P = _input(*request.param)
    ctx = silting.SiltingContext(P)
    return ctx, silting.module_battery(A, ctx.torsion_A)[0]


def _same_module(M, N):
    return M.dims == N.dims and all(
        np.array_equal(a, b) for a, b in zip(M.act, N.act)
    )


def _ngens(ctx, X, side):
    endp = ctx.h0_endp if side == "right" else ctx.cogen_endp
    if endp is None:
        return 0
    return len(silting.minimal_approximation(
        endp, cx.stalk_complex(X), side))


def test_approximating_modules_are_indecomposable_and_distinct(case):
    ctx, _ = case
    for endp in (ctx.h0_endp, ctx.cogen_endp):
        parts = [] if endp is None else [q.term(0) for q in endp.mq]
        for i, M in enumerate(parts):
            assert mod.is_indecomposable(M)
            for N in parts[:i]:
                assert mod.modules_isomorphic(M, N, random.Random(0)) is None


def test_tgen_is_a_minimal_right_approximation(case):
    ctx, battery = case
    tp = ctx.torsion_A
    seen = 0
    for X in (X for X in battery if tp.in_torsion(X)):
        L, T0, M, f, g, mid = silting.torsion_resolution(ctx, X, "tgen")
        assert mod.sequence_is_exact(L, T0, M, f, g) and mid
        assert f.check() and g.check() and tp.in_torsion(L)
        assert T0.total <= _ref_approximation(tp.h0, X, "right")[0].total
        top = len(mod.top_generators(ctx.hom_P_of(X, 0).module)[0])
        assert _ngens(ctx, X, "right") == top
        seen += 1
    assert seen or not battery


def test_fcogen_is_a_minimal_left_approximation(case):
    ctx, battery = case
    tp = ctx.torsion_A
    for X in (X for X in battery if tp.in_free(X)):
        M, F0, L, f, g, mid = silting.torsion_resolution(ctx, X, "fcogen")
        assert mod.sequence_is_exact(M, F0, L, f, g) and mid
        assert f.check() and g.check() and tp.in_free(L)
        assert F0.total <= _ref_approximation(tp.cogen, X, "left")[0].total
        soc = mod.socle_vectors(ctx.hom_P_of(X, 1).module).shape[0]
        assert _ngens(ctx, X, "left") == soc


def test_tcogen_and_fgen_match_the_references(case):
    ctx, battery = case
    tp = ctx.torsion_A
    for X in battery:
        if tp.in_torsion(X):
            M, T0, L, f, g, mid = silting.torsion_resolution(ctx, X, "tcogen")
            assert mod.sequence_is_exact(M, T0, L, f, g) and mid
            assert tp.in_torsion(L)
            I0, _ = _ref_injective_envelope(X, random.Random(0))
            assert T0.total <= tp.torsion_part(I0)[0].total
        if tp.in_free(X):
            L, F0, M, f, g, mid = silting.torsion_resolution(ctx, X, "fgen")
            assert mod.sequence_is_exact(L, F0, M, f, g) and mid
            assert g.check() and tp.in_free(L)
            ps, cover = mod.projective_cover(X)
            pr = mod.quotient_module(
                ps.module, tp.trace_vectors(ps.module))[1]
            assert all(np.array_equal(a, b) for a, b in
                       zip(_ref_factor(pr, cover), g.mats))


def test_known_parts_are_zero_or_indecomposable(case):
    ctx, _ = case
    for parts in ctx.torsion_A.ext_parts:
        for M in parts:
            assert M.total == 0 or mod.is_indecomposable(M)


def test_injective_envelope_equals_the_search(case):
    ctx, battery = case
    A = ctx.A
    doubled = [mod.direct_sum([mod.simple_module(A, c)] * 2)[0]
               for c in range(A.nclasses)]
    for X in battery + doubled:
        I, f = silting.injective_envelope(X)
        I_ref, _ = _ref_injective_envelope(X, random.Random(0))
        assert _same_module(I, I_ref)
        assert f.check() and f.is_injective()


def _same_generators(gens, ref):
    assert [i for i, _ in gens] == [i for i, _ in ref]
    for (_, g), (_, h) in zip(gens, ref):
        assert sorted(g.maps) == sorted(h.maps)
        for d in g.maps:
            for a, b in zip(g.maps[d].mats, h.maps[d].mats):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.fixture
def recorded(monkeypatch):
    """Route every call of silting.minimal_approximation through a check
    against the reference; the list counts the calls by side."""
    seen = []
    real = silting.minimal_approximation

    def checked(endp, X, side):
        gens = real(endp, X, side)
        _same_generators(gens, _ref_minimal_approximation(endp, X, side))
        seen.append(side)
        return gens

    monkeypatch.setattr(silting, "minimal_approximation", checked)
    return seen


def test_minimal_approximation_equals_the_radical_loop(case, recorded):
    ctx, battery = case
    P = cx.proj_complex_direct_sum(ctx.summands)
    # the triangle A -> P' -> P'' -> A[1]: one left approximation per class
    silting.SiltingContext(P)
    assert recorded.count("left") == ctx.A.nclasses
    # Bongartz: the right approximation of A[1], for P and its summands
    for s in [P] + ctx.summands:
        silting.bongartz_complete(s)
    assert "right" in recorded
    tp = ctx.torsion_A
    for X in battery:
        if tp.in_torsion(X):
            silting.torsion_resolution(ctx, X, "tgen")
        if tp.in_free(X):
            silting.torsion_resolution(ctx, X, "fcogen")
    assert len(recorded) > ctx.A.nclasses + 1 + len(ctx.summands)
