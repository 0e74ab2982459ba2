"""The approximation triangle A -> P' -> P'' -> A[1] from the engine's
primitives agrees with the hand-built one it replaced.

`SiltingContext` takes the cone of e: A -> P' and its structure maps f, g
from `complexes.mapping_cone`, sums the approximation generators with
`silting._approximation_map`, and reads left multiplication on A through
the regular `ProjSum`.  The references below are the earlier hand-written
versions: a cone with degree -1 rows P'^{-1} then A and differential
(-d_P', e), per-copy inclusions and transposed projections into the sum
of the approximating copies, and left multiplication through index tables
of the regular module.  Their matrices must equal the new ones on the
three fixtures and linear A4, over GF(32003) and over Q.

The file also keeps the earlier `ar.stalk_in_add_p`, a homotopy
isomorphism test against every summand, and checks that the homotopies of
each `HomSpace` a context builds already lie in its chain maps, so that
intersecting the two spaces changes nothing.
"""

import random

import numpy as np
import pytest

from siltengine import ar, linalg
from siltengine import complexes as cx
from siltengine import modules as mod
from siltengine import silting

from test_battery import FIXTURES, _context

NAMES = FIXTURES + ("linear_a4",)
CASES = [(name, None) for name in NAMES] + [(name, "Q") for name in NAMES]


def _ids(case):
    name, field = case
    return name + ("-Q" if field else "")


def _same_map(got, want):
    assert len(got.mats) == len(want.mats)
    for a, b in zip(got.mats, want.mats):
        assert a.shape == b.shape and np.array_equal(a, b)


def _same_chain_map(got, want):
    for d in set(got.src.terms) | set(got.tgt.terms):
        _same_map(got.map_at(d), want.map_at(d))


def _same_module(got, want):
    assert got.dims == want.dims
    for a, b in zip(got.act, want.act):
        assert np.array_equal(a, b)


# ---- references ---------------------------------------------------------


def ref_copy_inclusions(parts, total):
    """Chain maps including each listed summand complex into their sum."""
    starts = {d: 0 for d in total.classes}
    incls = []
    for p in parts:
        maps = {}
        for d, cls in p.classes.items():
            s = starts[d]
            m = mod.zero_map(p.term(d), total.term(d))
            for k in range(len(cls)):
                m = m.add(p.term(d).psum.projs[k].compose(
                    total.term(d).psum.incls[s + k]))
            maps[d] = m
            starts[d] = s + len(cls)
        incls.append(cx.ChainMap(p, total, maps))
    return incls


def ref_copy_projection(incl):
    """Chain projection splitting a block inclusion built by position."""
    maps = {}
    for d, m in incl.maps.items():
        mats = [np.array(mm.T, copy=True) for mm in m.mats]
        maps[d] = mod.ModuleMap(incl.tgt.term(d), incl.src.term(d), mats)
    return cx.ChainMap(incl.tgt, incl.src, maps)


def ref_left_approximation(ctx):
    """(P', e): the per-class generators summed through copy inclusions."""
    A = ctx.A
    sts = [cx.stalk_proj_complex(A, [c]) for c in range(A.nclasses)]
    gens = [
        (c, i, m)
        for c in range(A.nclasses)
        for i, m in silting.minimal_approximation(ctx.endo, sts[c], "left")
    ]
    parts = [ctx.summands[i] for (_, i, _) in gens]
    Pp = cx.proj_complex_direct_sum(parts)
    incls = ref_copy_inclusions(parts, Pp)
    m0 = mod.zero_map(ctx.stalkA.term(0), Pp.term(0))
    for k, (c, _, gmap) in enumerate(gens):
        m0 = m0.add(
            ctx.psA0.projs[c]
            .compose(gmap.map_at(0))
            .compose(incls[k].map_at(0))
        )
    return Pp, cx.ChainMap(ctx.stalkA, Pp, {0: m0})


def ref_right_approximation(ctx, X):
    """The right approximation map S -> X summed through copy projections."""
    gens = silting.minimal_approximation(ctx.endo, X, "right")
    parts = [ctx.summands[i] for (i, _) in gens]
    S = cx.proj_complex_direct_sum(parts)
    incls = ref_copy_inclusions(parts, S)
    g0 = None
    for k, (_, gmap) in enumerate(gens):
        piece = ref_copy_projection(incls[k]).compose(gmap)
        g0 = piece if g0 is None else g0.add(piece)
    return gens, g0


def ref_cone(ctx):
    """(cone, f, g): the cone of ctx.e with rows P'^{-1} then A."""
    A = ctx.A
    F = ctx.field
    p1 = list(ctx.Pp.classes.get(-1, []))
    p0 = list(ctx.Pp.classes.get(0, []))
    acl = list(range(A.nclasses))
    cone_terms = {-1: p1 + acl}
    cone_diffs = {}
    if p0:
        cone_terms[0] = p0
        entries = F.zeros((len(p1) + len(acl), len(p0), A.dim))
        if p1:
            entries[: len(p1)] = F.reduce(-ctx.Pp.diff(-1))
        entries[len(p1):] = ctx.psA0.entry_matrix_to(
            ctx.Pp.term(0).psum, ctx.e.map_at(0)
        )
        cone_diffs[-1] = entries
    cone = cx.ProjComplex(A, cone_terms, cone_diffs)
    psC = cone.term(-1).psum
    neg = linalg.neg_one(F)
    fmaps = {}
    if p1:
        m = mod.zero_map(ctx.Pp.term(-1), cone.term(-1))
        for k in range(len(p1)):
            m = m.add(ctx.Pp.term(-1).psum.projs[k].compose(psC.incls[k]))
        fmaps[-1] = m.scale(neg)
    if p0:
        fmaps[0] = mod.ModuleMap(
            ctx.Pp.term(0), cone.term(0),
            [F.eye(d) for d in ctx.Pp.term(0).dims],
        )
    f = cx.ChainMap(ctx.Pp, cone, fmaps)
    A1 = ctx.stalkA.shift(1)
    m = mod.zero_map(cone.term(-1), A1.term(-1))
    for c in range(A.nclasses):
        m = m.add(psC.projs[len(p1) + c].compose(ctx.psA0.incls[c]))
    g = cx.ChainMap(cone, A1, {-1: m.scale(neg)})
    return cone, f, g


def ref_index_regular(ctx):
    """(members, pos_of, unit) index tables of the regular module."""
    A = ctx.A
    F = ctx.field
    M = ctx.psA0.module
    members = [[] for _ in range(A.nclasses)]
    for k in range(A.nclasses):
        Pk = ctx.psA0.summands[k]
        for d in range(A.nclasses):
            members[d].extend(Pk.basis_members[d])
    pos_of = {}
    for d in range(A.nclasses):
        for p, b in enumerate(members[d]):
            pos_of[b] = (d, p)
    unit = F.zeros((M.total,))
    for c in range(A.nclasses):
        d, p = pos_of[A.idem[c]]
        unit[M.offsets[d] + p] = 1
    return members, pos_of, unit


def ref_left_mult_map(ctx, avec):
    A = ctx.A
    F = ctx.field
    M = ctx.psA0.module
    members, pos_of, _ = ref_index_regular(ctx)
    mats = [F.zeros((M.dims[d], M.dims[d])) for d in range(A.nclasses)]
    for d in range(A.nclasses):
        for p, b in enumerate(members[d]):
            prod = A.el_mult(avec, A.basis_vec(b))
            for k in np.flatnonzero(prod != 0):
                _, p2 = pos_of[int(k)]
                mats[d][p, p2] = prod[k]
    return mod.ModuleMap(M, M, mats)


def ref_element_of_regular_endo(ctx, m):
    A = ctx.A
    F = ctx.field
    M = ctx.psA0.module
    members, _, unit = ref_index_regular(ctx)
    w = m.apply(unit)
    x = F.zeros((A.dim,))
    for d in range(A.nclasses):
        for p, b in enumerate(members[d]):
            x[b] = w[M.offsets[d] + p]
    return x


def ref_stalk_in_add_p(ctx, i, shift, rng):
    X = cx.stalk_proj_complex(ctx.A, [i])
    if shift:
        X = X.shift(shift)
    return any(cx.complexes_isomorphic(X, s, rng) for s in ctx.summands)


# ---- comparisons --------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_left_approximation_matches_reference(case):
    ctx = _context(*case)
    Pp, e = ref_left_approximation(ctx)
    assert ctx.Pp.classes == Pp.classes
    for d in Pp.diffs:
        assert np.array_equal(ctx.Pp.diff(d), Pp.diff(d))
    _same_chain_map(ctx.e, e)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_right_approximation_matches_reference(case):
    ctx = _context(*case)
    X = ctx.stalkA.shift(1)
    gens, g0 = ref_right_approximation(ctx, X)
    S, g = silting._approximation_map(X, ctx.summands, gens, "right")
    assert S.classes == cx.proj_complex_direct_sum(
        [ctx.summands[i] for i, _ in gens]
    ).classes
    assert g.check()
    _same_chain_map(g, g0)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_cone_matches_reference(case):
    ctx = _context(*case)
    cone, f, g = ref_cone(ctx)
    assert sorted(ctx.mcC.terms) == sorted(cone.terms)
    for d in cone.terms:
        _same_module(ctx.mcC.term(d), cone.term(d))
        _same_map(ctx.mcC.dmap(d), cone.dmap(d))
    _same_chain_map(ctx.f, f)
    _same_chain_map(ctx.g, g)
    # the projective form of the cone holds the same classes
    assert {d: sorted(c) for d, c in ctx.cone.classes.items()} == {
        d: sorted(c) for d, c in cone.classes.items()
    }
    assert cx.complexes_isomorphic(ctx.cone, cone)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_regular_module_maps_match_reference(case):
    ctx = _context(*case)
    A = ctx.A
    F = ctx.field
    rng = random.Random(7)
    mixed = F.zeros((A.dim,))
    for k in range(A.dim):
        mixed[k] = F.rand(rng)
    elements = [A.basis_vec(a) for a in range(A.dim)] + [mixed]
    for avec in elements:
        lam = ctx.left_mult_map(avec)
        _same_map(lam, ref_left_mult_map(ctx, avec))
        x = ctx.element_of_regular_endo(lam)
        assert np.array_equal(x, ref_element_of_regular_endo(ctx, lam))
        assert np.array_equal(x, avec)


@pytest.mark.parametrize("name", NAMES)
def test_stalk_in_add_p_matches_reference(name):
    ctx = _context(name)
    rng = random.Random(0)
    for i in range(ctx.A.nclasses):
        for shift in (0, 1):
            assert ar.stalk_in_add_p(ctx, i, shift) == ref_stalk_in_add_p(
                ctx, i, shift, rng
            )


@pytest.mark.parametrize("name", NAMES)
def test_homotopies_lie_in_chain_maps(name, monkeypatch):
    built = []
    init = cx.HomSpace.__init__

    def record(self, X, Y):
        init(self, X, Y)
        built.append(self)

    monkeypatch.setattr(cx.HomSpace, "__init__", record)
    _context.__wrapped__(name)
    assert built
    for hs in built:
        got = linalg.intersect_spaces(hs.field, hs.htpy, hs.chain_basis)
        assert got.shape == hs.htpy.shape
        assert np.array_equal(got, hs.htpy)
