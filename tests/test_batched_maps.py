"""Batched map composition against the per-map code it replaces.

`modules.compose_flats` composes a whole batch of flat maps with one
product per class.  `HomSpace` reads the chain-map conditions of all its
candidates and all its homotopy images through it; `HomSpace.induced`
composes all class rows with a fixed chain map through it, one product
per degree and class; `algebra_of_maps` forms all n^2 products of an End
basis with one product per block; and `hom_space` writes its conditions
as Python rows.  These tests compare each with the earlier code, kept
here as references: one `ChainMap` per candidate, per homotopy generator
and per class row, one composition per pair of basis maps, and a
condition matrix written entry by entry.  They cover every complex that
`silt check`, `SiltingContext` and `decompose_complex` build, every
module decomposed while building the context and its batteries, and
every induced matrix formed while the theorem is verified on them, on
the three fixtures and linear A4 over GF(32003) and Q.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltengine import complexes as cx
from siltengine import linalg
from siltengine import modules as mod
from siltengine import silting

from conftest import make_a3_algebra
from test_coordinates import NAMES, _input


# ---- references ------------------------------------------------------------


def _ref_hom_space(M, N):
    """hom_space with its condition matrix written entry by entry."""
    F = M.field
    A = M.A
    nflat = sum(M.dims[c] * N.dims[c] for c in range(A.nclasses))
    if nflat == 0:
        return [], F.zeros((0, 0))
    off = mod._flat_offsets(M, N)
    rows = []
    for b in range(A.dim):
        s, t = int(A.src[b]), int(A.tgt[b])
        blk = F.zeros((M.dims[s] * N.dims[t], nflat))
        for i in range(M.dims[s]):
            for j in range(N.dims[t]):
                r = i * N.dims[t] + j
                for k in range(M.dims[t]):
                    blk[r, off[t] + k * N.dims[t] + j] += M.act[b][i, k]
                for l in range(N.dims[s]):
                    blk[r, off[s] + i * N.dims[s] + l] -= N.act[b][l, j]
        rows.append(F.reduce(blk))
    cond = np.concatenate(rows, axis=0) if rows else F.zeros((0, nflat))
    sol = linalg.kernel(F, cond) if cond.shape[0] else F.eye(nflat)
    sol = linalg.row_space(F, sol)
    maps = [mod.map_from_flat(M, N, sol[i]) for i in range(sol.shape[0])]
    return maps, sol


class _RefLayout:
    """The flat layout of chain maps X -> Y, as HomSpace laid it out."""

    def __init__(self, X, Y):
        self.X, self.Y = X, Y
        self.degs = sorted(set(X.terms) & set(Y.terms))
        self.sizes = [
            sum(X.term(d).dims[c] * Y.term(d).dims[c]
                for c in range(X.A.nclasses))
            for d in self.degs
        ]

    def map_from_flat(self, v):
        offs = np.concatenate([[0], np.cumsum(self.sizes)])
        maps = {}
        for di, d in enumerate(self.degs):
            blk = v[offs[di]: offs[di + 1]]
            maps[d] = mod.map_from_flat(self.X.term(d), self.Y.term(d), blk)
        return cx.ChainMap(self.X, self.Y, maps)

    def flat_of(self, f):
        parts = [f.map_at(d).flat() for d in self.degs]
        if not parts:
            return self.X.field.zeros((0,))
        return np.concatenate(parts)


def _ref_homspace(X, Y):
    """(chain_basis, htpy_images, htpy_gens, class_basis) from one
    ChainMap per candidate and per homotopy generator."""
    F = X.field
    lay = _RefLayout(X, Y)
    nflat = sum(lay.sizes)
    if nflat == 0:
        z = F.zeros((0, 0))
        return z, z, [], z
    rows = []
    offs = np.concatenate([[0], np.cumsum(lay.sizes)])
    for di, d in enumerate(lay.degs):
        _, flat = mod.hom_space(X.term(d), Y.term(d))
        for r in range(flat.shape[0]):
            v = F.zeros((nflat,))
            v[offs[di]: offs[di + 1]] = flat[r]
            rows.append(v)
    cand = np.stack(rows, axis=0) if rows else F.zeros((0, nflat))
    cond_rows = []
    for r in range(cand.shape[0]):
        f = lay.map_from_flat(cand[r])
        viol = []
        for i in set(X.terms) | set(Y.terms):
            lhs = f.map_at(i).compose(Y.dmap(i))
            rhs = X.dmap(i).compose(f.map_at(i + 1))
            viol.append(lhs.add(rhs.scale(cx.neg_one(F))).flat())
        cond_rows.append(np.concatenate(viol) if viol else F.zeros((0,)))
    if cond_rows and cond_rows[0].shape[0] > 0:
        coeff_ker = linalg.kernel(F, np.stack(cond_rows, axis=0).T)
        chain = linalg.row_space(F, F.matmul(coeff_ker, cand))
    else:
        chain = linalg.row_space(F, cand)
    gens, h_rows = [], []
    for d in sorted(set(X.terms)):
        if (d - 1) not in Y.terms:
            continue
        _, sflat = mod.hom_space(X.term(d), Y.term(d - 1))
        for r in range(sflat.shape[0]):
            s = mod.map_from_flat(X.term(d), Y.term(d - 1), sflat[r])
            out = {
                d: s.compose(Y.dmap(d - 1)),
                d - 1: X.dmap(d - 1).compose(s),
            }
            h_rows.append(lay.flat_of(cx.ChainMap(X, Y, out)))
            gens.append((d, s))
    if h_rows:
        images = np.stack(h_rows, axis=0)
        htpy = linalg.row_space(F, images)
    else:
        images = htpy = F.zeros((0, nflat))
    return chain, images, gens, linalg.complement(F, htpy, chain)


def _ref_algebra_of_maps(F, ident, span, to_map, flat_of):
    """Structure constants from one composition per pair of basis maps."""
    idflat = flat_of(ident).reshape(1, -1)
    rest = linalg.complement(F, idflat, span)
    basis_flat = np.concatenate([idflat, rest], axis=0)
    n = basis_flat.shape[0]
    basis_maps = [to_map(basis_flat[i]) for i in range(n)]
    coords = linalg.Coords(F, basis_flat)
    mult = F.zeros((n, n, n))
    for i in range(n):
        prods = np.stack(
            [flat_of(basis_maps[i].compose(basis_maps[j])) for j in range(n)]
        )
        block = coords.of(prods)
        if block is None:
            raise RuntimeError("endomorphism space not closed")
        mult[i] = block
    return mult, basis_flat


def _ref_induced(src, tgt, fn):
    """HomSpace.induced as it was: one ChainMap per class row, passed to
    fn, flattened and read in tgt's class coordinates."""
    if src.dim == 0:
        return src.field.zeros((0, tgt.dim))
    return tgt.coords_of(np.stack(
        [tgt.flat_of(fn(src.class_map(r))) for r in range(src.dim)]
    ))


def _same(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# ---- the complexes and modules the engine builds -----------------------------


@pytest.fixture(
    scope="module",
    params=[(n, f) for n in NAMES for f in ("32003", "Q")],
    ids=lambda p: "%s-%s" % p,
)
def built(request):
    """(every HomSpace, every complex given to chain_end_algebra, every
    module given to end_algebra, every HomSpace.induced call with its
    result) while P is checked as in `silt check`, a context and its two
    batteries are built, and the theorem is verified on them."""
    _, P = _input(*request.param)
    spaces, complexes, modules, induced = [], [], [], []
    init = cx.HomSpace.__init__
    chain_end = cx.chain_end_algebra
    end = mod.end_algebra
    induce = cx.HomSpace.induced

    def record_space(self, X, Y):
        init(self, X, Y)
        spaces.append(self)

    def record_complex(X):
        complexes.append(X)
        return chain_end(X)

    def record_module(M):
        modules.append(M)
        return end(M)

    def record_induced(self, tgt, left=None, right=None):
        out = induce(self, tgt, left=left, right=right)
        induced.append((self, tgt, left, right, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.HomSpace, "__init__", record_space)
        mp.setattr(cx, "chain_end_algebra", record_complex)
        mp.setattr(mod, "end_algebra", record_module)
        mp.setattr(cx.HomSpace, "induced", record_induced)
        silting.is_presilting(P)
        silting.has_all_classes(P)
        silting.negative_hom_vanishes(P)
        ctx = silting.SiltingContext(P)
        batteries = [
            silting.module_battery(B, tp)[0]
            for B, tp in ((ctx.A, ctx.torsion_A), (ctx.B, ctx.torsion_B))
        ]
        silting.verify_theorem(ctx, *batteries)
    return spaces, complexes, modules, induced


def test_homspace_equals_per_candidate_reference(built):
    spaces, _, _, _ = built
    assert spaces
    for hs in spaces:
        chain, images, gens, classes = _ref_homspace(hs.X, hs.Y)
        _same(hs.chain_basis, chain)
        _same(hs.htpy_images, images)
        _same(hs.class_basis, classes)
        assert [d for d, _ in hs.htpy_gens] == [d for d, _ in gens]
        for (_, s), (_, t) in zip(hs.htpy_gens, gens):
            _same(s.flat(), t.flat())


def test_hom_space_equals_entrywise_reference(built):
    spaces, _, modules, _ = built
    pairs = [(M, M) for M in modules]
    for hs in spaces:
        for d in hs.X.terms:
            pairs += [(hs.X.term(d), hs.Y.term(e))
                      for e in (d, d - 1) if e in hs.Y.terms]
    for M, N in pairs:
        maps, flat = mod.hom_space(M, N)
        ref_maps, ref_flat = _ref_hom_space(M, N)
        _same(flat, ref_flat)
        assert len(maps) == len(ref_maps)
        for f, g in zip(maps, ref_maps):
            _same(f.flat(), g.flat())


def test_chain_end_algebra_equals_per_pair_reference(built):
    _, complexes, _, _ = built
    assert complexes
    for X in complexes:
        E, maps, hs = cx.chain_end_algebra(X)
        lay = _RefLayout(X, X)
        mult, basis = _ref_algebra_of_maps(
            X.field, cx.identity_chain_map(X), hs.chain_basis,
            lay.map_from_flat, lay.flat_of,
        )
        _same(E.mult, mult)
        _same(np.stack([hs.flat_of(f) for f in maps]), basis)


def test_end_algebra_equals_per_pair_reference(built):
    _, _, modules, _ = built
    assert modules
    for M in modules:
        E, maps = mod.end_algebra(M)
        mult, basis = _ref_algebra_of_maps(
            M.field, mod.identity_map(M), mod.hom_space(M, M)[1],
            lambda v, M=M: mod.map_from_flat(M, M, v), mod.ModuleMap.flat,
        )
        _same(E.mult, mult)
        _same(np.stack([f.flat() for f in maps]), basis)


def test_induced_equals_per_row_reference(built):
    """Every induced matrix the engine forms, composing with a fixed chain
    map on either side, equals the per-row composition."""
    _, _, _, induced = built
    sides = set()
    for src, tgt, left, right, got in induced:
        if right is None:
            fn, side = left.compose, "left"
        else:
            fn, side = (lambda phi, g=right: phi.compose(g)), "right"
        _same(got, _ref_induced(src, tgt, fn))
        if src.dim:
            sides.add(side)
    assert sides == {"left", "right"}


def test_induced_takes_exactly_one_side(built):
    spaces, _, _, _ = built
    hs = next(h for h in spaces if h.X is h.Y)
    ident = cx.identity_chain_map(hs.X)
    with pytest.raises(ValueError):
        hs.induced(hs)
    with pytest.raises(ValueError):
        hs.induced(hs, left=ident, right=ident)


def test_algebra_of_maps_refuses_a_space_not_closed():
    # e12 e21 = e11 lies outside span{id, e12, e21}
    F = linalg.GF(32003)
    A = make_a3_algebra(F)
    M = mod.Module(A, [2, 0, 0], [F.zeros((0, 0))] * A.dim)
    span = F.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(RuntimeError, match="not closed"):
        mod.algebra_of_maps(
            F, span, lambda v: mod.map_from_flat(M, M, v), M.dims
        )


# ---- compose_flats against ModuleMap.compose ---------------------------------


_A3 = {"32003": make_a3_algebra(linalg.GF(32003)),
       "Q": make_a3_algebra(linalg.RationalField())}


def _bare_module(A, dims):
    """A module of the given dimension vector; compose_flats and
    ModuleMap.compose read only its dimensions."""
    return mod.Module(A, dims, [None] * A.dim)


def _field_entries(F, draw, shape):
    n = int(np.prod(shape))
    if isinstance(F, linalg.GF):
        vals = draw(st.lists(st.integers(0, F.p - 1), min_size=n, max_size=n))
    else:
        vals = [Fraction(a, b) for a, b in draw(st.lists(
            st.tuples(st.integers(-5, 5), st.integers(1, 4)),
            min_size=n, max_size=n))]
    return F.array(np.array(vals, dtype=object).reshape(shape))


@st.composite
def _batches(draw):
    """(field name, L, M, N, R, flats of maps M -> N, g : L -> M,
    h : N -> R), with dimensions 0-3 per class and 0-4 maps."""
    fname = draw(st.sampled_from(["32003", "Q"]))
    A = _A3[fname]
    F = A.field
    dims = [draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
            for _ in range(4)]
    L, M, N, R = (_bare_module(A, d) for d in dims)
    nb = draw(st.integers(0, 4))
    nflat = sum(m * n for m, n in zip(M.dims, N.dims))
    flats = _field_entries(F, draw, (nb, nflat))
    g = mod.ModuleMap(L, M, [_field_entries(F, draw, (L.dims[c], M.dims[c]))
                             for c in range(3)])
    h = mod.ModuleMap(N, R, [_field_entries(F, draw, (N.dims[c], R.dims[c]))
                             for c in range(3)])
    return fname, L, M, N, R, flats, g, h


def _flat_rows(F, maps, L, N):
    width = sum(a * b for a, b in zip(L.dims, N.dims))
    if not maps:
        return F.zeros((0, width))
    return np.stack([m.flat() for m in maps])


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_compose_flats_equals_compose(case):
    fname, L, M, N, R, flats, g, h = case
    F = M.field
    fs = [mod.map_from_flat(M, N, flats[i]) for i in range(flats.shape[0])]
    _same(mod.compose_flats(flats, M, N, right=h),
          _flat_rows(F, [f.compose(h) for f in fs], M, R))
    _same(mod.compose_flats(flats, M, N, left=g),
          _flat_rows(F, [g.compose(f) for f in fs], L, N))


def test_compose_flats_takes_exactly_one_side():
    A = _A3["32003"]
    M = _bare_module(A, [1, 0, 0])
    flats = A.field.zeros((0, 1))
    with pytest.raises(ValueError):
        mod.compose_flats(flats, M, M)
    with pytest.raises(ValueError):
        idm = mod.identity_map(M)
        mod.compose_flats(flats, M, M, left=idm, right=idm)
