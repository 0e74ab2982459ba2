"""Batched map composition against the per-map code it replaces.

`modules.compose_flats` composes a whole batch of flat maps with one
product per class, and `complexes.compose_flats` a batch of flat chain
maps with one `modules.compose_flats` per degree.  `HomSpace` reads the
chain-map conditions of all its candidates and all its homotopy images
through the first; `HomSpace.induced`, the product table of `EndP` and
the spans of `SiltingContext._assert_approximation` compose through the
second; `ext_space`, `ar_sequence` and `factor_through` compose a basis
of maps with one fixed map through the first; `algebra_of_maps` forms
all n^2 products of an End basis with one product per block; and
`hom_space` writes its conditions as Python rows.  These tests compare
each with the earlier code, kept here as references: one `ChainMap` or
`ModuleMap` composition per candidate, per homotopy generator, per
class row and per basis map, one composition per pair of basis maps,
and a condition matrix written entry by entry.  They cover every complex
that `silt check`, `SiltingContext` and `decompose_complex` build, every
module decomposed while building the context and its batteries, every
induced matrix formed while the theorem is verified on them, and Ext,
almost split sequences and factorizations on those batteries, on the
three fixtures and linear A4 over GF(32003) and Q.

On the same runs, Hom out of a ProjSum's module, which `hom_space` reads
off generator images, is compared with the condition-matrix reference;
`summand_class_count` with the length of `decompose_complex` and the rng
state it leaves; every min poly the idempotent search reads off the
powers of the unit with the one of the whole matrix lm(x); and the
batched `Module.check` with its per-pair body.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltengine import algebra
from siltengine import complexes as cx
from siltengine import linalg
from siltengine import modules as mod
from siltengine import silting

from conftest import make_a3_algebra
from test_algebra import _ref_operator_min_poly
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
            viol.append(lhs.add(rhs.scale(linalg.neg_one(F))).flat())
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


def _ref_endp_mult(endo):
    """EndP's product table as it was: one ChainMap composition and
    flat_of per pair of basis elements.  Corner (i, l) of B is the
    Hom space mq[l] -> mq[i], and its basis elements B.corner(i, l) are
    the flats of their reps there."""
    F = endo.field
    B = endo.B
    mult = F.zeros(B.mult.shape)
    n = len(endo.mq)
    for i in range(n):
        for l in range(n):
            ks = B.corner(i, l)
            if not ks:
                continue
            hs = cx.HomSpace(endo.mq[l], endo.mq[i])
            rows = np.stack([hs.flat_of(endo.reps[k]) for k in ks])
            quot = linalg.Coords(
                F, np.concatenate([hs.htpy, rows], axis=0),
                skip=hs.htpy.shape[0],
            )
            for j in range(n):
                ys = B.corner(j, l)
                if not ys:
                    continue
                for x in B.corner(i, j):
                    mult[x][np.ix_(ys, ks)] = quot.of(np.stack([
                        hs.flat_of(endo.reps[y].compose(endo.reps[x]))
                        for y in ys
                    ]))
    return mult


def _ref_approximation_spans(ctx, u, side):
    """The spans `_assert_approximation` solves in, as it built them: the
    homotopies, then one ChainMap composition with u per chain map."""
    left = side == "left"
    out = []
    for T in ([ctx.P] if left else ctx.summands):
        V = cx.HomSpace(u.src, T) if left else cx.HomSpace(T, u.tgt)
        if V.nflat == 0:
            continue
        W = cx.HomSpace(u.tgt, T) if left else cx.HomSpace(T, u.src)
        rows = [V.htpy]
        for r in range(W.chain_basis.shape[0]):
            psi = W.map_from_flat(W.chain_basis[r])
            comp = u.compose(psi) if left else psi.compose(u)
            rows.append(V.flat_of(comp).reshape(1, -1))
        out.append(np.concatenate(rows, axis=0))
    return out


def _ref_ext_space(M, N, degree):
    """(dim, cocycles, coboundaries) of ext_space as it was: every delta
    from one ModuleMap composition per basis map of Hom(P_i, N)."""
    F = M.field
    psums, dmaps, _ = mod.min_resolution(M, degree + 1)
    flats = [ps.hom_to(N) for ps in psums]
    deltas = []
    for i, d in enumerate(dmaps):
        rows = [
            d.compose(mod.map_from_flat(psums[i].module, N, v)).flat()
            for v in flats[i]
        ]
        tgt_flat = flats[i + 1]
        deltas.append(
            np.stack(rows, axis=0) if rows
            else F.zeros((0, tgt_flat.shape[1] if tgt_flat.size else 0))
        )
    src_flat = flats[degree]
    if not src_flat.shape[0]:
        zero = F.zeros((0, src_flat.shape[1] if src_flat.size else 0))
        return 0, zero, zero
    nxt = deltas[degree]
    coeff_kernel = linalg.kernel(F, nxt.T) if nxt.shape[1] else \
        F.eye(src_flat.shape[0])
    cocycles = linalg.row_space(F, F.matmul(coeff_kernel, src_flat))
    prev = deltas[degree - 1]
    coboundaries = linalg.row_space(F, prev) if prev.shape[0] else \
        F.zeros((0, src_flat.shape[1]))
    return cocycles.shape[0] - coboundaries.shape[0], cocycles, coboundaries


def _ref_module_check(M):
    """Module.check with one product and one sum per pair of basis
    elements."""
    F = M.field
    A = M.A
    for c in range(A.nclasses):
        b = A.idem[c]
        if not np.array_equal(M.act[b], F.eye(M.dims[c])):
            return False
    for i in range(A.dim):
        for j in range(A.dim):
            if A.tgt[i] != A.src[j]:
                continue
            lhs = F.matmul(M.act[i], M.act[j])
            rhs = F.zeros((M.dims[int(A.src[i])], M.dims[int(A.tgt[j])]))
            for k in range(A.dim):
                if A.mult[i, j, k] != 0:
                    rhs += A.mult[i, j, k] * M.act[k]
            if not np.array_equal(lhs, F.reduce(rhs)):
                return False
    return True


def _ref_factor_through(h, g):
    """factor_through as it was: one ModuleMap composition with g per
    basis map of Hom(src h, src g)."""
    F = h.field
    maps, flat = mod.hom_space(h.src, g.src)
    if not maps:
        return mod.zero_map(h.src, g.src) if h.is_zero() else None
    basis = np.stack([u.compose(g).flat() for u in maps], axis=0)
    co = linalg.coords_in_basis(F, basis, h.flat())
    if co is None:
        return None
    return mod.map_from_flat(
        h.src, g.src, F.matmul(co.reshape(1, -1), flat)[0]
    )


def _ref_ar_cocycle(X):
    """(tau X, Ext^1(X, tau X), the cocycle ar_sequence extends by) with
    the End(X) action on Ext^1 as it was: each lift composed with one
    cocycle map at a time."""
    F = X.field
    tX = mod.tau(X)
    ext = mod.ext_space(X, tX, 1)
    E, basis_maps = mod.end_algebra(X)
    radE = E.radical()
    P1, d1, cover = ext.psums[1], ext.dmaps[0], ext.cover
    quot_basis = linalg.complement(F, ext.coboundaries, ext.cocycles)
    quot = linalg.Coords(
        F, np.concatenate([ext.coboundaries, quot_basis], axis=0),
        skip=ext.coboundaries.shape[0],
    )
    phis = [mod.map_from_flat(P1.module, tX, q) for q in quot_basis]
    action = []
    for r in range(radE.shape[0]):
        f = mod.combination(basis_maps, radE[r])
        f0 = _ref_factor_through(cover.compose(f), cover)
        f1 = _ref_factor_through(d1.compose(f0), d1)
        action.append(
            quot.of(np.stack([f1.compose(phi).flat() for phi in phis]))
        )
    soc = linalg.kernel(F, np.concatenate(action, axis=1).T) if action \
        else F.eye(quot_basis.shape[0])
    return tX, ext, F.reduce(np.einsum("i,ij->j", soc[0], quot_basis))


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
    """Every HomSpace (spaces), every complex given to chain_end_algebra
    (complexes), every module given to end_algebra (modules) and every
    HomSpace.induced call with its result (induced) while P is checked as
    in `silt check`, a context (ctx) and its two batteries (batteries)
    are built, and the theorem is verified on them."""
    _, P = _input(*request.param)
    spaces, complexes, modules, induced = [], [], [], []
    homs, decomposed, splits, checked = {}, [], [], []
    init = cx.HomSpace.__init__
    chain_end = cx.chain_end_algebra
    end = mod.end_algebra
    induce = cx.HomSpace.induced
    hom = mod.hom_space
    primitive = cx._primitive_idempotents
    split = algebra.split_by_min_poly
    check = mod.Module.check

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

    def record_hom(M, N):
        if M.psum is not None:
            homs[id(M), id(N)] = (M, N)
        return hom(M, N)

    def record_decomposed(X, rng):
        decomposed.append(X)
        return primitive(X, rng)

    def record_split(*args):
        splits.append(args)
        return split(*args)

    def record_checked(M):
        checked.append(M)
        return check(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.HomSpace, "__init__", record_space)
        mp.setattr(cx, "chain_end_algebra", record_complex)
        mp.setattr(mod, "end_algebra", record_module)
        mp.setattr(cx.HomSpace, "induced", record_induced)
        mp.setattr(mod, "hom_space", record_hom)
        mp.setattr(cx, "_primitive_idempotents", record_decomposed)
        mp.setattr(algebra, "split_by_min_poly", record_split)
        mp.setattr(mod.Module, "check", record_checked)
        silting.is_presilting(P)
        silting.has_all_classes(P)
        silting.negative_hom_vanishes(P)
        ctx = silting.SiltingContext(P)
        batteries = [
            silting.module_battery(B, tp)[0]
            for B, tp in ((ctx.A, ctx.torsion_A), (ctx.B, ctx.torsion_B))
        ]
        silting.verify_theorem(ctx, *batteries)
    return SimpleNamespace(
        spaces=spaces, complexes=complexes, modules=modules,
        induced=induced, ctx=ctx, batteries=batteries,
        homs=list(homs.values()), decomposed=decomposed, splits=splits,
        checked=checked,
    )


def test_homspace_equals_per_candidate_reference(built):
    spaces = built.spaces
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
    spaces, modules = built.spaces, built.modules
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


def test_hom_space_out_of_proj_sums_equals_condition_reference(built):
    """Every Hom out of a ProjSum's module that the engine reads, which
    hom_space takes from generator images, equals the kernel of the
    condition matrix; so do Hom out of the empty sum and Hom into modules
    that vanish at some generator's class."""
    pairs = list(built.homs)
    assert pairs
    for R in (built.ctx.A, built.ctx.B):
        targets = [mod.simple_module(R, c) for c in range(R.nclasses)]
        targets.append(cx.zero_module(R))
        for cls in ([], [0], list(range(R.nclasses)) + [0]):
            M = mod.proj_sum(R, cls).module
            pairs += [(M, N) for N in targets + [M]]
    for M, N in pairs:
        assert M.psum is not None
        maps, flat = mod.hom_space(M, N)
        ref_maps, ref_flat = _ref_hom_space(M, N)
        _same(flat, ref_flat)
        assert len(maps) == len(ref_maps)
        for f, g in zip(maps, ref_maps):
            _same(f.flat(), g.flat())


def test_summand_class_count_equals_decomposition(built):
    """On every complex that decompose_complex or summand_class_count is
    given, the count is the number of summand classes, and the rng ends
    where the decomposition leaves it."""
    assert built.decomposed
    moved = False
    for X in built.decomposed:
        for seed in (0, 1):
            r1, r2 = random.Random(seed), random.Random(seed)
            count = cx.summand_class_count(X, r1)
            assert count == len(cx.decompose_complex(X, r2))
            assert r1.getstate() == r2.getstate()
            moved |= r1.getstate() != random.Random(seed).getstate()
    assert moved


def test_split_min_polys_equal_matrix_reference(built):
    """Every min poly the idempotent search reads off the Krylov sequence
    of the unit equals the min poly of the whole matrix lm(x)."""
    splits = built.splits
    assert splits
    for F, _, op, _, _, start in splits:
        assert algebra.operator_min_poly(F, op, start) == \
            _ref_operator_min_poly(F, op)


def test_module_check_equals_per_pair_reference(built):
    """Module.check on every module checked or decomposed while the
    context and batteries are built and the theorem is verified, and on
    copies broken at one action matrix, equals the per-pair check."""
    seen, verdicts = set(), set()
    for M in built.checked + built.modules:
        if id(M) in seen:
            continue
        seen.add(id(M))
        F, A = M.field, M.A
        assert M.check() is _ref_module_check(M) is True
        for b in range(A.dim):
            if not M.act[b].size:
                continue
            act = list(M.act)
            act[b] = F.reduce(act[b] + 1)
            broken = mod.Module(A, M.dims, act)
            verdicts.add(broken.check())
            assert broken.check() is _ref_module_check(broken)
    assert False in verdicts


def test_chain_end_algebra_equals_per_pair_reference(built):
    complexes = built.complexes
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
    modules = built.modules
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
    induced = built.induced
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


def test_endp_products_equal_per_pair_reference(built):
    endo = built.ctx.endo
    _same(endo.B.mult, _ref_endp_mult(endo))


def test_approximation_spans_equal_per_map_reference(built, monkeypatch):
    """The spans the approximation checks solve in, read off their
    solve_matrix calls, equal the per-map compositions."""
    ctx = built.ctx
    solve = linalg.solve_matrix
    for u, side in ((ctx.e, "left"), (ctx.g, "right")):
        spans = []

        def record(F, a, b):
            spans.append(a.T)
            return solve(F, a, b)

        monkeypatch.setattr(linalg, "solve_matrix", record)
        ctx._assert_approximation(u, side)
        monkeypatch.undo()
        want = _ref_approximation_spans(ctx, u, side)
        assert spans and len(spans) == len(want)
        for got, ref in zip(spans, want):
            _same(got, ref)


def test_ext_space_equals_per_map_reference(built):
    for battery in built.batteries:
        for M in battery:
            for N in battery:
                for degree in (1, 2):
                    ext = mod.ext_space(M, N, degree)
                    dim, cocycles, coboundaries = _ref_ext_space(M, N, degree)
                    assert ext.dim == dim
                    _same(ext.cocycles, cocycles)
                    _same(ext.coboundaries, coboundaries)


def _ar_cases_equal_reference(modules, battery, monkeypatch):
    """Check each almost split sequence ending at a non-projective module
    of `modules` against the per-map End(X) action, and every
    factorization its construction and its almost-split check against
    `battery` ask for against the per-map one.  Returns the number of
    sequences and of End(X) actions that were not zero."""
    calls = []
    factor = mod.factor_through

    def record(h, g):
        out = factor(h, g)
        calls.append((h, g, out))
        return out

    monkeypatch.setattr(mod, "factor_through", record)
    cases = acting = 0
    for X in modules:
        if mod.tau(X).total == 0:
            continue
        tX, E, _, f, g = mod.ar_sequence(X)
        _, ext, cocycle = _ref_ar_cocycle(X)
        ref_E, ref_f, ref_g = mod.extension_sequence(X, tX, ext, cocycle)
        assert E.dims == ref_E.dims
        for a, b in zip(E.act, ref_E.act):
            _same(a, b)
        _same(f.flat(), ref_f.flat())
        _same(g.flat(), ref_g.flat())
        assert mod.is_almost_split(tX, E, X, f, g, battery)
        cases += 1
        acting += mod.end_algebra(X)[0].radical().shape[0] > 0
    monkeypatch.undo()
    assert calls
    for h, g, got in calls:
        want = _ref_factor_through(h, g)
        assert (got is None) == (want is None)
        if got is not None:
            _same(got.flat(), want.flat())
    return cases, acting


def test_ar_sequence_and_factor_through_equal_per_map_reference(
    built, monkeypatch
):
    cases = sum(
        _ar_cases_equal_reference(battery, battery, monkeypatch)[0]
        for battery in built.batteries
    )
    assert cases


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_ar_sequence_with_end_action_equals_per_map_reference(
    field, monkeypatch
):
    """The battery modules all have End(X) = k, so no End(X) action
    moves a cocycle there.  Over k[x]/(x^4), End(k[x]/(x^m)) is
    k[x]/(x^m): for m = 2 its radical acts on a 2-dimensional Ext^1, and
    for m = 3 its radical is 2-dimensional."""
    F = linalg.GF(32003) if field == "32003" else linalg.RationalField()
    q = algebra.Quiver(1, [("x", 1, 1)])
    A = algebra.build_algebra(
        F, q, [algebra.Relation(q, [(1, (0, 0, 0, 0))])], 5
    )
    uniserials = [
        mod.module_from_rep(A, [m], {"x": np.eye(m, k=1, dtype=int)})
        for m in (1, 2, 3, 4)
    ]
    assert _ar_cases_equal_reference(
        uniserials, uniserials, monkeypatch
    ) == (3, 2)


def test_induced_takes_exactly_one_side(built):
    spaces = built.spaces
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


# ---- complexes.compose_flats against ChainMap.compose ------------------------


@st.composite
def _chain_batches(draw):
    """(L, X, Y, R, flats of chain maps X -> Y, g : L -> X, h : Y -> R):
    complexes over A3 with terms in some of the degrees -1, 0, 1 (0-2
    dims per class, no differential; composition reads none), 0-3 maps."""
    A = _A3[draw(st.sampled_from(["32003", "Q"]))]
    F = A.field

    def complex_():
        terms = {
            d: _bare_module(A, draw(st.lists(
                st.integers(0, 2), min_size=3, max_size=3)))
            for d in (-1, 0, 1) if draw(st.booleans())
        }
        return cx.ModuleComplex(A, terms, {})

    def chain_map(S, T):
        return cx.ChainMap(S, T, {
            d: mod.ModuleMap(S.term(d), T.term(d), [
                _field_entries(F, draw, (S.term(d).dims[c], T.term(d).dims[c]))
                for c in range(3)
            ])
            for d in S.terms if d in T.terms
        })

    L, X, Y, R = (complex_() for _ in range(4))
    nb = draw(st.integers(0, 3))
    flats = _field_entries(F, draw, (nb, sum(_RefLayout(X, Y).sizes)))
    return L, X, Y, R, flats, chain_map(L, X), chain_map(Y, R)


def _chain_rows(F, maps, S, T):
    lay = _RefLayout(S, T)
    if not maps:
        return F.zeros((0, sum(lay.sizes)))
    return np.stack([lay.flat_of(m) for m in maps])


@settings(max_examples=150, deadline=None)
@given(_chain_batches())
def test_chain_compose_flats_equals_compose(case):
    L, X, Y, R, flats, g, h = case
    F = X.field
    lay = _RefLayout(X, Y)
    fs = [lay.map_from_flat(flats[i]) for i in range(flats.shape[0])]
    _same(cx.compose_flats(flats, X, Y, right=h),
          _chain_rows(F, [f.compose(h) for f in fs], X, R))
    _same(cx.compose_flats(flats, X, Y, left=g),
          _chain_rows(F, [g.compose(f) for f in fs], L, Y))


def test_chain_compose_flats_takes_exactly_one_side():
    A = _A3["32003"]
    X = cx.ModuleComplex(A, {0: _bare_module(A, [1, 0, 0])}, {})
    flats = A.field.zeros((0, 1))
    ident = cx.ChainMap(X, X, {0: mod.identity_map(X.term(0))})
    with pytest.raises(ValueError):
        cx.compose_flats(flats, X, X)
    with pytest.raises(ValueError):
        cx.compose_flats(flats, X, X, left=ident, right=ident)
