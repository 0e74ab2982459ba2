"""Batched coordinates and factorisations against the per-row code they replace.

`HomSpace.coords_of` factors [homotopies; class basis] once and reads the
class of every chain map in a batch off one product; `HomSpace.induced`
builds the matrix of an induced map that way.  `modules.factor_through`
serves the lifts in `ar_sequence` and the factorisation tests of
`is_almost_split`.  These tests compare each with the earlier per-vector
or per-map code, kept here as references, over GF(32003) and Q.
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

from test_golden import FIXDIR, GOLDEN, linear_a4_text
from test_modules import FIELD_IDS, FIELDS, _battery_cases, ref_quotient_coords

NAMES = ("a2_tilt", "a3_silt", "paper_nakayama2", "linear_a4")


def _input(name, field):
    """(A, P) for a fixture name or "linear_a4" over the named field."""
    if name == "linear_a4":
        atext = linear_a4_text()
        cpath = os.path.join(GOLDEN, "linear_a4.cpx")
    else:
        with open(os.path.join(FIXDIR, name + ".alg"), encoding="utf-8") as fh:
            atext = fh.read()
        cpath = os.path.join(FIXDIR, name + ".cpx")
    A = cli.parse_algebra(atext, cli.parse_field(field))
    with open(cpath, encoding="utf-8") as fh:
        return A, cli.parse_complex(fh.read(), A)[1]


@pytest.fixture(
    scope="module",
    params=[(n, f) for n in NAMES for f in ("32003", "Q")],
    ids=lambda p: "%s-%s" % p,
)
def built(request):
    """(context, every HomSpace its construction built)."""
    _, P = _input(*request.param)
    spaces = []
    init = cx.HomSpace.__init__

    def record(self, X, Y):
        init(self, X, Y)
        spaces.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx.HomSpace, "__init__", record)
        ctx = silting.SiltingContext(P)
    return ctx, spaces


def _ref_coords(hs, v):
    return ref_quotient_coords(hs.field, hs.htpy, hs.class_basis, v)


def test_coords_of_equals_per_row_reference(built):
    ctx, spaces = built
    F = ctx.field
    rng = random.Random(5)
    assert spaces
    for hs in spaces:
        k = hs.chain_basis.shape[0]
        # every chain basis map, one seeded combination of them, and zero
        extra = F.array([[F.rand(rng) for _ in range(k)], [0] * k])
        batch = np.concatenate(
            [hs.chain_basis, F.matmul(extra, hs.chain_basis)], axis=0
        ) if k else hs.chain_basis
        got = hs.coords_of(batch)
        assert got.shape == (batch.shape[0], hs.dim)
        for r in range(batch.shape[0]):
            want = _ref_coords(hs, batch[r])
            assert np.array_equal(got[r], want)
            assert np.array_equal(hs.coords(hs.map_from_flat(batch[r])), want)


def test_induced_matrices_equal_per_row_reference(built):
    ctx, _ = built
    A, B = ctx.A, ctx.B
    for h in (ctx.HBp, ctx.HBc):
        for b in range(B.dim):
            src, tgt = h.spaces[int(B.src[b])], h.spaces[int(B.tgt[b])]
            for r in range(src.dim):
                comp = ctx.reps[b].compose(src.class_map(r))
                want = _ref_coords(tgt, tgt.flat_of(comp))
                assert np.array_equal(h.module.act[b][r], want)
    N = ctx.hom_P_of(mod.projective_module(A, 0), 0).module
    for shift in (0, 1):
        V = ctx.q_hom(N, shift).V
        for a in range(A.dim):
            for r in range(V.dim):
                comp = ctx.phi_chain[a].compose(V.class_map(r))
                want = _ref_coords(V, V.flat_of(comp))
                assert np.array_equal(ctx.q_hom(N, shift).ops[a][r], want)


# ---- factor_through against the three routines it replaces -----------------


def _ref_lift_through(surj, target):
    """Module map h with h . surj = target (source of target is projective)."""
    F = surj.field
    maps, _ = mod.hom_space(target.src, surj.src)
    flats = [m.compose(surj).flat() for m in maps]
    if not flats:
        if target.is_zero():
            return mod.zero_map(target.src, surj.src)
        raise RuntimeError("lift through surjection failed")
    basis = np.stack(flats, axis=0)
    co = linalg.coords_in_basis(F, basis, target.flat())
    if co is None:
        raise RuntimeError("lift through surjection failed")
    out = mod.zero_map(target.src, surj.src)
    for c, m in zip(co, maps):
        out = out.add(m.scale(c))
    return out


def _ref_is_retraction_target(h, M):
    """Does some s: M -> Z satisfy s . h = id_M?  (h: Z -> M)"""
    maps, _ = mod.hom_space(M, h.src)
    F = M.field
    flats = [s.compose(h).flat() for s in maps]
    if not flats:
        return M.total == 0
    basis = np.stack(flats, axis=0)
    return linalg.in_span(F, basis, mod.identity_map(M).flat())


def _ref_factors_through(h, g):
    """Does h = u . g for some u: src(h) -> src(g)?"""
    maps, _ = mod.hom_space(h.src, g.src)
    F = h.field
    flats = [u.compose(g).flat() for u in maps]
    if not flats:
        return h.is_zero()
    basis = np.stack(flats, axis=0)
    return linalg.in_span(F, basis, h.flat())


def _same_map(f, g):
    return all(np.array_equal(a, b) for a, b in zip(f.mats, g.mats))


def _check_factor(h, g, want):
    u = mod.factor_through(h, g)
    assert (u is not None) == want
    if u is not None:
        assert u.check()
        assert _same_map(u.compose(g), h)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_factor_through_equals_references(field):
    for A, battery in _battery_cases(field):
        for M in battery:
            idM = mod.identity_map(M)
            into = [h for Z in battery for h in mod.hom_space(Z, M)[0]]
            for h in into:
                _check_factor(idM, h, _ref_is_retraction_target(h, M))
            for h in into:
                for g in into:
                    _check_factor(h, g, _ref_factors_through(h, g))
            # the two lifts of ar_sequence, for every endomorphism of M
            P1, _, d1, cover = mod.min_presentation(M)
            _, basis_maps = mod.end_algebra(M)
            for f in basis_maps:
                target = cover.compose(f)
                f0 = mod.factor_through(target, cover)
                assert _same_map(f0, _ref_lift_through(cover, target))
                if P1.classes:
                    target = d1.compose(f0)
                    f1 = mod.factor_through(target, d1)
                    assert _same_map(f1, _ref_lift_through(d1, target))
