"""Torsion membership read off D_X against the Hom spaces it replaces.

`TorsionPair.hom_dims(X)` reads dim Hom_K(P, X) and dim Hom_K(P, X[1])
off the kernel and cokernel of one matrix D_X : Hom(P^0, X) ->
Hom(P^{-1}, X), and `trace_vectors` builds the trace of H^0(P) in X from
the same kernel.  These tests compare both, on every A and B battery
module of the fixtures and linear A4 over GF(32003) and Q, with the
earlier code kept here as references: a whole `HomSpace` read for its
dimension, and the images of every map in `hom_space(H^0(P), X)`.  D_X
itself, the generator basis of Hom(P^0, X) composed with d in one
`modules.compose_flats`, is compared with the earlier blockwise sum of
action matrices, here and on random complexes in test_entries.py.
"""

import numpy as np
import pytest

from siltengine import complexes as cx
from siltengine import linalg
from siltengine import modules as mod
from siltengine import silting

from test_coordinates import NAMES, _input


def _ref_hom_dim(tp, X, shift):
    return cx.hom_complexes(tp.P, cx.stalk_complex(X), shift).dim


def _ref_ker_dx(tp, X):
    """The earlier `TorsionPair._ker_dx`: block (k, j) of D_X summed as
    sum_b d_jk[b] X.act[b], for generator k of P^0 and j of P^{-1}."""
    F = tp.field
    c0, c1 = tp.P.classes.get(0, []), tp.P.classes.get(-1, [])
    d = tp.P.diff(-1)
    o0 = np.cumsum([0] + [X.dims[c] for c in c0])
    o1 = np.cumsum([0] + [X.dims[c] for c in c1])
    dx = F.zeros((o0[-1], o1[-1]))
    for j in range(len(c1)):
        for k in range(len(c0)):
            for b in np.flatnonzero(d[j, k].astype(bool)):
                dx[o0[k]:o0[k + 1], o1[j]:o1[j + 1]] += (
                    d[j, k, b] * X.act[b]
                )
    ker = linalg.kernel(F, F.reduce(dx).T)
    rank = dx.shape[0] - ker.shape[0]
    return ker, dx.shape[1] - rank


def same_ker_dx(tp, X):
    ker, coker = tp._ker_dx(X)
    want, want_coker = _ref_ker_dx(tp, X)
    assert ker.shape == want.shape and ker.dtype == want.dtype
    assert np.array_equal(ker, want)
    assert coker == want_coker


def _ref_trace_vectors(tp, X):
    F = tp.field
    maps, _ = mod.hom_space(tp.h0, X)
    rows = [mod.image_vectors(m) for m in maps]
    rows = [r for r in rows if r.shape[0]]
    if not rows:
        return F.zeros((0, X.total))
    return linalg.row_space(F, np.concatenate(rows, axis=0))


@pytest.fixture(
    scope="module",
    params=[(n, f) for n in NAMES for f in ("32003", "Q")],
    ids=lambda p: "%s-%s" % p,
)
def sides(request):
    """[(torsion pair, modules)] for the A and the B side of a context:
    the battery, the regular module and the injective cogenerator."""
    _, P = _input(*request.param)
    ctx = silting.SiltingContext(P)
    out = []
    for B, tp in ((ctx.A, ctx.torsion_A), (ctx.B, ctx.torsion_B)):
        battery, _ = silting.module_battery(B, tp)
        nu, _, _ = mod.direct_sum(
            [mod.injective_module(B, c) for c in range(B.nclasses)]
        )
        out.append((tp, battery + [mod.regular_module(B), nu]))
    return out


def test_hom_dims_equal_homspace_dimensions(sides):
    for tp, modules in sides:
        for X in modules:
            got = tp.hom_dims(X)
            assert got == (_ref_hom_dim(tp, X, 0), _ref_hom_dim(tp, X, 1))
            # the Euler characteristic of D_X
            c0, c1 = tp.P.classes.get(0, []), tp.P.classes.get(-1, [])
            assert got[0] - got[1] == (
                sum(X.dims[c] for c in c0) - sum(X.dims[c] for c in c1)
            )


def test_ker_dx_equals_blockwise_reference(sides):
    """D_X composed from the generator basis of Hom(P^0, X) has the
    kernel and cokernel of the blockwise D_X, the zero module included."""
    for tp, modules in sides:
        for X in modules + [cx.zero_module(tp.A)]:
            same_ker_dx(tp, X)


def test_trace_vectors_equal_hom_space_images(sides):
    for tp, modules in sides:
        for X in modules:
            got = tp.trace_vectors(X)
            want = _ref_trace_vectors(tp, X)
            assert got.shape == want.shape
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_memberships_follow_the_dimensions(sides):
    for tp, modules in sides:
        for X in modules:
            hom0, hom1 = tp.hom_dims(X)
            assert tp.in_torsion(X) == (hom1 == 0)
            assert tp.in_free(X) == (hom0 == 0)
