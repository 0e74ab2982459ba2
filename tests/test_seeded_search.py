"""The seeded searches against their per-map reference loops.

`modules_isomorphic`, `complexes_isomorphic` and `injective_envelope`
search with `linalg.candidates` in flat coordinates.  The references below
are the loops they replaced: they try each basis map, then sum scaled
basis maps with seeded coefficients.  The cases are chosen so that no
basis map is accepted and the random combinations are reached; the
witness and the state of the rng after the call must be the same.
"""

import random

import numpy as np
import pytest

from siltengine import complexes as cx
from siltengine import modules as mod
from siltengine import silting
from siltengine.linalg import QQ

from conftest import F, make_a2_algebra

FIELDS = [F, QQ]
FIELD_IDS = ["GF32003", "Q"]


def _ref_modules_isomorphic(M, N, rng):
    if M.dim_vector() != N.dim_vector():
        return None
    if M.total == 0:
        return mod.zero_map(M, N)
    maps, _ = mod.hom_space(M, N)
    if not maps:
        return None
    for f in maps:
        if f.is_isomorphism():
            return f
    F = M.field
    for _ in range(40):
        co = [F.rand(rng) for _ in maps]
        f = mod.zero_map(M, N)
        for c, m in zip(co, maps):
            f = f.add(m.scale(c))
        if f.is_isomorphism():
            return f
    return None


def _ref_complexes_isomorphic(X, Y, rng):
    Xm, Ym = cx.minimize(X), cx.minimize(Y)
    if sorted(Xm.terms) != sorted(Ym.terms):
        return (Xm.terms == {} and Ym.terms == {}) or None
    for d in Xm.terms:
        if sorted(Xm.terms[d]) != sorted(Ym.terms[d]):
            return None
    mx, _ = Xm.module_form()
    my, _ = Ym.module_form()
    hs = cx.HomSpace(mx, my)
    F = X.field
    for i in range(hs.chain_basis.shape[0]):
        f = hs.map_from_flat(hs.chain_basis[i])
        if f.is_chain_iso():
            return f
    for _ in range(40):
        co = [F.rand(rng) for _ in range(hs.chain_basis.shape[0])]
        v = F.zeros((hs.nflat,))
        for c, i in zip(co, range(hs.chain_basis.shape[0])):
            v = F.reduce(v + c * hs.chain_basis[i])
        f = hs.map_from_flat(v)
        if f.is_chain_iso():
            return f
    return None


def _ref_injective_envelope(X, rng):
    A = X.A
    F = X.field
    soc = mod.socle_vectors(X)
    pieces = mod.graded_pieces_of_span(X, soc)
    injs = []
    for c in range(A.nclasses):
        injs.extend(
            mod.injective_module(A, c) for _ in range(pieces[c].shape[0])
        )
    I, _, _ = mod.direct_sum(injs)
    maps, _ = mod.hom_space(X, I)
    for f in maps:
        if f.is_injective():
            return I, f
    for _ in range(80):
        f = mod.zero_map(X, I)
        for m in maps:
            f = f.add(m.scale(F.rand(rng)))
        if f.is_injective():
            return I, f
    raise RuntimeError("no embedding into the injective envelope found")


def _chain_flat(f):
    return np.concatenate([f.map_at(d).flat() for d in sorted(f.maps)])


def _same_search(ref, new, flat, seed=7):
    """Run both searches on fresh rngs; compare witnesses and rng states."""
    r_ref, r_new = random.Random(seed), random.Random(seed)
    w_ref, w_new = ref(r_ref), new(r_new)
    assert (w_ref is None) == (w_new is None)
    if w_ref is not None:
        assert np.array_equal(flat(w_ref), flat(w_new))
    assert r_ref.getstate() == r_new.getstate()
    # the random combinations were reached
    assert r_new.getstate() != random.Random(seed).getstate()
    return w_new


def _simple_squared(A, c):
    S = mod.simple_module(A, c)
    return mod.direct_sum([S, S])[0]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_modules_isomorphic_matches_reference_on_matrix_units(field):
    # End(S + S) = M_2(k) on matrix units: no basis map is invertible
    SS = _simple_squared(make_a2_algebra(field), 0)
    w = _same_search(
        lambda rng: _ref_modules_isomorphic(SS, SS, rng),
        lambda rng: mod.modules_isomorphic(SS, SS, rng),
        lambda f: f.flat(),
    )
    assert w is not None and w.is_isomorphism()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_modules_isomorphic_matches_reference_when_none_exists(field):
    # P1 and S1 + S2 share a dimension vector; every trial is spent
    A = make_a2_algebra(field)
    S1S2 = mod.direct_sum(
        [mod.simple_module(A, 0), mod.simple_module(A, 1)])[0]
    for M, N in ((mod.projective_module(A, 0), S1S2),
                 (S1S2, mod.projective_module(A, 0))):
        assert _same_search(
            lambda rng: _ref_modules_isomorphic(M, N, rng),
            lambda rng: mod.modules_isomorphic(M, N, rng),
            lambda f: f.flat(),
        ) is None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_complexes_isomorphic_matches_reference_on_matrix_units(field):
    # the stalk P + P: its chain maps are M_2(k) on matrix units
    PP = cx.stalk_proj_complex(make_a2_algebra(field), [0, 0])
    w = _same_search(
        lambda rng: _ref_complexes_isomorphic(PP, PP, rng),
        lambda rng: cx.complexes_isomorphic(PP, PP, rng),
        _chain_flat,
    )
    assert w is not None and w.is_chain_iso()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_complexes_isomorphic_matches_reference_when_none_exists(field):
    # P2 --a--> P1 against P2 --0--> P1: the same terms, not isomorphic
    A = make_a2_algebra(field)
    entries = field.zeros((1, 1, A.dim))
    zero = cx.two_term_complex(A, [1], [0], entries)
    entries = field.zeros((1, 1, A.dim))
    entries[0, 0] = A.basis_vec(A.labels.index("a"))
    arrow = cx.two_term_complex(A, [1], [0], entries)
    assert _same_search(
        lambda rng: _ref_complexes_isomorphic(arrow, zero, rng),
        lambda rng: cx.complexes_isomorphic(arrow, zero, rng),
        _chain_flat,
    ) is None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_injective_envelope_matches_reference_on_matrix_units(field):
    # Hom(S + S, I + I) = M_2(k) on matrix units: none is injective
    A = make_a2_algebra(field)
    for c in range(A.nclasses):
        SS = _simple_squared(A, c)
        I, f = _same_search(
            lambda rng: _ref_injective_envelope(SS, rng),
            lambda rng: silting.injective_envelope(SS, rng),
            lambda pair: pair[1].flat(),
        )
        assert f.is_injective() and I.dims == [2 * d for d in
                                                mod.injective_module(A, c).dims]
