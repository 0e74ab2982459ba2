import functools
import os
import random

import numpy as np
import pytest

from siltengine import cli, silting
from siltengine import complexes as cx
from siltengine import linalg, modules

F = linalg.GF(32003)
FIXDIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")


def a2_two_term(A):
    """[P2 -a-> P1] in degrees -1, 0 over the path algebra of 1 -> 2."""
    a_vec = A.basis_vec(A.labels.index("a"))
    entries = F.zeros((1, 1, A.dim))
    entries[0, 0] = a_vec
    return cx.two_term_complex(A, [1], [0], entries)


def test_two_term_check(a2_algebra):
    T = a2_two_term(a2_algebra)
    assert T.check()
    assert cx.ModuleComplex.check(T)


def test_cohomology(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    S1 = modules.simple_module(A, 0)
    H0 = T.cohomology(0)
    assert modules.modules_isomorphic(H0, S1) is not None
    Hm1 = T.cohomology(-1)
    assert Hm1.total == 0


def test_hom_complexes_dims(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    end = cx.hom_complexes(T, T, 0)
    assert end.dim == 1
    up = cx.hom_complexes(T, T, 1)
    assert up.dim == 0
    down = cx.hom_complexes(T, T, -1)
    assert down.dim == 0
    # Hom(P1 stalk, T) = Hom(P1, S1) is one dimensional
    P1 = cx.stalk_proj_complex(A, [0])
    assert cx.hom_complexes(P1, T, 0).dim == 1


def test_shift_round_trip(a2_algebra):
    T = a2_two_term(a2_algebra)
    sh = T.shift(1).shift(-1)
    assert sorted(sh.terms) == sorted(T.terms)
    for d in T.dmaps:
        for c in range(T.A.nclasses):
            assert np.array_equal(sh.dmaps[d].mats[c], T.dmaps[d].mats[c])


def test_missing_degree_term_is_one_zero_module(a2_algebra):
    mc = a2_two_term(a2_algebra)
    Z = mc.term(5)
    assert Z.total == 0
    assert mc.term(5) is Z
    assert mc.shift(1).term(-7) is Z
    assert cx.zero_module(a2_algebra) is Z


def test_mapping_cone_of_identity_contractible(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    ident = cx.identity_chain_map(T)
    C, incl, proj = cx.mapping_cone(ident)
    assert C.check()
    # cone of the identity is null-homotopic: its identity is homotopic to 0
    end = cx.HomSpace(C, C)
    assert end.dim == 0


def test_minimize_strips_contractible(a2_algebra):
    A = a2_algebra
    e1 = A.idem_vec(0)
    a_vec = A.basis_vec(A.labels.index("a"))
    entries = F.zeros((2, 2, A.dim))
    entries[0, 0] = e1  # P1 -> P1 identity block
    entries[1, 1] = a_vec  # P2 -> P1
    X = cx.ProjComplex(A, {-1: [0, 1], 0: [0, 0]}, {-1: entries})
    assert X.check()
    Xm = cx.minimize(X)
    assert Xm.classes == {-1: [1], 0: [0]}
    assert np.array_equal(Xm.diff(-1)[0, 0], a_vec)
    assert Xm.is_minimal()


def test_minimize_cone_of_iso_vanishes(a2_algebra):
    A = a2_algebra
    e1 = A.idem_vec(0)
    entries = F.zeros((1, 1, A.dim))
    entries[0, 0] = e1
    X = cx.two_term_complex(A, [0], [0], entries)
    Xm = cx.minimize(X)
    assert Xm.classes == {}


def test_decompose_complex(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    P1 = cx.stalk_proj_complex(A, [0])
    X = cx.proj_complex_direct_sum([P1, T])
    groups = cx.decompose_complex(X)
    assert len(groups) == 2
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 1]
    XX = cx.proj_complex_direct_sum([T, T])
    groups2 = cx.decompose_complex(XX)
    assert len(groups2) == 1
    assert len(groups2[0]) == 2


def test_complexes_isomorphic(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    T2 = a2_two_term(A)
    assert cx.complexes_isomorphic(T, T2)
    P1 = cx.stalk_proj_complex(A, [0])
    assert cx.complexes_isomorphic(T, P1) is None


def test_decomposed_summands_isomorphic_to_parts(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    P1 = cx.stalk_proj_complex(A, [0])
    X = cx.proj_complex_direct_sum([P1, T])
    groups = cx.decompose_complex(X)
    found_T = found_P1 = False
    for g in groups:
        if cx.complexes_isomorphic(g[0], T):
            found_T = True
        if cx.complexes_isomorphic(g[0], P1):
            found_P1 = True
    assert found_T and found_P1


def test_nu_complex(a2_algebra):
    A = a2_algebra
    T = a2_two_term(A)
    nuT = cx.nu_complex(T)
    assert nuT.check()
    assert nuT.term(-1).dim_vector() == [1, 1]
    assert nuT.term(0).dim_vector() == [1, 0]
    S2 = modules.simple_module(A, 1)
    Hm1 = nuT.cohomology(-1)
    assert modules.modules_isomorphic(Hm1, S2) is not None


def test_paper_complex_homs(paper_algebra):
    """P = P1 + [P2 -alpha-> P1]: the commuting square that is not
    null-homotopic forces Hom_K(P, P) to be bigger than the two
    identities plus the obvious maps."""
    A = paper_algebra
    al = A.basis_vec(A.labels.index("alpha"))
    entries = F.zeros((1, 1, A.dim))
    entries[0, 0] = al
    T = cx.two_term_complex(A, [1], [0], entries)
    P1 = cx.stalk_proj_complex(A, [0])
    P = cx.proj_complex_direct_sum([P1, T])
    assert P.check()
    end = cx.hom_complexes(P, P, 0)
    # derived by hand: End contains id_P1, id_T, P1 -> T (via beta.alpha
    # and via the degree -1 corner), T -> P1, and the endomorphism of T
    # given by right multiplication with beta.alpha, which commutes but
    # is not null-homotopic
    assert end.dim == 6
    up = cx.hom_complexes(P, P, 1)
    assert up.dim == 0


def test_chain_end_algebra_identity_first(a2_algebra):
    T = a2_two_term(a2_algebra)
    E, basis_maps, hs = cx.chain_end_algebra(T)
    assert E.check_associative()
    assert basis_maps[0].is_chain_iso()


# ---- cohomology against the per-row reference --------------------------------


def _ref_cohomology(X, i):
    """The earlier ModuleComplex.cohomology: one coords_in_basis per image
    row and class."""
    K, incl = modules.submodule(
        X.term(i), modules.kernel_vectors(X.dmap(i)))
    if (i - 1) not in X.terms:
        return K
    imv = modules.image_vectors(X.dmap(i - 1))
    if imv.shape[0] == 0:
        return K
    Fx = X.field
    rows = []
    for v in imv:
        out = Fx.zeros((K.total,))
        for c in range(X.A.nclasses):
            piece = X.term(i).piece(v.reshape(1, -1), c)[0]
            basis = incl.mats[c]
            if basis.shape[0] == 0:
                assert not np.any(piece != 0)
                continue
            co = linalg.coords_in_basis(Fx, basis, piece)
            assert co is not None
            K.piece(out.reshape(1, -1), c)[0, :] = co
        rows.append(out)
    return modules.quotient_module(K, np.stack(rows, axis=0))[0]


@pytest.mark.parametrize("field", ["32003", "Q"])
@pytest.mark.parametrize("base", ["a2_tilt", "a3_silt", "paper_nakayama2"])
def test_cohomology_equals_per_row_reference(base, field):
    with open(os.path.join(FIXDIR, base + ".alg"), encoding="utf-8") as fh:
        A = cli.parse_algebra(fh.read(), cli.parse_field(field))
    with open(os.path.join(FIXDIR, base + ".cpx"), encoding="utf-8") as fh:
        _, P = cli.parse_complex(fh.read(), A)
    cone, _, _ = cx.mapping_cone(cx.identity_chain_map(P))
    for X in (P, cx.nu_complex(P), cone):
        for i in range(min(X.terms) - 1, max(X.terms) + 2):
            got, want = X.cohomology(i), _ref_cohomology(X, i)
            assert got.dims == want.dims
            for a, b in zip(got.act, want.act):
                assert np.array_equal(a, b)


# ---- explicit null-homotopies ----------------------------------------------


@functools.lru_cache(maxsize=None)
def _fixture_context(base):
    with open(os.path.join(FIXDIR, base + ".alg"), encoding="utf-8") as fh:
        A = cli.parse_algebra(fh.read())
    with open(os.path.join(FIXDIR, base + ".cpx"), encoding="utf-8") as fh:
        _, P = cli.parse_complex(fh.read(), A)
    return silting.SiltingContext(P)


def _random_homotopy(hs, rng):
    """{d: s^d : X^d -> Y^{d-1}}, a seeded random combination of a Hom basis."""
    X, Y = hs.X, hs.Y
    s = {}
    for d in X.terms:
        if (d - 1) not in Y.terms:
            continue
        maps, _ = modules.hom_space(X.term(d), Y.term(d - 1))
        sd = modules.zero_map(X.term(d), Y.term(d - 1))
        for m in maps:
            sd = sd.add(m.scale(hs.field.rand(rng)))
        s[d] = sd
    return s


def _boundary(hs, s):
    """The chain map s . d_Y + d_X . s : X -> Y."""
    X, Y = hs.X, hs.Y
    maps = {}
    for d, sd in s.items():
        for k, m in (
            (d, sd.compose(Y.dmap(d - 1))),
            (d - 1, X.dmap(d - 1).compose(sd)),
        ):
            maps[k] = m if k not in maps else maps[k].add(m)
    return cx.ChainMap(X, Y, maps)


@pytest.mark.parametrize("base", ["a2_tilt", "a3_silt", "paper_nakayama2"])
def test_find_homotopy_witness(base):
    ctx = _fixture_context(base)
    rng = random.Random(0)
    spaces = [cx.HomSpace(ctx.stalkA, ctx.Pp)] + [
        cx.HomSpace(X, Y) for X in ctx.summands for Y in ctx.summands
    ]
    nonzero = 0
    for hs in spaces:
        for _ in range(3):
            f = _boundary(hs, _random_homotopy(hs, rng))
            assert f.check()
            want = hs.flat_of(f)
            nonzero += int(np.any(want != 0))
            s = cx.find_homotopy(hs, f)
            assert s is not None
            assert np.array_equal(hs.flat_of(_boundary(hs, s)), want)
        for k in range(hs.dim):
            assert cx.find_homotopy(hs, hs.class_map(k)) is None
    # random boundaries are nonzero wherever homotopies are (a2_tilt has none)
    assert (nonzero > 0) == any(hs.htpy.shape[0] for hs in spaces)
