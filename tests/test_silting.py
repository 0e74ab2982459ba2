import numpy as np
import pytest

from siltengine import complexes as cx
from siltengine import linalg, modules, silting

F = linalg.GF(32003)


def two_term(A, label, src_cls, tgt_cls):
    v = A.basis_vec(A.labels.index(label))
    e = F.zeros((1, 1, A.dim))
    e[0, 0] = v
    return cx.two_term_complex(A, [src_cls], [tgt_cls], e)


@pytest.fixture(scope="module")
def a2_ctx(a2_algebra):
    A = a2_algebra
    P = cx.proj_complex_direct_sum(
        [cx.stalk_proj_complex(A, [0]), two_term(A, "a", 1, 0)]
    )
    return silting.SiltingContext(P)


@pytest.fixture(scope="module")
def paper_ctx(paper_algebra):
    A = paper_algebra
    P = cx.proj_complex_direct_sum(
        [cx.stalk_proj_complex(A, [0]), two_term(A, "alpha", 1, 0)]
    )
    return silting.SiltingContext(P)


@pytest.fixture(scope="module")
def a3_ctx(a3_algebra):
    A = a3_algebra
    P = cx.proj_complex_direct_sum(
        [
            two_term(A, "a", 1, 0),
            cx.stalk_proj_complex(A, [2]),
            cx.stalk_proj_complex(A, [1]).shift(1),
        ]
    )
    return silting.SiltingContext(P)


# ---- predicates ------------------------------------------------------------


def test_stalk_regular_all_three(a2_algebra):
    P = cx.stalk_proj_complex(a2_algebra, [0, 1])
    assert silting.is_presilting(P)[0]
    assert silting.is_silting(P)[0]
    assert silting.is_tilting(P)[0]


def test_single_summand_not_silting(a2_algebra):
    P = cx.stalk_proj_complex(a2_algebra, [0])
    assert silting.is_presilting(P)[0]
    ok, wit = silting.is_silting(P)
    assert not ok


def test_a3_silting_not_tilting(a3_ctx, a3_algebra):
    assert not a3_ctx.tilting
    ok, wit = silting.is_tilting(a3_ctx.P)
    assert not ok
    # the witness lives in Hom(P, P[-1]) and is a stalk map P3 -> P2
    assert wit is not None
    assert not wit.is_zero()


def test_three_term_rejected(a2_algebra):
    A = a2_algebra
    X = cx.ProjComplex(A, {-2: [1], 0: [0]}, {})
    with pytest.raises(silting.PreconditionError):
        silting.is_presilting(X)


def test_nonsilting_context_rejected(a2_algebra):
    P = cx.stalk_proj_complex(a2_algebra, [0])
    with pytest.raises(silting.PreconditionError):
        silting.SiltingContext(P)


# ---- endomorphism algebras -------------------------------------------------


def test_a2_endo_algebra(a2_ctx):
    B = a2_ctx.B
    assert B.dim == 3
    assert B.nclasses == 2
    nverts, counts = B.gabriel_quiver_report()
    assert nverts == 2
    assert counts.sum() == 1


def test_paper_endo_algebra(paper_ctx):
    assert paper_ctx.B.dim == 6
    assert paper_ctx.B.nclasses == 2


def test_a3_endo_algebra(a3_ctx):
    B = a3_ctx.B
    assert B.dim == 4
    assert B.nclasses == 3
    nverts, counts = B.gabriel_quiver_report()
    assert nverts == 3
    assert counts.sum() == 1


def test_stalk_regular_endo_matches_a(a2_algebra, paper_algebra):
    for A in (a2_algebra, paper_algebra):
        ctx = silting.SiltingContext(
            cx.stalk_proj_complex(A, list(range(A.nclasses)))
        )
        B = ctx.B
        assert B.dim == A.dim
        assert B.nclasses == A.nclasses
        # multiplication tables agree after matching bases through the
        # canonical identification of End(A) with A
        perm = []
        for b in range(B.dim):
            rep = ctx.reps[b]
            # recover the algebra element via the regular representation
            x = ctx.element_of_regular_endo(
                _total_endo_of_rep(ctx, rep)
            )
            idx = np.flatnonzero(x != 0)
            assert idx.shape[0] == 1 and x[idx[0]] == 1
            perm.append(int(idx[0]))
        assert sorted(perm) == list(range(A.dim))
        for i in range(B.dim):
            for j in range(B.dim):
                lhs = B.el_mult(B.basis_vec(i), B.basis_vec(j))
                rhs = A.el_mult(A.basis_vec(perm[i]), A.basis_vec(perm[j]))
                mapped = F.zeros((A.dim,))
                for k in np.flatnonzero(lhs != 0):
                    mapped[perm[int(k)]] = lhs[k]
                assert np.array_equal(mapped, rhs)


def _total_endo_of_rep(ctx, rep):
    """Extend a chain endo of one regular summand to all of A by zero."""
    A = ctx.A
    Fld = ctx.field
    M = ctx.psA0.module
    mats = [Fld.zeros((M.dims[d], M.dims[d])) for d in range(A.nclasses)]
    src = rep.src.term(0)
    tgt = rep.tgt.term(0)
    # regular summands of a stalk-complex context are single projectives;
    # locate their rows inside the full regular module
    si = ctx.summands.index(
        next(s for s in ctx.summands if s is rep.src)
    )
    ti = ctx.summands.index(
        next(s for s in ctx.summands if s is rep.tgt)
    )
    sc = ctx.summands[si].classes[0][0]
    tc = ctx.summands[ti].classes[0][0]
    so = [0] * A.nclasses
    to = [0] * A.nclasses
    for k in range(sc):
        Pk = ctx.psA0.summands[k]
        for d in range(A.nclasses):
            so[d] += Pk.dims[d]
    for k in range(tc):
        Pk = ctx.psA0.summands[k]
        for d in range(A.nclasses):
            to[d] += Pk.dims[d]
    m0 = rep.map_at(0)
    for d in range(A.nclasses):
        r, c = m0.mats[d].shape
        mats[d][so[d] : so[d] + r, to[d] : to[d] + c] = m0.mats[d]
    return modules.ModuleMap(M, M, mats)


# ---- triangle and induced complex -------------------------------------


def test_paper_triangle_shapes(paper_ctx):
    # the approximation term is two copies of the first projective and
    # the cone minimizes to the length-two summand
    assert paper_ctx.Pp.classes == {0: [0, 0]}
    assert paper_ctx.Ppp.classes == {-1: [1], 0: [0]}


def test_a2_triangle_shapes(a2_ctx):
    assert a2_ctx.Pp.classes == {0: [0, 0]}
    assert a2_ctx.Ppp.classes == {-1: [1], 0: [0]}


def test_stalk_regular_triangle_trivial(a2_algebra):
    ctx = silting.SiltingContext(cx.stalk_proj_complex(a2_algebra, [0, 1]))
    assert ctx.Pp.classes == {0: [0, 1]}
    assert ctx.Ppp.classes == {}
    assert ctx.e.map_at(0).is_isomorphism()


def test_q_is_silting_with_full_class_count(a2_ctx, paper_ctx, a3_ctx):
    for ctx in (a2_ctx, paper_ctx, a3_ctx):
        ok, _ = silting.is_silting(ctx.Q)
        assert ok
        assert len(cx.decompose_complex(ctx.Q)) == ctx.B.nclasses


def test_stalk_regular_gives_shifted_regular_q(a2_algebra):
    ctx = silting.SiltingContext(cx.stalk_proj_complex(a2_algebra, [0, 1]))
    assert set(ctx.Q.classes) == {-1}
    assert sorted(ctx.Q.classes[-1]) == list(range(ctx.B.nclasses))


def test_shifted_regular_gives_stalk_q(a2_algebra):
    P = cx.stalk_proj_complex(a2_algebra, [0, 1]).shift(1)
    ctx = silting.SiltingContext(P)
    assert set(ctx.Q.classes) == {0}
    assert sorted(ctx.Q.classes[0]) == list(range(ctx.B.nclasses))


# ---- phi -------------------------------------------------------------------


def test_phi_kernel_tilting_cases(a2_ctx, paper_ctx):
    assert a2_ctx.phi_kernel.shape[0] == 0
    assert paper_ctx.phi_kernel.shape[0] == 0


def test_phi_kernel_a3(a3_ctx, a3_algebra):
    A = a3_algebra
    ker = a3_ctx.phi_kernel
    # derived by hand: the approximation of the middle projective is 0,
    # so both paths out of vertex 2 die; kernel = span{b, ab}
    assert ker.shape[0] == 2
    assert a3_ctx.EndQ.dim == A.dim - 2
    b_vec = A.basis_vec(A.labels.index("b"))
    ab_vec = A.basis_vec(A.labels.index("a.b"))
    assert linalg.in_span(F, ker, b_vec)
    assert linalg.in_span(F, ker, ab_vec)
    assert np.all(a3_ctx.phi_class(b_vec) == 0)


def test_phi_nonzero_on_radical_paper(paper_ctx, paper_algebra):
    A = paper_algebra
    ba = A.basis_vec(A.labels.index("beta.alpha"))
    assert np.any(paper_ctx.phi_class(ba) != 0)


def test_phi_unital(a2_ctx, a3_ctx):
    for ctx in (a2_ctx, a3_ctx):
        ident = cx.identity_chain_map(ctx.Q_mod)
        assert np.array_equal(
            ctx.phi_class(ctx.A.unit()), ctx.EndQ.coords(ident)
        )


def test_phi_multiplicative(a3_ctx):
    A = a3_ctx.A
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.el_mult(A.basis_vec(i), A.basis_vec(j))
            comp = a3_ctx.phi_chain[j].compose(a3_ctx.phi_chain[i])
            assert np.array_equal(
                a3_ctx.phi_class(prod), a3_ctx.EndQ.coords(comp)
            )


# ---- torsion pairs ----------------------------------------------------


def test_a2_torsion_membership(a2_ctx, a2_algebra):
    A = a2_algebra
    tp = a2_ctx.torsion_A
    P1 = modules.projective_module(A, 0)
    P2 = modules.projective_module(A, 1)
    S1 = modules.simple_module(A, 0)
    assert tp.in_torsion(P1) and tp.in_torsion(S1)
    assert not tp.in_torsion(P2)
    assert tp.in_free(P2)
    assert not tp.in_free(P1) and not tp.in_free(S1)


def test_canonical_sequence_paper(paper_ctx, paper_algebra):
    A = paper_algebra
    tp = paper_ctx.torsion_A
    P2 = modules.projective_module(A, 1)
    tX, incl, QX, proj = tp.canonical_sequence(P2)
    assert tX.total + QX.total == P2.total
    assert modules.sequence_is_exact(tX, P2, QX, incl, proj)


def test_stalk_regular_torsion_everything(a2_algebra):
    ctx = silting.SiltingContext(cx.stalk_proj_complex(a2_algebra, [0, 1]))
    batt, cert = silting.module_battery(a2_algebra, ctx.torsion_A)
    assert cert
    for X in batt:
        assert ctx.torsion_A.in_torsion(X)
        assert not ctx.torsion_A.in_free(X)


def test_shifted_regular_torsion_nothing(a2_algebra):
    P = cx.stalk_proj_complex(a2_algebra, [0, 1]).shift(1)
    ctx = silting.SiltingContext(P)
    batt, cert = silting.module_battery(a2_algebra, ctx.torsion_A)
    assert cert
    for X in batt:
        assert ctx.torsion_A.in_free(X)
        assert not ctx.torsion_A.in_torsion(X)


# ---- battery ---------------------------------------------------------------


def test_a2_battery_complete(a2_algebra, a2_ctx):
    batt, cert = silting.module_battery(a2_algebra, a2_ctx.torsion_A)
    assert cert
    assert len(batt) == 3
    dimvecs = sorted(tuple(M.dims) for M in batt)
    assert dimvecs == [(0, 1), (1, 0), (1, 1)]


def test_a3_battery_complete(a3_algebra, a3_ctx):
    batt, cert = silting.module_battery(a3_algebra, a3_ctx.torsion_A)
    assert cert
    assert len(batt) == 6


def test_battery_respects_cap(a2_algebra):
    batt, cert = silting.module_battery(a2_algebra, None, cap=2)
    assert len(batt) <= 2
    assert not cert


def test_battery_deterministic(a3_algebra, a3_ctx):
    b1, c1 = silting.module_battery(a3_algebra, a3_ctx.torsion_A, seed=0)
    b2, c2 = silting.module_battery(a3_algebra, a3_ctx.torsion_A, seed=0)
    assert c1 == c2 and len(b1) == len(b2)
    for M, N in zip(b1, b2):
        assert M.dim_vector() == N.dim_vector()


# ---- torsion resolutions ----------------------------------------------


def test_resolutions_all_variants(paper_ctx, paper_algebra):
    tp = paper_ctx.torsion_A
    batt, _ = silting.module_battery(paper_algebra, tp)
    for X in batt:
        if tp.in_torsion(X):
            for v in ("tgen", "tcogen"):
                N, E, M, f, g, mid = silting.torsion_resolution(
                    paper_ctx, X, v
                )
                assert modules.sequence_is_exact(N, E, M, f, g)
                assert mid
        if tp.in_free(X):
            for v in ("fcogen", "fgen"):
                N, E, M, f, g, mid = silting.torsion_resolution(
                    paper_ctx, X, v
                )
                assert modules.sequence_is_exact(N, E, M, f, g)
                assert mid


def test_resolution_preconditions(a2_ctx, a2_algebra):
    P2 = modules.projective_module(a2_algebra, 1)  # torsion-free here
    with pytest.raises(silting.PreconditionError):
        silting.torsion_resolution(a2_ctx, P2, "tgen")
    S1 = modules.simple_module(a2_algebra, 0)  # torsion here
    with pytest.raises(silting.PreconditionError):
        silting.torsion_resolution(a2_ctx, S1, "fcogen")


# ---- round trips and verification -------------------------------------


def test_round_trip_dims_a2(a2_ctx, a2_algebra):
    tp = a2_ctx.torsion_A
    S1 = modules.simple_module(a2_algebra, 0)
    HX = a2_ctx.hom_P_of(S1, 0).module
    back = a2_ctx.q_hom(HX, 1).module
    assert modules.modules_isomorphic(back, S1) is not None


def test_verify_theorem_all_fixtures(a2_ctx, paper_ctx, a3_ctx):
    for ctx in (a2_ctx, paper_ctx, a3_ctx):
        checks = silting.verify_theorem(ctx)
        for c in checks:
            assert c["status"] in ("pass", "certified"), c


def test_verify_theorem_trivial_contexts(a2_algebra):
    for P in (
        cx.stalk_proj_complex(a2_algebra, [0, 1]),
        cx.stalk_proj_complex(a2_algebra, [0, 1]).shift(1),
    ):
        ctx = silting.SiltingContext(P)
        checks = silting.verify_theorem(ctx)
        for c in checks:
            assert c["status"] in ("pass", "certified"), c


# ---- bongartz completion ----------------------------------------------


def test_bongartz_from_stalk(a2_algebra):
    pre = cx.stalk_proj_complex(a2_algebra, [0])
    comp = silting.bongartz_complete(pre)
    ok, _ = silting.is_silting(comp)
    assert ok
    groups = cx.decompose_complex(comp)
    assert any(cx.complexes_isomorphic(g[0], pre) for g in groups)


def test_bongartz_from_shifted_stalk(a2_algebra):
    pre = cx.stalk_proj_complex(a2_algebra, [1]).shift(1)
    comp = silting.bongartz_complete(pre)
    ok, _ = silting.is_silting(comp)
    assert ok
    groups = cx.decompose_complex(comp)
    assert any(cx.complexes_isomorphic(g[0], pre) for g in groups)


def test_bongartz_rejects_non_presilting(a2_algebra):
    A = a2_algebra
    P = cx.proj_complex_direct_sum(
        [cx.stalk_proj_complex(A, [0]), cx.stalk_proj_complex(A, [1]).shift(1)]
    )
    ok, _ = silting.is_presilting(P)
    assert not ok
    with pytest.raises(silting.PreconditionError):
        silting.bongartz_complete(P)
