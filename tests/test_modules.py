import functools
import random

import numpy as np
import pytest

from siltengine import linalg, modules

F = linalg.GF(32003)


def test_regular_module_dims(paper_algebra, a2_algebra):
    R = modules.regular_module(paper_algebra)
    # pieces count basis elements by target vertex: {e1, beta, alpha.beta}
    # and {e2, alpha, beta.alpha}
    assert R.dim_vector() == [3, 3]
    assert R.check()
    R2 = modules.regular_module(a2_algebra)
    assert R2.dim_vector() == [1, 2]
    assert R2.check()


def test_projectives_and_simples_a2(a2_algebra):
    A = a2_algebra
    P1 = modules.projective_module(A, 0)
    P2 = modules.projective_module(A, 1)
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    assert P1.dim_vector() == [1, 1]
    assert P2.dim_vector() == [0, 1]
    assert S1.dim_vector() == [1, 0]
    assert S2.dim_vector() == [0, 1]
    for M in (P1, P2, S1, S2):
        assert M.check()


def test_hom_dims_a2(a2_algebra):
    A = a2_algebra
    P1 = modules.projective_module(A, 0)
    P2 = modules.projective_module(A, 1)
    S1 = modules.simple_module(A, 0)
    # Hom(e_c A, M) has dimension dim M_c
    assert modules.hom_dim(P1, P1) == 1
    assert modules.hom_dim(P1, P2) == 0
    assert modules.hom_dim(P2, P1) == 1
    assert modules.hom_dim(P1, S1) == 1
    assert modules.hom_dim(P2, S1) == 0
    assert modules.hom_dim(S1, P1) == 0


def test_injectives_a2(a2_algebra):
    A = a2_algebra
    I1 = modules.injective_module(A, 0)
    I2 = modules.injective_module(A, 1)
    assert I1.dim_vector() == [1, 0]
    assert I2.dim_vector() == [1, 1]
    assert I1.check() and I2.check()


def test_socle_and_radical(a2_algebra):
    P1 = modules.projective_module(a2_algebra, 0)
    assert modules.radical_vectors(P1).shape[0] == 1
    assert modules.socle_vectors(P1).shape[0] == 1


def test_min_presentation_s1(a2_algebra):
    A = a2_algebra
    S1 = modules.simple_module(A, 0)
    P1s, P0s, d1, cover = modules.min_presentation(S1)
    assert P0s.classes == [0]
    assert P1s.classes == [1]
    assert d1.check() and cover.check()
    assert d1.compose(cover).is_zero()


def test_tau_a2(a2_algebra):
    A = a2_algebra
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    t = modules.tau(S1)
    assert t.dim_vector() == [0, 1]
    assert modules.modules_isomorphic(t, S2) is not None
    # projectives die under tau
    P1 = modules.projective_module(A, 0)
    assert modules.tau(P1).total == 0
    # tau inverse of S2 is S1; injectives die
    ti = modules.tau_inverse(S2)
    assert ti.dim_vector() == [1, 0]
    I2 = modules.injective_module(A, 1)
    assert modules.tau_inverse(I2).total == 0


def test_ext_dims_a2(a2_algebra):
    A = a2_algebra
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    assert modules.ext_dim(S1, S2, 1) == 1
    assert modules.ext_dim(S2, S1, 1) == 0
    assert modules.ext_dim(S1, S2, 2) == 0


def test_extension_realizes_p1(a2_algebra):
    A = a2_algebra
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    ext = modules.ext_space(S1, S2, 1)
    assert ext.dim == 1
    quot = linalg.complement(F, ext.coboundaries, ext.cocycles)
    E, f, g = modules.extension_sequence(S1, S2, ext, quot[0])
    assert modules.sequence_is_exact(S2, E, S1, f, g)
    P1 = modules.projective_module(A, 0)
    assert modules.modules_isomorphic(E, P1) is not None


def test_decompose_regular_a2(a2_algebra):
    A = a2_algebra
    R = modules.regular_module(A)
    groups = modules.decompose_module(R)
    dimvecs = sorted(
        tuple(t[0][0].dim_vector()) for t in [[g[0]] for g in groups]
    )
    assert len(groups) == 2
    assert dimvecs == [(0, 1), (1, 1)]
    for g in groups:
        for S, incl, proj in g:
            assert incl.check() and proj.check()
            assert incl.compose(proj).is_isomorphism()


def test_decompose_square(a2_algebra):
    A = a2_algebra
    P1 = modules.projective_module(A, 0)
    DS, _, _ = modules.direct_sum([P1, P1])
    groups = modules.decompose_module(DS)
    assert len(groups) == 1
    assert len(groups[0]) == 2
    assert modules.is_indecomposable(P1)
    assert not modules.is_indecomposable(DS)


def test_not_isomorphic_same_dimvector(a2_algebra):
    A = a2_algebra
    P1 = modules.projective_module(A, 0)
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    DS, _, _ = modules.direct_sum([S1, S2])
    assert DS.dim_vector() == P1.dim_vector()
    assert modules.modules_isomorphic(DS, P1) is None


def test_ar_sequence_a2(a2_algebra):
    A = a2_algebra
    S1 = modules.simple_module(A, 0)
    tX, E, X, f, g = modules.ar_sequence(S1)
    assert tX.dim_vector() == [0, 1]
    assert E.dim_vector() == [1, 1]
    assert modules.sequence_is_exact(tX, E, X, f, g)
    P1 = modules.projective_module(A, 0)
    P2 = modules.projective_module(A, 1)
    S2 = modules.simple_module(A, 1)
    battery = [P1, P2, S1, S2, E]
    assert modules.is_almost_split(tX, E, X, f, g, battery)


def test_module_from_rep(paper_algebra):
    A = paper_algebra
    M = modules.module_from_rep(
        A, [1, 1], {"alpha": F.array([[1]]), "beta": F.array([[0]])}
    )
    assert M.check()
    with pytest.raises(ValueError):
        modules.module_from_rep(
            A, [1, 1], {"alpha": F.array([[1]]), "beta": F.array([[1]])}
        )


def test_tau_and_ar_paper(paper_algebra):
    A = paper_algebra
    S1 = modules.simple_module(A, 0)
    S2 = modules.simple_module(A, 1)
    t1 = modules.tau(S1)
    assert modules.modules_isomorphic(t1, S2) is not None
    tX, E, X, f, g = modules.ar_sequence(S1)
    assert E.dim_vector() == [1, 1]
    assert modules.sequence_is_exact(tX, E, X, f, g)


def test_projective_cover_of_projective(paper_algebra):
    P1 = modules.projective_module(paper_algebra, 0)
    ps, cover = modules.projective_cover(P1)
    assert ps.classes == [0]
    assert cover.is_isomorphism()


def test_end_algebra_local(a2_algebra):
    P1 = modules.projective_module(a2_algebra, 0)
    E, maps = modules.end_algebra(P1)
    assert E.dim == 1
    assert maps[0].is_isomorphism()
    R = modules.regular_module(a2_algebra)
    ER, _ = modules.end_algebra(R)
    # End(A) = A^op for the regular module
    assert ER.dim == a2_algebra.dim


# ---- ProjSum Hom basis, offset arithmetic, memoised resolutions ----------
#
# _ref_map_to and _ref_entry_matrix_to are the earlier versions, which found
# each summand position by applying the inclusion to a unit vector; they are
# kept as references for the offset arithmetic.


def _ref_map_to(ps, M, gen_images):
    F = ps.A.field
    mats = [
        F.zeros((ps.module.dims[c], M.dims[c]))
        for c in range(ps.A.nclasses)
    ]
    for k, c in enumerate(ps.classes):
        g = np.asarray(gen_images[k]).reshape(-1)
        P = ps.summands[k]
        for d in range(ps.A.nclasses):
            for i, b in enumerate(P.basis_members[d]):
                e = F.zeros((P.total,))
                e[P.offsets[d] + i] = 1
                tot = ps.incls[k].apply(e)
                idx = int(np.flatnonzero(tot != 0)[0]) - ps.module.offsets[d]
                img = F.matmul(M.piece(g.reshape(1, -1), c), M.act[b])
                mats[d][idx] = img[0]
    return modules.ModuleMap(ps.module, M, mats)


def _ref_entry_matrix_to(ps, other, f):
    A = ps.A
    F = A.field
    entries = []
    for j, dj in enumerate(ps.classes):
        y = f.apply(ps.incls[j].apply(ps.summands[j].gen))
        row = []
        for k in range(len(other.classes)):
            Pk = other.summands[k]
            el = F.zeros((A.dim,))
            piece = other.module.piece(y.reshape(1, -1), dj)[0]
            for i, b in enumerate(Pk.basis_members[dj]):
                e = F.zeros((Pk.total,))
                e[Pk.offsets[dj] + i] = 1
                tot = other.incls[k].apply(e)
                idx = int(np.flatnonzero(tot != 0)[0]) - other.module.offsets[dj]
                el[b] = piece[idx]
            row.append(el)
        entries.append(row)
    return entries


@functools.lru_cache(maxsize=None)
def _battery_cases(field):
    """(algebra, battery modules) for the three fixture algebras."""
    from conftest import make_a2_algebra, make_a3_algebra, make_paper_algebra

    from siltengine import silting

    out = []
    for make in (make_a2_algebra, make_a3_algebra, make_paper_algebra):
        A = make(field)
        battery, _ = silting.module_battery(A, None, 30, 60, 0)
        out.append((A, battery))
    return out


def _proj_sums(A, battery):
    """ProjSums with repeated classes, plus every battery resolution term."""
    sums = [modules.ProjSum(A, [c]) for c in range(A.nclasses)]
    sums.append(modules.ProjSum(A, list(range(A.nclasses)) + [0, 0]))
    sums.append(modules.ProjSum(A, []))
    for M in battery:
        sums += modules.min_resolution(M, 2)[0]
    return sums


def _fresh(M):
    """A module equal to M that has built nothing yet."""
    return modules.Module(M.A, M.dims, M.act)


FIELDS = [linalg.GF(32003), linalg.RationalField()]
FIELD_IDS = ["GF32003", "Q"]


def _ref_act_total(M, x):
    """Total-space matrix of the right action of an algebra element x,
    one action matrix at a time (the removed `Module.act_total`)."""
    F = M.field
    m = F.zeros((M.total, M.total))
    for b in range(M.A.dim):
        if x[b] == 0:
            continue
        s, t = int(M.A.src[b]), int(M.A.tgt[b])
        m[
            M.offsets[s] : M.offsets[s + 1],
            M.offsets[t] : M.offsets[t + 1],
        ] += x[b] * M.act[b]
    return F.reduce(m)


def _ref_radical_vectors(M):
    """The earlier radical_vectors: one total-space action matrix per
    radical row."""
    F = M.field
    rad = M.A.radical()
    rows = [_ref_act_total(M, rad[i]) for i in range(rad.shape[0])]
    if not rows:
        return F.zeros((0, M.total))
    return linalg.row_space(F, np.concatenate(rows, axis=0))


def _ref_socle_vectors(M):
    """The earlier socle_vectors, on the same per-row action matrices."""
    F = M.field
    rad = M.A.radical()
    if rad.shape[0] == 0:
        return F.eye(M.total)
    mats = [_ref_act_total(M, rad[i]) for i in range(rad.shape[0])]
    stacked = np.concatenate(mats, axis=1)
    return linalg.row_space(F, linalg.kernel(F, stacked.T))


def _same_radical_and_socle(M):
    for got, want in ((modules.radical_vectors(M), _ref_radical_vectors(M)),
                      (modules.socle_vectors(M), _ref_socle_vectors(M))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_radical_and_socle_equal_per_row_reference(field):
    """On every battery module, the regular module and the zero module,
    and on a semisimple algebra, whose radical has no rows."""
    from siltengine import cli, complexes

    cases = _battery_cases(field)
    cases.append((cli.parse_algebra("vertices 2\n", field), []))
    for A, battery in cases:
        for M in battery + [modules.regular_module(A),
                            modules.simple_module(A, 0),
                            complexes.zero_module(A)]:
            _same_radical_and_socle(M)



@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_projsum_hom_to_spans_hom_space(field):
    """hom_to spans the maps that meet the module-map conditions, as the
    condition-matrix reference solves them."""
    from test_batched_maps import _ref_hom_space

    for A, battery in _battery_cases(field):
        for ps in _proj_sums(A, battery):
            for N in battery + [ps.module]:
                flat = ps.hom_to(N)
                _, want = _ref_hom_space(ps.module, N)
                assert flat.shape[0] == sum(N.dims[c] for c in ps.classes)
                assert linalg.rank(field, flat) == flat.shape[0]
                got = linalg.row_space(field, flat) if flat.shape[0] else \
                    want
                assert np.array_equal(got, want)
                for row in flat:
                    assert modules.map_from_flat(ps.module, N, row).check()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_projsum_offsets_equal_inclusion_apply(field):
    rng = random.Random(3)
    for A, battery in _battery_cases(field):
        for ps in _proj_sums(A, battery):
            for N in battery:
                gens = [
                    field.reduce(field.array(
                        [field.rand(rng) for _ in range(N.total)]
                    ))
                    for _ in ps.classes
                ]
                got = ps.map_to(N, gens)
                want = _ref_map_to(ps, N, gens)
                for c in range(A.nclasses):
                    assert np.array_equal(got.mats[c], want.mats[c])
        pairs = []
        for M in battery:
            psums, dmaps, _ = modules.min_resolution(M, 2)
            pairs += [(psums[i + 1], psums[i], d) for i, d in enumerate(dmaps)]
        # random maps into a sum with repeated classes
        big = _proj_sums(A, [])[A.nclasses]
        for ps in _proj_sums(A, []):
            f = modules.zero_map(ps.module, big.module)
            for row in ps.hom_to(big.module):
                m = modules.map_from_flat(ps.module, big.module, row)
                f = f.add(m.scale(field.rand(rng)))
            pairs.append((ps, big, f))
        for src, tgt, f in pairs:
            got = src.entry_matrix_to(tgt, f)
            want = _ref_entry_matrix_to(src, tgt, f)
            assert len(got) == len(want)
            for grow, wrow in zip(got, want):
                assert len(grow) == len(wrow)
                for g, w in zip(grow, wrow):
                    assert np.array_equal(g, w)


def _same_ext(a, b):
    assert a.dim == b.dim
    assert np.array_equal(a.cocycles, b.cocycles)
    assert np.array_equal(a.coboundaries, b.coboundaries)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_ext_space_fresh_equals_cached_either_order(field, monkeypatch):
    from test_batched_maps import _ref_hom_space

    for A, battery in _battery_cases(field):
        for M in battery:
            up, down = _fresh(M), _fresh(M)
            for N in battery:
                fresh = {d: modules.ext_space(_fresh(M), N, d)
                         for d in (1, 2)}
                _same_ext(modules.ext_space(up, N, 1), fresh[1])
                _same_ext(modules.ext_space(up, N, 2), fresh[2])
                _same_ext(modules.ext_space(down, N, 2), fresh[2])
                _same_ext(modules.ext_space(down, N, 1), fresh[1])
    # the same results as with bases of Hom(P_i, N) solved from the
    # module-map conditions (hom_space itself reads them off hom_to)
    for A, battery in _battery_cases(field):
        got = [[modules.ext_space(M, N, 1) for N in battery]
               for M in battery]
        monkeypatch.setattr(modules.ProjSum, "hom_to",
                            lambda ps, N: _ref_hom_space(ps.module, N)[1])
        for M, row in zip(battery, got):
            for N, ext in zip(battery, row):
                _same_ext(ext, modules.ext_space(_fresh(M), N, 1))
        monkeypatch.undo()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_proj_sum_is_built_once_per_algebra_and_class_list(field):
    from conftest import make_paper_algebra

    from siltengine import complexes

    A = make_paper_algebra(field)
    for cls in ([], [0], [1, 0, 0]):
        assert modules.proj_sum(A, cls) is modules.proj_sum(A, tuple(cls))
        assert modules.proj_sum(A, cls).module.psum is \
            modules.proj_sum(A, cls)
    assert modules.proj_sum(A, [0, 1]) is not modules.proj_sum(A, [1, 0])
    # complexes over the same classes share their terms
    X = complexes.stalk_proj_complex(A, [0, 1])
    Y = complexes.stalk_proj_complex(A, [0, 1], degree=-1)
    assert X.term(0) is Y.term(-1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_simple_module_is_built_once_per_algebra_and_class(field):
    from conftest import make_paper_algebra

    A = make_paper_algebra(field)
    quotients = []
    quotient = modules.quotient_module

    def record(M, vecs):
        quotients.append(M)
        return quotient(M, vecs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "quotient_module", record)
        first = [modules.simple_module(A, c) for c in range(A.nclasses)]
        again = [modules.simple_module(A, c) for c in range(A.nclasses)]
    assert all(x is y for x, y in zip(first, again))
    # one quotient of e_c A per class
    assert [P.pclass for P in quotients] == [0, 1]
    assert [S.dim_vector() for S in first] == [[1, 0], [0, 1]]
    assert modules.simple_module(make_paper_algebra(field), 0) is not first[0]


def test_resolution_is_built_once_and_cut(paper_algebra):
    A = paper_algebra
    assert modules.projective_module(A, 1) is modules.projective_module(A, 1)
    S = _fresh(modules.simple_module(A, 0))
    psums, maps, cover = modules.min_resolution(S, 1)
    assert len(psums) == 2 and len(maps) == 1
    long_psums, long_maps, long_cover = modules.min_resolution(S, 3)
    assert len(long_psums) == 4 and len(long_maps) == 3
    # the longer resolution extends the shorter one
    assert long_cover is cover
    assert long_psums[:2] == psums and long_maps[:1] == maps
    for d, e in zip(long_maps[1:], long_maps):
        assert d.check() and d.compose(e).is_zero()
    P1, P0, d1, cov = modules.min_presentation(S)
    assert (P1, P0, d1, cov) == (psums[1], psums[0], maps[0], cover)
    # the same resolution as one built from scratch
    ref_psums, ref_maps, _ = modules.min_resolution(_fresh(S), 3)
    assert [p.classes for p in ref_psums] == [p.classes for p in long_psums]
    for d, e in zip(ref_maps, long_maps):
        for c in range(A.nclasses):
            assert np.array_equal(d.mats[c], e.mats[c])


# ---- quotient_module against the per-row quotient_coords version ----------


def ref_quotient_coords(F, sub, total_basis, v):
    """The engine's earlier per-vector quotient coordinates, two RREFs a
    vector: coordinates of v in span(total_basis) modulo span(sub), over
    the total_basis rows."""
    sub = linalg.row_space(F, sub)
    if total_basis.shape[0] == 0:
        return F.zeros((0,))
    stacked = (
        np.concatenate([sub, total_basis], axis=0) if sub.shape[0]
        else total_basis
    )
    c = linalg.coords_in_basis(F, stacked, v)
    if c is None:
        raise ValueError("vector not in the spanned space")
    return c[sub.shape[0]:]


def _ref_close_under_action(M, vectors):
    """The engine's earlier closure of a span under the algebra action,
    which quotient_module ran on every span it was given."""
    F = M.field
    if not len(vectors):
        return F.zeros((0, M.total))
    cur = linalg.row_space(
        F, np.stack([np.asarray(v).reshape(-1) for v in vectors], axis=0)
    )
    ops = [_ref_act_total(M, M.A.basis_vec(b)) for b in range(M.A.dim)]
    while True:
        new = cur
        for op in ops:
            new = linalg.sum_spaces(F, new, F.matmul(cur, op))
        if new.shape[0] == cur.shape[0]:
            return new
        cur = new


def _ref_quotient_module(M, sub_vectors):
    F = M.field
    vecs = _ref_close_under_action(M, sub_vectors) if len(sub_vectors) \
        else F.zeros((0, M.total))
    pieces = modules.graded_pieces_of_span(M, vecs)
    comps = [linalg.complement(F, pieces[c], F.eye(M.dims[c]))
             for c in range(M.A.nclasses)]
    dims = [comp.shape[0] for comp in comps]
    act = []
    for b in range(M.A.dim):
        s, t = int(M.A.src[b]), int(M.A.tgt[b])
        img = F.matmul(comps[s], M.act[b])
        m = F.zeros((dims[s], dims[t]))
        for i in range(dims[s]):
            m[i] = ref_quotient_coords(F, pieces[t], comps[t], img[i])
        act.append(m)
    pmats = []
    for c in range(M.A.nclasses):
        pm = F.zeros((M.dims[c], dims[c]))
        for i in range(M.dims[c]):
            pm[i] = ref_quotient_coords(F, pieces[c], comps[c],
                                        F.eye(M.dims[c])[i])
        pmats.append(pm)
    return dims, act, pmats


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_quotient_module_equals_per_row_reference(field):
    rng = random.Random(13)
    for A, battery in _battery_cases(field):
        for M in battery:
            # quotient_module takes submodules only: the random vector
            # goes in closed
            raw = field.array([[field.rand(rng) for _ in range(M.total)]])
            subs = [
                field.zeros((0, M.total)),
                modules.radical_vectors(M),
                modules.socle_vectors(M),
                _ref_close_under_action(M, raw),
                field.eye(M.total),
            ]
            for sub in subs:
                Q, proj = modules.quotient_module(M, sub)
                dims, act, pmats = _ref_quotient_module(M, sub)
                assert Q.dims == dims
                assert all(np.array_equal(x, y) for x, y in zip(Q.act, act))
                assert all(np.array_equal(x, y)
                           for x, y in zip(proj.mats, pmats))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_quotient_module_refuses_a_span_that_is_not_invariant(field):
    """A random vector spans no submodule in general.  quotient_module
    refuses it unless the graded pieces of its span are action invariant,
    and then their sum is the closure, so the quotient is the closure's."""
    rng = random.Random(13)
    refused = 0
    for A, battery in _battery_cases(field):
        for M in battery:
            raw = field.array([[field.rand(rng) for _ in range(M.total)]])
            closed = modules.graded_pieces_of_span(
                M, _ref_close_under_action(M, raw))
            pieces = modules.graded_pieces_of_span(M, raw)
            if all(np.array_equal(p, q) for p, q in zip(pieces, closed)):
                Q, proj = modules.quotient_module(M, raw)
                dims, act, pmats = _ref_quotient_module(M, raw)
                assert Q.dims == dims
                assert all(np.array_equal(x, y) for x, y in zip(Q.act, act))
                assert all(np.array_equal(x, y)
                           for x, y in zip(proj.mats, pmats))
                continue
            refused += 1
            with pytest.raises(RuntimeError, match="not action invariant"):
                modules.quotient_module(M, raw)
    assert refused
