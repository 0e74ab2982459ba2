import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltengine import linalg
from siltengine.linalg import GF, QQ

F5 = GF(5)
F = GF(32003)


def test_rref_identity_fixed():
    a = F.eye(3)
    r, piv = linalg.rref(F, a)
    assert np.array_equal(r, a)
    assert piv == [0, 1, 2]


def test_rref_zero_fixed():
    a = F.zeros((2, 4))
    r, piv = linalg.rref(F, a)
    assert np.array_equal(r, a)
    assert piv == []


def test_rref_f5_rank_one():
    # [[2,1],[4,2]] over F_5: second row is twice the first
    a = F5.array([[2, 1], [4, 2]])
    r, piv = linalg.rref(F5, a)
    assert piv == [0]
    assert np.array_equal(r, F5.array([[1, 3], [0, 0]]))


def test_solve_substitute_back_f5():
    a = F5.array([[2, 1]])
    res = linalg.solve(F5, a, F5.array([1]))
    assert res is not None
    x, ker = res
    assert np.array_equal(F5.matmul(a, x.reshape(-1, 1)).reshape(-1), F5.array([1]))
    assert ker.shape[0] == 1
    for i in range(ker.shape[0]):
        assert np.all(F5.matmul(a, ker[i].reshape(-1, 1)) == 0)


def test_solve_inconsistent():
    a = F.array([[1, 0], [1, 0]])
    assert linalg.solve(F, a, F.array([1, 2])) is None


def test_quotient_dimension_f5():
    sub = F5.array([[1, 1, 0]])
    comp = linalg.complement(F5, sub, F5.eye(3))
    assert comp.shape[0] == 2
    v = F5.array([0, 1, 2])
    c = linalg.quotient_coords(F5, sub, comp, v)
    # reconstruct v modulo sub
    recon = F5.reduce(np.einsum("i,ij->j", c, comp))
    assert linalg.in_span(F5, sub, F5.reduce(v - recon))


def test_intersection_trivial():
    u = F.array([[1, 0, 0]])
    v = F.array([[0, 1, 0]])
    assert linalg.intersect_spaces(F, u, v).shape[0] == 0


def test_intersection_nontrivial():
    u = F.array([[1, 0, 0], [0, 1, 0]])
    v = F.array([[0, 1, 0], [0, 0, 1]])
    inter = linalg.intersect_spaces(F, u, v)
    assert inter.shape[0] == 1
    assert np.array_equal(inter, F.array([[0, 1, 0]]))


def test_rationals_exact():
    a = QQ.array([[1, 2], [3, 4]])
    inv = linalg.invert(QQ, a)
    assert inv is not None
    prod = QQ.matmul(a, inv)
    assert np.array_equal(prod, QQ.eye(2))
    assert inv[0, 0] == Fraction(-2)
    assert inv[0, 1] == Fraction(1)
    assert inv[1, 0] == Fraction(3, 2)


def test_invert_singular():
    a = F.array([[1, 2], [2, 4]])
    assert linalg.invert(F, a) is None


def _rand_matrix(F, rng, rows, cols):
    a = F.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            a[i, j] = F.rand(rng)
    return F.reduce(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 5))
def test_rref_idempotent(seed, rows, cols):
    rng = random.Random(seed)
    a = _rand_matrix(F, rng, rows, cols)
    r1, piv1 = linalg.rref(F, a)
    r2, piv2 = linalg.rref(F, r1)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 5))
def test_rank_nullity(seed, rows, cols):
    rng = random.Random(seed)
    a = _rand_matrix(F, rng, rows, cols)
    ker = linalg.kernel(F, a)
    assert linalg.rank(F, a) + ker.shape[0] == cols
    for i in range(ker.shape[0]):
        assert np.all(F.matmul(a, ker[i].reshape(-1, 1)) == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4))
def test_row_space_canonical(seed, rows, cols):
    """Shuffling and rescaling rows does not change the canonical basis."""
    rng = random.Random(seed)
    a = _rand_matrix(F, rng, rows, cols)
    perm = list(range(a.shape[0]))
    rng.shuffle(perm)
    b = np.array(a[perm], copy=True)
    scale = rng.randrange(1, F.p)
    b[0] = F.reduce(b[0] * scale)
    assert np.array_equal(linalg.row_space(F, a), linalg.row_space(F, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_invert_roundtrip(seed, n):
    rng = random.Random(seed)
    a = _rand_matrix(F, rng, n, n)
    inv = linalg.invert(F, a)
    if inv is not None:
        assert np.array_equal(F.matmul(a, inv), F.eye(n))
        assert np.array_equal(F.matmul(inv, a), F.eye(n))
    else:
        assert linalg.rank(F, a) < n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4))
def test_sum_intersection_dimension(seed, rows1, rows2):
    rng = random.Random(seed)
    n = 5
    u = linalg.row_space(F, _rand_matrix(F, rng, rows1, n))
    v = linalg.row_space(F, _rand_matrix(F, rng, rows2, n))
    s = linalg.sum_spaces(F, u, v)
    i = linalg.intersect_spaces(F, u, v)
    assert s.shape[0] + i.shape[0] == u.shape[0] + v.shape[0]


# ---- zero-skipping rational product against the dense object dot ---------


def _sparse_rational(rng, rows, cols, density):
    """Object matrix, mostly zeros, mixing int and Fraction entries, with
    whole zero rows and columns now and then."""
    a = np.empty((rows, cols), dtype=object)
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols or rng.random() >= density:
                a[i, j] = rng.choice([0, Fraction(0)])
            elif rng.random() < 0.3:
                a[i, j] = rng.randrange(-5, 6)
            else:
                a[i, j] = QQ.rand(rng)
    return a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6), st.sampled_from([0.0, 0.15, 0.5, 1.0]))
def test_rational_matmul_equals_dense_dot(seed, m, k, n, density):
    rng = random.Random(seed)
    a = _sparse_rational(rng, m, k, density)
    b = _sparse_rational(rng, k, n, density)
    got = QQ.matmul(a, b)
    assert got.shape == (m, n)
    assert np.array_equal(got, a.dot(b))
    assert all(type(x) is Fraction for x in got.reshape(-1))


def test_rational_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        QQ.matmul(QQ.zeros((2, 3)), QQ.zeros((2, 3)))


# ---- factor-once solvers against the loop versions they replaced ---------


def _ref_solve(F, a, b):
    """Single-column solve by one RREF of [a | b] (the loop's building block)."""
    aug = np.concatenate([a, np.asarray(b).reshape(-1, 1)], axis=1)
    r, pivots = linalg.rref(F, aug)
    if a.shape[1] in pivots:
        return None
    x = F.zeros((a.shape[1],))
    for j, pc in enumerate(pivots):
        x[pc] = r[j, -1]
    return x


def _ref_solve_matrix(F, a, b):
    cols = []
    for j in range(b.shape[1]):
        x = _ref_solve(F, a, b[:, j])
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return F.zeros((a.shape[1], 0))
    return np.stack(cols, axis=1)


def _ref_complement(F, sub, whole):
    """Greedy: keep each row of whole that is outside the span so far."""
    cur = linalg.row_space(F, sub)
    comp = []
    for i in range(whole.shape[0]):
        v = whole[i]
        if not linalg.in_span(F, cur, v):
            comp.append(v)
            cur = linalg.sum_spaces(F, cur, v.reshape(1, -1))
    if not comp:
        return F.zeros((0, whole.shape[1]))
    return np.stack(comp, axis=0)


FIELDS = [GF(5), F, QQ]


def _low_rank(F, rng, rows, cols, rank):
    """Random matrix of rank <= rank, so spans and solves often fail."""
    if rank == 0:
        return F.zeros((rows, cols))
    return F.matmul(_rand_matrix(F, rng, rows, rank),
                    _rand_matrix(F, rng, rank, cols))


def _same(x, y):
    if x is None or y is None:
        return x is None and y is None
    return x.shape == y.shape and np.array_equal(x, y)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(FIELDS),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 4),
       st.booleans())
def test_solve_matrix_equals_columnwise_solve(seed, F, rows, cols, ncols,
                                              consistent):
    rng = random.Random(seed)
    a = _low_rank(F, rng, rows, cols, rng.randrange(0, min(rows, cols) + 1))
    if consistent:
        b = F.matmul(a, _rand_matrix(F, rng, cols, ncols))
    else:
        b = _rand_matrix(F, rng, rows, ncols)
    x = linalg.solve_matrix(F, a, b)
    assert _same(x, _ref_solve_matrix(F, a, b))
    for j in range(ncols):
        res = linalg.solve(F, a, b[:, j])
        assert _same(None if res is None else res[0],
                     _ref_solve(F, a, b[:, j]))
    if consistent:
        assert x is not None and np.array_equal(F.matmul(a, x), b)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(FIELDS),
       st.integers(0, 4), st.integers(0, 6), st.integers(1, 5))
def test_complement_equals_greedy_loop(seed, F, nsub, nwhole, n):
    rng = random.Random(seed)
    sub = _low_rank(F, rng, nsub, n, rng.randrange(0, min(nsub, n) + 1))
    whole = _low_rank(F, rng, nwhole, n, rng.randrange(0, n + 1))
    got = linalg.complement(F, sub, whole)
    assert _same(got, _ref_complement(F, sub, whole))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(FIELDS),
       st.integers(0, 4), st.integers(1, 6), st.integers(1, 5))
def test_coords_equals_coords_in_basis(seed, F, k, m, nv):
    rng = random.Random(seed)
    basis = _low_rank(F, rng, k, m, rng.randrange(0, min(k, m) + 1))
    if linalg.rank(F, basis) < k:
        with pytest.raises(ValueError, match="dependent"):
            linalg.Coords(F, basis)
        return
    coords = linalg.Coords(F, basis)
    vs = F.matmul(_rand_matrix(F, rng, nv, k), basis)
    if rng.random() < 0.5:
        vs[rng.randrange(nv)] = _rand_matrix(F, rng, 1, m)[0]
    rows = [linalg.coords_in_basis(F, basis, vs[i]) for i in range(nv)]
    want = None if any(r is None for r in rows) else np.stack(rows)
    assert _same(coords.of(vs), want)


def test_coords_rejects_dependent_basis():
    with pytest.raises(ValueError, match="dependent"):
        linalg.Coords(F5, F5.array([[1, 2, 0], [2, 4, 0]]))


# ---- algebra products against the einsum forms they replaced -------------


def _ref_el_mult(A, x, y):
    return A.field.reduce(np.einsum("i,j,ijk->k", x, y, A.mult))


def _ref_pair_space(A, e, f):
    vecs = [_ref_el_mult(A, e, _ref_el_mult(A, A.basis_vec(b), f))
            for b in range(A.dim)]
    return linalg.row_space(A.field, np.stack(vecs, axis=0))


def _fixture_algebras(field):
    from conftest import make_a2_algebra, make_a3_algebra, make_paper_algebra

    out = []
    for make in (make_a2_algebra, make_a3_algebra, make_paper_algebra):
        A = make(field)
        out += [A, A.opposite()]
    return out


def _rand_element(A, rng):
    return A.field.reduce(
        A.field.array([A.field.rand(rng) for _ in range(A.dim)])
    )


@pytest.mark.parametrize("field", [F, QQ], ids=["GF32003", "Q"])
def test_matrix_product_algebra_forms_equal_einsum(field):
    rng = random.Random(7)
    for A in _fixture_algebras(field):
        idems = [e for g in A.decompose_identity() for e in g]
        elements = idems + [A.unit(), _rand_element(A, rng)]
        for x in elements:
            assert np.array_equal(A.corner_subalgebra(x),
                                  _ref_pair_space(A, x, x))
            for y in elements:
                assert np.array_equal(A.el_mult(x, y), _ref_el_mult(A, x, y))
                assert np.array_equal(A._corner_pair_space(x, y),
                                      _ref_pair_space(A, x, y))


def test_gf_refuses_p_at_least_2_to_the_24():
    # int64 products of (p - 1)^2 terms would overflow: in GF(2^31 - 1)
    # [p-1]*3 . [p-1]*3 came out as p - 1 instead of 3
    for p in (2147483647, 2 ** 24 + 43, 2 ** 24):
        with pytest.raises(linalg.FieldTooLargeError):
            GF(p)
    with pytest.raises(ValueError, match="not a prime"):
        GF(2 ** 24 - 1)


def test_gf_largest_prime_is_exact_up_to_inner_dimension_2_to_the_15():
    p = 16777213
    G = GF(p)
    assert G.matmul(G.array([[p - 1] * 3]), G.array([[p - 1]] * 3))[0, 0] == 3
    n = 2 ** 15
    a = G.array(np.full((1, n), p - 1))
    b = G.array(np.full((n, 1), p - 1))
    assert G.matmul(a, b)[0, 0] == n % p


# ---- the seeded search ----------------------------------------------------


def _drawn(F, rng, n):
    return [F.rand(rng) for _ in range(n)]


@pytest.mark.parametrize("field", [F, QQ], ids=["GF32003", "Q"])
def test_candidates_yield_rows_then_lazy_combinations(field):
    basis = _rand_matrix(field, random.Random(1), 3, 5)
    rng, ref = random.Random(2), random.Random(2)
    gen = linalg.candidates(field, basis, rng, 4)
    for i in range(3):
        assert np.array_equal(next(gen), basis[i])
        assert rng.getstate() == ref.getstate()
    # each combination draws its len(basis) coefficients when reached
    for _ in range(4):
        c = _drawn(field, ref, 3)
        assert np.array_equal(next(gen),
                              field.matmul(field.array([c]), basis)[0])
        assert rng.getstate() == ref.getstate()
    assert next(gen, None) is None


@pytest.mark.parametrize("field", [F, QQ], ids=["GF32003", "Q"])
def test_candidates_eager_draws_everything_at_the_first_next(field):
    basis = _rand_matrix(field, random.Random(1), 3, 5)
    rng, ref = random.Random(2), random.Random(2)
    gen = linalg.candidates(field, basis, rng, 4, eager=True)
    assert rng.getstate() == ref.getstate()
    assert np.array_equal(next(gen), basis[0])
    coeffs = [_drawn(field, ref, 3) for _ in range(4)]
    assert rng.getstate() == ref.getstate()
    rest = list(gen)
    assert rng.getstate() == ref.getstate()
    assert len(rest) == 2 + 4
    for row, c in zip(rest[2:], coeffs):
        assert np.array_equal(row, field.matmul(field.array([c]), basis)[0])


def test_candidates_of_an_empty_basis_draw_nothing():
    for field in (F, QQ):
        rng, ref = random.Random(3), random.Random(3)
        out = list(linalg.candidates(field, field.zeros((0, 4)), rng, 5))
        assert len(out) == 5
        assert all(np.array_equal(v, field.zeros((4,))) for v in out)
        assert rng.getstate() == ref.getstate()
