import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from siltengine import algebra, linalg
from siltengine.linalg import GF, RationalField

from conftest import make_a2_algebra, make_a3_algebra, make_paper_algebra

F = GF(32003)
QQ = RationalField()


def bidx(alg, label):
    return alg.labels.index(label)


def test_paper_algebra_basis(paper_algebra):
    A = paper_algebra
    # hand count: 2 trivial + 2 arrows + 2 length-two paths; the two
    # length-three paths are the relations
    assert A.dim == 6
    assert sorted(A.labels) == sorted(
        ["e1", "e2", "alpha", "beta", "alpha.beta", "beta.alpha"]
    )


def test_paper_algebra_multiplication(paper_algebra):
    A = paper_algebra
    al = A.basis_vec(bidx(A, "alpha"))
    be = A.basis_vec(bidx(A, "beta"))
    ab = A.basis_vec(bidx(A, "alpha.beta"))
    ba = A.basis_vec(bidx(A, "beta.alpha"))
    assert np.array_equal(A.el_mult(al, be), ab)
    assert np.array_equal(A.el_mult(be, al), ba)
    # relations hold
    assert np.all(A.el_mult(ab, al) == 0)
    assert np.all(A.el_mult(ba, be) == 0)
    # left-to-right composition: alpha (1->2) then beta (2->1) starts at 1
    # (class indices are 0-based)
    assert A.src[bidx(A, "alpha.beta")] == 0
    assert A.tgt[bidx(A, "alpha.beta")] == 0


def test_paper_algebra_radical(paper_algebra):
    A = paper_algebra
    rad = A.radical()
    assert rad.shape[0] == 4
    for lbl in ("alpha", "beta", "alpha.beta", "beta.alpha"):
        assert linalg.in_span(A.field, rad, A.basis_vec(bidx(A, lbl)))
    assert A.radical_square().shape[0] == 2


def test_paper_algebra_gabriel_quiver(paper_algebra):
    n, counts = paper_algebra.gabriel_quiver_report()
    assert n == 2
    assert counts.tolist() == [[0, 1], [1, 0]]


def test_paper_algebra_corner_inverse(paper_algebra):
    A = paper_algebra
    e1 = A.idem_vec(0)
    ab = A.basis_vec(bidx(A, "alpha.beta"))
    x = A.field.reduce(e1 + ab)
    y = A.corner_inverse(x, 0)
    # (e1 + ab)^-1 = e1 - ab because ab*ab = 0
    assert y is not None
    assert np.array_equal(y, A.field.reduce(e1 - ab))
    assert A.corner_inverse(ab, 0) is None


def test_a2_algebra(a2_algebra):
    A = a2_algebra
    assert A.dim == 3
    assert A.radical().shape[0] == 1
    n, counts = A.gabriel_quiver_report()
    assert n == 2
    assert counts.tolist() == [[0, 1], [0, 0]]


def test_a2_over_rationals():
    A = make_a2_algebra(QQ)
    assert A.dim == 3
    assert A.radical().shape[0] == 1
    assert A.check_associative()


def test_a3_algebra(a3_algebra):
    A = a3_algebra
    # e1, e2, e3, a, b, a.b
    assert A.dim == 6
    ab = A.el_mult(A.basis_vec(bidx(A, "a")), A.basis_vec(bidx(A, "b")))
    assert np.array_equal(ab, A.basis_vec(bidx(A, "a.b")))


def test_loop_algebra(loop_algebra):
    A = loop_algebra
    assert A.dim == 2
    x = A.basis_vec(bidx(A, "x"))
    assert np.all(A.el_mult(x, x) == 0)
    assert A.radical().shape[0] == 1


def test_not_nilpotent_error():
    q = algebra.Quiver(1, [("x", 1, 1)])
    with pytest.raises(algebra.NotNilpotentError):
        algebra.build_algebra(F, q, [], 3)


def test_field_too_small():
    A = make_paper_algebra(GF(5))
    with pytest.raises(algebra.FieldTooSmallError):
        A.radical()


def test_unit_and_idempotents(paper_algebra):
    A = paper_algebra
    one = A.unit()
    for i in range(A.dim):
        v = A.basis_vec(i)
        assert np.array_equal(A.el_mult(one, v), v)
        assert np.array_equal(A.el_mult(v, one), v)


def test_opposite(paper_algebra):
    A = paper_algebra
    B = A.opposite()
    assert B.check_associative()
    al = A.basis_vec(bidx(A, "alpha"))
    be = A.basis_vec(bidx(A, "beta"))
    # (alpha * beta) in A^op equals beta * alpha in A
    assert np.array_equal(B.el_mult(al, be), A.el_mult(be, al))
    assert B.src[bidx(A, "alpha")] == A.tgt[bidx(A, "alpha")]


def test_decompose_identity_basic(paper_algebra):
    groups = paper_algebra.decompose_identity()
    assert len(groups) == 2
    assert all(len(g) == 1 for g in groups)
    total = paper_algebra.field.reduce(sum(g[0] for g in groups))
    assert np.array_equal(total, paper_algebra.unit())
    assert paper_algebra.is_basic()


def matrix_units_algebra(field):
    """2x2 matrix algebra via structure constants, basis E11,E12,E21,E22."""
    labels = ["E11", "E12", "E21", "E22"]
    src = [0, 0, 1, 1]
    tgt = [0, 1, 0, 1]
    mult = field.zeros((4, 4, 4))
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (i, j), a in pos.items():
        for (k, l), b in pos.items():
            if j == k:
                mult[a, b, pos[(i, l)]] = 1
    return algebra.structure_constant_algebra(
        field, labels, src, tgt, mult, [0, 3], 2
    )


def test_matrix_algebra_idempotent_grouping():
    A = matrix_units_algebra(F)
    assert A.radical().shape[0] == 0
    groups = A.decompose_identity()
    assert len(groups) == 1
    assert len(groups[0]) == 2
    assert not A.is_basic()


def test_operator_min_poly_oracles():
    # nilpotent Jordan block: minimal polynomial z^2
    m = F.array([[0, 1], [0, 0]])
    assert algebra.operator_min_poly(F, m) == [0, 0, 1]
    # identity: z - 1
    assert algebra.operator_min_poly(F, F.eye(3)) == [F.p - 1, 1]
    # diag(0, 1): z^2 - z
    d = F.array([[0, 0], [0, 1]])
    assert algebra.operator_min_poly(F, d) == [0, F.p - 1, 1]


def test_split_by_min_poly_projection():
    d = F.array([[0, 0], [0, 1]])
    e = algebra.split_by_min_poly(
        F, d, d, F.eye(2), lambda a, b: F.matmul(a, b)
    )
    assert e is not None
    assert np.array_equal(F.matmul(e, e), e)
    assert not np.all(e == 0)
    assert not np.array_equal(e, F.eye(2))


def test_split_by_min_poly_checks_idempotent():
    """The e*e = e check raises, so it also runs under python -O."""
    d = F.array([[0, 0], [0, 1]])

    def mult(a, b):  # right for powers of d, wrong for the final e*e check
        return F.matmul(a, b) if b is d else F.zeros(a.shape)

    with pytest.raises(RuntimeError, match="idempotent construction"):
        algebra.split_by_min_poly(F, d, d, F.eye(2), mult)


def test_element_from_paths(paper_algebra):
    A = paper_algebra
    v = algebra.element_from_paths(A, [(1, ["alpha", "beta"])])
    assert np.array_equal(v, A.basis_vec(bidx(A, "alpha.beta")))
    w = algebra.element_from_paths(
        A, [(2, ["alpha"]), (1, ["alpha", "beta", "alpha"])]
    )
    assert np.array_equal(w, A.field.reduce(2 * A.basis_vec(bidx(A, "alpha"))))


def test_min_poly_random_annihilates():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(1, 5)
        m = F.reduce(
            np.array([[F.rand(rng) for _ in range(n)] for _ in range(n)])
        )
        coeffs = algebra.operator_min_poly(F, m)
        acc = F.zeros((n, n))
        power = F.eye(n)
        for c in coeffs:
            acc = F.reduce(acc + c * power)
            power = F.matmul(power, m)
        assert np.all(acc == 0)
        assert coeffs[-1] == 1


# ---- products, associativity and idempotent candidates against the dense
# and eager forms they replaced, kept here as references; min polys against
# sympy, which the tests keep as an oracle ----------------------------------

FIELDS = [F, QQ]
FIELD_IDS = ["GF32003", "Q"]


def _ref_lm(A, x):
    d = A.dim
    return A.field.reduce(x @ A.mult.reshape(d, d * d)).reshape(d, d)


def _ref_rm(A, x):
    return A.field.reduce(np.einsum("j,ijk->ik", x, A.mult))


def _ref_el_mult(A, x, y):
    return A.field.reduce(y @ _ref_lm(A, x))


def _ref_check_associative(A):
    lhs = np.einsum("ijm,mkl->ijkl", A.mult, A.mult)
    rhs = np.einsum("jkm,iml->ijkl", A.mult, A.mult)
    return bool(np.all(A.field.reduce(lhs - rhs) == 0))


def _sympy_poly(F, coeffs):
    """sympy Poly in z from field scalars, low to high."""
    from sympy.abc import z

    high_to_low = list(reversed(coeffs))
    if isinstance(F, linalg.GF):
        return sympy.Poly([int(c) for c in high_to_low], z,
                          modulus=F.p, symmetric=False)
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in high_to_low],
        z, domain="QQ",
    )


def _ref_candidates(A, e, rng):
    """Every candidate formed before the first is tried; None when eAe is
    local."""
    F = A.field
    corner = A.corner_subalgebra(e)
    inter = linalg.intersect_spaces(F, corner, A.radical())
    if corner.shape[0] - inter.shape[0] == 1:
        return None
    candidates = [corner[i] for i in range(corner.shape[0])]
    for _ in range(48):
        coeffs = [F.rand(rng) for _ in range(corner.shape[0])]
        candidates.append(
            F.reduce(sum(c * corner[i] for i, c in enumerate(coeffs))))
    return candidates


def _ref_split_idempotent(A, e, rng):
    candidates = _ref_candidates(A, e, rng)
    if candidates is None:
        return None
    for x in candidates:
        u = algebra.split_by_min_poly(
            A.field, x, _ref_lm(A, x), e, lambda a, b: _ref_el_mult(A, a, b))
        if u is not None:
            return u
    raise algebra.SplitNotFoundError("no splitting element found")


def _ref_idempotents_isomorphic(A, e, f, rng):
    F = A.field
    eAf = A._corner_pair_space(e, f)
    fAe = A._corner_pair_space(f, e)
    if eAf.shape[0] == 0 or fAe.shape[0] == 0:
        return False
    trials = [eAf[i] for i in range(eAf.shape[0])]
    for _ in range(24):
        coeffs = [F.rand(rng) for _ in range(eAf.shape[0])]
        trials.append(F.reduce(sum(c * eAf[i] for i, c in enumerate(coeffs))))
    for u in trials:
        a = np.concatenate([fAe @ _ref_lm(A, u), fAe @ _ref_rm(A, u)], axis=1)
        b = np.concatenate([e, f])
        if linalg.solve(F, F.reduce(a).T, b) is not None:
            return True
    return False


def _ref_decompose_identity(A, rng):
    prims = []
    stack = [A.idem_vec(c) for c in range(A.nclasses)]
    while stack:
        e = stack.pop(0)
        u = _ref_split_idempotent(A, e, rng)
        if u is None:
            prims.append(e)
        else:
            stack = [u, A.field.reduce(e - u)] + stack
    groups = []
    for e in prims:
        for g in groups:
            if _ref_idempotents_isomorphic(A, g[0], e, rng):
                g.append(e)
                break
        else:
            groups.append([e])
    return groups


def matrix_span_algebra(field, mats):
    """One-class algebra on the span of square matrices closed under
    products; mats[0] is the identity and the class idempotent."""
    n = len(mats[0])
    flat = field.array([np.asarray(m).reshape(-1) for m in mats])
    d = flat.shape[0]
    mult = field.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            prod = field.matmul(flat[i].reshape(n, n), flat[j].reshape(n, n))
            mult[i, j] = linalg.coords_in_basis(field, flat, prod.reshape(-1))
    return algebra.structure_constant_algebra(
        field, ["m%d" % i for i in range(d)], [0] * d, [0] * d, mult, [0], 1)


# M_2 on a basis whose non-identity members have minimal polynomials
# z^2 + 1, z^2 - 2 and z^2 - z + 1, irreducible over GF(32003): only the
# random combinations can split 1.  Over Q a random combination almost
# never has a split minimal polynomial, so the search refuses that basis
# (see test_split_search_over_q_refuses_without_a_verdict) and the Q basis
# ends in E22.
M2_IRREDUCIBLE_BASIS = [
    [[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[0, 1], [2, 0]], [[1, 1], [-1, 0]],
]
M2_BASIS = M2_IRREDUCIBLE_BASIS[:3] + [[[0, 0], [0, 1]]]
# upper triangular 2 x 2 matrices: E22 splits 1, the two halves differ
T2_BASIS = [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]]


def _algebras(field):
    out = []
    for make in (make_a2_algebra, make_a3_algebra, make_paper_algebra):
        A = make(field)
        out += [A, A.opposite()]
    out.append(matrix_units_algebra(field))
    out.append(matrix_span_algebra(field, M2_BASIS))
    if field == F:
        out.append(matrix_span_algebra(field, M2_IRREDUCIBLE_BASIS))
    out.append(matrix_span_algebra(field, T2_BASIS))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_lm_rm_equal_dense_forms(field):
    rng = random.Random(3)
    for A in _algebras(field):
        elements = [A.basis_vec(b) for b in range(A.dim)]
        elements += [A.unit(), field.zeros((A.dim,))]
        elements += [
            field.array([field.rand(rng) for _ in range(A.dim)])
            for _ in range(3)
        ]
        for x in elements:
            assert np.array_equal(A.lm(x), _ref_lm(A, x))
            assert np.array_equal(A.rm(x), _ref_rm(A, x))
            for y in elements[:A.dim]:
                assert np.array_equal(A.el_mult(x, y), _ref_el_mult(A, x, y))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_radical_equals_einsum_trace_form(field):
    for A in _algebras(field):
        t = field.reduce(np.einsum("ijj->i", A.mult))
        gram = field.reduce(np.einsum("ijk,k->ij", A.mult, t))
        want = linalg.row_space(field, linalg.kernel(field, gram.T))
        assert np.array_equal(A.radical(), want)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_check_associative_detects_one_perturbed_entry(field):
    rng = random.Random(5)
    for A in _algebras(field):
        assert A.check_associative() and _ref_check_associative(A)
        d = A.dim
        e = A.idem[0]
        # e * e = 2e breaks (e * e) * b = e * (e * b) for b = e
        positions = [(e, e, e)] + [
            (rng.randrange(d), rng.randrange(d), rng.randrange(d))
            for _ in range(4)
        ]
        for pos in positions:
            mult = np.array(A.mult, copy=True)
            mult[pos] = field.reduce(field.array([mult[pos] + 1]))[0]
            B = algebra.Algebra(field, A.labels, A.src, A.tgt, mult, A.idem,
                                A.nclasses)
            assert B.check_associative() == _ref_check_associative(B)
            if pos == (e, e, e):
                assert not B.check_associative()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_identity_equals_eager_candidates(field, seed):
    for A in _algebras(field):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = A.decompose_identity(rng)
        want = _ref_decompose_identity(A, ref_rng)
        assert [len(g) for g in got] == [len(g) for g in want]
        for g, h in zip(got, want):
            for x, y in zip(g, h):
                assert np.array_equal(x, y)
        assert rng.getstate() == ref_rng.getstate()


def test_matrix_span_algebras_split_as_expected():
    cases = [(F, M2_IRREDUCIBLE_BASIS, [2])]
    for field in FIELDS:
        cases += [(field, M2_BASIS, [2]), (field, T2_BASIS, [1, 1])]
    for field, basis, sizes in cases:
        groups = matrix_span_algebra(field, basis).decompose_identity()
        assert [len(g) for g in groups] == sizes


def test_split_search_over_q_refuses_without_a_verdict():
    """M_2(Q) is split, but no basis element and no random combination of
    M2_IRREDUCIBLE_BASIS has a reducible min poly: the search gives up and
    says so, without claiming the algebra does not split."""
    A = matrix_span_algebra(QQ, M2_IRREDUCIBLE_BASIS)
    with pytest.raises(algebra.SplitNotFoundError) as info:
        A.decompose_identity()
    msg = str(info.value)
    assert "seeded idempotent search" in msg and "52 trials" in msg
    assert "does not show the algebra is non-split over QQ" in msg
    assert not isinstance(info.value, RuntimeError)


def _sympy_factors(F, coeffs):
    """sympy's `factor_list` of a monic polynomial, as (coefficients low to
    high, multiplicity) pairs: monic over GF(p), primitive integer over Q."""
    poly = _sympy_poly(F, coeffs)
    return [([int(c) for c in reversed(g.all_coeffs())], m)
            for g, m in poly.factor_list()[1]]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_factor_equals_sympy_on_min_polys(field):
    """The min poly of every basis element of every test algebra, and some
    random monic polys, factor as sympy factors them, in its order."""
    p = field.p if isinstance(field, GF) else None
    rng = random.Random(11)
    cases = [[field.rand(rng) for _ in range(n)] + [1] for n in range(6)]
    cases += [[0, 0, 1], [1, 1], [0, 1]]
    for A in _algebras(field):
        for b in range(A.dim):
            cases.append(algebra.operator_min_poly(field, A.lm(A.basis_vec(b))))
    for coeffs in cases:
        coeffs = algebra._normalize_poly(field, coeffs)
        assert algebra._factor(coeffs, p) == _sympy_factors(field, coeffs)


# ---- idempotents from min polys against the sympy body they replaced over
# GF(p), kept here as a reference ------------------------------------------


def _ref_operator_min_poly(F, m):
    """operator_min_poly from the powers of m, in dim^2 coordinates."""
    n = m.shape[0]
    powers = [F.eye(n).reshape(-1)]
    cur = F.eye(n)
    while True:
        cur = F.matmul(cur, m)
        v = cur.reshape(-1)
        sol = linalg.coords_in_basis(F, np.stack(powers, axis=0), v)
        if sol is not None:
            coeffs = [-sol[i] for i in range(len(powers))] + [1]
            return algebra._normalize_poly(F, coeffs)
        powers.append(v)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_min_poly_from_unit_equals_matrix_reference(field, monkeypatch):
    """The min poly of lm(x) read off the powers of 1_A equals the one
    read off the powers of lm(x), on every candidate the idempotent
    search tries, also below an idempotent e != 1, where x's min poly in
    eAe lacks the factor z."""
    calls = []
    split = algebra.split_by_min_poly

    def record(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(algebra, "split_by_min_poly", record)
    # upper triangular 3 x 3 matrices: 1 splits into three idempotents,
    # so the search runs again below one of its halves
    t3 = [np.eye(3, dtype=int)]
    for i, j in ((0, 1), (0, 2), (1, 2), (1, 1), (2, 2)):
        t3.append(np.zeros((3, 3), dtype=int))
        t3[-1][i, j] = 1
    algebras = _algebras(field) + [matrix_span_algebra(field, t3)]
    for A, seed in itertools.product(algebras, range(3)):
        A.decompose_identity(random.Random(seed))
    monkeypatch.undo()
    below = 0
    for _, x, op, e, _, start in calls:
        assert algebra.operator_min_poly(field, op, start) == \
            _ref_operator_min_poly(field, op)
        below += not np.array_equal(e, start[0])
    assert below


def _ref_split_by_min_poly(F, x, op_matrix, unit, mult_fn):
    def scalar(c):
        if isinstance(F, linalg.GF):
            return int(c) % F.p
        return Fraction(int(sympy.numer(c)), int(sympy.denom(c)))

    mp = algebra.operator_min_poly(F, op_matrix)
    poly = _sympy_poly(F, mp)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return None
    f = factors[0][0] ** factors[0][1]
    g = poly.quo(f)
    _, v_poly, gc = sympy.gcdex(f, g)
    if not gc.is_one:
        return None
    vg = (v_poly * g).rem(poly)
    e = F.zeros(unit.shape)
    power = unit
    for c in reversed(vg.all_coeffs()):
        e = F.reduce(e + scalar(c) * power)
        power = mult_fn(power, x)
    if bool(np.all(e == 0)) or bool(np.all(F.reduce(e - unit) == 0)):
        return None
    if not np.all(F.reduce(mult_fn(e, e) - e) == 0):
        raise RuntimeError("idempotent construction")
    return e


def _same_split(F, x, op_matrix, unit, mult_fn):
    got = algebra.split_by_min_poly(F, x, op_matrix, unit, mult_fn)
    want = _ref_split_by_min_poly(F, x, op_matrix, unit, mult_fn)
    if want is None:
        return got is None
    return got is not None and np.array_equal(got, want)


def test_split_by_min_poly_equals_sympy_on_every_candidate():
    """Every candidate the splitting search draws, on every idempotent the
    decomposition meets, gives the same idempotent or None, over GF(32003)
    and over Q."""
    tried = {}
    for field in FIELDS:
        tried[field] = 0
        for A, seed in itertools.product(_algebras(field), range(3)):
            rng = random.Random(seed)
            mult = functools.partial(_ref_el_mult, A)
            stack = [A.idem_vec(c) for c in range(A.nclasses)]
            while stack:
                e = stack.pop(0)
                candidates = _ref_candidates(A, e, rng)
                if candidates is None:
                    continue
                first = None
                for x in candidates:
                    assert _same_split(field, x, _ref_lm(A, x), e, mult)
                    if first is None:
                        first = algebra.split_by_min_poly(
                            field, x, A.lm(x), e, mult)
                    tried[field] += 1
                assert first is not None
                stack = [first, field.reduce(e - first)] + stack
    assert tried == {F: 465, QQ: 309}


def _companion(F, coeffs):
    """Companion matrix (acting on row vectors) of a monic polynomial, low
    to high: its minimal polynomial is the polynomial itself."""
    n = len(coeffs) - 1
    m = F.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = 1
    m[n - 1] = F.array([-c for c in coeffs[:-1]])
    return m


def _random_monic(rng, p):
    """A random monic polynomial of degree 1..8 over GF(p), low to high:
    either uniform or a product of powers of random low-degree factors,
    so that repeated and p-th power factors occur."""
    if rng.random() < 0.5:
        return [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
    out = [1]
    while len(out) < 4:
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
        for _ in range(rng.choice([1, 1, 2, 3, p if p < 5 else 1])):
            if len(out) + len(f) - 1 > 9:
                break
            out = [int(c) % p for c in np.convolve(out, f)]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 32003, 16777213])
def test_gf_factor_and_split_equal_sympy_on_random_polys(p):
    """The factor order is sympy's `factor_list` order, and the idempotent
    split off a companion matrix is the sympy reference's."""
    from sympy.abc import z

    field = GF(p)
    rng = random.Random(p)
    for _ in range(40):
        coeffs = _random_monic(rng, p)
        poly = sympy.Poly(list(reversed(coeffs)), z, modulus=p,
                          symmetric=False)
        want = [([int(c) % p for c in reversed(g.all_coeffs())], m)
                for g, m in poly.factor_list()[1]]
        assert algebra._factor(coeffs, p) == want
        m = _companion(field, coeffs)
        assert _same_split(field, m, m, field.eye(len(coeffs) - 1),
                           field.matmul)


# z^4 - 10 z^2 + 1, the min poly of sqrt 2 + sqrt 3, is irreducible over Q
# but splits mod every prime, so its factors mod p must be recombined
SWINNERTON_DYER = [1, 0, -10, 0, 1]
Q_POLYS = [
    SWINNERTON_DYER,
    [-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [1, -1, 0, 1],  # irreducible
    [2, 0, -3, 0, 1],  # (z^2 - 1)(z^2 - 2)
    [-1, 0, 0, 0, 0, 0, 1],  # z^6 - 1
    [0, 0, 0, 1],  # z^3
]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_rational_monic(rng):
    """A random monic polynomial of degree 2..9 over Q, low to high: a
    product of powers of random factors of degree 1..3, a quarter of them
    with numerators and denominators up to about 10^12, so that repeated
    factors, irreducible quadratics and cubics and large coefficients
    occur."""
    out = [Fraction(1)]
    while len(out) < 3:
        big = rng.random() < 0.25
        top, den = (10 ** 12, 10 ** 12) if big else (9, 4)
        f = [Fraction(rng.randint(-top, top), rng.randint(1, den))
             for _ in range(rng.randrange(1, 4))] + [1]
        for _ in range(rng.choice([1, 1, 2, 3])):
            if len(out) + len(f) - 1 > 10:
                break
            out = _mul(out, f)
    return out


def test_q_factor_and_split_equal_sympy_on_random_polys():
    """Zassenhaus over Q gives sympy's `factor_list` (factors,
    multiplicities and order), and the idempotent split off a companion
    matrix is the sympy reference's."""
    rng = random.Random(14)
    polys = [[Fraction(c) for c in coeffs] for coeffs in Q_POLYS]
    polys += [_mul(SWINNERTON_DYER, [-1, 1]), _mul(Q_POLYS[1], Q_POLYS[1])]
    polys += [_random_rational_monic(rng) for _ in range(60)]
    for coeffs in polys:
        coeffs = [Fraction(c) for c in coeffs]
        assert algebra._factor(coeffs) == _sympy_factors(QQ, coeffs)
        m = _companion(QQ, coeffs)
        assert _same_split(QQ, m, m, QQ.eye(len(coeffs) - 1), QQ.matmul)
    assert algebra._factor([Fraction(c) for c in SWINNERTON_DYER]) == [
        (SWINNERTON_DYER, 1)]
