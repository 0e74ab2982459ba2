import random

import numpy as np
import pytest

from siltengine import algebra, linalg
from siltengine.linalg import GF, QQ

from conftest import make_a2_algebra, make_paper_algebra

F = GF(32003)


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
