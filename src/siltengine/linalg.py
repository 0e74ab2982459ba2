"""Exact dense linear algebra over a prime field or the rationals.

All matrices are numpy arrays: int64 entries reduced to [0, p) for GF(p),
Fraction objects for the rationals.  Subspaces are represented by matrices
whose rows form a basis; canonical form is the reduced row echelon form with
zero rows dropped, so equal subspaces compare equal entrywise.

Solves factor once and solve many: `solve_matrix` reduces `[a | b]` once
for every column of b, and `coords_in_basis`, `in_span` and `solve` are
one-column cases of it.  `Coords` factors a basis of independent rows once
and then gives the coordinates of a whole batch of vectors with one matrix
product, checked by multiplying back.  `complement` picks its rows from
the pivot columns of one reduction.

Products go through `F.matmul`.  Over GF(p) it is a plain int64 `@`
reduced mod p.  Over Q it skips zeros: each nonzero a[i, k] scales the
nonzero entries of row k of b, so a product costs one Fraction
multiply-add per pair of nonzero factors instead of one per term of the
dense sum, most of which are zero in the sparse structure-constant and
action matrices the engine multiplies.

`candidates` is the engine's one seeded search: the rows of a basis, then
random combinations of them, with every random coefficient drawn there.
"""

from fractions import Fraction

import numpy as np
import sympy


class FieldTooLargeError(ValueError):
    """A prime too large for exact int64 arithmetic."""


class GF:
    """Prime field F_p with p < 2^24.

    Every product of two reduced matrices is taken in int64 before it is
    reduced, so (p - 1)^2 * n must stay below 2^63 for an inner dimension n;
    with p < 2^24 that holds for every n <= 2^15.
    """

    MAX_P = 2 ** 24

    def __init__(self, p):
        if p >= self.MAX_P:
            raise FieldTooLargeError(
                "p = %d is not below 2^24 = %d" % (p, self.MAX_P)
            )
        if not sympy.isprime(p):
            raise ValueError("p = %d is not a prime" % p)
        self.p = p

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def array(self, data):
        return np.asarray(data, dtype=np.int64) % self.p

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n):
        return np.eye(n, dtype=np.int64)

    def reduce(self, arr):
        return arr % self.p

    def inv(self, a):
        return pow(int(a), self.p - 2, self.p)

    def matmul(self, a, b):
        return (a @ b) % self.p

    def neg(self, arr):
        return (-arr) % self.p

    def rand(self, rng):
        return rng.randrange(self.p)


class RationalField:
    """Arbitrary-precision rationals via Fraction object arrays."""

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def array(self, data):
        a = np.asarray(data)
        out = np.empty(a.shape, dtype=object)
        flat_out, flat_in = out.reshape(-1), a.reshape(-1)
        for i in range(flat_in.size):
            flat_out[i] = Fraction(flat_in[i])
        return out

    def zeros(self, shape):
        out = np.empty(shape, dtype=object)
        out.fill(_ZERO)
        return out

    def eye(self, n):
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = Fraction(1)
        return out

    def reduce(self, arr):
        return arr

    def inv(self, a):
        return Fraction(1) / a

    def matmul(self, a, b):
        """a @ b, one multiply-add per pair of nonzero factors.

        For each nonzero a[i, k], a[i, k] * b[k, S_k] is added into
        out[i, S_k], with S_k the nonzero columns of row k of b, found
        once per call and only for the rows a touches.  Every entry of
        the result is a Fraction.
        """
        if a.shape[1] != b.shape[0]:
            raise ValueError("shape mismatch")
        out = self.zeros((a.shape[0], b.shape[1]))
        # astype(bool) tests each entry with Fraction.__bool__, which is
        # cheaper than comparing with 0
        rows, ks = np.nonzero(a.astype(bool))
        support = {
            k: np.flatnonzero(b[k].astype(bool)) for k in set(ks.tolist())
        }
        for i, k in zip(rows.tolist(), ks.tolist()):
            s = support[k]
            if s.size:
                out[i, s] += a[i, k] * b[k, s]
        return out

    def neg(self, arr):
        return -arr

    def rand(self, rng):
        return Fraction(rng.randrange(-100, 101), rng.randrange(1, 20))


QQ = RationalField()
_ZERO = Fraction(0)


def rref(F, a):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    a = F.reduce(np.array(a, copy=True))
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        k = r
        while k < nrows and a[k, c] == 0:
            k += 1
        if k == nrows:
            continue
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = F.reduce(a[r] * F.inv(a[r, c]))
        for i in range(nrows):
            if i != r and a[i, c] != 0:
                a[i] = F.reduce(a[i] - a[i, c] * a[r])
        pivots.append(c)
        r += 1
    return a, pivots


def rank(F, a):
    if a.size == 0:
        return 0
    return len(rref(F, a)[1])


def row_space(F, a):
    """Canonical basis of the row space (RREF with zero rows dropped)."""
    if a.shape[0] == 0:
        return F.zeros((0, a.shape[1]))
    r, pivots = rref(F, a)
    return r[: len(pivots)]


def kernel(F, a):
    """Basis (as rows) of the right null space {x : a @ x = 0}."""
    nrows, ncols = a.shape
    if ncols == 0:
        return F.zeros((0, 0))
    r, pivots = rref(F, a)
    free = [c for c in range(ncols) if c not in pivots]
    out = F.zeros((len(free), ncols))
    for i, c in enumerate(free):
        out[i, c] = 1
        for j, pc in enumerate(pivots):
            out[i, pc] = F.reduce(-r[j, c])
    return out


def solve(F, a, b):
    """Solve a @ x = b for a single column b.

    Returns (particular, kernel_rows) or None if inconsistent.
    """
    x = solve_matrix(F, a, np.asarray(b).reshape(-1, 1))
    if x is None:
        return None
    return x[:, 0], kernel(F, a)


def solve_matrix(F, a, b):
    """Solve a @ X = b for every column of b with one RREF of [a | b].

    Returns the particular solution with all free variables zero, or None
    if some column is inconsistent.
    """
    n = a.shape[1]
    if b.shape[1] == 0:
        return F.zeros((n, 0))
    if a.shape[0] != b.shape[0]:
        raise ValueError("a.rows must equal b.rows")
    r, pivots = rref(F, np.concatenate([a, b], axis=1))
    if pivots and pivots[-1] >= n:
        return None
    x = F.zeros((n, b.shape[1]))
    x[pivots] = r[: len(pivots), n:]
    return x


def in_span(F, basis, v):
    """Is the row vector v in the row span of basis?"""
    if basis.shape[0] == 0:
        return bool(np.all(F.reduce(np.asarray(v)) == 0))
    return coords_in_basis(F, basis, v) is not None


def coords_in_basis(F, basis, v):
    """Coefficients x with x @ basis = v, or None."""
    x = solve_matrix(F, basis.T, np.asarray(v).reshape(-1, 1))
    if x is None:
        return None
    return x[:, 0]


class Coords:
    """Coordinates over a fixed basis of independent rows, factored once.

    With P the pivot columns of the basis, basis[:, P] is invertible and
    x @ basis = v forces x = v[P] @ inv(basis[:, P]).
    """

    def __init__(self, F, basis):
        k, m = basis.shape
        r, pivots = rref(F, np.concatenate([basis, F.eye(k)], axis=1))
        if k and pivots[-1] >= m:
            raise ValueError("basis rows are dependent")
        self.field = F
        self.basis = basis
        self.pivots = pivots
        # rref([basis | I]) = [E basis | E] with E basis[:, P] = I
        self.inv = r[:, m:]

    def of(self, vs):
        """X with X @ basis = vs for a batch of rows vs, or None if some
        row lies outside the span."""
        F = self.field
        vs = F.reduce(vs)
        x = F.matmul(vs[:, self.pivots], self.inv)
        if not np.array_equal(F.matmul(x, self.basis), vs):
            return None
        return x


def sum_spaces(F, u, v):
    if u.shape[0] == 0:
        return row_space(F, v)
    if v.shape[0] == 0:
        return row_space(F, u)
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions disagree")
    return row_space(F, np.concatenate([u, v], axis=0))


def intersect_spaces(F, u, v):
    """Canonical basis of the intersection of two row spaces."""
    if u.shape[1] != v.shape[1]:
        raise ValueError("ambient dimensions disagree")
    if u.shape[0] == 0 or v.shape[0] == 0:
        return F.zeros((0, u.shape[1]))
    # Zassenhaus: row-reduce [u u; v 0]; intersection shows in the lower right.
    n = u.shape[1]
    top = np.concatenate([u, u], axis=1)
    bot = np.concatenate([v, F.zeros(v.shape)], axis=1)
    r, pivots = rref(F, np.concatenate([top, bot], axis=0))
    # intersection rows are those whose left half vanished, i.e. whose pivot
    # sits in the right half of the Zassenhaus block matrix.
    rows = []
    for i, pc in enumerate(pivots):
        if pc >= n:
            rows.append(r[i, n:])
    if not rows:
        return F.zeros((0, n))
    return row_space(F, np.stack(rows, axis=0))


def complement(F, sub, whole):
    """Rows of `whole` completing a basis of `sub` to one of `whole`'s span.

    Row i of whole is kept when it is not in the span of sub and the rows
    before it: exactly the pivot columns of one RREF of [sub; whole]^T.
    """
    if whole.shape[0] == 0:
        return F.zeros((0, whole.shape[1]))
    stacked = np.concatenate([sub, whole], axis=0) if sub.shape[0] else whole
    _, pivots = rref(F, stacked.T)
    k = stacked.shape[0] - whole.shape[0]
    return whole[[c - k for c in pivots if c >= k]]


def quotient_coords(F, sub, total_basis, v):
    """Coordinates of v in span(total_basis) modulo span(sub).

    total_basis rows must be independent from sub and jointly span a space
    containing v.  Returns the coefficient vector over total_basis rows.
    """
    sub = row_space(F, sub)
    if total_basis.shape[0] == 0:
        return F.zeros((0,))
    stacked = (
        np.concatenate([sub, total_basis], axis=0) if sub.shape[0] else total_basis
    )
    c = coords_in_basis(F, stacked, v)
    if c is None:
        raise ValueError("vector not in the spanned space")
    return c[sub.shape[0] :]


def candidates(F, basis, rng, ntrials, eager=False):
    """The rows of basis, then ntrials seeded random combinations of them.

    Each combination draws len(basis) coefficients with F.rand.  By
    default a combination's coefficients are drawn only when the caller
    reaches it.  With eager=True all of them are drawn at the first next(),
    so the rng advances by the same amount however early the caller stops.
    """
    k = basis.shape[0]
    draws = ([F.rand(rng) for _ in range(k)] for _ in range(ntrials))
    if eager:
        draws = list(draws)
    yield from basis
    for c in draws:
        yield F.matmul(F.array([c]), basis)[0]


def invert(F, a):
    """Inverse of a square matrix, or None if singular."""
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    aug = np.concatenate([a, F.eye(n)], axis=1)
    r, pivots = rref(F, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return r[:, n:]
