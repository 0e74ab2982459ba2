"""Exact dense linear algebra over a prime field or the rationals.

All matrices are numpy arrays: int64 entries reduced to [0, p) for GF(p),
object arrays of exact rationals for Q.  A rational is a Python int when
it is integral and a Fraction otherwise (never a numpy scalar, whose
products wrap around in int64): almost every entry the engine builds over
Q is an integer, and an int multiply-add costs a small fraction of a
Fraction one.  `array`, `zeros`, `eye`, `inv`, `rand` and `rref` keep
that form through one normalizer, `_q`; `matmul` does not normalize its
output, so its entries may be integral Fractions.  Subspaces are
represented by matrices whose rows form a basis; canonical form is the
reduced row echelon form with zero rows dropped, so equal subspaces
compare equal entrywise.

`rref` eliminates on Python rows, not numpy rows: the matrices the
engine reduces are mostly smaller than 4 x 8, too small for numpy's
per-call overhead to pay off.  Each pivot row updates only its nonzero
columns, so zeros cost nothing, which over Q saves most rational
arithmetic, and a pivot that is already 1 is not scaled.

Solves factor once and solve many: `solve_matrix` reduces `[a | b]` once
for every column of b, and `coords_in_basis`, `in_span` and `solve` are
one-column cases of it.  `Coords` factors a basis of independent rows once
and then gives the coordinates of a whole batch of vectors with one matrix
product, checked by multiplying back.  With `skip=k` it drops the
coordinates over the first k rows, which gives coordinates modulo their
span: factor [sub; complement] once and every vector's class in the
quotient is one row of a product.  `complement` picks its rows from the
pivot columns of one reduction.

Products go through `F.matmul`.  Over GF(p) it is a plain int64 `@`
reduced mod p.  Over Q it skips zeros: each nonzero a[i, k] scales the
nonzero entries of row k of b, so a product costs one multiply-add per
pair of nonzero factors instead of one per term of the dense sum, most of
which are zero in the sparse structure-constant and action matrices the
engine multiplies.  A caller that multiplies by the same b many times
(the algebra's structure tables) finds those nonzeros once with
`RationalField.sparse_rows` and passes them in.

`candidates` is the engine's one seeded search: the rows of a basis, then
random combinations of them, with every random coefficient drawn there.

Neither field needs more than numpy and the standard library: GF(p)'s
primality check is trial division, and min polys are factored over both
fields in plain Python (see `algebra`).
"""

from fractions import Fraction

import numpy as np


class FieldTooLargeError(ValueError):
    """A prime too large for exact int64 arithmetic."""


def is_prime(n):
    """Primality by trial division, cheap for the n < 2^24 a GF(p) takes."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


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
        if not is_prime(p):
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
    """Arbitrary-precision rationals via object arrays.

    Each entry is a Python int when it is integral and a Fraction
    otherwise (see `_q`).
    """

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def array(self, data):
        a = np.asarray(data)
        out = np.empty(a.shape, dtype=object)
        flat_out = out.reshape(-1)
        # tolist turns numpy integers into Python ints
        for i, x in enumerate(a.reshape(-1).tolist()):
            flat_out[i] = _q(x)
        return out

    def zeros(self, shape):
        return np.zeros(shape, dtype=object)

    def eye(self, n):
        return np.eye(n, dtype=object)

    def reduce(self, arr):
        return arr

    def inv(self, a):
        a = _q(a)
        return a if a == 1 or a == -1 else _q(Fraction(1) / a)

    def sparse_rows(self, b):
        """(nonzero columns, their entries) of each row of b, the form in
        which `matmul` reads its right factor."""
        return [_sparse_row(row) for row in b]

    def matmul(self, a, b, rows=None):
        """a @ b, one multiply-add per pair of nonzero factors.

        For each nonzero a[i, k], a[i, k] * b[k, S_k] is added into
        out[i, S_k], with S_k the nonzero columns of row k of b.  They are
        found once per call and only for the rows a touches, unless the
        caller passes all of them as rows = `sparse_rows(b)`.  The result
        is not normalized: an entry is an int or a Fraction, which may be
        integral.
        """
        if a.shape[1] != b.shape[0]:
            raise ValueError("shape mismatch")
        out = self.zeros((a.shape[0], b.shape[1]))
        ii, ks = np.nonzero(a.astype(bool))
        ks = ks.tolist()
        if rows is None:
            rows = {k: _sparse_row(b[k]) for k in set(ks)}
        for i, k in zip(ii.tolist(), ks):
            s, v = rows[k]
            if s.size:
                out[i, s] += a[i, k] * v
        return out

    def neg(self, arr):
        return -arr

    def rand(self, rng):
        return _q(Fraction(rng.randrange(-100, 101), rng.randrange(1, 20)))


def _sparse_row(row):
    # astype(bool) tests each entry with __bool__, which is cheaper than
    # comparing a Fraction with 0
    s = np.flatnonzero(row.astype(bool))
    return s, row[s]


def _q(x):
    """x as an exact rational: a Python int when it is integral, else a
    Fraction.  A numpy integer becomes a Python int."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(int(x) if isinstance(x, np.integer) else x)
    return x.numerator if x.denominator == 1 else x


def neg_one(F):
    """-1 as a scalar of F: p - 1 over GF(p), -1 over Q."""
    return F.p - 1 if isinstance(F, GF) else -1


def rref(F, a):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Eliminates on Python rows, touching only the nonzero columns of each
    pivot row, and scales a pivot row only when its pivot is not 1.  Over
    GF(p) every update is reduced mod p; over Q every entry is normalized
    by `_q`, so it is an int exactly when it is integral.  R has the dtype
    of a.
    """
    a = np.asarray(a)
    nrows, ncols = a.shape
    p = F.p if isinstance(F, GF) else None
    if p:
        rows = (a % p).tolist()
    else:
        rows = [[_q(x) for x in row] for row in a.tolist()]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = r
        while k < nrows and not rows[k][c]:
            k += 1
        if k == nrows:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        # entries left of c vanish in every row from r down
        nz = [j for j in range(c, ncols) if prow[j]]
        if prow[c] != 1:
            inv = F.inv(prow[c])
            for j in nz:
                prow[j] = prow[j] * inv % p if p else _q(prow[j] * inv)
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            if p:
                for j in nz:
                    row[j] = (row[j] - f * prow[j]) % p
            else:
                for j in nz:
                    row[j] = _q(row[j] - f * prow[j])
        pivots.append(c)
        r += 1
    return np.array(rows, dtype=a.dtype).reshape(nrows, ncols), pivots


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
    ncols = a.shape[1]
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
    x @ basis = v forces x = v[P] @ inv(basis[:, P]).  The coordinates
    over the first `skip` rows are dropped, so with basis = [sub; rest]
    and skip = len(sub) they are the coordinates over rest modulo
    span(sub).
    """

    def __init__(self, F, basis, skip=0):
        k, m = basis.shape
        r, pivots = rref(F, np.concatenate([basis, F.eye(k)], axis=1))
        if k and pivots[-1] >= m:
            raise ValueError("basis rows are dependent")
        self.field = F
        self.basis = basis
        self.pivots = pivots
        self.skip = skip
        # rref([basis | I]) = [E basis | E] with E basis[:, P] = I
        self.inv = r[:, m:]

    def of(self, vs):
        """X with X @ basis = vs for a batch of rows vs, less its first
        `skip` columns, or None if some row lies outside the span."""
        F = self.field
        vs = F.reduce(vs)
        x = F.matmul(vs[:, self.pivots], self.inv)
        if not np.array_equal(F.matmul(x, self.basis), vs):
            return None
        return x[:, self.skip:]


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
