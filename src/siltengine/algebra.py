"""Finite dimensional basic algebras: quiver presentations and structure
constants.

Path composition reads left to right: ``alpha.beta`` means "alpha then
beta", and e_i A e_j is spanned by the paths from i to j.  Every basis
element b is corner graded: e_src(b) * b = b = b * e_tgt(b).

Idempotents are split off by factoring the minimal polynomial of an
element, in plain Python on coefficient lists that serve both fields:
square-free parts, then over GF(p) distinct-degree and Cantor-Zassenhaus
splitting, and over Q Zassenhaus's algorithm (a split mod a prime,
Hensel lifting and recombination by trial division over Z).
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import linalg


class NotNilpotentError(RuntimeError):
    """Paths of the maximal length survive reduction by the relations."""


class SplitNotFoundError(ValueError):
    """The seeded search for an element that splits an idempotent found
    none.  That is no proof that the idempotent is primitive or that the
    algebra is not split over the ground field."""


class FieldTooSmallError(ValueError):
    """The trace-form radical criterion needs p > dim(algebra)."""


class Quiver:
    def __init__(self, nvertices, arrows):
        """arrows: list of (name, source, target) with vertices in 1..n."""
        self.n = nvertices
        self.arrows = list(arrows)
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        for name, s, t in self.arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise ValueError("arrow %s has an undeclared vertex" % name)
        self.name_to_index = {a[0]: i for i, a in enumerate(self.arrows)}

    def arrow_src(self, i):
        return self.arrows[i][1]

    def arrow_tgt(self, i):
        return self.arrows[i][2]


class Relation:
    """Linear combination of parallel paths of length >= 2."""

    def __init__(self, quiver, terms):
        """terms: list of (coefficient, tuple of arrow indices)."""
        self.terms = [(c, tuple(p)) for c, p in terms]
        if not self.terms:
            raise ValueError("empty relation")
        sts = set()
        for _, p in self.terms:
            if len(p) < 2:
                raise ValueError("relation paths must have length >= 2")
            for a, b in zip(p, p[1:]):
                if quiver.arrow_tgt(a) != quiver.arrow_src(b):
                    raise ValueError("non-composable path in relation")
            sts.add((quiver.arrow_src(p[0]), quiver.arrow_tgt(p[-1])))
        if len(sts) > 1:
            raise ValueError("relation terms are not parallel")
        self.src, self.tgt = sts.pop()


class Algebra:
    """Basis-indexed algebra with multiplication table and corner grading.

    mult[i, j, k] is the coefficient of basis k in (basis i * basis j).
    idem lists, per idempotent class, the basis index of its idempotent.
    src/tgt hold 0-based idempotent class indices per basis element.
    """

    def __init__(self, field, labels, src, tgt, mult, idem, nclasses,
                 quiver=None, basis_paths=None):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.src = np.asarray(src, dtype=np.int64)
        self.tgt = np.asarray(tgt, dtype=np.int64)
        self.mult = mult
        self.idem = list(idem)
        self.nclasses = nclasses
        self.quiver = quiver
        self.basis_paths = basis_paths
        d = self.dim
        # lm(x) = x @ tables["lm"]: row i, column (j, k) holds mult[i, j, k];
        # rm(x) = x @ tables["rm"]: row j, column (i, k) holds mult[i, j, k]
        self._tables = {
            "lm": mult.reshape(d, d * d),
            "rm": np.ascontiguousarray(
                np.swapaxes(mult, 0, 1)).reshape(d, d * d),
        }
        self._table_rows = {}
        self._rad = None
        self._radsq = None
        self._corner_cache = {}

    # ---- elements -------------------------------------------------------

    def unit(self):
        one = self.field.zeros((self.dim,))
        for b in self.idem:
            one[b] = 1
        return one

    def basis_vec(self, i):
        v = self.field.zeros((self.dim,))
        v[i] = 1
        return v

    def idem_vec(self, cls):
        return self.basis_vec(self.idem[cls])

    def el_mult(self, x, y):
        return self.field.matmul(y.reshape(1, self.dim), self.lm(x))[0]

    def lm(self, x):
        """Matrix M with (x*y) = y @ M for row vectors y.

        x may be a batch of shape (..., dim): the result has shape
        (..., dim, dim), one matrix per element, from one product.
        """
        d = self.dim
        return self._times_table(
            x.reshape(-1, d), "lm").reshape(x.shape[:-1] + (d, d))

    def rm(self, x):
        """Matrix M with (y*x) = y @ M for row vectors y."""
        d = self.dim
        return self._times_table(x.reshape(1, d), "rm").reshape(d, d)

    def _times_table(self, x, side):
        """x @ the lm or rm table.  Over GF(p) it is one dense int64
        product; over Q the product reads the nonzeros of each table row,
        found on the first product and kept."""
        F, table = self.field, self._tables[side]
        if isinstance(F, linalg.GF):
            return F.matmul(x, table)
        if side not in self._table_rows:
            self._table_rows[side] = F.sparse_rows(table)
        return F.matmul(x, table, self._table_rows[side])

    def corner(self, i, j):
        """Basis indices of e_i A e_j."""
        key = (i, j)
        if key not in self._corner_cache:
            self._corner_cache[key] = [
                b for b in range(self.dim) if self.src[b] == i and self.tgt[b] == j
            ]
        return self._corner_cache[key]

    # ---- structure ------------------------------------------------------

    def check_associative(self):
        """(b_i b_j) b_k = b_i (b_j b_k) for all basis elements.

        With flat = mult as a (d*d, d) matrix, flat @ mult.reshape(d, d*d)
        holds the left side at row (i, j), column (k, l), and block i of
        the right side, rows (j, k) and column l, is flat @ mult[i].
        """
        F, d = self.field, self.dim
        flat = self.mult.reshape(d * d, d)
        lhs = self._times_table(flat, "lm").reshape(d, d * d, d)
        return all(
            np.array_equal(lhs[i], F.matmul(flat, self.mult[i]))
            for i in range(d)
        )

    def check_idempotents(self):
        one = self.unit()
        for ci, b in enumerate(self.idem):
            e = self.basis_vec(b)
            if not np.all(self.el_mult(e, e) == e):
                return False
            for cj, b2 in enumerate(self.idem):
                if cj != ci:
                    f = self.basis_vec(b2)
                    if np.any(self.el_mult(e, f) != 0):
                        return False
        for b in range(self.dim):
            v = self.basis_vec(b)
            es = self.idem_vec(int(self.src[b]))
            et = self.idem_vec(int(self.tgt[b]))
            if not np.all(self.el_mult(es, v) == v):
                return False
            if not np.all(self.el_mult(v, et) == v):
                return False
        for b in range(self.dim):
            v = self.basis_vec(b)
            if np.any(self.el_mult(one, v) != v) or np.any(self.el_mult(v, one) != v):
                return False
        return True

    def radical(self):
        """Canonical basis of the Jacobson radical (Dickson trace form)."""
        if self._rad is not None:
            return self._rad
        if isinstance(self.field, linalg.GF) and self.field.p <= self.dim:
            raise FieldTooSmallError(
                "field too small for radical computation (p <= dim)"
            )
        F, d = self.field, self.dim
        t = F.reduce(np.einsum("ijj->i", self.mult))
        gram = F.matmul(self.mult.reshape(d * d, d), t.reshape(d, 1))
        rad = linalg.row_space(F, linalg.kernel(F, gram.reshape(d, d).T))
        self._verify_nilpotent(rad)
        self._rad = rad
        return rad

    def _verify_nilpotent(self, sub):
        cur = sub
        for _ in range(self.dim + 1):
            if cur.shape[0] == 0:
                return
            nxt = self._products(cur, sub)
            if nxt.shape[0] >= cur.shape[0]:
                raise RuntimeError("radical candidate is not nilpotent")
            cur = nxt
        raise RuntimeError("radical candidate is not nilpotent")

    def radical_square(self):
        if self._radsq is not None:
            return self._radsq
        rad = self.radical()
        self._radsq = self._products(rad, rad)
        return self._radsq

    def _products(self, left, right):
        """Canonical basis of the span of u * v, u a row of left and v one
        of right: u * v = v @ lm(u), so one product right @ lm(u) per u."""
        if left.shape[0] == 0 or right.shape[0] == 0:
            return self.field.zeros((0, self.dim))
        prods = [self.field.matmul(right, self.lm(u)) for u in left]
        return linalg.row_space(self.field, np.concatenate(prods, axis=0))

    def corner_inverse(self, x, cls):
        """Inverse of x inside the local corner e_cls A e_cls, or None."""
        e = self.idem_vec(cls)
        m = self.lm(x)
        res = linalg.solve(self.field, m.T, e)
        if res is None:
            return None
        y = self.el_mult(e, self.el_mult(res[0], e))
        if np.any(self.el_mult(x, y) != e) or np.any(self.el_mult(y, x) != e):
            return None
        return y

    def opposite(self):
        return Algebra(
            self.field,
            self.labels,
            self.tgt,
            self.src,
            np.ascontiguousarray(np.swapaxes(self.mult, 0, 1)),
            self.idem,
            self.nclasses,
        )

    # ---- idempotent decomposition --------------------------------------

    def corner_subalgebra(self, idem_vec):
        """Canonical basis of eAe for an idempotent element e, as rows in
        ambient coordinates."""
        return self._corner_pair_space(idem_vec, idem_vec)

    def decompose_identity(self, rng=None):
        """Primitive orthogonal idempotents, grouped into isomorphism classes.

        Returns a list of groups; each group is a list of idempotent
        element vectors.
        """
        rng = rng or random.Random(0)
        prims = []
        stack = [self.idem_vec(c) for c in range(self.nclasses)]
        while stack:
            e = stack.pop(0)
            sub = self._split_idempotent(e, rng)
            if sub is None:
                prims.append(e)
            else:
                u = sub
                v = self.field.reduce(e - u)
                stack = [u, v] + stack
        groups = []
        for e in prims:
            placed = False
            for g in groups:
                if self._idempotents_isomorphic(g[0], e, rng):
                    g.append(e)
                    placed = True
                    break
            if not placed:
                groups.append([e])
        return groups

    def _corner_is_local(self, corner):
        inter = linalg.intersect_spaces(self.field, corner, self.radical())
        return corner.shape[0] - inter.shape[0] == 1

    def _split_idempotent(self, e, rng):
        """A proper idempotent below e, or None if e is primitive.

        A non-local corner eAe is searched for an element whose min poly
        splits e; SplitNotFoundError when the seeded search finds none.
        """
        corner = self.corner_subalgebra(e)
        if self._corner_is_local(corner):
            return None
        ntrials = 48
        # the min poly of lm(x) on all of A, read off the powers of 1_A:
        # from e it would be x's min poly in eAe, without the factor z
        # that lm(x) has when e != 1
        one = self.unit().reshape(1, -1)
        for x in linalg.candidates(self.field, corner, rng, ntrials,
                                   eager=True):
            u = split_by_min_poly(
                self.field, x, self.lm(x), e,
                lambda a, b: self.el_mult(a, b), one,
            )
            if u is not None:
                return u
        raise SplitNotFoundError(
            "the seeded idempotent search found no splitting element in %d "
            "trials (the %d basis elements of a non-local corner, then %d "
            "random combinations); that does not show the algebra is "
            "non-split over %r"
            % (corner.shape[0] + ntrials, corner.shape[0], ntrials, self.field)
        )

    def _idempotents_isomorphic(self, e, f, rng):
        """eA = fA: search u in eAf, v in fAe with uv = e and vu = f."""
        eAf = self._corner_pair_space(e, f)
        fAe = self._corner_pair_space(f, e)
        if eAf.shape[0] == 0 or fAe.shape[0] == 0:
            return False
        F = self.field
        for u in linalg.candidates(F, eAf, rng, 24, eager=True):
            # solve v @ ... : u*v = e and v*u = f, v constrained to fAe span
            m_uv = self.lm(u)          # (u*v) = v @ m_uv
            m_vu = self.rm(u)          # (v*u) = v @ m_vu
            a = np.concatenate(
                [F.matmul(fAe, m_uv), F.matmul(fAe, m_vu)], axis=1)
            b = np.concatenate([e, f])
            res = linalg.solve(F, a.T, b)
            if res is not None:
                return True
        return False

    def _corner_pair_space(self, e, f):
        """Canonical basis of eAf: the rows e * b * f = (rm(f) @ lm(e))[b]."""
        return linalg.row_space(
            self.field, self.field.matmul(self.rm(f), self.lm(e))
        )

    def is_basic(self, rng=None):
        groups = self.decompose_identity(rng)
        return all(len(g) == 1 for g in groups)

    def gabriel_quiver_report(self):
        """(vertex count, arrow-count matrix dim e_i (rad/rad^2) e_j)."""
        if not self.is_basic():
            raise ValueError("gabriel_quiver_report needs a basic algebra")
        rad = self.radical()
        radsq = self.radical_square()
        counts = np.zeros((self.nclasses, self.nclasses), dtype=np.int64)
        for i in range(self.nclasses):
            for j in range(self.nclasses):
                counts[i, j] = (
                    self._graded_piece_dim(rad, i, j)
                    - self._graded_piece_dim(radsq, i, j)
                )
        return self.nclasses, counts

    def _graded_piece_dim(self, sub, i, j):
        """dim of e_i S e_j for a two-sided-invariant subspace S."""
        cols = self.corner(i, j)
        if not cols or sub.shape[0] == 0:
            return 0
        proj = self.field.zeros(sub.shape)
        proj[:, cols] = sub[:, cols]
        return linalg.rank(self.field, proj)


# ---- generic idempotent machinery ---------------------------------------


def operator_min_poly(F, m, start=None):
    """Minimal polynomial (coefficient list, low to high, monic) of a matrix.

    Read off the Krylov sequence start, start m, start m^2, ... of a block
    of rows: the first power that the earlier ones span gives the least
    poly q with start q(m) = 0.  The default start, the identity, gives
    the min poly of m.  For m = lm(x) on a unital algebra the unit's row
    alone gives it too, in dim coordinates instead of dim^2: its sequence
    is 1, x, x^2, ..., and q(lm(x)) = lm(q(x)) = 0 iff q(x) = 0.
    """
    cur = F.eye(m.shape[0]) if start is None else start
    powers = [cur.reshape(-1)]
    while True:
        cur = F.matmul(cur, m)
        v = cur.reshape(-1)
        raw = np.stack(powers, axis=0)
        sol = linalg.coords_in_basis(F, raw, v)
        if sol is not None:
            coeffs = [-sol[i] for i in range(len(powers))] + [1]
            return _normalize_poly(F, coeffs)
        powers.append(v)


def _normalize_poly(F, coeffs):
    if isinstance(F, linalg.GF):
        return [int(c) % F.p for c in coeffs]
    return [Fraction(c) for c in coeffs]


def _eval_poly_on_element(F, coeffs, x, mult_fn, unit):
    """poly(x) inside the algebra; coeffs are field scalars, low to high."""
    acc = F.zeros(unit.shape)
    power = unit
    for c in coeffs:
        acc = F.reduce(acc + c * power)
        power = mult_fn(power, x)
    return acc


def split_by_min_poly(F, x, op_matrix, unit, mult_fn, start=None):
    """Nontrivial idempotent in the unital subalgebra generated by x, or None.

    unit is the identity of the ambient (corner) algebra; op_matrix is a
    faithful matrix of x on some module (regular representation), whose
    min poly `operator_min_poly` reads off the Krylov sequence of start.  With
    f^m the first prime-power factor of the min poly in sympy's
    `factor_list` order and g the cofactor, the idempotent is (v*g)(x) for
    v*g = 1 mod f^m: it acts as 1 on ker f(x)^m and as 0 on ker g(x).
    """
    mp = operator_min_poly(F, op_matrix, start)
    vg = _idempotent_poly(mp, F.p if isinstance(F, linalg.GF) else None)
    if vg is None:
        return None
    e = _eval_poly_on_element(F, vg, x, mult_fn, unit)
    if bool(np.all(e == 0)) or bool(np.all(F.reduce(e - unit) == 0)):
        return None
    if not np.all(F.reduce(mult_fn(e, e) - e) == 0):
        raise RuntimeError("idempotent construction")
    return e


# ---- min polys: Python coefficient lists, low to high, with no trailing
# zeros (the zero polynomial is []).  Each helper takes a modulus p; p=None
# means exact arithmetic over Q, as in `linalg.rref` --------------------------


def _idempotent_poly(mp, p=None):
    """Coefficients of v*g for a monic min poly mp over GF(p), or over Q
    for p=None; None when mp is a power of one irreducible.

    With f^m the first factor in `_factor` order and g = mp / f^m, v*g is
    1 mod f^m and 0 mod g and has degree below deg mp, which makes it
    unique whatever the scaling of f.
    """
    factors = _factor(mp, p)
    if len(factors) < 2:
        return None
    h, m = factors[0]
    f = [1]
    for _ in range(m):
        f = _poly_mul(f, h, p)
    g = _poly_divmod(mp, f, p)[0]
    return _poly_mul(_poly_inverse_mod(g, f, p), g, p)


def _factor(f, p=None):
    """Irreducible factors of a monic f with their multiplicities, in the
    order of sympy's `factor_list`: by degree, then multiplicity, then
    coefficient list high to low.

    Each square-free part is split over GF(p) into monic factors by
    distinct-degree and equal-degree (Cantor-Zassenhaus) splitting, and
    over Q into primitive integer factors with positive leading
    coefficient by Zassenhaus's algorithm.  The random splits draw from
    one Random(0), so the result and its cost are deterministic.
    """
    rng = random.Random(0)
    out = []
    for g, m in _sqf_list(f, p):
        irr = _gf_split(g, p, rng) if p else _zz_factor(_primitive(g), rng)
        out += [(h, m) for h in irr]
    return sorted(out, key=lambda t: (len(t[0]), t[1], t[0][::-1]))


def _sqf_list(f, p=None):
    """[(g, m)]: the monic f is the product of the g^m, each g square-free,
    monic and of positive degree, the g pairwise coprime."""
    out = []
    c = _poly_gcd(f, _derivative(f, p), p)
    w = _poly_divmod(f, c, p)[0]
    m = 1
    while len(w) > 1:
        y = _poly_gcd(w, c, p)
        fac = _poly_divmod(w, y, p)[0]
        if len(fac) > 1:
            out.append((fac, m))
        w, c, m = y, _poly_divmod(c, y, p)[0], m + 1
    if len(c) > 1:
        # only in characteristic p: what is left has multiplicities
        # divisible by p, c = r(z)^p with r read off every p-th
        # coefficient, as a^p = a in GF(p)
        out += [(g, k * p) for g, k in _sqf_list(c[::p], p)]
    return out


# ---- over Q: Zassenhaus on primitive integer polynomials -------------------


def _primitive(f):
    """The primitive integer multiple of a nonzero rational f with positive
    leading coefficient."""
    den = math.lcm(*(Fraction(c).denominator for c in f))
    g = [int(c * den) for c in f]
    cont = math.gcd(*g)
    if g[-1] < 0:
        cont = -cont
    return [c // cont for c in g]


def _zz_factor(f, rng):
    """Irreducible factors over Z of a square-free primitive f with positive
    leading coefficient (Zassenhaus).

    The first prime p that does not divide lc(f) and leaves f square-free
    mod p splits f mod p; the monic factors are Hensel-lifted
    mod a power q of p beyond 2 lc(f) 2^n |f|_2, which bounds every
    coefficient of lc(f) / lc(h) * h for a factor h of f (Mignotte).  So
    each factor is lc(f) times a product of lifts, read in symmetric
    residues mod q and made primitive; subsets of the lifts are tried by
    size, each by trial division over Z.
    """
    if len(f) == 2:
        return [f]
    p = 1
    while True:
        p += 1
        if f[-1] % p and linalg.is_prime(p):
            fp = _poly_monic([c % p for c in f], p)
            if len(_poly_gcd(fp, _derivative(fp, p), p)) == 1:
                break
    mod_p = _gf_split(fp, p, rng)
    if len(mod_p) == 1:
        return [f]
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * norm
    q = p
    while q <= bound:
        q *= p
    lifts = _hensel_lift(f, mod_p, p, q)
    out, size = [], 1
    while 2 * size <= len(lifts):
        for sub in itertools.combinations(range(len(lifts)), size):
            h = [f[-1]]
            for i in sub:
                h = _poly_mul(h, lifts[i], q)
            h = _primitive([c - q if 2 * c > q else c for c in h])
            quo, rem = _poly_divmod(f, h)
            if not rem:
                out.append(h)
                f = [int(c) for c in quo]
                lifts = [g for i, g in enumerate(lifts) if i not in sub]
                break
        else:
            size += 1
    return out + [f]


def _hensel_lift(f, facs, p, q):
    """Monic lifts mod q, a power of p, of the pairwise coprime monic
    factors facs of f mod p, where f = lc(f) * prod(facs) mod p: then f
    is lc(f) times the product of the lifts mod q.

    The factors are split in halves g (with lc(f)) and h; s*g + t*h = 1
    mod p, and quadratic Hensel steps (von zur Gathen and Gerhard,
    Algorithm 15.10) lift the four mod m^2 until m >= q.  Each half is
    then lifted on its own.
    """
    if len(facs) == 1:
        return [_poly_monic(f, q)]
    k = len(facs) // 2
    g = [f[-1] % p]
    for a in facs[:k]:
        g = _poly_mul(g, a, p)
    h = [1]
    for a in facs[k:]:
        h = _poly_mul(h, a, p)
    t = _poly_inverse_mod(h, g, p)
    s = _poly_divmod(_poly_sub([1], _poly_mul(t, h, p), p), g, p)[0]
    m = p
    while m < q:
        m *= m
        e = _poly_sub(f, _poly_mul(g, h, m), m)
        u, r = _poly_divmod(_poly_mul(s, e, m), h, m)
        g = _poly_add(
            g, _poly_add(_poly_mul(t, e, m), _poly_mul(u, g, m), m), m)
        h = _poly_add(h, r, m)
        b = _poly_sub(
            _poly_add(_poly_mul(s, g, m), _poly_mul(t, h, m), m), [1], m)
        c, d = _poly_divmod(_poly_mul(s, b, m), h, m)
        s = _poly_sub(s, d, m)
        t = _poly_sub(
            t, _poly_add(_poly_mul(t, b, m), _poly_mul(c, g, m), m), m)
    return _hensel_lift(g, facs[:k], p, q) + _hensel_lift(h, facs[k:], p, q)


# ---- over GF(p): distinct-degree and equal-degree splitting ----------------


def _gf_split(f, p, rng):
    """Monic irreducible factors of a square-free monic f over GF(p)."""
    return [q for h, d in _gf_ddf(f, p) for q in _gf_edf(h, d, p, rng)]


def _gf_ddf(f, p):
    """[(g, d)]: g is the product of the degree-d irreducible factors of a
    square-free monic f."""
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_powmod(h, p, f, p)  # z^(p^d) mod f
        g = _poly_gcd(f, _poly_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _poly_divmod(f, g, p)[0]
            h = _poly_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_edf(f, d, p, rng):
    """Irreducible factors of a square-free monic f whose factors all have
    degree d.  For odd p a random a gives gcd(f, a^((p^d-1)/2) - 1); for
    p = 2 the trace a + a^2 + ... + a^(2^(d-1)) takes the place of the
    power."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _poly_divmod(_poly_mul(t, t, p), f, p)[1]
                b = _poly_sub(b, t, p)  # b + t in characteristic 2
        else:
            b = _poly_sub(_gf_powmod(a, (p ** d - 1) // 2, f, p), [1], p)
        g = _poly_gcd(f, b, p)
        if 1 < len(g) < len(f):
            return (_gf_edf(g, d, p, rng)
                    + _gf_edf(_poly_divmod(f, g, p)[0], d, p, rng))


def _gf_powmod(a, e, m, p):
    """a^e mod m, by squaring."""
    out, a = [1], _poly_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, a, p), m, p)[1]
        e >>= 1
        a = _poly_divmod(_poly_mul(a, a, p), m, p)[1]
    return out


# ---- coefficient-list arithmetic mod p (any modulus with the leading
# coefficients involved invertible), or exact over Q for p=None -------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _inverse(a, p):
    return pow(a, -1, p) if p else Fraction(1) / a


def _reduce(a, p):
    return _trim([x % p for x in a] if p else a)


def _poly_scale(a, c, p):
    return _reduce([x * c for x in a], p)


def _poly_monic(a, p):
    return _poly_scale(a, _inverse(a[-1], p), p)


def _derivative(a, p):
    return _reduce([i * x for i, x in enumerate(a)][1:], p)


def _poly_add(a, b, p=None):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _reduce(out, p)


def _poly_sub(a, b, p=None):
    return _poly_add(a, [-y for y in b], p)


def _poly_mul(a, b, p=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(out, p)


def _poly_divmod(a, b, p=None):
    """(q, r) with a = q*b + r and deg r < deg b; b nonzero."""
    r = list(a)
    nb = len(b)
    inv = _inverse(b[-1], p)
    q = [0] * max(len(a) - nb + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] * inv % p if p else r[k + nb - 1] * inv
        q[k] = c
        if p:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % p
        else:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return q, _trim(r[:nb - 1])


def _poly_gcd(a, b, p=None):
    """Monic gcd; gcd(a, 0) is a made monic."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _poly_inverse_mod(g, f, p=None):
    """t with t*g = 1 mod f and deg t < deg f, for coprime g and f, by the
    extended Euclidean algorithm: each remainder r_i = t_i * g mod f, and
    the last nonzero one is the constant gcd."""
    r0, r1 = f, _poly_divmod(g, f, p)[1]
    t0, t1 = [], [1]
    while r1:
        u, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(u, t1, p), p)
    return _poly_scale(t0, _inverse(r0[0], p), p)


# ---- quiver presentation build ------------------------------------------


def _enumerate_paths(quiver, max_len):
    """All paths of length <= max_len as (src, tgt, tuple-of-arrow-indices)."""
    paths = [[(v, v, ()) for v in range(1, quiver.n + 1)]]
    for _ in range(max_len):
        layer = []
        for s, t, p in paths[-1]:
            for ai, (_, asrc, atgt) in enumerate(quiver.arrows):
                if asrc == t:
                    layer.append((s, atgt, p + (ai,)))
        paths.append(layer)
    return paths


def path_label(quiver, p, src):
    if not p:
        return "e%d" % src
    return ".".join(quiver.arrows[ai][0] for ai in p)


def build_algebra(field, quiver, relations, nilpotency_bound):
    """kQ / (relations), with basis the normal-form paths of length < bound."""
    b = nilpotency_bound
    layers = _enumerate_paths(quiver, b)
    # column ordering: longer paths first so that reductions rewrite long
    # paths in terms of short ones
    monomials = []
    for ln in range(b, -1, -1):
        monomials.extend(layers[ln])
    col = {(m[0], m[2]): i for i, m in enumerate(monomials)}
    nmon = len(monomials)

    gens = []
    for rel in relations:
        maxlen = max(len(p) for _, p in rel.terms)
        for pl in range(b):
            for psrc, ptgt, pp in layers[pl]:
                if ptgt != rel.src:
                    continue
                for ql in range(b - pl - maxlen + 1):
                    for qsrc, _, qq in layers[ql]:
                        if qsrc != rel.tgt:
                            continue
                        vec = field.zeros((nmon,))
                        for cval, rp in rel.terms:
                            full = pp + tuple(rp) + qq
                            vec[col[(psrc, full)]] += cval
                        gens.append(field.reduce(vec))
    if gens:
        red = linalg.row_space(field, np.stack(gens, axis=0))
    else:
        red = field.zeros((0, nmon))

    # certify J^bound is inside the ideal: every length-bound path must die
    for s, t, p in layers[b]:
        unit_vec = field.zeros((nmon,))
        unit_vec[col[(s, p)]] = 1
        if not linalg.in_span(field, red, unit_vec):
            raise NotNilpotentError(
                "path %s of length %d survives reduction; raise the bound"
                % (path_label(quiver, p, s), b)
            )

    pivots = set()
    if red.shape[0]:
        _, piv = linalg.rref(field, red)
        pivots = set(piv)
    basis_mons = [
        m for i, m in enumerate(monomials) if i not in pivots and len(m[2]) < b
    ]
    # order the algebra basis by length ascending (idempotents first)
    basis_mons.sort(key=lambda m: (len(m[2]), m[2]))
    basis_cols = [col[(m[0], m[2])] for m in basis_mons]
    dim = len(basis_mons)

    def normal_form(vec):
        """Reduce a monomial-coordinate vector to basis coordinates."""
        if red.shape[0]:
            for j in range(red.shape[0]):
                pc = np.flatnonzero(red[j] != 0)
                if pc.size == 0:
                    continue
                pc = pc[0]
                c = vec[pc]
                if c != 0:
                    vec = field.reduce(vec - c * red[j])
        out = field.zeros((dim,))
        for k, bc in enumerate(basis_cols):
            out[k] = vec[bc]
            vec[bc] = 0
        if np.any(vec != 0):
            raise RuntimeError("reduction left non-basis monomials")
        return out

    mult = field.zeros((dim, dim, dim))
    for i, (si, ti, pi) in enumerate(basis_mons):
        for j, (sj, _, pj) in enumerate(basis_mons):
            if ti != sj:
                continue
            full = pi + pj
            if len(full) > b:
                continue  # certified zero
            vec = field.zeros((nmon,))
            vec[col[(si, full)]] = 1
            mult[i, j] = normal_form(vec)

    labels = [path_label(quiver, p, s) for s, t, p in basis_mons]
    src = [s - 1 for s, t, p in basis_mons]
    tgt = [t - 1 for s, t, p in basis_mons]
    idem = []
    for v in range(1, quiver.n + 1):
        idx = next(
            i for i, (s, t, p) in enumerate(basis_mons) if p == () and s == v
        )
        idem.append(idx)
    alg = Algebra(
        field, labels, src, tgt, mult, idem, quiver.n,
        quiver=quiver,
        basis_paths=[p for s, t, p in basis_mons],
    )
    if not alg.check_associative():
        raise RuntimeError("built multiplication table is not associative")
    if not alg.check_idempotents():
        raise RuntimeError("idempotent axioms fail in built algebra")
    return alg


def structure_constant_algebra(field, labels, src, tgt, mult, idem, nclasses):
    """Algebra from raw structure constants (used for endomorphism algebras)."""
    alg = Algebra(field, labels, src, tgt, mult, idem, nclasses)
    if not alg.check_associative():
        raise RuntimeError("structure constants are not associative")
    if not alg.check_idempotents():
        raise RuntimeError("idempotent axioms fail")
    return alg


def element_from_paths(alg, terms):
    """Element of a quiver-presented algebra from (coeff, arrow-name path).

    A path is a list of arrow names; the empty path needs an explicit
    vertex via ("e", i) pseudo-terms handled by the CLI layer.
    """
    vec = alg.field.zeros((alg.dim,))
    for coeff, path in terms:
        target = tuple(alg.quiver.name_to_index[nm] for nm in path)
        vec = alg.field.reduce(vec + coeff * _path_in_basis(alg, target))
    return vec


def _path_in_basis(alg, arrow_indices):
    """Coordinates of a path product in the algebra basis."""
    if not arrow_indices:
        raise ValueError("trivial path needs a vertex")
    cur = None
    for ai in arrow_indices:
        name = alg.quiver.arrows[ai][0]
        bi = next(
            (k for k, p in enumerate(alg.basis_paths) if p == (ai,)), None
        )
        if bi is None:
            raise ValueError("arrow %s is zero in the algebra" % name)
        v = alg.basis_vec(bi)
        cur = v if cur is None else alg.el_mult(cur, v)
    return cur
