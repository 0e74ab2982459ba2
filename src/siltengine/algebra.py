"""Finite dimensional basic algebras: quiver presentations and structure
constants.

Path composition reads left to right: ``alpha.beta`` means "alpha then
beta", and e_i A e_j is spanned by the paths from i to j.  Every basis
element b is corner graded: e_src(b) * b = b = b * e_tgt(b).
"""

import random

import numpy as np
import sympy
from sympy.abc import z

from . import linalg


class NotNilpotentError(RuntimeError):
    """Paths of the maximal length survive reduction by the relations."""


class NonSplitError(RuntimeError):
    """A semisimple quotient is not split over the ground field."""


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
        # rm(x) = x @ rm_table: row j, column (i, k) holds mult[i, j, k]
        self._rm_table = np.ascontiguousarray(
            np.swapaxes(mult, 0, 1)).reshape(d, d * d)
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
        """Matrix M with (x*y) = y @ M for row vectors y."""
        d = self.dim
        return self.field.matmul(
            x.reshape(1, d), self.mult.reshape(d, d * d)).reshape(d, d)

    def rm(self, x):
        """Matrix M with (y*x) = y @ M for row vectors y."""
        d = self.dim
        return self.field.matmul(
            x.reshape(1, d), self._rm_table).reshape(d, d)

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
        lhs = F.matmul(flat, self.mult.reshape(d, d * d)).reshape(d, d * d, d)
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

    def in_radical(self, x):
        return linalg.in_span(self.field, self.radical(), x)

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
        """A proper idempotent below e, or None if e is primitive."""
        corner = self.corner_subalgebra(e)
        if self._corner_is_local(corner):
            return None
        for x in linalg.candidates(self.field, corner, rng, 48, eager=True):
            u = split_by_min_poly(
                self.field, x, self.lm(x), e, lambda a, b: self.el_mult(a, b)
            )
            if u is not None:
                return u
        raise NonSplitError("non-split semisimple quotient")

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


def operator_min_poly(F, m):
    """Minimal polynomial (coefficient list, low to high, monic) of a matrix."""
    n = m.shape[0]
    powers = [F.eye(n).reshape(-1)]
    cur = F.eye(n)
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
    from fractions import Fraction

    return [Fraction(c) for c in coeffs]


def _poly_to_sympy(F, coeffs):
    """sympy Poly in z from a coefficient list, low to high."""
    high_to_low = list(reversed(coeffs))
    if isinstance(F, linalg.GF):
        return sympy.Poly([int(c) for c in high_to_low], z,
                          modulus=F.p, symmetric=False)
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in high_to_low],
        z, domain="QQ",
    )


def factor_min_poly(F, coeffs):
    """Coprime factor split of a min poly; returns (f, g) sympy Polys or None.

    f*g equals the min poly up to a unit, gcd(f, g) = 1, both proper.
    """
    poly = _poly_to_sympy(F, coeffs)
    _, factors = poly.factor_list()
    if len(factors) < 2:
        return None
    f = factors[0][0] ** factors[0][1]
    g = poly.quo(f)
    return f, g


def _eval_poly_on_element(F, poly, x, mult_fn, unit):
    """poly(x) inside the algebra; poly a sympy Poly in z."""
    coeffs = list(reversed(poly.all_coeffs()))  # low to high
    acc = F.zeros(unit.shape)
    power = unit
    for c in coeffs:
        cv = _scalar_from_sympy(F, c)
        acc = F.reduce(acc + cv * power)
        power = mult_fn(power, x)
    return acc


def _scalar_from_sympy(F, c):
    if isinstance(F, linalg.GF):
        return int(c) % F.p
    from fractions import Fraction

    return Fraction(int(sympy.numer(c)), int(sympy.denom(c)))


def split_by_min_poly(F, x, op_matrix, unit, mult_fn):
    """Nontrivial idempotent in the unital subalgebra generated by x, or None.

    unit is the identity of the ambient (corner) algebra; op_matrix is a
    faithful matrix of x on some module (regular representation).
    """
    mp = operator_min_poly(F, op_matrix)
    split = factor_min_poly(F, mp)
    if split is None:
        return None
    f, g = split
    d = sympy.gcdex(f, g)
    u_poly, v_poly, gc = d
    if not gc.is_one:
        return None
    # idempotent = (v*g)(x): acts as 1 on ker f(x)^inf, 0 on the rest
    vg = (v_poly * g).rem(_poly_to_sympy(F, mp))
    e = _eval_poly_on_element(F, vg, x, mult_fn, unit)
    if bool(np.all(e == 0)) or bool(np.all(F.reduce(e - unit) == 0)):
        return None
    if not np.all(F.reduce(mult_fn(e, e) - e) == 0):
        raise RuntimeError("idempotent construction")
    return e


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
                    for qsrc, qtgt, qq in layers[ql]:
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
        for j, (sj, tj, pj) in enumerate(basis_mons):
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
