"""Finite dimensional right modules over a basis-graded algebra.

A module is graded by the idempotent classes of the algebra: M = sum of
M e_c.  We store one dimension per class and one action matrix per
algebra basis element b, mapping the src(b) piece to the tgt(b) piece.
Vectors are rows and act on the right: m |-> m @ act[b].

Modules and module maps are never changed after construction, so some
objects are built once and shared: `projective_module(A, c)` is kept on A,
and `min_resolution` keeps the longest minimal projective resolution of M
built so far on M and hands out prefixes of it.  A minimal resolution is a
deterministic function of M (it draws no random numbers), and each step
depends only on the one before it, so a prefix of a longer resolution is
exactly the shorter resolution built from scratch: memoising it cannot
change any output.  `min_presentation` (hence `tau` and `tau_inverse`)
and `ext_space` read from the same resolution.  `tau(M)` and
`tau_inverse(M)` are deterministic too, and each is built once and kept
on M.

A map out of a sum of projectives e_{c_1} A + ... + e_{c_n} A is a free
choice of generator images, generator k going into N e_{c_k}, so
`ProjSum.hom_to` writes down a basis of Hom(P, N) without a kernel solve.
`hom_space` reads Hom out of the module of a ProjSum that way, and solves
the module-map conditions for every other source.  `proj_sum(A, classes)`
builds one ProjSum per class list and keeps it on A, so complexes, covers
and transposes over the same classes share its module and the resolutions
kept on it.
"""

import random

import numpy as np

from . import algebra as alg_mod
from . import linalg


class Module:
    def __init__(self, A, dims, act):
        """act[b] has shape (dims[src(b)], dims[tgt(b)])."""
        self.A = A
        self.field = A.field
        self.dims = [int(d) for d in dims]
        self.act = act
        self.total = sum(self.dims)
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self._resolution = None  # see min_resolution
        self._tau = None  # see tau
        self._tau_inverse = None  # see tau_inverse
        self.psum = None  # the ProjSum this is the module of, if any

    def piece(self, v, c):
        """Class-c block of a total-coordinate row vector (or matrix)."""
        return v[..., self.offsets[c] : self.offsets[c + 1]]

    def check(self):
        """Module axioms against the multiplication table.

        Each idempotent acts as the identity of its piece, and act[i]
        act[j] = sum_k mult[i, j, k] act[k] whenever tgt(i) = src(j).
        Laid at the columns of piece tgt(b) in a full-width row block,
        act[b] becomes wide[b].  For each class pair (s, m), with I the
        basis of e_s A e_m, J that of e_m A and K that of e_s A, one
        product gives every act[i] wide[j] and one more every sum over k.
        """
        F = self.field
        A = self.A
        for c in range(A.nclasses):
            b = A.idem[c]
            if not np.array_equal(self.act[b], F.eye(self.dims[c])):
                return False
        n = self.total
        wide = []
        for b in range(A.dim):
            w = F.zeros((self.dims[int(A.src[b])], n))
            t = int(A.tgt[b])
            w[:, self.offsets[t]:self.offsets[t + 1]] = self.act[b]
            wide.append(w)
        starts = [np.flatnonzero(A.src == c) for c in range(A.nclasses)]
        for s in range(A.nclasses):
            K, ds = starts[s], self.dims[s]
            if ds == 0:  # both sides have no rows
                continue
            for m in range(A.nclasses):
                I, J = A.corner(s, m), starts[m]
                if not I or not J.size:
                    continue
                # row (i, r), column (j, c) is entry (r, c) of act[i] wide[j]
                lhs = F.matmul(
                    np.concatenate([self.act[i] for i in I]),
                    np.concatenate([wide[j] for j in J], axis=1),
                ).reshape(len(I), ds, len(J), n).transpose(0, 2, 1, 3)
                rhs = F.matmul(
                    A.mult[np.ix_(I, J, K)].reshape(len(I) * len(J), len(K)),
                    np.stack([wide[k] for k in K]).reshape(len(K), ds * n),
                )
                if not np.array_equal(
                    lhs.reshape(len(I) * len(J), ds * n), rhs
                ):
                    return False
        return True

    def dim_vector(self):
        return list(self.dims)

    def is_zero(self):
        return self.total == 0


class ModuleMap:
    def __init__(self, src, tgt, mats):
        """mats[c]: src.dims[c] x tgt.dims[c]; v |-> v @ mats[c] per piece."""
        self.src = src
        self.tgt = tgt
        self.mats = mats
        self.field = src.field

    def check(self):
        F = self.field
        A = self.src.A
        for b in range(A.dim):
            s, t = int(A.src[b]), int(A.tgt[b])
            lhs = F.matmul(self.src.act[b], self.mats[t])
            rhs = F.matmul(self.mats[s], self.tgt.act[b])
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def total_matrix(self):
        F = self.field
        m = F.zeros((self.src.total, self.tgt.total))
        for c in range(self.src.A.nclasses):
            m[
                self.src.offsets[c] : self.src.offsets[c + 1],
                self.tgt.offsets[c] : self.tgt.offsets[c + 1],
            ] = self.mats[c]
        return m

    def apply(self, v):
        """Image of a total-coordinate row vector."""
        return self.field.reduce(np.atleast_1d(v) @ self.total_matrix())

    def compose(self, other):
        """self then other (src -> tgt of other)."""
        if other.src is not self.tgt and other.src.dims != self.tgt.dims:
            raise ValueError("composition shape mismatch")
        F = self.field
        mats = [
            F.matmul(self.mats[c], other.mats[c])
            for c in range(self.src.A.nclasses)
        ]
        return ModuleMap(self.src, other.tgt, mats)

    def flat(self):
        """Fixed flattening of all blocks into one coordinate vector."""
        parts = [self.mats[c].reshape(-1) for c in range(self.src.A.nclasses)]
        if not parts:
            return self.field.zeros((0,))
        return np.concatenate(parts)

    def is_zero(self):
        return all(np.all(m == 0) for m in self.mats)

    def rank(self):
        return sum(
            linalg.rank(self.field, self.mats[c])
            for c in range(self.src.A.nclasses)
        )

    def is_injective(self):
        return self.rank() == self.src.total

    def is_surjective(self):
        return self.rank() == self.tgt.total

    def is_isomorphism(self):
        return (
            self.src.total == self.tgt.total
            and self.is_injective()
            and self.is_surjective()
        )

    def scale(self, c):
        F = self.field
        return ModuleMap(
            self.src, self.tgt, [F.reduce(c * m) for m in self.mats]
        )

    def add(self, other):
        F = self.field
        return ModuleMap(
            self.src,
            self.tgt,
            [F.reduce(a + b) for a, b in zip(self.mats, other.mats)],
        )


def zero_map(M, N):
    F = M.field
    mats = [F.zeros((M.dims[c], N.dims[c])) for c in range(M.A.nclasses)]
    return ModuleMap(M, N, mats)


def identity_map(M):
    F = M.field
    return ModuleMap(M, M, [F.eye(M.dims[c]) for c in range(M.A.nclasses)])


def map_from_flat(M, N, v):
    mats = []
    pos = 0
    for c in range(M.A.nclasses):
        sz = M.dims[c] * N.dims[c]
        mats.append(v[pos : pos + sz].reshape(M.dims[c], N.dims[c]))
        pos += sz
    return ModuleMap(M, N, mats)


def compose_flats(flats, M, N, left=None, right=None):
    """Flat rows of `left` then f, or of f then `right`, for a batch of
    maps f : M -> N given as the rows of flats.

    Give exactly one of left (a ModuleMap L -> M) and right (N -> R).
    Each class takes one product for the whole batch: the f blocks
    stacked as (nb * m, n) rows times right's block, or left's block
    times the f blocks side by side as (m, nb * n).
    """
    if (left is None) == (right is None):
        raise ValueError("give exactly one of left and right")
    F = M.field
    nb = flats.shape[0]
    if not nb:
        L, R = (M, right.tgt) if left is None else (left.src, N)
        return F.zeros((0, sum(a * b for a, b in zip(L.dims, R.dims))))
    out = []
    pos = 0
    for c in range(M.A.nclasses):
        m, n = M.dims[c], N.dims[c]
        blk = flats[:, pos:pos + m * n]
        pos += m * n
        if right is not None:
            r = right.tgt.dims[c]
            prod = F.matmul(blk.reshape(nb * m, n), right.mats[c])
            out.append(prod.reshape(nb, m * r))
        else:
            k = left.src.dims[c]
            side = blk.reshape(nb, m, n).transpose(1, 0, 2).reshape(m, nb * n)
            prod = F.matmul(left.mats[c], side)
            out.append(
                prod.reshape(k, nb, n).transpose(1, 0, 2).reshape(nb, k * n)
            )
    return np.concatenate(out, axis=1)


def hom_space(M, N):
    """All module maps M -> N.

    Returns (maps, flat) where flat is a canonical row basis of the
    flattened coordinate space.  Out of the module of a ProjSum the maps
    are free on generator images, and flat is the canonical form of
    `ProjSum.hom_to`; otherwise it is the kernel of the conditions
    act_M[b] f[t] = f[s] act_N[b].
    """
    F = M.field
    A = M.A
    nflat = sum(M.dims[c] * N.dims[c] for c in range(A.nclasses))
    if nflat == 0:
        return [], F.zeros((0, 0))
    if M.psum is not None:
        sol = M.psum.hom_to(N)
    else:
        sol = _hom_conditions_kernel(M, N, nflat)
    sol = linalg.row_space(F, sol)
    maps = [map_from_flat(M, N, sol[i]) for i in range(sol.shape[0])]
    return maps, sol


def _hom_conditions_kernel(M, N, nflat):
    """Rows spanning the flat maps M -> N that meet the conditions
    act_M[b] @ f[t] - f[s] @ act_N[b] = 0, one Python row per entry
    (i, j) over the unknowns f[t][k, j] and f[s][i, l]."""
    F = M.field
    A = M.A
    off = _flat_offsets(M, N)
    rows = []
    for b in range(A.dim):
        s, t = int(A.src[b]), int(A.tgt[b])
        am, an = M.act[b].tolist(), N.act[b].tolist()
        ns, nt = N.dims[s], N.dims[t]
        for i, arow in enumerate(am):
            for j in range(nt):
                row = [0] * nflat
                for k, a in enumerate(arow):
                    if a:
                        row[off[t] + k * nt + j] += a
                for l in range(ns):
                    a = an[l][j]
                    if a:
                        row[off[s] + i * ns + l] -= a
                rows.append(row)
    return linalg.kernel(F, F.array(rows)) if rows else F.eye(nflat)


def _flat_offsets(M, N):
    off = []
    pos = 0
    for c in range(M.A.nclasses):
        off.append(pos)
        pos += M.dims[c] * N.dims[c]
    return off


def hom_dim(M, N):
    return hom_space(M, N)[1].shape[0]


# ---- construction -------------------------------------------------------


def regular_module(A):
    """A as a right module over itself; piece c spanned by basis with tgt c."""
    pos = [[b for b in range(A.dim) if A.tgt[b] == c] for c in range(A.nclasses)]
    return _submodule_of_regular(A, pos)


def _submodule_of_regular(A, pos):
    """Module on a tgt-graded subset of the algebra basis, closed under mult."""
    F = A.field
    dims = [len(p) for p in pos]
    index = {}
    for c, p in enumerate(pos):
        for i, b in enumerate(p):
            index[b] = (c, i)
    act = []
    for y in range(A.dim):
        s, t = int(A.src[y]), int(A.tgt[y])
        m = F.zeros((dims[s], dims[t]))
        for i, b in enumerate(pos[s]):
            prod = A.mult[b, y]
            for k in np.flatnonzero(prod != 0):
                _, i2 = index[int(k)]
                m[i, i2] = prod[k]
        act.append(m)
    mod = Module(A, dims, act)
    mod.basis_members = pos
    return mod


def projective_module(A, c):
    """e_c A, with generator bookkeeping for presentations.

    Built once per (A, c) and kept on A; callers share the module.
    """
    if getattr(A, "_proj_cache", None) is None:
        A._proj_cache = {}
    if c not in A._proj_cache:
        A._proj_cache[c] = _build_projective(A, c)
    return A._proj_cache[c]


def _build_projective(A, c):
    members = [b for b in range(A.dim) if A.src[b] == c]
    pos = [
        [b for b in members if A.tgt[b] == d] for d in range(A.nclasses)
    ]
    P = _submodule_of_regular(A, pos)
    P.pclass = c
    gen = A.field.zeros((P.total,))
    gen[P.offsets[c] + pos[c].index(A.idem[c])] = 1
    P.gen = gen
    return P


def simple_module(A, c):
    """e_c A / e_c rad A, built once per (A, c) and kept on A like
    `projective_module`."""
    if getattr(A, "_simple_cache", None) is None:
        A._simple_cache = {}
    if c not in A._simple_cache:
        P = projective_module(A, c)
        A._simple_cache[c] = quotient_module(P, radical_vectors(P))[0]
    return A._simple_cache[c]


def injective_module(A, c):
    """D of the opposite projective at class c."""
    return dual_module(projective_module(opposite_algebra(A), c), A)


def opposite_algebra(A):
    if getattr(A, "_op_cache", None) is None:
        op = A.opposite()
        A._op_cache = op
        op._op_cache = A
    return A._op_cache


def dual_module(M, Aop=None):
    """Vector-space dual, a module over the opposite algebra."""
    A = M.A
    if Aop is None:
        Aop = opposite_algebra(A)
    act = [np.array(M.act[b].T, copy=True) for b in range(A.dim)]
    D = Module(Aop, M.dims, act)
    return D


def direct_sum(mods):
    """(sum, inclusions, projections)."""
    if not mods:
        raise ValueError("empty direct sum")
    A = mods[0].A
    F = mods[0].field
    dims = [sum(m.dims[c] for m in mods) for c in range(A.nclasses)]
    act = []
    for b in range(A.dim):
        s, t = int(A.src[b]), int(A.tgt[b])
        big = F.zeros((dims[s], dims[t]))
        rs = 0
        cs = 0
        for m in mods:
            big[rs : rs + m.dims[s], cs : cs + m.dims[t]] = m.act[b]
            rs += m.dims[s]
            cs += m.dims[t]
        act.append(big)
    S = Module(A, dims, act)
    incls, projs = [], []
    starts = [0] * A.nclasses
    for m in mods:
        imats, pmats = [], []
        for c in range(A.nclasses):
            im = F.zeros((m.dims[c], dims[c]))
            pm = F.zeros((dims[c], m.dims[c]))
            st = starts[c]
            for i in range(m.dims[c]):
                im[i, st + i] = 1
                pm[st + i, i] = 1
            imats.append(im)
            pmats.append(pm)
            starts[c] += m.dims[c]
        incls.append(ModuleMap(m, S, imats))
        projs.append(ModuleMap(S, m, pmats))
    return S, incls, projs


def module_from_rep(A, dims, arrow_mats):
    """Module of a quiver algebra from one matrix per arrow.

    arrow_mats maps arrow name -> matrix of shape
    (dims[src-1], dims[tgt-1]); validated against the relations.
    """
    if A.quiver is None:
        raise ValueError("module_from_rep needs a quiver-presented algebra")
    F = A.field
    act = []
    for b in range(A.dim):
        path = A.basis_paths[b]
        s = int(A.src[b])
        m = F.eye(dims[s])
        for ai in path:
            name = A.quiver.arrows[ai][0]
            m = F.matmul(m, F.array(arrow_mats[name]))
        act.append(m)
    M = Module(A, dims, act)
    if not M.check():
        raise ValueError("matrices do not satisfy the relations")
    return M


# ---- subquotients -------------------------------------------------------


def graded_pieces_of_span(M, vectors):
    """Per-class canonical bases of an action-invariant span's pieces."""
    F = M.field
    if len(vectors) == 0:
        return [F.zeros((0, M.dims[c])) for c in range(M.A.nclasses)]
    vs = np.stack([np.asarray(v).reshape(-1) for v in vectors], axis=0)
    return [
        linalg.row_space(F, M.piece(vs, c)) for c in range(M.A.nclasses)
    ]


def submodule(M, vectors):
    """(S, inclusion) for the submodule spanned by total vectors, whose
    span must already be action invariant."""
    F = M.field
    vecs = (
        linalg.row_space(
            F, np.stack([np.asarray(v).reshape(-1) for v in vectors], axis=0)
        )
        if len(vectors)
        else F.zeros((0, M.total))
    )
    pieces = graded_pieces_of_span(M, vecs)
    dims = [p.shape[0] for p in pieces]
    act = []
    for b in range(M.A.dim):
        s, t = int(M.A.src[b]), int(M.A.tgt[b])
        img = F.matmul(pieces[s], M.act[b])
        m = linalg.solve_matrix(F, pieces[t].T, img.T)
        if m is None:
            raise RuntimeError("span is not action invariant")
        act.append(m.T)
    S = Module(M.A, dims, act)
    incl = ModuleMap(S, M, [pieces[c] for c in range(M.A.nclasses)])
    return S, incl


def quotient_module(M, sub_vectors):
    """(Q, projection) for M modulo the submodule spanned by total vectors,
    whose span must already be action invariant."""
    F = M.field
    pieces = graded_pieces_of_span(M, sub_vectors)
    comps = [
        linalg.complement(F, pieces[c], F.eye(M.dims[c]))
        for c in range(M.A.nclasses)
    ]
    dims = [comp.shape[0] for comp in comps]
    # [pieces[c]; comps[c]] is a basis of class c; coordinates over it,
    # less the first pieces[c].shape[0], are the coordinates modulo the
    # submodule.
    coords = [
        linalg.Coords(F, np.concatenate([pieces[c], comps[c]], axis=0),
                      skip=pieces[c].shape[0])
        for c in range(M.A.nclasses)
    ]

    def quotient_rows(c, vs):
        x = coords[c].of(vs)
        if x is None:
            raise RuntimeError("vector not in the spanned space")
        return x

    act = []
    for b in range(M.A.dim):
        s, t = int(M.A.src[b]), int(M.A.tgt[b])
        # b moves the basis [pieces[s]; comps[s]]; the span is invariant
        # when the pieces[s] rows have no coordinates modulo pieces[t]
        x = quotient_rows(t, F.matmul(coords[s].basis, M.act[b]))
        k = pieces[s].shape[0]
        if np.any(x[:k] != 0):
            raise RuntimeError("span is not action invariant")
        act.append(x[k:])
    Q = Module(M.A, dims, act)
    pmats = [quotient_rows(c, F.eye(M.dims[c])) for c in range(M.A.nclasses)]
    return Q, ModuleMap(M, Q, pmats)


def kernel_vectors(f):
    """Canonical total-vector basis of ker f (a submodule)."""
    F = f.field
    rows = []
    for c in range(f.src.A.nclasses):
        k = linalg.kernel(F, f.mats[c].T)
        for i in range(k.shape[0]):
            v = F.zeros((f.src.total,))
            f.src.piece(v.reshape(1, -1), c)[0, :] = k[i]
            rows.append(v)
    if not rows:
        return F.zeros((0, f.src.total))
    return linalg.row_space(F, np.stack(rows, axis=0))


def image_vectors(f):
    F = f.field
    m = f.total_matrix()
    return linalg.row_space(F, m)


def _radical_action(M):
    """(r, total, total) array: the total-space matrix of the right action
    of each of the r basis rows of rad A, from one product of rad A with
    the action matrices laid out on the total space."""
    F, A, n = M.field, M.A, M.total
    lay = F.zeros((A.dim, n, n))
    for b in range(A.dim):
        s, t = int(A.src[b]), int(A.tgt[b])
        lay[b, M.offsets[s]:M.offsets[s + 1],
            M.offsets[t]:M.offsets[t + 1]] = M.act[b]
    rad = A.radical()
    return F.matmul(rad, lay.reshape(A.dim, n * n)).reshape(
        rad.shape[0], n, n)


def radical_vectors(M):
    """Total-vector basis of M * rad(A)."""
    ops = _radical_action(M)
    return linalg.row_space(
        M.field, ops.reshape(ops.shape[0] * M.total, M.total))


def socle_vectors(M):
    """Total vectors killed by the radical (the socle submodule)."""
    ops = _radical_action(M)
    stacked = ops.transpose(1, 0, 2).reshape(M.total, ops.shape[0] * M.total)
    return linalg.row_space(M.field, linalg.kernel(M.field, stacked.T))


# ---- projective covers and presentations --------------------------------


def proj_sum(A, classes):
    """ProjSum of e_c A over the list of classes, built once per (A,
    classes) and kept on A like `projective_module`."""
    if getattr(A, "_proj_sum_cache", None) is None:
        A._proj_sum_cache = {}
    key = tuple(classes)
    if key not in A._proj_sum_cache:
        A._proj_sum_cache[key] = ProjSum(A, key)
    return A._proj_sum_cache[key]


class ProjSum:
    """Direct sum of indecomposable projectives with generator bookkeeping.

    Summand k's class-d basis starts at row starts[k][d] of the sum's
    class-d block, as `direct_sum` lays it out.  The sum's module knows
    its ProjSum (module.psum), so `hom_space` reads Hom out of it from
    `hom_to`.
    """

    def __init__(self, A, classes):
        self.A = A
        self.classes = list(classes)
        self.starts = []
        if self.classes:
            mods = [projective_module(A, c) for c in self.classes]
            self.module, self.incls, self.projs = direct_sum(mods)
            self.summands = mods
            pos = [0] * A.nclasses
            for m in mods:
                self.starts.append(pos)
                pos = [p + d for p, d in zip(pos, m.dims)]
        else:
            self.module = Module(
                A,
                [0] * A.nclasses,
                [
                    A.field.zeros((0, 0))
                    for _ in range(A.dim)
                ],
            )
            self.incls, self.projs, self.summands = [], [], []
        self.module.psum = self

    def map_to(self, M, gen_images):
        """ModuleMap sending generator k to the total vector gen_images[k]."""
        F = self.A.field
        mats = [
            F.zeros((self.module.dims[c], M.dims[c]))
            for c in range(self.A.nclasses)
        ]
        for k, c in enumerate(self.classes):
            g = M.piece(np.asarray(gen_images[k]).reshape(1, -1), c)
            P = self.summands[k]
            for d in range(self.A.nclasses):
                st = self.starts[k][d]
                for i, b in enumerate(P.basis_members[d]):
                    mats[d][st + i] = F.matmul(g, M.act[b])[0]
        return ModuleMap(self.module, M, mats)

    def hom_to(self, N):
        """Basis of Hom(self.module, N) as flat rows, without a solve.

        Basis map (k, i) sends generator k to the i-th basis vector of
        N e_{c_k} and every other generator to 0, so its rows at summand
        k's class-d basis element b are row i of N.act[b].  Unlike
        `hom_space`, flat is not reduced to a canonical form.
        """
        F = self.A.field
        M = self.module
        off = _flat_offsets(M, N)
        nflat = sum(M.dims[d] * N.dims[d] for d in range(self.A.nclasses))
        blocks = []
        for k, c in enumerate(self.classes):
            blk = F.zeros((N.dims[c], nflat))
            for d in range(self.A.nclasses):
                nd = N.dims[d]
                for i, b in enumerate(self.summands[k].basis_members[d]):
                    r = off[d] + (self.starts[k][d] + i) * nd
                    blk[:, r : r + nd] = N.act[b]
            blocks.append(blk)
        return np.concatenate(blocks, axis=0) if blocks else \
            F.zeros((0, nflat))

    def entry_matrix_to(self, other, f):
        """Express f: self.module -> other.module by algebra elements.

        Returns the array entries[j, k] in e_{other.classes[k]} A
        e_{self.classes[j]} with f(gen_j) = sum_k gen_k * entries[j, k]:
        gen_j is a row of self's class-c_j block, and its image there
        holds every entries[j, k] at the places `_layout` gives.
        """
        A = self.A
        entries = A.field.zeros((len(self.classes), len(other.classes), A.dim))
        for j, c in enumerate(self.classes):
            ks, bs = other._layout(c)
            entries[j, ks, bs] = A.field.reduce(f.mats[c][self._gen_row(j)])
        return entries

    def gen_columns(self, N):
        """Columns of the flat layout of Hom(self.module, N) that hold the
        generator images: generator j's image in N e_{c_j}, in order.  A
        map is zero iff these columns are."""
        off = _flat_offsets(self.module, N)
        cols = []
        for j, c in enumerate(self.classes):
            start = off[c] + self._gen_row(j) * N.dims[c]
            cols.extend(range(start, start + N.dims[c]))
        return cols

    def _gen_row(self, j):
        """Row of generator j (the idempotent e_{c_j} of summand j) in the
        class-c_j block of the sum."""
        c = self.classes[j]
        return self.starts[j][c] + \
            self.summands[j].basis_members[c].index(self.A.idem[c])

    def map_from_entries(self, other, entries):
        """ModuleMap self.module -> other.module, gen_j -> sum gen_k*a_jk,
        for an entries array a of shape (len self, len other, dim A).

        Basis element b of summand j goes to the sum of the a_jk * b, so
        block (j, k) of class c is lm(a_jk) at rows e_{c_j} A e_c and
        columns e_{c_k} A e_c: one gather per class from one batched lm.
        """
        lm = self.A.lm(np.asarray(entries))
        mats = []
        for c in range(self.A.nclasses):
            (js, rows), (ks, cols) = self._layout(c), other._layout(c)
            mats.append(lm[js[:, None], ks, rows[:, None], cols])
        return ModuleMap(self.module, other.module, mats)

    def _layout(self, c):
        """(summand, basis element of A) of each row of the class-c block
        of the sum, in the order `direct_sum` lays the rows out."""
        pairs = [(k, b) for k, P in enumerate(self.summands)
                 for b in P.basis_members[c]]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def top_generators(M):
    """Total vectors projecting to a basis of M / M rad, with their classes."""
    F = M.field
    radv = radical_vectors(M)
    pieces = graded_pieces_of_span(M, radv)
    gens = []
    classes = []
    for c in range(M.A.nclasses):
        comp = linalg.complement(F, pieces[c], F.eye(M.dims[c]))
        for i in range(comp.shape[0]):
            v = F.zeros((M.total,))
            M.piece(v.reshape(1, -1), c)[0, :] = comp[i]
            gens.append(v)
            classes.append(c)
    return gens, classes


def projective_cover(M):
    """(ProjSum P, cover map P.module -> M), minimal by construction."""
    gens, classes = top_generators(M)
    P = proj_sum(M.A, classes)
    f = P.map_to(M, gens)
    if not f.is_surjective():
        raise RuntimeError("projective cover map is not surjective")
    return P, f


def min_presentation(M):
    """(P1, P0, d1, cover) with P1 -> P0 -> M -> 0 minimal at both steps."""
    psums, maps, cover = min_resolution(M, 1)
    return psums[1], psums[0], maps[0], cover


def min_resolution(M, length):
    """Minimal projective resolution P_length -> ... -> P_0 -> M.

    Returns (psums, maps, cover) with maps[i]: P_{i+1} -> P_i.  The longest
    resolution built so far is kept on M; a shorter request gets a prefix
    of it and a longer one extends it.
    """
    if M._resolution is None:
        P0, cover = projective_cover(M)
        M._resolution = ([P0], [], cover)
    psums, maps, cover = M._resolution
    while len(maps) < length:
        kv = kernel_vectors(maps[-1] if maps else cover)
        K, incl = submodule(psums[-1].module, kv)
        P, kc = projective_cover(K)
        maps.append(kc.compose(incl))
        psums.append(P)
    return psums[: length + 1], maps[:length], cover


# ---- transpose / tau ----------------------------------------------------


def transpose_module(M):
    """Tr M over the opposite algebra (no projective summands survive)."""
    A = M.A
    Aop = opposite_algebra(A)
    P1, P0, d1, _ = min_presentation(M)
    entries = P1.entry_matrix_to(P0, d1)
    Q0 = proj_sum(Aop, P0.classes)
    Q1 = proj_sum(Aop, P1.classes)
    # Hom(-, A) transposes the entry matrix; elements keep their coordinates
    dt = Q0.map_from_entries(Q1, entries.transpose(1, 0, 2))
    return quotient_module(Q1.module, image_vectors(dt))[0]


def tau(M):
    """Auslander-Reiten translate D Tr (zero on projectives), kept on M."""
    if M._tau is None:
        M._tau = dual_module(transpose_module(M))
    return M._tau


def tau_inverse(M):
    """Tr D (zero on injectives), kept on M."""
    if M._tau_inverse is None:
        M._tau_inverse = transpose_module(dual_module(M))
    return M._tau_inverse


# ---- endomorphisms and decomposition ------------------------------------


def algebra_of_maps(F, span, to_map, blocks):
    """(Algebra E, list of maps matching its basis) for a space of
    endomorphisms closed under composition.

    span's rows span the space in flat coordinates: square blocks of the
    sizes in `blocks`, one after another, each flattened row by row, and
    a map composes blockwise.  Module maps have one block per class and
    chain maps one per degree and class.  to_map turns a flat row into a
    map.  One idempotent class; the identity, an identity matrix in
    every block, is basis element 0.  All n^2 products of basis elements
    take one matrix product per block, and their structure constants one
    `Coords.of`.
    """
    idflat = np.concatenate([F.eye(m).reshape(-1) for m in blocks])
    rest = linalg.complement(F, idflat.reshape(1, -1), span)
    basis = np.concatenate([idflat.reshape(1, -1), rest], axis=0)
    n = basis.shape[0]
    coords = linalg.Coords(F, basis)
    prods = []
    pos = 0
    for m in blocks:
        blk = basis[:, pos:pos + m * m].reshape(n, m, m)
        pos += m * m
        # row (i, a) times column (j, b) is entry (a, b) of blk[i] blk[j]
        p = F.matmul(
            blk.reshape(n * m, m), blk.transpose(1, 0, 2).reshape(m, n * m)
        )
        prods.append(
            p.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        )
    mult = coords.of(np.concatenate(prods, axis=1))
    if mult is None:
        raise RuntimeError("endomorphism space not closed")
    E = alg_mod.Algebra(
        F, ["f%d" % i for i in range(n)], [0] * n, [0] * n,
        mult.reshape(n, n, n), [0], 1,
    )
    return E, [to_map(basis[i]) for i in range(n)]


def end_algebra(M):
    """(Algebra E, list of ModuleMaps matching its basis).

    One idempotent class; the identity endomorphism is basis element 0.
    """
    return algebra_of_maps(
        M.field, hom_space(M, M)[1], lambda v: map_from_flat(M, M, v), M.dims
    )


def combination(maps, x):
    """sum of x[i] * maps[i] over the nonzero x[i], for module maps or
    chain maps; maps[0] scaled by 0 when every x[i] is 0."""
    out = maps[0].scale(0)
    for i in np.flatnonzero(np.asarray(x) != 0):
        out = out.add(maps[int(i)].scale(x[int(i)]))
    return out


def decompose_module(M, rng=None):
    """Indecomposable summands grouped by isomorphism class.

    Returns a list of groups, each a list of (summand, inclusion,
    retraction) triples; inclusion then retraction is the identity of
    the summand.
    """
    if M.total == 0:
        return []
    E, basis_maps = end_algebra(M)
    groups = E.decompose_identity(rng)
    out = []
    for g in groups:
        triple_group = []
        for e in g:
            S, incl, proj = _split_off(M, combination(basis_maps, e))
            triple_group.append((S, incl, proj))
        out.append(triple_group)
    return out


def _split_off(M, emap):
    """(image of an idempotent endomorphism, inclusion, retraction)."""
    S, incl = submodule(M, image_vectors(emap))
    # retraction: apply e, then express in the image basis
    proj = retract_through_inclusion(incl, emap)
    comp = incl.compose(proj)
    if not comp.is_isomorphism():
        raise RuntimeError("idempotent image splitting failed")
    return S, incl, proj


def is_indecomposable(M):
    E, _ = end_algebra(M)
    rad = E.radical()
    return E.dim - rad.shape[0] == 1


def modules_isomorphic(M, N, rng=None):
    """Isomorphism M -> N or None.

    Searches the Hom space for an invertible map: basis elements first,
    then seeded random combinations.  With a large ground field this
    finds an isomorphism with overwhelming probability when one exists.
    """
    if M.dim_vector() != N.dim_vector():
        return None
    if M.total == 0:
        return zero_map(M, N)
    rng = rng or random.Random(0)
    _, flat = hom_space(M, N)
    if flat.shape[0] == 0:
        return None
    for v in linalg.candidates(M.field, flat, rng, 40):
        f = map_from_flat(M, N, v)
        if f.is_isomorphism():
            return f
    return None


# ---- Ext and extensions -------------------------------------------------


class ExtData:
    """Ext^i(M, N) with enough data to rebuild extensions for i = 1."""

    def __init__(self, dim, cocycles, coboundaries, psums, dmaps, cover):
        self.dim = dim
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.psums = psums
        self.dmaps = dmaps
        self.cover = cover


def ext_space(M, N, degree):
    """Ext^degree(M, N) via a minimal projective resolution of M."""
    if degree < 1:
        raise ValueError("use hom_space for degree 0")
    F = M.field
    psums, dmaps, cover = min_resolution(M, degree + 1)

    def delta(i):
        """(basis of Hom(P_i, N), delta_i : phi -> d_{i+1} . phi on it);
        cocycles and coboundaries below are canonical row spaces, so they
        do not depend on the choice of the basis."""
        flat = psums[i].hom_to(N)
        return flat, compose_flats(flat, psums[i].module, N, left=dmaps[i])

    # cocycles at position `degree`: kernel of delta_degree within the image
    # coordinates of Hom(P_degree, N)
    src_flat, nxt = delta(degree)
    if not src_flat.shape[0]:
        zero = F.zeros((0, 0))
        return ExtData(0, zero, zero, psums, dmaps, cover)
    coeff_kernel = linalg.kernel(F, nxt.T) if nxt.shape[1] else \
        F.eye(src_flat.shape[0])
    cocycles = linalg.row_space(F, F.matmul(coeff_kernel, src_flat))
    prev = delta(degree - 1)[1]
    coboundaries = linalg.row_space(F, prev) if prev.shape[0] else \
        F.zeros((0, src_flat.shape[1]))
    dim = cocycles.shape[0] - coboundaries.shape[0]
    return ExtData(dim, cocycles, coboundaries, psums, dmaps, cover)


def ext_dim(M, N, degree):
    return ext_space(M, N, degree).dim


def extension_sequence(M, N, ext_data, cocycle_flat):
    """(E, f: N -> E, g: E -> M) exact, built from an Ext^1 cocycle."""
    F = M.field
    P1 = ext_data.psums[1]
    P0 = ext_data.psums[0]
    d1 = ext_data.dmaps[0]
    cover = ext_data.cover
    phi = map_from_flat(P1.module, N, np.asarray(cocycle_flat))
    DS, incls, projs = direct_sum([N, P0.module])
    # E = (N + P0) / image of (-phi, d1) : P1 -> N + P0
    neg_phi = phi.scale(linalg.neg_one(F))
    w_map = neg_phi.compose(incls[0]).add(d1.compose(incls[1]))
    E, pr = quotient_module(DS, image_vectors(w_map))
    f = incls[0].compose(pr)
    # g: E -> M induced by (0, cover); well defined since cover . d1 = 0
    g = factor_through_projection(pr, projs[1].compose(cover))
    return E, f, g


# ---- Auslander-Reiten sequences -----------------------------------------


def ar_sequence(X):
    """Almost split sequence 0 -> tau X -> E -> X -> 0.

    X must be indecomposable and non-projective.
    """
    F = X.field
    tX = tau(X)
    if tX.total == 0:
        raise ValueError("module is projective; no almost split sequence ends at it")
    ext = ext_space(X, tX, 1)
    if ext.dim == 0:
        raise RuntimeError("Ext^1(X, tau X) vanished unexpectedly")
    # right End(X)-action on Ext^1(X, tau X): lift f: X -> X through the
    # resolution, then precompose cocycles with the lift at P1
    E, basis_maps = end_algebra(X)
    radE = E.radical()
    P1 = ext.psums[1]
    d1 = ext.dmaps[0]
    cover = ext.cover
    action_mats = []
    quot_basis = linalg.complement(F, ext.coboundaries, ext.cocycles)
    # classes of cocycles over quot_basis, modulo the coboundaries
    quot = linalg.Coords(
        F, np.concatenate([ext.coboundaries, quot_basis], axis=0),
        skip=ext.coboundaries.shape[0],
    )
    for r in range(radE.shape[0]):
        f = combination(basis_maps, radE[r])
        # lift f through the resolution: f0 on P0, then f1 on P1
        f0 = factor_through(cover.compose(f), cover)
        f1 = None if f0 is None else factor_through(d1.compose(f0), d1)
        if f1 is None:
            raise RuntimeError("lift through surjection failed")
        moved = quot.of(compose_flats(quot_basis, P1.module, tX, left=f1))
        if moved is None:
            raise ValueError("vector not in the spanned space")
        action_mats.append(moved)
    if action_mats:
        stacked = np.concatenate(action_mats, axis=1)
        soc = linalg.kernel(F, stacked.T)
    else:
        soc = F.eye(quot_basis.shape[0])
    if soc.shape[0] == 0:
        raise RuntimeError("socle of Ext^1(X, tau X) vanished")
    coeffs = soc[0]
    cocycle = F.reduce(np.einsum("i,ij->j", coeffs, quot_basis))
    Emid, f, g = extension_sequence(X, tX, ext, cocycle)
    return tX, Emid, X, f, g


def sequence_is_exact(N, E, M, f, g):
    """0 -> N -> E -> M -> 0 exactness checks."""
    if not f.is_injective() or not g.is_surjective():
        return False
    if not f.compose(g).is_zero():
        return False
    return E.total == N.total + M.total


def is_almost_split(N, E, M, f, g, test_modules):
    """Evidence check: non-split, ends indecomposable, and every non-retraction
    Z -> M from the supplied battery factors through g."""
    if not sequence_is_exact(N, E, M, f, g):
        return False
    # the sequence splits iff g has a section s, id_M = s . g
    idM = identity_map(M)
    if factor_through(idM, g) is not None:
        return False
    if not (is_indecomposable(N) and is_indecomposable(M)):
        return False
    for Z in test_modules:
        maps, _ = hom_space(Z, M)
        for h in maps:
            if factor_through(idM, h) is not None:
                continue
            if factor_through(h, g) is None:
                return False
    return True


def factor_through(h, g):
    """Module map u: src(h) -> src(g) with h = u . g, or None.

    Solved inside Hom(src h, src g), so u is a module map and not just a
    per-class linear solution.
    """
    F = h.field
    _, flat = hom_space(h.src, g.src)
    if not flat.shape[0]:
        return zero_map(h.src, g.src) if h.is_zero() else None
    basis = compose_flats(flat, h.src, g.src, right=g)
    co = linalg.coords_in_basis(F, basis, h.flat())
    if co is None:
        return None
    return map_from_flat(h.src, g.src, F.matmul(co.reshape(1, -1), flat)[0])


def retract_through_inclusion(incl, f):
    """g with g . incl = f, given im f inside im incl."""
    F = incl.field
    mats = []
    for c in range(incl.src.A.nclasses):
        x = linalg.solve_matrix(F, incl.mats[c].T, f.mats[c].T)
        if x is None:
            raise RuntimeError("image does not land in the submodule")
        mats.append(x.T)
    return ModuleMap(f.src, incl.src, mats)


def factor_through_projection(pr, f):
    """g with pr . g = f, given ker pr inside ker f: the dual of
    `retract_through_inclusion`."""
    F = pr.field
    mats = []
    for c in range(pr.src.A.nclasses):
        x = linalg.solve_matrix(F, pr.mats[c], f.mats[c])
        if x is None:
            raise RuntimeError("map does not factor through the quotient")
        mats.append(x)
    return ModuleMap(pr.tgt, f.tgt, mats)
