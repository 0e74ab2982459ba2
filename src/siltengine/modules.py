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
and `ext_space` read from the same resolution.

A map out of a sum of projectives e_{c_1} A + ... + e_{c_n} A is a free
choice of generator images, generator k going into N e_{c_k}, so
`ProjSum.hom_to` writes down a basis of Hom(P, N) without a kernel solve.
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

    def piece(self, v, c):
        """Class-c block of a total-coordinate row vector (or matrix)."""
        return v[..., self.offsets[c] : self.offsets[c + 1]]

    def act_total(self, x):
        """Total-space matrix of the right action of an algebra element x."""
        F = self.field
        m = F.zeros((self.total, self.total))
        for b in range(self.A.dim):
            if x[b] == 0:
                continue
            s, t = int(self.A.src[b]), int(self.A.tgt[b])
            m[
                self.offsets[s] : self.offsets[s + 1],
                self.offsets[t] : self.offsets[t + 1],
            ] += x[b] * self.act[b]
        return F.reduce(m)

    def check(self):
        """Module axioms against the multiplication table."""
        F = self.field
        A = self.A
        for c in range(A.nclasses):
            b = A.idem[c]
            if not np.array_equal(self.act[b], F.eye(self.dims[c])):
                return False
        for i in range(A.dim):
            for j in range(A.dim):
                if A.tgt[i] != A.src[j]:
                    continue
                lhs = F.matmul(self.act[i], self.act[j])
                rhs = F.zeros(
                    (self.dims[int(A.src[i])], self.dims[int(A.tgt[j])])
                )
                for k in range(A.dim):
                    if A.mult[i, j, k] != 0:
                        rhs += A.mult[i, j, k] * self.act[k]
                if not np.array_equal(lhs, F.reduce(rhs)):
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


def hom_space(M, N):
    """All module maps M -> N.

    Returns (maps, flat) where flat is a canonical row basis of the
    flattened coordinate space.
    """
    F = M.field
    A = M.A
    nflat = sum(M.dims[c] * N.dims[c] for c in range(A.nclasses))
    if nflat == 0:
        return [], F.zeros((0, 0))
    off = _flat_offsets(M, N)
    rows = []
    for b in range(A.dim):
        s, t = int(A.src[b]), int(A.tgt[b])
        # condition: act_M[b] @ f[t] - f[s] @ act_N[b] = 0
        blk = F.zeros((M.dims[int(A.src[b])] * N.dims[int(A.tgt[b])], nflat))
        # express each linear condition as a row over the flat coordinates
        # entry (i, j) of the condition block, unknowns f[t][k, j], f[s][i, l]
        for i in range(M.dims[s]):
            for j in range(N.dims[t]):
                r = i * N.dims[t] + j
                for k in range(M.dims[t]):
                    blk[r, off[t] + k * N.dims[t] + j] += M.act[b][i, k]
                for l in range(N.dims[s]):
                    blk[r, off[s] + i * N.dims[s] + l] -= N.act[b][l, j]
        rows.append(F.reduce(blk))
    cond = np.concatenate(rows, axis=0) if rows else F.zeros((0, nflat))
    sol = linalg.kernel(F, cond) if cond.shape[0] else F.eye(nflat)
    sol = linalg.row_space(F, sol)
    maps = [map_from_flat(M, N, sol[i]) for i in range(sol.shape[0])]
    return maps, sol


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
                c2, i2 = index[int(k)]
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
    P = projective_module(A, c)
    radv = radical_vectors(P)
    return quotient_module(P, radv)[0]


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
        blocks = [m.act[b] for m in mods]
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


def close_under_action(M, vectors):
    """Span of vectors closed under the algebra action, as total vectors."""
    F = M.field
    if not len(vectors):
        return F.zeros((0, M.total))
    cur = linalg.row_space(
        F, np.stack([np.asarray(v).reshape(-1) for v in vectors], axis=0)
    )
    ops = [M.act_total(M.A.basis_vec(b)) for b in range(M.A.dim)]
    while True:
        new = cur
        for op in ops:
            new = linalg.sum_spaces(F, new, F.matmul(cur, op))
        if new.shape[0] == cur.shape[0]:
            return new
        cur = new


def submodule(M, vectors, closed=False):
    """(S, inclusion) for the submodule generated by total vectors."""
    F = M.field
    if not closed:
        vecs = close_under_action(M, vectors)
    else:
        vecs = (
            linalg.row_space(
                F,
                np.stack([np.asarray(v).reshape(-1) for v in vectors], axis=0),
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
    """(Q, projection) for M modulo the submodule spanned by total vectors."""
    F = M.field
    vecs = close_under_action(M, sub_vectors) if len(sub_vectors) else \
        F.zeros((0, M.total))
    pieces = graded_pieces_of_span(M, vecs)
    comps = [
        linalg.complement(F, pieces[c], F.eye(M.dims[c]))
        for c in range(M.A.nclasses)
    ]
    dims = [comp.shape[0] for comp in comps]
    # [pieces[c]; comps[c]] is a basis of class c; coordinates over it,
    # less the first pieces[c].shape[0], are the coordinates modulo the
    # submodule.
    coords = [
        linalg.Coords(F, np.concatenate([pieces[c], comps[c]], axis=0))
        for c in range(M.A.nclasses)
    ]

    def quotient_rows(c, vs):
        x = coords[c].of(vs)
        if x is None:
            raise RuntimeError("vector not in the spanned space")
        return x[:, pieces[c].shape[0]:]

    act = [
        quotient_rows(int(M.A.tgt[b]),
                      F.matmul(comps[int(M.A.src[b])], M.act[b]))
        for b in range(M.A.dim)
    ]
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


def radical_vectors(M):
    """Total-vector basis of M * rad(A)."""
    F = M.field
    rad = M.A.radical()
    rows = []
    for i in range(rad.shape[0]):
        op = M.act_total(rad[i])
        rows.append(op)
    if not rows:
        return F.zeros((0, M.total))
    return linalg.row_space(F, np.concatenate(rows, axis=0))


def socle_vectors(M):
    """Total vectors killed by the radical (the socle submodule)."""
    F = M.field
    rad = M.A.radical()
    if rad.shape[0] == 0:
        return F.eye(M.total)
    mats = [M.act_total(rad[i]) for i in range(rad.shape[0])]
    stacked = np.concatenate(mats, axis=1)
    return linalg.row_space(F, linalg.kernel(F, stacked.T))


# ---- projective covers and presentations --------------------------------


class ProjSum:
    """Direct sum of indecomposable projectives with generator bookkeeping.

    Summand k's class-d basis starts at row starts[k][d] of the sum's
    class-d block, as `direct_sum` lays it out.
    """

    def __init__(self, A, classes):
        self.A = A
        self.classes = list(classes)
        self.starts = []
        if self.classes:
            mods = [projective_module(A, c) for c in self.classes]
            self.module, self.incls, self.projs = direct_sum(mods)
            self.gens = [
                self.incls[k].apply(mods[k].gen) for k in range(len(mods))
            ]
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
            self.incls, self.projs, self.gens, self.summands = [], [], [], []

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
        """Basis of Hom(self.module, N) as (maps, flat), without a solve.

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
        flat = np.concatenate(blocks, axis=0) if blocks else \
            F.zeros((0, nflat))
        maps = [map_from_flat(M, N, flat[i]) for i in range(flat.shape[0])]
        return maps, flat

    def entry_matrix_to(self, other, f):
        """Express f: self.module -> other.module by algebra elements.

        Returns the array entries[j, k] in e_{other.classes[k]} A
        e_{self.classes[j]} with f(gen_j) = sum_k gen_k * entries[j, k].
        """
        A = self.A
        entries = A.field.zeros((len(self.classes), len(other.classes), A.dim))
        for j, dj in enumerate(self.classes):
            y = f.apply(self.gens[j])
            piece = other.module.piece(y.reshape(1, -1), dj)[0]
            for k in range(len(other.classes)):
                st = other.starts[k][dj]
                for i, b in enumerate(other.summands[k].basis_members[dj]):
                    entries[j, k, b] = piece[st + i]
        return entries

    def map_from_entries(self, other, entries):
        """ModuleMap self.module -> other.module, gen_j -> sum gen_k*a_jk,
        for an entries array a of shape (len self, len other, dim A)."""
        F = self.A.field
        gen_images = []
        for j in range(len(self.classes)):
            v = F.zeros((other.module.total,))
            for k in range(len(other.classes)):
                a = entries[j][k]
                op = other.module.act_total(a)
                v = F.reduce(v + F.matmul(self.A.field.reduce(
                    other.gens[k].reshape(1, -1)), op)[0])
            gen_images.append(v)
        return self.map_to(other.module, gen_images)


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
    P = ProjSum(M.A, classes)
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
        K, incl = submodule(psums[-1].module, kv, closed=True)
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
    Q0 = ProjSum(Aop, P0.classes)
    Q1 = ProjSum(Aop, P1.classes)
    # Hom(-, A) transposes the entry matrix; elements keep their coordinates
    dt = Q0.map_from_entries(Q1, entries.transpose(1, 0, 2))
    coker, proj = quotient_module(Q1.module, image_vectors(dt))
    return coker


def tau(M):
    """Auslander-Reiten translate D Tr (zero on projectives)."""
    return dual_module(transpose_module(M))


def tau_inverse(M):
    """Tr D (zero on injectives)."""
    return transpose_module(dual_module(M))


# ---- endomorphisms and decomposition ------------------------------------


def end_algebra(M):
    """(Algebra E, list of ModuleMaps matching its basis).

    One idempotent class; the identity endomorphism is basis element 0.
    """
    F = M.field
    maps, flat = hom_space(M, M)
    ident = identity_map(M)
    idflat = ident.flat()
    rest = linalg.complement(F, idflat.reshape(1, -1), flat)
    basis_flat = np.concatenate([idflat.reshape(1, -1), rest], axis=0)
    n = basis_flat.shape[0]
    basis_maps = [map_from_flat(M, M, basis_flat[i]) for i in range(n)]
    coords = linalg.Coords(F, basis_flat)
    mult = F.zeros((n, n, n))
    for i in range(n):
        prods = np.stack(
            [basis_maps[i].compose(basis_maps[j]).flat() for j in range(n)]
        )
        block = coords.of(prods)
        if block is None:
            raise RuntimeError("endomorphism space not closed")
        mult[i] = block
    E = alg_mod.Algebra(
        F, ["f%d" % i for i in range(n)], [0] * n, [0] * n, mult, [0], 1
    )
    return E, basis_maps


def endo_from_element(M, basis_maps, x):
    F = M.field
    out = zero_map(M, M)
    for i in np.flatnonzero(np.asarray(x) != 0):
        out = out.add(basis_maps[int(i)].scale(x[int(i)]))
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
            emap = endo_from_element(M, basis_maps, e)
            S, incl, proj = _split_off(M, emap)
            triple_group.append((S, incl, proj))
        out.append(triple_group)
    return out


def _split_off(M, emap):
    """(image of an idempotent endomorphism, inclusion, retraction)."""
    F = M.field
    imv = image_vectors(emap)
    S, incl = submodule(M, imv, closed=True)
    # retraction: apply e, then express in the image basis, per class
    pmats = []
    for c in range(M.A.nclasses):
        pm = linalg.solve_matrix(F, incl.mats[c].T, emap.mats[c].T)
        if pm is None:
            raise RuntimeError("idempotent image splitting failed")
        pmats.append(pm.T)
    proj = ModuleMap(M, S, pmats)
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

    def __init__(self, dim, cocycles, coboundaries, psums, dmaps, cover, N):
        self.dim = dim
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.psums = psums
        self.dmaps = dmaps
        self.cover = cover
        self.N = N


def ext_space(M, N, degree):
    """Ext^degree(M, N) via a minimal projective resolution of M."""
    if degree < 1:
        raise ValueError("use hom_space for degree 0")
    F = M.field
    psums, dmaps, cover = min_resolution(M, degree + 1)
    # Hom(P_i, N) bases; cocycles and coboundaries below are canonical row
    # spaces, so they do not depend on the choice of these bases
    homs = [ps.hom_to(N) for ps in psums]
    deltas = []
    for i, d in enumerate(dmaps):
        # delta_i : Hom(P_i, N) -> Hom(P_{i+1}, N), phi -> d_{i+1} . phi
        src_maps, src_flat = homs[i]
        tgt_maps, tgt_flat = homs[i + 1]
        rows = []
        for f in src_maps:
            rows.append(d.compose(f).flat())
        if rows:
            mat = np.stack(rows, axis=0)
        else:
            mat = F.zeros((0, homs[i + 1][1].shape[1] if tgt_flat.size else 0))
        deltas.append(mat)
    # cocycles at position `degree`: kernel of delta_degree within the image
    # coordinates of Hom(P_degree, N)
    src_maps, src_flat = homs[degree]
    if not src_maps:
        zero = F.zeros((0, src_flat.shape[1] if src_flat.size else 0))
        return ExtData(0, zero, zero, psums, dmaps, cover, N)
    nxt = deltas[degree]
    coeff_kernel = linalg.kernel(F, nxt.T) if nxt.shape[1] else \
        F.eye(len(src_maps))
    cocycles = linalg.row_space(F, F.matmul(coeff_kernel, src_flat))
    prev = deltas[degree - 1]
    coboundaries = linalg.row_space(F, prev) if prev.shape[0] else \
        F.zeros((0, src_flat.shape[1]))
    dim = cocycles.shape[0] - coboundaries.shape[0]
    return ExtData(dim, cocycles, coboundaries, psums, dmaps, cover, N)


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
    neg_phi = phi.scale(-1 % F.p if isinstance(F, linalg.GF) else -1)
    w_map = neg_phi.compose(incls[0]).add(d1.compose(incls[1]))
    E, pr = quotient_module(DS, image_vectors(w_map))
    f = incls[0].compose(pr)
    # g: E -> M induced by (0, cover); well defined since cover . d1 = 0
    g_on_ds = projs[1].compose(cover)
    gmats = []
    for c in range(M.A.nclasses):
        x = linalg.solve_matrix(F, pr.mats[c], g_on_ds.mats[c])
        if x is None:
            raise RuntimeError("map does not factor through the quotient")
        gmats.append(x)
    g = ModuleMap(E, M, gmats)
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
    P1, P0 = ext.psums[1], ext.psums[0]
    d1 = ext.dmaps[0]
    cover = ext.cover
    action_mats = []
    quot_basis = linalg.complement(F, ext.coboundaries, ext.cocycles)
    for r in range(radE.shape[0]):
        f = endo_from_element(X, basis_maps, radE[r])
        f0 = _lift_through(cover, cover.compose(f))
        f1 = _lift_through(d1, d1.compose(f0))
        rows = []
        for i in range(quot_basis.shape[0]):
            phi = map_from_flat(P1.module, tX, quot_basis[i])
            moved = f1.compose(phi).flat()
            rows.append(
                linalg.quotient_coords(
                    F, ext.coboundaries, quot_basis, moved
                )
            )
        action_mats.append(np.stack(rows, axis=0) if rows else
                           F.zeros((0, 0)))
    if quot_basis.shape[0] == 0:
        raise RuntimeError("empty Ext quotient")
    if action_mats:
        stacked = np.concatenate([m for m in action_mats], axis=1)
        soc = linalg.kernel(F, stacked.T)
    else:
        soc = F.eye(quot_basis.shape[0])
    if soc.shape[0] == 0:
        raise RuntimeError("socle of Ext^1(X, tau X) vanished")
    coeffs = soc[0]
    cocycle = F.reduce(np.einsum("i,ij->j", coeffs, quot_basis))
    Emid, f, g = extension_sequence(X, tX, ext, cocycle)
    return tX, Emid, X, f, g


def _lift_through(surj, target):
    """Module map h with h . surj = target (source of target is projective).

    Solved inside the hom space so the lift is an actual module map, not
    just a per-class linear solution.
    """
    F = surj.field
    maps, _ = hom_space(target.src, surj.src)
    flats = [m.compose(surj).flat() for m in maps]
    if not flats:
        if target.is_zero():
            return zero_map(target.src, surj.src)
        raise RuntimeError("lift through surjection failed")
    basis = np.stack(flats, axis=0)
    co = linalg.coords_in_basis(F, basis, target.flat())
    if co is None:
        raise RuntimeError("lift through surjection failed")
    out = zero_map(target.src, surj.src)
    for c, m in zip(co, maps):
        out = out.add(m.scale(c))
    return out


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
    # the sequence splits iff g has a section
    if _is_retraction_target(g, M):
        return False
    if not (is_indecomposable(N) and is_indecomposable(M)):
        return False
    for Z in test_modules:
        maps, _ = hom_space(Z, M)
        for h in maps:
            if _is_retraction_target(h, M):
                continue
            if not _factors_through(h, g):
                return False
    return True


def _is_retraction_target(h, M):
    """Does some s: M -> Z satisfy s . h = id_M?  (h: Z -> M)"""
    maps, _ = hom_space(M, h.src)
    F = M.field
    flats = [s.compose(h).flat() for s in maps]
    if not flats:
        return M.total == 0
    basis = np.stack(flats, axis=0)
    return linalg.in_span(F, basis, identity_map(M).flat())


def _factors_through(h, g):
    """Does h = u . g for some u: src(h) -> src(g)?"""
    maps, _ = hom_space(h.src, g.src)
    F = h.field
    flats = [u.compose(g).flat() for u in maps]
    if not flats:
        return h.is_zero()
    basis = np.stack(flats, axis=0)
    return linalg.in_span(F, basis, h.flat())
