"""Two-term silting complexes and the induced comparison of categories.

Given a 2-term silting complex P over A, this module builds the
endomorphism algebra B of P in the homotopy category, the triangle
A -> P' -> P'' -> A[1] coming from a minimal left add(P)-approximation,
the induced 2-term silting complex Q over B, the algebra map
phi: A -> End(Q), both induced torsion pairs, and the battery-level
verification of the comparison theorem relating mod A and mod B.
"""

import functools
import random

import numpy as np

from . import algebra as alg_mod
from . import complexes as cx
from . import linalg
from . import modules as mod


class PreconditionError(ValueError):
    """Input fails a mathematical precondition (e.g. not silting)."""


# ---- silting predicates ---------------------------------------------------


def _require_two_term(P):
    if not set(P.terms) <= {-1, 0}:
        raise PreconditionError(
            "complex must be concentrated in degrees -1 and 0"
        )


def is_presilting(P):
    """(verdict, witness): witness is a nonzero class in Hom(P, P[1])."""
    _require_two_term(P)
    mc, _ = P.module_form()
    hs = cx.hom_complexes(mc, mc, 1)
    if hs.dim == 0:
        return True, None
    return False, hs.class_map(0)


def is_silting(P, rng=None):
    """Presilting with as many summand classes as A has simples."""
    ok, wit = is_presilting(P)
    if not ok:
        return False, wit
    groups = cx.decompose_complex(P, rng)
    if len(groups) != P.A.nclasses:
        return False, None
    return True, None


def is_tilting(P, rng=None):
    """Silting with additionally Hom(P, P[-1]) = 0."""
    ok, wit = is_silting(P, rng)
    if not ok:
        return False, wit
    mc, _ = P.module_form()
    hs = cx.hom_complexes(mc, mc, -1)
    if hs.dim == 0:
        return True, None
    return False, hs.class_map(0)


def basic_part(P, rng=None):
    """One summand per isomorphism class, as a direct sum complex."""
    groups = cx.decompose_complex(P, rng)
    summands = [g[0] for g in groups]
    return cx.proj_complex_direct_sum(summands), summands


# ---- torsion pairs --------------------------------------------------------


class TorsionPair:
    """The torsion pair (Fac H^0(P), Sub H^{-1}(nu P)) of a silting P.

    Membership is decided both by Hom-vanishing against P and by the
    trace/reject criteria; the two answers are asserted equal.
    """

    def __init__(self, P):
        self.P = P
        self.A = P.A
        self.field = P.A.field
        self.mc, _ = P.module_form()
        self.h0 = self.mc.cohomology(0)
        self.cogen = cx.nu_complex(P).cohomology(-1)
        self._cache = {}

    def trace_vectors(self, X):
        """Total vectors spanning the largest H^0(P)-generated submodule."""
        F = self.field
        maps, _ = mod.hom_space(self.h0, X)
        rows = [mod.image_vectors(m) for m in maps]
        rows = [r for r in rows if r.shape[0]]
        if not rows:
            return F.zeros((0, X.total))
        return linalg.row_space(F, np.concatenate(rows, axis=0))

    def reject_is_zero(self, X):
        """Does X embed into a sum of copies of the cogenerator?"""
        F = self.field
        if X.total == 0:
            return True
        maps, _ = mod.hom_space(X, self.cogen)
        if not maps:
            return False
        stacked = np.concatenate([m.total_matrix() for m in maps], axis=1)
        return linalg.rank(F, stacked) == X.total

    def _hom_dim(self, X, shift):
        return cx.hom_complexes(self.mc, cx.stalk_complex(X), shift).dim

    def in_torsion(self, X):
        # the cache keeps X alive so id-based keys stay unique
        key = ("t", id(X))
        if key not in self._cache:
            by_hom = self._hom_dim(X, 1) == 0
            by_trace = self.trace_vectors(X).shape[0] == X.total
            if by_hom != by_trace:
                raise RuntimeError("torsion membership criteria disagree")
            self._cache[key] = (X, by_hom)
        return self._cache[key][1]

    def in_free(self, X):
        key = ("f", id(X))
        if key not in self._cache:
            by_hom = self._hom_dim(X, 0) == 0
            by_reject = self.reject_is_zero(X)
            if by_hom != by_reject:
                raise RuntimeError("torsion-free membership criteria disagree")
            self._cache[key] = (X, by_hom)
        return self._cache[key][1]

    def torsion_part(self, X):
        """(tX, inclusion) for the canonical torsion submodule."""
        return mod.submodule(X, self.trace_vectors(X), closed=True)

    @functools.cached_property
    def tnuA(self):
        """t(nu A), the torsion part of the injective cogenerator."""
        nuA, _, _ = mod.direct_sum(
            [mod.injective_module(self.A, c) for c in range(self.A.nclasses)]
        )
        return self.torsion_part(nuA)[0]

    @functools.cached_property
    def AtA(self):
        """A/tA, the torsion-free quotient of the regular module."""
        reg = mod.regular_module(self.A)
        return mod.quotient_module(reg, self.trace_vectors(reg))[0]

    def summands_of(self, G, rng):
        """One indecomposable summand of G per isomorphism class,
        decomposed once per module."""
        key = ("s", id(G))
        if key not in self._cache:
            self._cache[key] = (
                G, [grp[0][0] for grp in mod.decompose_module(G, rng)]
            )
        return self._cache[key][1]

    def canonical_sequence(self, X):
        """(tX, incl, X/tX, proj), with both memberships asserted."""
        tv = self.trace_vectors(X)
        tX, incl = mod.submodule(X, tv, closed=True)
        Q, proj = mod.quotient_module(X, tv)
        if not self.in_torsion(tX) or not self.in_free(Q):
            raise RuntimeError("canonical sequence ends misclassified")
        return tX, incl, Q, proj


# ---- endomorphism algebra of P and minimal approximations ----------------


class EndP:
    """B = End(P) in the homotopy category, for the module forms mq of the
    indecomposable summands of a basic complex P.

    Basis element k of B is the class of the chain map reps[k] from
    mq[B.tgt[k]] to mq[B.src[k]]; the identity comes first in each
    diagonal corner.
    """

    def __init__(self, mq):
        F = mq[0].field
        self.mq = mq
        self.n = n = len(mq)
        self.field = F
        corners = {}
        corner_rows = {}
        corner_index = {}
        labels, src, tgt, reps, idem = [], [], [], [], []
        for i in range(n):
            for j in range(n):
                hs = cx.HomSpace(mq[j], mq[i])
                corners[(i, j)] = hs
                if i == j:
                    ident = cx.identity_chain_map(mq[i])
                    idf = hs.flat_of(ident).reshape(1, -1)
                    others = linalg.complement(
                        F, linalg.sum_spaces(F, hs.htpy, idf), hs.chain_basis
                    )
                    rows = (
                        np.concatenate([idf, others], axis=0)
                        if others.shape[0]
                        else idf
                    )
                    if rows.shape[0] != hs.dim:
                        raise RuntimeError(
                            "identity class degenerate on a summand"
                        )
                else:
                    rows = hs.class_basis
                corner_rows[(i, j)] = rows
                idxs = []
                for r in range(rows.shape[0]):
                    k = len(labels)
                    labels.append("b%d" % k)
                    src.append(i)
                    tgt.append(j)
                    reps.append(hs.map_from_flat(rows[r]))
                    idxs.append(k)
                    if i == j and r == 0:
                        idem.append(k)
                corner_index[(i, j)] = idxs
        dim = len(labels)
        mult = F.zeros((dim, dim, dim))
        for x in range(dim):
            i, j = src[x], tgt[x]
            for y in range(dim):
                if src[y] != j:
                    continue
                l = tgt[y]
                hs = corners[(i, l)]
                comp = reps[y].compose(reps[x])
                co = linalg.quotient_coords(
                    F, hs.htpy, corner_rows[(i, l)], hs.flat_of(comp)
                )
                for pos, k in enumerate(corner_index[(i, l)]):
                    mult[x, y, k] = co[pos]
        B = alg_mod.Algebra(F, labels, src, tgt, mult, idem, n)
        if not B.check_associative() or not B.check_idempotents():
            raise RuntimeError("endomorphism algebra axioms failed")
        self.B = B
        self.reps = reps
        self._corner_index = corner_index

    def corner_rep(self, vec, i, j):
        """Chain map mq[j] -> mq[i] for the (i, j)-corner part of a
        B-vector, or None when that part is zero."""
        out = None
        for k in self._corner_index[(i, j)]:
            if vec[k] == 0:
                continue
            piece = self.reps[k].scale(vec[k])
            out = piece if out is None else out.add(piece)
        return out


def minimal_approximation(endp, X, side):
    """Generators of a minimal add(P)-approximation of the complex X.

    side "left": for each summand i, a basis of Hom(X, P_i) modulo the
    maps X -> P_j -> P_i through rad End(P); side "right": of Hom(P_i, X)
    modulo P_i -> P_j -> X.  Returns [(i, chain map)], one pair per copy
    of P_i in the approximating object, in summand order.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    F = endp.field
    left = side == "left"
    V = [cx.HomSpace(X, q) if left else cx.HomSpace(q, X) for q in endp.mq]
    radB = endp.B.radical()
    gens = []
    for i in range(endp.n):
        if V[i].dim == 0:
            continue
        rows = []
        for r in range(radB.shape[0]):
            for j in range(endp.n):
                if left:
                    rep = endp.corner_rep(radB[r], i, j)
                else:
                    rep = endp.corner_rep(radB[r], j, i)
                if rep is None:
                    continue
                for t in range(V[j].dim):
                    phi = V[j].class_map(t)
                    comp = phi.compose(rep) if left else rep.compose(phi)
                    rows.append(V[i].coords(comp))
        radimg = (
            linalg.row_space(F, np.stack(rows, axis=0))
            if rows
            else F.zeros((0, V[i].dim))
        )
        for row in linalg.complement(F, radimg, F.eye(V[i].dim)):
            m = None
            for t in np.flatnonzero(row != 0):
                piece = V[i].class_map(int(t)).scale(row[int(t)])
                m = piece if m is None else m.add(piece)
            gens.append((i, m))
    return gens


class SiltingContext:
    """Everything derived from one basic 2-term silting complex."""

    def __init__(self, P, rng=None):
        self.rng = rng or random.Random(0)
        self.A = P.A
        self.field = P.A.field
        self._cache = {}
        ok, wit = is_presilting(P)
        if not ok:
            raise PreconditionError(
                "complex is not presilting: nonzero degree-1 self-map "
                "witness of total rank %d"
                % sum(int(np.count_nonzero(m))
                      for f in wit.maps.values() for m in f.mats)
            )
        # one decomposition gives the silting verdict and the basic part
        groups = cx.decompose_complex(P, self.rng)
        if len(groups) != self.A.nclasses:
            raise PreconditionError(
                "complex is presilting but has too few summand classes"
            )
        self.summands = [g[0] for g in groups]
        self.P = cx.proj_complex_direct_sum(self.summands)
        self.mcP, _ = self.P.module_form()
        self.tilting = cx.hom_complexes(self.mcP, self.mcP, -1).dim == 0
        self.mq = [s.module_form()[0] for s in self.summands]
        self.n = len(self.summands)
        self.endo = EndP(self.mq)
        self.B, self.reps = self.endo.B, self.endo.reps
        self._build_delta()
        self._build_q()
        self._build_phi()
        self.torsion_A = TorsionPair(self.P)
        self.torsion_B = TorsionPair(self.Q)

    # -- triangle A -> P' -> P'' -> A[1] ------------------------------------

    def _build_delta(self):
        A = self.A
        F = self.field
        self.stalkA = cx.stalk_proj_complex(A, list(range(A.nclasses)))
        self.mcA, psA = self.stalkA.module_form()
        self.psA0 = psA[0]
        self._index_regular()
        sts = [
            cx.stalk_proj_complex(A, [c]).module_form()[0]
            for c in range(A.nclasses)
        ]
        gens = [
            (c, i, m)
            for c in range(A.nclasses)
            for i, m in minimal_approximation(self.endo, sts[c], "left")
        ]
        parts = [self.summands[i] for (_, i, _) in gens]
        if parts:
            self.Pp = cx.proj_complex_direct_sum(parts)
        else:
            self.Pp = cx.ProjComplex(A, {}, {})
        self.mcPp, psPp = self.Pp.module_form()
        incls = _copy_inclusions(parts, self.Pp) if parts else []
        emaps = {}
        if parts:
            m0 = mod.zero_map(self.mcA.term(0), self.mcPp.term(0))
            for k, (c, i, gmap) in enumerate(gens):
                m0 = m0.add(
                    self.psA0.projs[c]
                    .compose(gmap.map_at(0))
                    .compose(incls[k].map_at(0))
                )
            emaps[0] = m0
        self.e = cx.ChainMap(self.mcA, self.mcPp, emaps)
        if not self.e.check():
            raise RuntimeError("approximation map is not a chain map")
        self._assert_approximation(self.e, "left")
        # cone of e with rows (P'^{-1} then A) mapping by (-p', e)
        p1 = list(self.Pp.terms.get(-1, []))
        p0 = list(self.Pp.terms.get(0, []))
        acl = list(range(A.nclasses))
        cone_terms = {-1: p1 + acl}
        cone_diffs = {}
        if p0:
            cone_terms[0] = p0
            entries = F.zeros((len(p1) + len(acl), len(p0), A.dim))
            if p1:
                entries[: len(p1)] = F.reduce(-self.Pp.diff(-1))
            entries[len(p1) :] = self.psA0.entry_matrix_to(
                psPp[0], self.e.map_at(0)
            )
            cone_diffs[-1] = entries
        self.cone = cx.ProjComplex(A, cone_terms, cone_diffs)
        if not self.cone.check():
            raise RuntimeError("triangle cone fails d^2 = 0")
        self.mcC, self.psC = self.cone.module_form()
        self.p1_count = len(p1)
        neg = cx.neg_one(F)
        fmaps = {}
        if p1:
            m = mod.zero_map(self.mcPp.term(-1), self.mcC.term(-1))
            for k in range(len(p1)):
                m = m.add(psPp[-1].projs[k].compose(self.psC[-1].incls[k]))
            fmaps[-1] = m.scale(neg)
        if p0:
            fmaps[0] = mod.ModuleMap(
                self.mcPp.term(0),
                self.mcC.term(0),
                [F.eye(d) for d in self.mcPp.term(0).dims],
            )
        self.f = cx.ChainMap(self.mcPp, self.mcC, fmaps)
        mcA1 = self.mcA.shift(1)
        m = mod.zero_map(self.mcC.term(-1), mcA1.term(-1))
        for c in range(A.nclasses):
            m = m.add(
                self.psC[-1].projs[len(p1) + c].compose(self.psA0.incls[c])
            )
        self.g = cx.ChainMap(self.mcC, mcA1, {-1: m.scale(neg)})
        if not self.f.check() or not self.g.check():
            raise RuntimeError("cone structure maps are not chain maps")
        if not cx.HomSpace(self.mcA, self.mcC).is_nullhomotopic(
            self.e.compose(self.f)
        ):
            raise RuntimeError("triangle composite e.f not null-homotopic")
        self.Ppp = cx.minimize(self.cone)
        for grp in cx.decompose_complex(self.cone, self.rng):
            if not any(
                cx.complexes_isomorphic(grp[0], s) for s in self.summands
            ):
                raise RuntimeError("cone of the approximation leaves add P")
        self._assert_approximation(self.g, "right")

    def _index_regular(self):
        A = self.A
        F = self.field
        M = self.psA0.module
        members = [[] for _ in range(A.nclasses)]
        for k in range(A.nclasses):
            Pk = self.psA0.summands[k]
            for d in range(A.nclasses):
                members[d].extend(Pk.basis_members[d])
        pos_of = {}
        for d in range(A.nclasses):
            for p, b in enumerate(members[d]):
                pos_of[b] = (d, p)
        unit = F.zeros((M.total,))
        for c in range(A.nclasses):
            d, p = pos_of[A.idem[c]]
            unit[M.offsets[d] + p] = 1
        self._reg_members = members
        self._reg_pos = pos_of
        self._reg_unit = unit

    def left_mult_map(self, avec):
        """Right-module endomorphism of A given by left multiplication."""
        A = self.A
        F = self.field
        M = self.psA0.module
        mats = [F.zeros((M.dims[d], M.dims[d])) for d in range(A.nclasses)]
        for d in range(A.nclasses):
            for p, b in enumerate(self._reg_members[d]):
                prod = A.el_mult(avec, A.basis_vec(b))
                for k in np.flatnonzero(prod != 0):
                    d2, p2 = self._reg_pos[int(k)]
                    mats[d][p, p2] = prod[k]
        return mod.ModuleMap(M, M, mats)

    def element_of_regular_endo(self, m):
        """Algebra element x with m = left multiplication by x."""
        A = self.A
        F = self.field
        M = self.psA0.module
        w = m.apply(self._reg_unit)
        x = F.zeros((A.dim,))
        for d in range(A.nclasses):
            for p, b in enumerate(self._reg_members[d]):
                x[b] = w[M.offsets[d] + p]
        return x

    def _assert_approximation(self, u, side):
        """Every map into add P factors through u, up to homotopy.

        side "left": u = e: A -> P' and each map A -> P is e followed by a
        map P' -> P.  side "right": u = g: C -> A[1] and each map
        P_i -> A[1] is a map P_i -> C followed by g.
        """
        F = self.field
        left = side == "left"
        for T in ([self.mcP] if left else self.mq):
            V = cx.HomSpace(u.src, T) if left else cx.HomSpace(T, u.tgt)
            if V.nflat == 0:
                continue
            W = cx.HomSpace(u.tgt, T) if left else cx.HomSpace(T, u.src)
            rows = []
            for r in range(W.chain_basis.shape[0]):
                psi = W.map_from_flat(W.chain_basis[r])
                comp = u.compose(psi) if left else psi.compose(u)
                rows.append(V.flat_of(comp))
            span = (
                linalg.row_space(F, np.stack(rows, axis=0))
                if rows
                else F.zeros((0, V.nflat))
            )
            span = linalg.sum_spaces(F, span, V.htpy)
            for r in range(V.chain_basis.shape[0]):
                if not linalg.in_span(F, span, V.chain_basis[r]):
                    raise RuntimeError(
                        "%s approximation property failed" % side
                    )

    # -- the induced complex Q over B ---------------------------------------

    def hom_P(self, Ymc, shift=0):
        """Hom(P, Y[shift]) as a right B-module, with coordinate data."""
        return HomPModule(self, Ymc, shift)

    def _memo(self, tag, X, shift, build):
        # the cache keeps X alive so id-based keys stay unique
        key = (tag, id(X), shift)
        if key not in self._cache:
            self._cache[key] = (X, build())
        return self._cache[key][1]

    def hom_P_of(self, X, shift=0):
        """Hom(P, X[shift]) for a module X, built once per (X, shift)."""
        return self._memo(
            "P", X, shift,
            lambda: HomPModule(self, cx.stalk_complex(X), shift),
        )

    def _build_q(self):
        F = self.field
        self.HBp = self.hom_P(self.mcPp, 0)
        self.HBc = self.hom_P(self.mcC, 0)
        terms = {}
        dmaps = {}
        if self.HBp.module.total > 0:
            terms[-1] = self.HBp.module
        if self.HBc.module.total > 0:
            terms[0] = self.HBc.module
        if -1 in terms and 0 in terms:
            delta = hom_P_map(self, self.HBp, self.HBc, self.f)
            if not delta.check():
                raise RuntimeError("induced differential not a B-module map")
            dmaps[-1] = delta
        self.Q_mod = cx.ModuleComplex(self.B, terms, dmaps)
        if not self.Q_mod.check():
            raise RuntimeError("induced complex fails d^2 = 0")
        self.Q, self.q_covers = cx.proj_complex_from_module_complex(
            self.Q_mod
        )
        pre, _ = is_presilting(self.Q)
        self.q_classes = (
            len(cx.decompose_complex(self.Q, self.rng)) if pre else 0
        )
        if self.q_classes != self.B.nclasses:
            raise RuntimeError("induced complex over B is not silting")

    # -- phi: A -> End(Q) ----------------------------------------------------

    def _build_phi(self):
        A = self.A
        F = self.field
        hsAP = cx.HomSpace(self.mcA, self.mcPp)
        hsEnd = cx.HomSpace(self.mcPp, self.mcPp)
        erows = []
        for r in range(hsEnd.chain_basis.shape[0]):
            bmap = hsEnd.map_from_flat(hsEnd.chain_basis[r])
            erows.append(hsAP.flat_of(self.e.compose(bmap)))
        self.EndQ = cx.HomSpace(self.Q_mod, self.Q_mod)
        self.phi_chain = []
        Vrows = []
        for a_idx in range(A.dim):
            psi = self._phi_of(A.basis_vec(a_idx), hsAP, hsEnd, erows)
            self.phi_chain.append(psi)
            Vrows.append(self.EndQ.coords(psi))
        self.phi_matrix = (
            np.stack(Vrows, axis=0)
            if Vrows
            else F.zeros((0, self.EndQ.dim))
        )
        if linalg.rank(F, self.phi_matrix) != self.EndQ.dim:
            raise RuntimeError("induced algebra map is not surjective")
        ker1 = linalg.row_space(
            F, linalg.kernel(F, self.phi_matrix.T)
        )
        ker2 = self._factorization_kernel()
        if ker1.shape != ker2.shape or not np.array_equal(ker1, ker2):
            raise RuntimeError("kernel computations disagree")
        self.phi_kernel = ker1
        if (ker1.shape[0] == 0) != self.tilting:
            raise RuntimeError("kernel vanishing contradicts tilting test")

    def _phi_of(self, avec, hsAP, hsEnd, erows):
        F = self.field
        neg = cx.neg_one(F)
        lam = self.left_mult_map(avec)
        chain_a = cx.ChainMap(self.mcA, self.mcA, {0: lam})
        target = chain_a.compose(self.e)
        if hsAP.nflat > 0:
            if erows:
                basis = np.stack(erows, axis=0)
            else:
                basis = F.zeros((0, hsAP.nflat))
            if hsAP.htpy.shape[0]:
                basis = (
                    np.concatenate([basis, hsAP.htpy], axis=0)
                    if basis.shape[0]
                    else hsAP.htpy
                )
            tflat = hsAP.flat_of(target)
            if basis.shape[0]:
                co = linalg.coords_in_basis(F, basis, tflat)
            else:
                co = None if np.any(tflat != 0) else F.zeros((0,))
            if co is None:
                raise RuntimeError("no chain solution for the induced endo")
            bflat = F.zeros((hsEnd.nflat,))
            for r in range(len(erows)):
                bflat = F.reduce(bflat + co[r] * hsEnd.chain_basis[r])
            b = hsEnd.map_from_flat(bflat)
            diff = target.add(self.e.compose(b).scale(neg))
            hdict = cx.find_homotopy(hsAP, diff)
            if hdict is None:
                raise RuntimeError("commutation defect not null-homotopic")
            t = hdict.get(
                0, mod.zero_map(self.mcA.term(0), self.mcPp.term(-1))
            )
        else:
            b = cx.ChainMap(self.mcPp, self.mcPp, {})
            t = mod.zero_map(self.mcA.term(0), self.mcPp.term(-1))
        cmaps = {}
        if 0 in self.mcC.terms:
            cmaps[0] = mod.ModuleMap(
                self.mcC.term(0), self.mcC.term(0), b.map_at(0).mats
            )
        Cm1 = self.mcC.term(-1)
        b1 = b.map_at(-1)
        mats = []
        for d in range(self.A.nclasses):
            p = self.mcPp.term(-1).dims[d]
            m = F.zeros((Cm1.dims[d], Cm1.dims[d]))
            if p:
                m[:p, :p] = b1.mats[d]
            m[p:, :p] = t.mats[d]
            m[p:, p:] = lam.mats[d]
            mats.append(m)
        cmaps[-1] = mod.ModuleMap(Cm1, Cm1, mats)
        cmap = cx.ChainMap(self.mcC, self.mcC, cmaps)
        if not cmap.check():
            raise RuntimeError("induced cone endomorphism not a chain map")
        psi_maps = {}
        if -1 in self.Q_mod.terms:
            psi_maps[-1] = hom_P_map(self, self.HBp, self.HBp, b)
        if 0 in self.Q_mod.terms:
            psi_maps[0] = hom_P_map(self, self.HBc, self.HBc, cmap)
        psi = cx.ChainMap(self.Q_mod, self.Q_mod, psi_maps)
        if not psi.check():
            raise RuntimeError("induced endomorphism of Q not a chain map")
        return psi

    def _factorization_kernel(self):
        F = self.field
        hs = cx.HomSpace(self.mcPp, self.mcC.shift(-1))
        gshift = self.g.shift(-1)
        rows = []
        for r in range(hs.chain_basis.shape[0]):
            eta = hs.map_from_flat(hs.chain_basis[r])
            chi = self.e.compose(eta).compose(gshift)
            rows.append(self.element_of_regular_endo(chi.map_at(0)))
        if not rows:
            return F.zeros((0, self.A.dim))
        return linalg.row_space(F, np.stack(rows, axis=0))

    def phi_class(self, avec):
        """Class coordinates of phi(a) over the End(Q) basis."""
        return self.field.reduce(
            np.einsum("i,ij->j", avec, self.phi_matrix)
        )

    def q_hom(self, N, shift=0):
        """Hom(Q, N[shift]) as an A-module through the induced map, built
        once per (N, shift)."""
        return self._memo("Q", N, shift, lambda: QHomModule(self, N, shift))

    def in_heart(self, X):
        """Is H^0 torsion, H^{-1} torsion-free, everything else zero?"""
        mc = X if isinstance(X, cx.ModuleComplex) else X.module_form()[0]
        degs = set(mc.terms) | {d + 1 for d in mc.terms}
        for d in degs:
            H = mc.cohomology(d)
            if d == 0:
                if not self.torsion_A.in_torsion(H):
                    return False
            elif d == -1:
                if not self.torsion_A.in_free(H):
                    return False
            elif H.total != 0:
                return False
        return True


class HomPModule:
    """Hom(P, Y[shift]) as a right B-module with explicit coordinates."""

    def __init__(self, ctx, Ymc, shift):
        self.ctx = ctx
        self.shift = shift
        F = ctx.field
        self.Ysh = Ymc.shift(shift) if shift else Ymc
        self.spaces = [
            cx.HomSpace(ctx.mq[i], self.Ysh) for i in range(ctx.n)
        ]
        dims = [sp.dim for sp in self.spaces]
        act = []
        B = ctx.B
        for b in range(B.dim):
            i, j = int(B.src[b]), int(B.tgt[b])
            m = F.zeros((dims[i], dims[j]))
            for r in range(dims[i]):
                comp = ctx.reps[b].compose(self.spaces[i].class_map(r))
                m[r] = self.spaces[j].coords(comp)
            act.append(m)
        self.module = mod.Module(B, dims, act)
        if not self.module.check():
            raise RuntimeError("Hom(P, -) image violates module axioms")


def hom_P_map(ctx, src_h, tgt_h, alpha):
    """Induced B-module map Hom(P, alpha) between HomPModules.

    alpha is a chain map src_h.Ysh -> tgt_h.Ysh (already shifted).
    """
    F = ctx.field
    mats = []
    for i in range(ctx.n):
        m = F.zeros((src_h.module.dims[i], tgt_h.module.dims[i]))
        for r in range(src_h.module.dims[i]):
            comp = src_h.spaces[i].class_map(r).compose(alpha)
            m[r] = tgt_h.spaces[i].coords(comp)
        mats.append(m)
    return mod.ModuleMap(src_h.module, tgt_h.module, mats)


def hom_P_of_module_map(ctx, src_h, tgt_h, u):
    """Hom(P, u[shift]) for a module map u matching the two handles."""
    if src_h.shift != tgt_h.shift:
        raise ValueError("shift mismatch")
    d = -src_h.shift
    alpha = cx.ChainMap(src_h.Ysh, tgt_h.Ysh, {d: u})
    return hom_P_map(ctx, src_h, tgt_h, alpha)


class QHomModule:
    """Hom(Q, N[shift]) over B, carried back to an A-module."""

    def __init__(self, ctx, N, shift):
        self.ctx = ctx
        self.N = N
        self.shift = shift
        A = ctx.A
        F = ctx.field
        self.Nsh = cx.stalk_complex(N).shift(shift)
        self.V = cx.HomSpace(ctx.Q_mod, self.Nsh)
        nv = self.V.dim
        self.ops = []
        for a_idx in range(A.dim):
            m = F.zeros((nv, nv))
            for r in range(nv):
                comp = ctx.phi_chain[a_idx].compose(self.V.class_map(r))
                m[r] = self.V.coords(comp)
            self.ops.append(m)
        pieces = []
        for c in range(A.nclasses):
            pieces.append(linalg.row_space(F, self.ops[A.idem[c]]))
        dims = [p.shape[0] for p in pieces]
        if sum(dims) != nv:
            raise RuntimeError("idempotent grading does not fill the space")
        act = []
        for b in range(A.dim):
            s, t = int(A.src[b]), int(A.tgt[b])
            m = F.zeros((dims[s], dims[t]))
            for r in range(dims[s]):
                w = F.reduce(pieces[s][r] @ self.ops[b])
                co = linalg.coords_in_basis(F, pieces[t], w)
                if co is None:
                    raise RuntimeError("graded action left its piece")
                m[r] = co
            act.append(m)
        self.pieces = pieces
        self.module = mod.Module(A, dims, act)
        if not self.module.check():
            raise RuntimeError("Hom(Q, -) pullback violates module axioms")


def q_hom_map(ctx, src_q, tgt_q, w):
    """Induced A-module map Hom(Q, w[shift]) between QHomModules."""
    if src_q.shift != tgt_q.shift:
        raise ValueError("shift mismatch")
    F = ctx.field
    d = -src_q.shift
    alpha = cx.ChainMap(src_q.Nsh, tgt_q.Nsh, {d: w})
    raw = F.zeros((src_q.V.dim, tgt_q.V.dim))
    for r in range(src_q.V.dim):
        comp = src_q.V.class_map(r).compose(alpha)
        raw[r] = tgt_q.V.coords(comp)
    mats = []
    for c in range(ctx.A.nclasses):
        src_p = src_q.pieces[c]
        m = F.zeros((src_p.shape[0], tgt_q.pieces[c].shape[0]))
        for r in range(src_p.shape[0]):
            w_row = F.reduce(src_p[r] @ raw)
            co = linalg.coords_in_basis(F, tgt_q.pieces[c], w_row)
            if co is None:
                raise RuntimeError("induced map is not grading-compatible")
            m[r] = co
        mats.append(m)
    out = mod.ModuleMap(src_q.module, tgt_q.module, mats)
    if not out.check():
        raise RuntimeError("induced map is not an A-module map")
    return out


# ---- structural helpers ---------------------------------------------------


def _copy_inclusions(parts, total):
    """Chain maps including each listed summand complex into their sum."""
    starts = {d: 0 for d in total.terms}
    mcS, psS = total.module_form()
    incls = []
    for p in parts:
        mcp, psp = p.module_form()
        maps = {}
        for d, cls in p.terms.items():
            s = starts[d]
            m = mod.zero_map(mcp.term(d), mcS.term(d))
            for k in range(len(cls)):
                m = m.add(psp[d].projs[k].compose(psS[d].incls[s + k]))
            maps[d] = m
            starts[d] = s + len(cls)
        incl = cx.ChainMap(mcp, mcS, maps)
        if not incl.check():
            raise RuntimeError("summand inclusion is not a chain map")
        incls.append(incl)
    return incls


# ---- Bongartz completion --------------------------------------------------


def bongartz_complete(P, rng=None):
    """Complete a presilting 2-term complex to a silting one."""
    rng = rng or random.Random(0)
    ok, _ = is_presilting(P)
    if not ok:
        raise PreconditionError("complex is not presilting")
    A = P.A
    Pb, summands = basic_part(P, rng)
    if not summands:
        raise PreconditionError("zero complex cannot be completed")
    mq = [s.module_form()[0] for s in summands]
    # right add(P)-approximation of A[1], from minimal generators of
    # Hom(P_i, A[1]) over the endomorphism algebra of P
    stalkA = cx.stalk_proj_complex(A, list(range(A.nclasses)))
    mcA, _ = stalkA.module_form()
    gens = minimal_approximation(EndP(mq), mcA.shift(1), "right")
    parts = [summands[i] for (i, _) in gens]
    if parts:
        Ppp = cx.proj_complex_direct_sum(parts)
        incls = _copy_inclusions(parts, Ppp)
        g0 = None
        for k, (i, gmap) in enumerate(gens):
            # reverse the inclusion: project the sum onto copy k, then map
            pr = _copy_projection(incls[k])
            piece = pr.compose(gmap)
            g0 = piece if g0 is None else g0.add(piece)
        u = g0.shift(-1)
        Cmc, _, _ = cx.mapping_cone(u)
    else:
        Cmc, _, _ = cx.mapping_cone(
            cx.ChainMap(cx.ModuleComplex(A, {}, {}), mcA, {})
        )
    E_pc, _ = cx.proj_complex_from_module_complex(Cmc)
    total = cx.proj_complex_direct_sum([Pb, E_pc])
    out, out_summands = basic_part(total, rng)
    # out has one summand per class found, so this is is_silting(out)
    # without decomposing out again
    if len(out_summands) != A.nclasses or not is_presilting(out)[0]:
        raise RuntimeError("completion failed to produce a silting complex")
    for s in summands:
        if not any(
            cx.complexes_isomorphic(s, t) for t in out_summands
        ):
            raise RuntimeError("completion lost an input summand")
    return out


def _copy_projection(incl):
    """Chain projection splitting a block inclusion built by position."""
    maps = {}
    for d, m in incl.maps.items():
        mats = [np.array(mm.T, copy=True) for mm in m.mats]
        maps[d] = mod.ModuleMap(incl.tgt.term(d), incl.src.term(d), mats)
    return cx.ChainMap(incl.tgt, incl.src, maps)


# ---- module battery -------------------------------------------------------


def module_battery(A, torsion=None, max_dim=30, cap=60, seed=0, rounds=8):
    """Deterministic list of indecomposables closed under standard moves.

    Returns (modules, certified) where certified means the closure under
    radical, socle-quotient, tau in both directions and all extensions
    reached a fixpoint without dropping or capping anything.
    """
    rng = random.Random(seed)
    F = A.field
    items = []
    state = {"dropped": False}

    def add(M):
        if M.total == 0:
            return
        for grp in mod.decompose_module(M, rng):
            S = grp[0][0]
            if S.total > max_dim:
                state["dropped"] = True
                continue
            if any(
                mod.modules_isomorphic(S, X, rng) is not None for X in items
            ):
                continue
            if len(items) >= cap:
                state["dropped"] = True
                continue
            items.append(S)

    for c in range(A.nclasses):
        add(mod.simple_module(A, c))
        add(mod.projective_module(A, c))
        add(mod.injective_module(A, c))
    if torsion is not None:
        add(torsion.h0)
        add(torsion.cogen)
        add(torsion.tnuA)
        add(torsion.AtA)
        for c in range(A.nclasses):
            P = mod.projective_module(A, c)
            tP, _, PtP, _ = torsion.canonical_sequence(P)
            add(tP)
            add(PtP)
    for _ in range(rounds):
        before = len(items)
        for M in list(items):
            add(mod.submodule(M, mod.radical_vectors(M), closed=True)[0])
            add(mod.quotient_module(M, mod.socle_vectors(M))[0])
            add(mod.tau(M))
            add(mod.tau_inverse(M))
        for M in list(items):
            for N in list(items):
                ext = mod.ext_space(M, N, 1)
                if ext.dim == 0:
                    continue
                quot = linalg.complement(F, ext.coboundaries, ext.cocycles)
                for r in range(quot.shape[0]):
                    E, _, _ = mod.extension_sequence(M, N, ext, quot[r])
                    add(E)
        if len(items) == before:
            break
    else:
        state["dropped"] = True
    # one more fixpoint confirmation pass
    before = len(items)
    for M in list(items):
        add(mod.tau(M))
        add(mod.tau_inverse(M))
    certified = (len(items) == before) and not state["dropped"]
    order = sorted(
        range(len(items)),
        key=lambda k: (items[k].total, tuple(items[k].dims), k),
    )
    return [items[k] for k in order], certified


# ---- torsion-class resolutions (four constructive sequences) ---------------


def injective_envelope(X, rng=None):
    """(I, embedding) with soc I = soc X."""
    rng = rng or random.Random(0)
    A = X.A
    F = X.field
    soc = mod.socle_vectors(X)
    pieces = mod.graded_pieces_of_span(X, soc)
    injs = []
    for c in range(A.nclasses):
        injs.extend(
            mod.injective_module(A, c) for _ in range(pieces[c].shape[0])
        )
    if not injs:
        raise RuntimeError("module has empty socle")
    I, _, _ = mod.direct_sum(injs)
    _, flat = mod.hom_space(X, I)
    for v in linalg.candidates(F, flat, rng, 80):
        f = mod.map_from_flat(X, I, v)
        if f.is_injective():
            return I, f
    raise RuntimeError("no embedding into the injective envelope found")


def torsion_resolution(ctx, X, variant):
    """One of the four canonical sequences attached to the torsion pair.

    variant 'tgen':   0 -> L -> T0 -> X -> 0, T0 generated-projective side
    variant 'tcogen': 0 -> X -> T0 -> L -> 0, T0 torsion part of injectives
    variant 'fcogen': 0 -> X -> F0 -> L -> 0, F0 cogenerator side
    variant 'fgen':   0 -> L -> F0 -> X -> 0, F0 projective-quotient side
    Returns (N, E, M, f, g, middle_ok) for the exact sequence 0->N->E->M->0.
    """
    tp = ctx.torsion_A
    A = ctx.A
    F = ctx.field
    rng = ctx.rng
    if variant in ("tgen", "tcogen") and not tp.in_torsion(X):
        raise PreconditionError("module is not in the torsion class")
    if variant in ("fcogen", "fgen") and not tp.in_free(X):
        raise PreconditionError("module is not in the torsion-free class")
    if variant == "tgen":
        T0, big, parts = _approximation(tp.h0, X, "right")
        if not big.is_surjective():
            raise RuntimeError("torsion approximation is not surjective")
        L, incl = mod.submodule(T0, mod.kernel_vectors(big), closed=True)
        middle_ok = all(p is tp.h0 for p in parts) and tp.in_torsion(L)
        return L, T0, X, incl, big, middle_ok
    if variant == "tcogen":
        I0, emb = injective_envelope(X, rng)
        T0, incl = tp.torsion_part(I0)
        emb2 = cx.retract_through_inclusion(incl, emb)
        L, proj = mod.quotient_module(T0, mod.image_vectors(emb2))
        middle_ok = (
            _in_add(T0, tp.summands_of(tp.tnuA, rng), rng)
            and tp.in_torsion(L)
        )
        return X, T0, L, emb2, proj, middle_ok
    if variant == "fcogen":
        F0, big, parts = _approximation(tp.cogen, X, "left")
        if not big.is_injective():
            raise RuntimeError("cogenerator approximation is not injective")
        L, proj = mod.quotient_module(F0, mod.image_vectors(big))
        middle_ok = all(p is tp.cogen for p in parts) and tp.in_free(L)
        return X, F0, L, big, proj, middle_ok
    if variant == "fgen":
        ps, cover = mod.projective_cover(X)
        P0 = ps.module
        tv = tp.trace_vectors(P0)
        F0, pr = mod.quotient_module(P0, tv)
        gmats = []
        for c in range(A.nclasses):
            x = linalg.solve_matrix(F, pr.mats[c], cover.mats[c])
            if x is None:
                raise RuntimeError("cover does not factor through F0")
            gmats.append(x)
        g = mod.ModuleMap(F0, X, gmats)
        L, incl = mod.submodule(F0, mod.kernel_vectors(g), closed=True)
        middle_ok = (
            _in_add(F0, tp.summands_of(tp.AtA, rng), rng) and tp.in_free(L)
        )
        return L, F0, X, incl, g, middle_ok
    raise ValueError("unknown variant %r" % (variant,))


def _approximation(G, X, side):
    """(G-power S, candidate map, summands) from every map between G and X.

    side "right": every map G -> X, summed into a surjection candidate
    S -> X; side "left": every map X -> G, stacked into an injection
    candidate X -> S.  The summands are the modules S was summed from,
    all G.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    left = side == "left"
    maps, _ = mod.hom_space(X, G) if left else mod.hom_space(G, X)
    parts = [G] * len(maps)
    S, incls, projs = (
        mod.direct_sum(parts) if maps else (cx.zero_module(X.A), [], [])
    )
    big = mod.zero_map(X, S) if left else mod.zero_map(S, X)
    for k, m in enumerate(maps):
        big = big.add(m.compose(incls[k]) if left else projs[k].compose(m))
    return S, big, parts


def _in_add(X, gparts, rng=None):
    """Is every indecomposable summand of X isomorphic to one in gparts?"""
    if X.total == 0:
        return True
    for grp in mod.decompose_module(X, rng):
        S = grp[0][0]
        if not any(
            mod.modules_isomorphic(S, T, rng) is not None for T in gparts
        ):
            return False
    return True


# ---- theorem verification --------------------------------------------------


def _entry(name, status, dims=None, witness=None):
    out = {"name": name, "status": status, "dims": dims or {}}
    if witness is not None:
        out["witness"] = witness
    return out


def verify_theorem(ctx, battery=None, battery_b=None, max_dim=30, cap=60,
                   seed=0):
    """Battery-level verification of the comparison theorem.

    Returns a list of check entries, each with a pass/fail status and the
    dimensions that were compared.
    """
    A = ctx.A
    B = ctx.B
    F = ctx.field
    tpA = ctx.torsion_A
    tpB = ctx.torsion_B
    checks = []
    if battery is None:
        battery, cert = module_battery(A, tpA, max_dim, cap, seed)
    else:
        cert = False
    if battery_b is None:
        battery_b, _ = module_battery(B, tpB, max_dim, cap, seed)

    counts_ok = (
        len(ctx.summands) == A.nclasses == B.nclasses == ctx.q_classes
    )
    checks.append(_entry(
        "class-counts", "pass" if counts_ok else "fail",
        {"P": len(ctx.summands), "A": A.nclasses, "B": B.nclasses},
    ))

    for tag, tp, batt in (("A", tpA, battery), ("B", tpB, battery_b)):
        tside = [X for X in batt if tp.in_torsion(X)]
        fside = [X for X in batt if tp.in_free(X)]
        ok = True
        pairs = 0
        for X in tside:
            for Y in fside:
                pairs += 1
                if mod.hom_dim(X, Y) != 0:
                    ok = False
        for X in batt:
            tX, _, QX, _ = tp.canonical_sequence(X)
            if tX.total + QX.total != X.total:
                ok = False
        checks.append(_entry(
            "torsion-axioms-%s" % tag, "pass" if ok else "fail",
            {"battery": len(batt), "pairs": pairs},
        ))

    # cohomology dimension identities for Hom out of P
    ok = True
    tested = 0
    probes = [cx.stalk_complex(X) for X in battery] + [ctx.mcP, ctx.mcC]
    for Xmc in probes:
        for i in (0, 1):
            lhs = cx.hom_complexes(ctx.mcP, Xmc, i).dim
            h_prev = Xmc.cohomology(i - 1)
            h_cur = Xmc.cohomology(i)
            rhs = (
                cx.hom_complexes(ctx.mcP, cx.stalk_complex(h_prev), 1).dim
                + cx.hom_complexes(ctx.mcP, cx.stalk_complex(h_cur), 0).dim
            )
            tested += 1
            if lhs != rhs:
                ok = False
    checks.append(_entry(
        "hom-cohomology-dims", "pass" if ok else "fail", {"cases": tested}
    ))

    ok = True
    for X in battery:
        lhs = cx.hom_complexes(ctx.mcP, cx.stalk_complex(X), 0).dim
        if lhs != mod.hom_dim(tpA.h0, X):
            ok = False
    checks.append(_entry(
        "hom-through-h0-dims", "pass" if ok else "fail",
        {"cases": len(battery)},
    ))

    ok = True
    for X in battery:
        tX, _, QX, _ = tpA.canonical_sequence(X)
        a = ctx.hom_P_of(X, 0).module
        b = ctx.hom_P_of(tX, 0).module
        if mod.modules_isomorphic(a, b, ctx.rng) is None:
            ok = False
        c = ctx.hom_P_of(X, 1).module
        d = ctx.hom_P_of(QX, 1).module
        if mod.modules_isomorphic(c, d, ctx.rng) is None:
            ok = False
    checks.append(_entry(
        "canonical-part-isos", "pass" if ok else "fail",
        {"cases": 2 * len(battery)},
    ))

    tside = [X for X in battery if tpA.in_torsion(X)]
    fside = [X for X in battery if tpA.in_free(X)]
    ok1 = ok2 = True
    for M in tside:
        hm = ctx.hom_P_of(M, 0).module
        for N in fside:
            hn = ctx.hom_P_of(N, 1).module
            if mod.hom_dim(hm, hn) != mod.ext_dim(M, N, 1):
                ok1 = False
            if mod.ext_dim(hm, hn, 1) != mod.ext_dim(M, N, 2):
                ok2 = False
    npairs = len(tside) * len(fside)
    checks.append(_entry(
        "ext1-dim-transfer", "pass" if ok1 else "fail", {"pairs": npairs}
    ))
    checks.append(_entry(
        "ext2-dim-transfer", "pass" if ok2 else "fail", {"pairs": npairs}
    ))

    ok = True
    cases = 0
    for X in tside:
        for variant in ("tgen", "tcogen"):
            N, E, M, fmap, gmap, mid = torsion_resolution(ctx, X, variant)
            cases += 1
            if not (mod.sequence_is_exact(N, E, M, fmap, gmap) and mid):
                ok = False
    for X in fside:
        for variant in ("fcogen", "fgen"):
            N, E, M, fmap, gmap, mid = torsion_resolution(ctx, X, variant)
            cases += 1
            if not (mod.sequence_is_exact(N, E, M, fmap, gmap) and mid):
                ok = False
    checks.append(_entry(
        "torsion-resolutions", "pass" if ok else "fail", {"cases": cases}
    ))

    ok = True
    for X in tside:
        back = ctx.q_hom(ctx.hom_P_of(X, 0).module, 1).module
        if mod.modules_isomorphic(back, X, ctx.rng) is None:
            ok = False
    checks.append(_entry(
        "round-trip-torsion", "pass" if ok else "fail",
        {"cases": len(tside)},
    ))
    ok = True
    for X in fside:
        back = ctx.q_hom(ctx.hom_P_of(X, 1).module, 0).module
        if mod.modules_isomorphic(back, X, ctx.rng) is None:
            ok = False
    checks.append(_entry(
        "round-trip-free", "pass" if ok else "fail", {"cases": len(fside)},
    ))

    ok = True
    cases = 0
    for X in tside:
        hx = ctx.hom_P_of(X, 0)
        qx = ctx.q_hom(hx.module, 1)
        for Y in tside:
            hy = ctx.hom_P_of(Y, 0)
            qy = ctx.q_hom(hy.module, 1)
            maps, _ = mod.hom_space(X, Y)
            for u in maps:
                w = hom_P_of_module_map(ctx, hx, hy, u)
                uu = q_hom_map(ctx, qx, qy, w)
                cases += 1
                if uu.rank() != u.rank():
                    ok = False
    checks.append(_entry(
        "round-trip-naturality", "pass" if ok else "fail", {"maps": cases}
    ))

    # the torsion pair over B agrees with the transported one
    ok = True
    for X in fside:
        if not tpB.in_torsion(ctx.hom_P_of(X, 1).module):
            ok = False
    for X in tside:
        if not tpB.in_free(ctx.hom_P_of(X, 0).module):
            ok = False
    checks.append(_entry(
        "induced-torsion-match", "pass" if ok else "fail",
        {"cases": len(battery)},
    ))

    ok = True
    cases = 0
    for N in battery_b:
        if tpB.in_free(N):
            cases += 1
            if not tpA.in_torsion(ctx.q_hom(N, 1).module):
                ok = False
        if tpB.in_torsion(N):
            cases += 1
            if not tpA.in_free(ctx.q_hom(N, 0).module):
                ok = False
    checks.append(_entry(
        "pushforward-memberships", "pass" if ok else "fail",
        {"cases": cases},
    ))

    ok = True
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.el_mult(A.basis_vec(i), A.basis_vec(j))
            lhs = ctx.phi_class(prod)
            comp = ctx.phi_chain[j].compose(ctx.phi_chain[i])
            if not np.array_equal(lhs, ctx.EndQ.coords(comp)):
                ok = False
    checks.append(_entry(
        "endo-map-multiplicative", "pass" if ok else "fail",
        {"pairs": A.dim * A.dim},
    ))
    ident = cx.identity_chain_map(ctx.Q_mod)
    ok = np.array_equal(
        ctx.phi_class(A.unit()), ctx.EndQ.coords(ident)
    )
    checks.append(_entry("endo-map-unital", "pass" if ok else "fail"))

    checks.append(_entry(
        "kernel-two-ways", "pass",
        {"dim": int(ctx.phi_kernel.shape[0])},
    ))
    ok = (ctx.phi_kernel.shape[0] == 0) == ctx.tilting
    checks.append(_entry(
        "kernel-iff-tilting", "pass" if ok else "fail",
        {"kernel": int(ctx.phi_kernel.shape[0]),
         "tilting": int(ctx.tilting)},
    ))
    ok = ctx.EndQ.dim == A.dim - ctx.phi_kernel.shape[0]
    checks.append(_entry(
        "quotient-dims", "pass" if ok else "fail",
        {"endQ": int(ctx.EndQ.dim), "A": A.dim,
         "kernel": int(ctx.phi_kernel.shape[0])},
    ))

    # P lies in its own heart exactly when Hom(P, P[-1]) vanishes; the
    # cohomology criterion must agree with that Hom-vanishing criterion
    by_parts = ctx.in_heart(ctx.P)
    by_hom = (
        cx.hom_complexes(ctx.mcP, ctx.mcP, 1).dim == 0
        and cx.hom_complexes(ctx.mcP, ctx.mcP, -1).dim == 0
    )
    checks.append(_entry(
        "heart-membership", "pass" if by_parts == by_hom else "fail",
        {"in_heart": int(by_parts)},
    ))
    checks.append(_entry(
        "battery-certified", "certified" if cert else "evidence",
        {"size": len(battery)},
    ))
    return checks
