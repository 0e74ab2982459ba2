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
    hs = cx.hom_complexes(P, P, 1)
    if hs.dim == 0:
        return True, None
    return False, hs.class_map(0)


def is_silting(P, rng=None):
    """Presilting with as many summand classes as A has simples."""
    ok, wit = is_presilting(P)
    if not ok:
        return False, wit
    return has_all_classes(P, rng), None


def has_all_classes(P, rng=None):
    """Does P have as many summand classes as A has simples?"""
    return cx.summand_class_count(P, rng) == P.A.nclasses


def is_tilting(P, rng=None):
    """Silting with additionally Hom(P, P[-1]) = 0."""
    ok, wit = is_silting(P, rng)
    if not ok:
        return False, wit
    return negative_hom_vanishes(P)


def negative_hom_vanishes(P):
    """(verdict, witness): witness is a nonzero class in Hom(P, P[-1])."""
    hs = cx.hom_complexes(P, P, -1)
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

    Both criteria read one matrix per module X, the map
    D_X : Hom(P^0, X) -> Hom(P^{-1}, X), f |-> f o d, on generator
    images.  Hom_K(P, X) = ker D_X and Hom_K(P, X[1]) = coker D_X, so X
    is torsion iff D_X is onto and torsion-free iff it is injective
    (Adachi-Iyama-Reiten).  Since H^0(P) = coker d, ker D_X is also
    Hom(H^0(P), X), and the trace of H^0(P) in X is read off it.  The
    Hom-vanishing answers are checked against the trace and reject
    criteria; the two answers are asserted equal.
    """

    def __init__(self, P):
        self.P = P
        self.A = P.A
        self.field = P.A.field
        self.h0 = P.cohomology(0)
        self.cogen = cx.nu_complex(P).cohomology(-1)
        # each entry keeps its module alive so id-based keys stay unique
        self._cache = {}

    def _ker_dx(self, X):
        """(basis of ker D_X as rows, dim coker D_X), built once per module.

        Rows of D_X are the generator-image basis of Hom(P^0, X) that
        `ProjSum.hom_to` writes down without a solve, each composed with
        d in one `modules.compose_flats`, as the Ext deltas are.  A map
        out of P^{-1} is zero iff its generator images are, so D_X keeps
        only the generator columns of the composite's flat layout.
        """
        key = ("d", id(X))
        if key not in self._cache:
            F = self.field
            classes = self.P.classes
            ps0 = mod.proj_sum(self.A, classes.get(0, []))
            ps1 = mod.proj_sum(self.A, classes.get(-1, []))
            dx = mod.compose_flats(
                ps0.hom_to(X), ps0.module, X, left=self.P.dmap(-1)
            )[:, ps1.gen_columns(X)]
            ker = linalg.kernel(F, dx.T)
            rank = dx.shape[0] - ker.shape[0]
            self._cache[key] = (X, ker, dx.shape[1] - rank)
        return self._cache[key][1:]

    def hom_dims(self, X):
        """(dim Hom_K(P, X), dim Hom_K(P, X[1])), from one reduction of D_X."""
        ker, coker = self._ker_dx(X)
        return ker.shape[0], coker

    def trace_vectors(self, X):
        """Total vectors spanning the largest H^0(P)-generated submodule.

        It is the span of x_k b for x in ker D_X and b in a basis of
        e_{c_k} A, with x_k the image of generator k of P^0.  The images
        x_k of all generators of one class c are reduced to a basis of
        their span, in X e_c, before they are multiplied.
        """
        F = self.field
        A = self.A
        ker, _ = self._ker_dx(X)
        if not ker.shape[0]:
            return F.zeros((0, X.total))
        c0 = self.P.classes.get(0, [])
        starts = np.cumsum([0] + [X.dims[c] for c in c0]).tolist()
        rows = []
        for c in sorted(set(c0)):
            xs = linalg.row_space(F, np.concatenate(
                [ker[:, starts[k]:starts[k + 1]]
                 for k in range(len(c0)) if c0[k] == c], axis=0,
            ))
            for b in np.flatnonzero(A.src == c):
                t = int(A.tgt[b])
                blk = F.zeros((xs.shape[0], X.total))
                blk[:, X.offsets[t]:X.offsets[t + 1]] = F.matmul(
                    xs, X.act[b]
                )
                rows.append(blk)
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

    def in_torsion(self, X):
        key = ("t", id(X))
        if key not in self._cache:
            by_hom = self.hom_dims(X)[1] == 0
            by_trace = self.trace_vectors(X).shape[0] == X.total
            if by_hom != by_trace:
                raise RuntimeError("torsion membership criteria disagree")
            self._cache[key] = (X, by_hom)
        return self._cache[key][1]

    def in_free(self, X):
        key = ("f", id(X))
        if key not in self._cache:
            by_hom = self.hom_dims(X)[0] == 0
            by_reject = self.reject_is_zero(X)
            if by_hom != by_reject:
                raise RuntimeError("torsion-free membership criteria disagree")
            self._cache[key] = (X, by_hom)
        return self._cache[key][1]

    def torsion_part(self, X):
        """(tX, inclusion) for the canonical torsion submodule."""
        return mod.submodule(X, self.trace_vectors(X))

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

    @functools.cached_property
    def ext_parts(self):
        """([t(I_c)], [P_c / t P_c]) over the classes c, which span
        add t(DA) and add A/tA.  Each is zero or indecomposable, since I_c
        has a simple socle and P_c a simple top."""
        A, cs = self.A, range(self.A.nclasses)
        Ps = [mod.projective_module(A, c) for c in cs]
        return (
            [self.torsion_part(mod.injective_module(A, c))[0] for c in cs],
            [mod.quotient_module(P, self.trace_vectors(P))[0] for P in Ps],
        )

    def canonical_sequence(self, X):
        """(tX, incl, X/tX, proj), with both memberships asserted."""
        tv = self.trace_vectors(X)
        tX, incl = mod.submodule(X, tv)
        Q, proj = mod.quotient_module(X, tv)
        if not self.in_torsion(tX) or not self.in_free(Q):
            raise RuntimeError("canonical sequence ends misclassified")
        return tX, incl, Q, proj


# ---- endomorphism algebra of P and minimal approximations ----------------


class EndP:
    """B = End(P) in the homotopy category, for the indecomposable
    summands mq of a basic complex P.

    Basis element k of B is the class of the chain map reps[k] from
    mq[B.tgt[k]] to mq[B.src[k]]; the identity comes first in each
    diagonal corner.
    """

    def __init__(self, mq):
        F = mq[0].field
        self.mq = mq
        n = len(mq)
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
                    rows = np.concatenate([idf, others], axis=0)
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
        # product x . y of x in corner (i, j) and y in corner (j, l) is
        # the chain map reps[y] then reps[x], a class in corner (i, l)
        for (i, l), hs in corners.items():
            ks = corner_index[(i, l)]
            if not ks:
                continue
            quot = linalg.Coords(
                F, np.concatenate([hs.htpy, corner_rows[(i, l)]], axis=0),
                skip=hs.htpy.shape[0],
            )
            for j in range(n):
                ys = corner_index[(j, l)]
                if not ys:
                    continue
                for x in corner_index[(i, j)]:
                    co = quot.of(cx.compose_flats(
                        corner_rows[(j, l)], mq[l], mq[j], right=reps[x]
                    ))
                    if co is None:
                        raise ValueError("vector not in the spanned space")
                    mult[x][np.ix_(ys, ks)] = co
        B = alg_mod.Algebra(F, labels, src, tgt, mult, idem, n)
        if not B.check_associative() or not B.check_idempotents():
            raise RuntimeError("endomorphism algebra axioms failed")
        self.B = B
        self.reps = reps


def minimal_approximation(endp, X, side):
    """Generators of a minimal add(P)-approximation of the complex X.

    The approximation is the top of the Hom module (Adachi-Iyama-Reiten):
    side "right" reads a basis of Hom(P, X) / Hom(P, X) rad End(P), that
    is, for each summand i, of Hom(P_i, X) modulo the maps
    P_i -> P_j -> X through rad End(P); side "left" reads the same for
    Hom(X, P) over End(P)^op, Hom(X, P_i) modulo X -> P_j -> P_i.  Each
    generator of `modules.top_generators` is a class vector of one
    Hom(P_i, X) (or Hom(X, P_i)), read back as a chain map.  Returns
    [(i, chain map)], one pair per copy of P_i in the approximating
    object, in summand order.  The P_i may be any complexes (stalk modules
    too) that are indecomposable and pairwise non-isomorphic, so that
    End(P) is basic.
    """
    H = HomPModule(endp, X, side=side)
    F = endp.field
    gens = []
    for v, i in zip(*mod.top_generators(H.module)):
        sp = H.spaces[i]
        flat = F.matmul(H.module.piece(v.reshape(1, -1), i), sp.class_basis)
        gens.append((i, sp.map_from_flat(flat[0])))
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
        self.tilting = cx.hom_complexes(self.P, self.P, -1).dim == 0
        self.endo = EndP(self.summands)
        self.B, self.reps = self.endo.B, self.endo.reps
        self._build_delta()
        self._build_q()
        self._build_phi()
        self.torsion_A = TorsionPair(self.P)
        self.torsion_B = TorsionPair(self.Q)

    @functools.cached_property
    def h0_endp(self):
        """EndP of the stalks of the nonzero H^0(P_i), or None.  They are
        indecomposable and pairwise non-isomorphic (Adachi-Iyama-Reiten)."""
        return _stalk_endp([s.cohomology(0) for s in self.summands])

    @functools.cached_property
    def cogen_endp(self):
        """The same for the nonzero H^{-1}(nu P_i)."""
        nus = [cx.nu_complex(s) for s in self.summands]
        return _stalk_endp([nu.cohomology(-1) for nu in nus])

    # -- triangle A -> P' -> P'' -> A[1] ------------------------------------

    def _build_delta(self):
        A = self.A
        self.stalkA = cx.stalk_proj_complex(A, list(range(A.nclasses)))
        self.psA0 = self.stalkA.term(0).psum
        # a minimal left approximation of each P_c, read as maps out of A
        # through the projection onto P_c
        gens = []
        for c in range(A.nclasses):
            st = cx.stalk_proj_complex(A, [c])
            pr = self.psA0.projs[c]
            gens.extend(
                (i, cx.ChainMap(
                    self.stalkA, m.tgt, {0: pr.compose(m.map_at(0))}))
                for i, m in minimal_approximation(self.endo, st, "left")
            )
        self.Pp, self.e = _approximation_map(
            self.stalkA, self.summands, gens, "left"
        )
        if not self.e.check():
            raise RuntimeError("approximation map is not a chain map")
        self._assert_approximation(self.e, "left")
        # cone of e; its degree -1 term lays out P'^{-1} then A, as _phi_of
        # reads it
        self.mcC, self.f, self.g = cx.mapping_cone(self.e)
        self.cone = cx.proj_complex_from_module_complex(self.mcC)
        if not cx.HomSpace(self.stalkA, self.mcC).is_nullhomotopic(
            self.e.compose(self.f)
        ):
            raise RuntimeError("triangle composite e.f not null-homotopic")
        for grp in cx.decompose_complex(self.cone, self.rng):
            if not any(
                cx.complexes_isomorphic(grp[0], s) for s in self.summands
            ):
                raise RuntimeError("cone of the approximation leaves add P")
        self._assert_approximation(self.g, "right")

    @functools.cached_property
    def Ppp(self):
        """P'', the minimized cone of the approximation A -> P'."""
        return cx.minimize(self.cone)

    def left_mult_map(self, avec):
        """Right-module endomorphism of A given by left multiplication:
        basis element b goes to a b, so the class-c block is lm(a) at the
        basis elements of the class-c block of A, laid out as in psA0."""
        lm = self.A.lm(avec)
        mats = []
        for c in range(self.A.nclasses):
            bs = self.psA0._layout(c)[1]
            mats.append(lm[np.ix_(bs, bs)])
        return mod.ModuleMap(self.psA0.module, self.psA0.module, mats)

    def element_of_regular_endo(self, m):
        """Algebra element x with m = left multiplication by x: the sum of
        the entries of m over all generators."""
        entries = self.psA0.entry_matrix_to(self.psA0, m)
        return self.field.reduce(entries.sum(axis=(0, 1)))

    def _assert_approximation(self, u, side):
        """Every map into add P factors through u, up to homotopy.

        side "left": u = e: A -> P' and each map A -> P is e followed by a
        map P' -> P.  side "right": u = g: C -> A[1] and each map
        P_i -> A[1] is a map P_i -> C followed by g.
        """
        F = self.field
        left = side == "left"
        for T in ([self.P] if left else self.summands):
            V = cx.HomSpace(u.src, T) if left else cx.HomSpace(T, u.tgt)
            if V.nflat == 0:
                continue
            W = cx.HomSpace(u.tgt, T) if left else cx.HomSpace(T, u.src)
            span = np.concatenate([V.htpy, cx.compose_flats(
                W.chain_basis, W.X, W.Y, **{side: u}
            )], axis=0)
            if linalg.solve_matrix(F, span.T, V.chain_basis.T) is None:
                raise RuntimeError("%s approximation property failed" % side)

    # -- the induced complex Q over B ---------------------------------------

    def hom_P(self, Ymc, shift=0):
        """Hom(P, Y[shift]) as a right B-module, with coordinate data."""
        return HomPModule(self.endo, Ymc, shift)

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
            lambda: HomPModule(self.endo, cx.stalk_complex(X), shift),
        )

    def _build_q(self):
        self.HBp = self.hom_P(self.Pp, 0)
        self.HBc = self.hom_P(self.mcC, 0)
        terms = {}
        dmaps = {}
        if self.HBp.module.total > 0:
            terms[-1] = self.HBp.module
        if self.HBc.module.total > 0:
            terms[0] = self.HBc.module
        if -1 in terms and 0 in terms:
            delta = hom_P_map(self.HBp, self.HBc, self.f)
            if not delta.check():
                raise RuntimeError("induced differential not a B-module map")
            dmaps[-1] = delta
        self.Q_mod = cx.ModuleComplex(self.B, terms, dmaps)
        if not self.Q_mod.check():
            raise RuntimeError("induced complex fails d^2 = 0")
        self.Q = cx.proj_complex_from_module_complex(self.Q_mod)
        pre, _ = is_presilting(self.Q)
        self.q_classes = (
            cx.summand_class_count(self.Q, self.rng) if pre else 0
        )
        if self.q_classes != self.B.nclasses:
            raise RuntimeError("induced complex over B is not silting")

    # -- phi: A -> End(Q) ----------------------------------------------------

    def _build_phi(self):
        A = self.A
        F = self.field
        hsAP = cx.HomSpace(self.stalkA, self.Pp)
        hsEnd = cx.HomSpace(self.Pp, self.Pp)
        # e . b for each chain endomorphism b of P', then the homotopies
        ebasis = np.concatenate([
            cx.compose_flats(hsEnd.chain_basis, self.Pp, self.Pp, left=self.e),
            hsAP.htpy,
        ], axis=0)
        self.EndQ = cx.HomSpace(self.Q_mod, self.Q_mod)
        self.phi_chain = [
            self._phi_of(A.basis_vec(a_idx), hsAP, hsEnd, ebasis)
            for a_idx in range(A.dim)
        ]
        self.phi_flats = np.stack(
            [self.EndQ.flat_of(psi) for psi in self.phi_chain]
        )
        self.phi_matrix = self.EndQ.coords_of(self.phi_flats)
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

    def _phi_of(self, avec, hsAP, hsEnd, ebasis):
        F = self.field
        neg = linalg.neg_one(F)
        lam = self.left_mult_map(avec)
        chain_a = cx.ChainMap(self.stalkA, self.stalkA, {0: lam})
        target = chain_a.compose(self.e)
        if hsAP.nflat > 0:
            co = linalg.coords_in_basis(F, ebasis, hsAP.flat_of(target))
            if co is None:
                raise RuntimeError("no chain solution for the induced endo")
            ne = hsEnd.chain_basis.shape[0]
            bflat = F.matmul(co[:ne].reshape(1, -1), hsEnd.chain_basis)
            b = hsEnd.map_from_flat(bflat[0])
            diff = target.add(self.e.compose(b).scale(neg))
            hdict = cx.find_homotopy(hsAP, diff)
            if hdict is None:
                raise RuntimeError("commutation defect not null-homotopic")
            t = hdict.get(
                0, mod.zero_map(self.stalkA.term(0), self.Pp.term(-1))
            )
        else:
            b = cx.ChainMap(self.Pp, self.Pp, {})
            t = mod.zero_map(self.stalkA.term(0), self.Pp.term(-1))
        cmaps = {}
        if 0 in self.mcC.terms:
            cmaps[0] = mod.ModuleMap(
                self.mcC.term(0), self.mcC.term(0), b.map_at(0).mats
            )
        Cm1 = self.mcC.term(-1)
        b1 = b.map_at(-1)
        mats = []
        for d in range(self.A.nclasses):
            p = self.Pp.term(-1).dims[d]
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
            psi_maps[-1] = hom_P_map(self.HBp, self.HBp, b)
        if 0 in self.Q_mod.terms:
            psi_maps[0] = hom_P_map(self.HBc, self.HBc, cmap)
        psi = cx.ChainMap(self.Q_mod, self.Q_mod, psi_maps)
        if not psi.check():
            raise RuntimeError("induced endomorphism of Q not a chain map")
        return psi

    def _factorization_kernel(self):
        F = self.field
        hs = cx.HomSpace(self.Pp, self.mcC.shift(-1))
        if not hs.chain_basis.shape[0]:
            return F.zeros((0, self.A.dim))
        # e . eta . g[-1] : A -> A for each chain map eta, flat in degree 0
        gshift = self.g.shift(-1)
        chis = cx.compose_flats(
            cx.compose_flats(hs.chain_basis, hs.X, hs.Y, left=self.e),
            self.stalkA, hs.Y, right=gshift,
        )
        M = self.stalkA.term(0)
        return linalg.row_space(F, np.stack([
            self.element_of_regular_endo(mod.map_from_flat(M, M, chi))
            for chi in chis
        ]))

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
        degs = set(X.terms) | {d + 1 for d in X.terms}
        for d in degs:
            H = X.cohomology(d)
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
    """Hom(P, Y[shift]) as a right module over B = End(P) (side "right"),
    or Hom(Y[shift], P) as a right module over B^op (side "left"), with
    explicit coordinates.

    endp is the EndP of the summands P_i; spaces[i] is the Hom space
    between P_i and Y[shift], and its classes are piece i of the module.
    Basis element b of B, the chain map reps[b]: P_tgt(b) -> P_src(b),
    acts by composing with it: on side "right" from Hom(P_src(b), Y) to
    Hom(P_tgt(b), Y), on side "left" from Hom(Y, P_tgt(b)) to
    Hom(Y, P_src(b)), which is src(b) -> tgt(b) in B^op.
    """

    def __init__(self, endp, Ymc, shift=0, side="right"):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        left = side == "left"
        self.shift = shift
        self.Ysh = Ymc.shift(shift) if shift else Ymc
        self.spaces = [
            cx.HomSpace(self.Ysh, q) if left else cx.HomSpace(q, self.Ysh)
            for q in endp.mq
        ]
        R = mod.opposite_algebra(endp.B) if left else endp.B
        act = []
        for b, rep in enumerate(endp.reps):
            src, tgt = self.spaces[int(R.src[b])], self.spaces[int(R.tgt[b])]
            act.append(
                src.induced(tgt, right=rep) if left
                else src.induced(tgt, left=rep)
            )
        self.module = mod.Module(R, [sp.dim for sp in self.spaces], act)
        if not self.module.check():
            raise RuntimeError("Hom(P, -) image violates module axioms")


def hom_P_map(src_h, tgt_h, alpha):
    """Induced B-module map Hom(P, alpha) between HomPModules.

    alpha is a chain map src_h.Ysh -> tgt_h.Ysh (already shifted).
    """
    mats = [
        sp.induced(tp, right=alpha)
        for sp, tp in zip(src_h.spaces, tgt_h.spaces)
    ]
    return mod.ModuleMap(src_h.module, tgt_h.module, mats)


def hom_P_of_module_map(src_h, tgt_h, u):
    """Hom(P, u[shift]) for a module map u matching the two handles."""
    if src_h.shift != tgt_h.shift:
        raise ValueError("shift mismatch")
    d = -src_h.shift
    alpha = cx.ChainMap(src_h.Ysh, tgt_h.Ysh, {d: u})
    return hom_P_map(src_h, tgt_h, alpha)


class QHomModule:
    """Hom(Q, N[shift]) over B, carried back to an A-module."""

    def __init__(self, ctx, N, shift):
        self.shift = shift
        A = ctx.A
        F = ctx.field
        self.Nsh = cx.stalk_complex(N).shift(shift)
        self.V = cx.HomSpace(ctx.Q_mod, self.Nsh)
        self.ops = [
            self.V.induced(self.V, left=psi) for psi in ctx.phi_chain
        ]
        self.pieces = [
            linalg.row_space(F, self.ops[A.idem[c]]) for c in range(A.nclasses)
        ]
        dims = [p.shape[0] for p in self.pieces]
        if sum(dims) != self.V.dim:
            raise RuntimeError("idempotent grading does not fill the space")
        # each graded piece is factored once, for the action and for maps
        self._piece_coords = [linalg.Coords(F, p) for p in self.pieces]
        act = [
            self.piece_rows(
                int(A.tgt[b]),
                F.matmul(self.pieces[int(A.src[b])], self.ops[b]),
                "graded action left its piece",
            )
            for b in range(A.dim)
        ]
        self.module = mod.Module(A, dims, act)
        if not self.module.check():
            raise RuntimeError("Hom(Q, -) pullback violates module axioms")

    def piece_rows(self, c, vs, what):
        """Coordinates over pieces[c] of the rows vs, which must lie in
        that piece; RuntimeError(what) otherwise."""
        x = self._piece_coords[c].of(vs)
        if x is None:
            raise RuntimeError(what)
        return x


def q_hom_map(ctx, src_q, tgt_q, w):
    """Induced A-module map Hom(Q, w[shift]) between QHomModules."""
    if src_q.shift != tgt_q.shift:
        raise ValueError("shift mismatch")
    F = ctx.field
    d = -src_q.shift
    alpha = cx.ChainMap(src_q.Nsh, tgt_q.Nsh, {d: w})
    raw = src_q.V.induced(tgt_q.V, right=alpha)
    mats = [
        tgt_q.piece_rows(
            c, F.matmul(src_q.pieces[c], raw),
            "induced map is not grading-compatible",
        )
        for c in range(ctx.A.nclasses)
    ]
    out = mod.ModuleMap(src_q.module, tgt_q.module, mats)
    if not out.check():
        raise RuntimeError("induced map is not an A-module map")
    return out


# ---- approximations from generators --------------------------------------


def _approximation_map(X, summands, gens, side):
    """(S, u) for the add(P)-approximation of the complex X given by gens.

    gens is [(i, chain map)] as `minimal_approximation` returns it, each
    map X -> summands[i] (side "left") or summands[i] -> X (side "right").
    S is the direct sum of the summands[i], one copy per generator, in
    order.  Each term of S lays out its copies one after another in every
    class, so u: X -> S is the generators side by side and u: S -> X is
    them stacked.
    """
    left = side == "left"
    parts = [summands[i] for i, _ in gens]
    S = cx.proj_complex_direct_sum(parts) if parts else \
        cx.ProjComplex(X.A, {}, {})
    maps = {}
    for d in set(X.terms) & set(S.terms):
        mats = [
            np.concatenate(
                [g.map_at(d).mats[c] for _, g in gens], axis=1 if left else 0
            )
            for c in range(X.A.nclasses)
        ]
        if left:
            maps[d] = mod.ModuleMap(X.term(d), S.term(d), mats)
        else:
            maps[d] = mod.ModuleMap(S.term(d), X.term(d), mats)
    u = cx.ChainMap(X, S, maps) if left else cx.ChainMap(S, X, maps)
    return S, u


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
    # right add(P)-approximation of A[1], from minimal generators of
    # Hom(P_i, A[1]) over the endomorphism algebra of P
    A1 = cx.stalk_proj_complex(A, list(range(A.nclasses))).shift(1)
    gens = minimal_approximation(EndP(summands), A1, "right")
    _, g = _approximation_map(A1, summands, gens, "right")
    Cmc, _, _ = cx.mapping_cone(g.shift(-1))
    E_pc = cx.proj_complex_from_module_complex(Cmc)
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


# ---- module battery -------------------------------------------------------


def module_battery(A, torsion=None, max_dim=30, cap=60, seed=0):
    """Deterministic list of indecomposables, knitted along almost split
    sequences from the simples, projectives and injectives (and, given a
    torsion pair, its modules and the parts of each projective's canonical
    sequence).

    Returns (modules, certified).  Each module X in turn adds the summands
    of the middle term of the almost split sequence ending at X, or of
    rad X when X is projective.  certified means every module had its
    turn and no summand was dropped for max_dim or cap; then the battery
    holds every indecomposable (Auslander-Reiten-Smalo, Ch. VI: a nonzero
    map from an indecomposable Y into an injective of the battery that is
    not an isomorphism factors through these neighbours, and by the
    Harada-Sai lemma such factorizations end at Y itself).  On a
    representation-infinite algebra the knit never closes, so the battery
    is not certified.
    """
    rng = random.Random(seed)
    items = []
    state = {"dropped": False}

    def add(M):
        if M.total == 0:
            return
        # a module isomorphic to an item is indecomposable: nothing new
        if any(
            mod.modules_isomorphic(M, X, rng) is not None for X in items
        ):
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
    for X in items:  # the loop reaches the items it appends
        if mod.tau(X).total:
            add(mod.ar_sequence(X)[1])
        else:
            add(mod.submodule(X, mod.radical_vectors(X))[0])
    order = sorted(
        range(len(items)),
        key=lambda k: (items[k].total, tuple(items[k].dims), k),
    )
    return [items[k] for k in order], not state["dropped"]


# ---- torsion-class resolutions (four constructive sequences) ---------------


def injective_envelope(X):
    """(I, embedding) with soc I = soc X: D of the projective cover of DX
    over A^op, so I sums one I_c per copy of S_c in soc X, in class order.
    """
    ps, cover = mod.projective_cover(mod.dual_module(X))
    I = mod.dual_module(ps.module, X.A)
    return I, mod.ModuleMap(X, I, [m.T.copy() for m in cover.mats])


def torsion_resolution(ctx, X, variant):
    """One of the four canonical sequences attached to the torsion pair.

    variant 'tgen':   0 -> L -> T0 -> X -> 0, T0 minimal in add H^0(P)
    variant 'tcogen': 0 -> X -> T0 -> L -> 0, T0 = t(injective envelope)
    variant 'fcogen': 0 -> X -> F0 -> L -> 0, F0 minimal in add H^{-1}(nu P)
    variant 'fgen':   0 -> L -> F0 -> X -> 0, F0 = P0/tP0, P0 -> X a cover
    T0 and F0 of tgen and fcogen come from `minimal_approximation` over
    ctx.h0_endp, resp. ctx.cogen_endp: one copy of H^0(P_i) per generator
    of the top of Hom(H^0(P), X) over its endomorphism algebra, resp. of
    H^{-1}(nu P_i) per generator of the top of Hom(X, H^{-1}(nu P)) over
    the opposite algebra, so they lie in add by construction.
    Returns (N, E, M, f, g, middle_ok) for the exact sequence 0->N->E->M->0.
    """
    tp = ctx.torsion_A
    rng = ctx.rng
    if variant in ("tgen", "tcogen") and not tp.in_torsion(X):
        raise PreconditionError("module is not in the torsion class")
    if variant in ("fcogen", "fgen") and not tp.in_free(X):
        raise PreconditionError("module is not in the torsion-free class")
    if variant == "tgen":
        T0, big = _approximation(ctx.h0_endp, X, "right")
        if not big.is_surjective():
            raise RuntimeError("torsion approximation is not surjective")
        L, incl = mod.submodule(T0, mod.kernel_vectors(big))
        return L, T0, X, incl, big, tp.in_torsion(L)
    if variant == "tcogen":
        I0, emb = injective_envelope(X)
        T0, incl = tp.torsion_part(I0)
        emb2 = mod.retract_through_inclusion(incl, emb)
        L, proj = mod.quotient_module(T0, mod.image_vectors(emb2))
        middle_ok = _in_add(T0, tp.ext_parts[0], rng) and tp.in_torsion(L)
        return X, T0, L, emb2, proj, middle_ok
    if variant == "fcogen":
        F0, big = _approximation(ctx.cogen_endp, X, "left")
        if not big.is_injective():
            raise RuntimeError("cogenerator approximation is not injective")
        L, proj = mod.quotient_module(F0, mod.image_vectors(big))
        return X, F0, L, big, proj, tp.in_free(L)
    if variant == "fgen":
        ps, cover = mod.projective_cover(X)
        F0, pr = mod.quotient_module(ps.module, tp.trace_vectors(ps.module))
        g = mod.factor_through_projection(pr, cover)
        L, incl = mod.submodule(F0, mod.kernel_vectors(g))
        middle_ok = _in_add(F0, tp.ext_parts[1], rng) and tp.in_free(L)
        return L, F0, X, incl, g, middle_ok
    raise ValueError("unknown variant %r" % (variant,))


def _stalk_endp(mods):
    stalks = [cx.stalk_complex(M) for M in mods if M.total]
    return EndP(stalks) if stalks else None


def _approximation(endp, X, side):
    """(S, u) for the minimal add-approximation of the module X by the
    stalk modules of endp (None: no modules), from `minimal_approximation`,
    that is, from the top of the Hom module between them and X.

    S sums one module per generator, laid out one after another in every
    class, so u: S -> X (side "right") is the generators stacked and
    u: X -> S (side "left") is them side by side.
    """
    left = side == "left"
    gens = minimal_approximation(endp, cx.stalk_complex(X), side) \
        if endp else []
    if not gens:
        S = cx.zero_module(X.A)
        return S, mod.zero_map(X, S) if left else mod.zero_map(S, X)
    S = mod.direct_sum([endp.mq[i].term(0) for i, _ in gens])[0]
    mats = [
        np.concatenate([g.map_at(0).mats[c] for _, g in gens],
                       axis=1 if left else 0)
        for c in range(X.A.nclasses)
    ]
    return S, mod.ModuleMap(X, S, mats) if left else mod.ModuleMap(S, X, mats)


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

    sides = {}
    for tag, tp, batt in (("A", tpA, battery), ("B", tpB, battery_b)):
        tside = [X for X in batt if tp.in_torsion(X)]
        fside = [X for X in batt if tp.in_free(X)]
        sides[tag] = tside, fside
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
    probes = [cx.stalk_complex(X) for X in battery] + [ctx.P, ctx.mcC]
    for Xmc in probes:
        for i in (0, 1):
            lhs = cx.hom_complexes(ctx.P, Xmc, i).dim
            h_prev = Xmc.cohomology(i - 1)
            h_cur = Xmc.cohomology(i)
            rhs = (
                cx.hom_complexes(ctx.P, cx.stalk_complex(h_prev), 1).dim
                + cx.hom_complexes(ctx.P, cx.stalk_complex(h_cur), 0).dim
            )
            tested += 1
            if lhs != rhs:
                ok = False
    checks.append(_entry(
        "hom-cohomology-dims", "pass" if ok else "fail", {"cases": tested}
    ))

    ok = True
    for X in battery:
        lhs = cx.hom_complexes(ctx.P, cx.stalk_complex(X), 0).dim
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

    tside, fside = sides["A"]
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
                w = hom_P_of_module_map(hx, hy, u)
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
        # row j: phi(e_j) then phi(e_i), the chain map of phi(e_i e_j)
        comps = ctx.EndQ.coords_of(cx.compose_flats(
            ctx.phi_flats, ctx.Q_mod, ctx.Q_mod, right=ctx.phi_chain[i]
        ))
        for j in range(A.dim):
            prod = A.el_mult(A.basis_vec(i), A.basis_vec(j))
            if not np.array_equal(ctx.phi_class(prod), comps[j]):
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
        cx.hom_complexes(ctx.P, ctx.P, 1).dim == 0
        and cx.hom_complexes(ctx.P, ctx.P, -1).dim == 0
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
