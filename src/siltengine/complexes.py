"""Bounded complexes over a finite dimensional algebra.

Two representations are used together:

* ModuleComplex: cochain complex of modules with ModuleMap differentials
  (d^i : X^i -> X^{i+1}).  All chain-map and homotopy computations happen
  here.
* ProjComplex: complex of direct sums of indecomposable projectives,
  recorded by summand classes and an algebra-entry matrix per
  differential.  Entry [j, k] lies in e_{c_k} A e_{d_j} and sends
  generator j to generator k times the entry.  This representation
  supports minimization and summand bookkeeping.
"""

import random

import numpy as np

from . import algebra as alg_mod
from . import linalg
from . import modules as mod


class ModuleComplex:
    def __init__(self, A, terms, dmaps):
        """terms: {degree: Module}; dmaps: {degree: ModuleMap to degree+1}."""
        self.A = A
        self.field = A.field
        self.terms = {d: t for d, t in terms.items() if t.total > 0}
        self.dmaps = {
            d: m
            for d, m in dmaps.items()
            if d in self.terms and (d + 1) in self.terms
        }

    def degrees(self):
        return sorted(self.terms)

    def term(self, i):
        if i in self.terms:
            return self.terms[i]
        return zero_module(self.A)

    def dmap(self, i):
        if i in self.dmaps:
            return self.dmaps[i]
        return mod.zero_map(self.term(i), self.term(i + 1))

    def check(self):
        for i in self.degrees():
            if not self.dmap(i).check():
                return False
            if not self.dmap(i).compose(self.dmap(i + 1)).is_zero():
                return False
        return True

    def shift(self, n):
        """X[n]^i = X^{i+n} with differential scaled by (-1)^n."""
        F = self.field
        sign = 1 if n % 2 == 0 else neg_one(F)
        terms = {d - n: t for d, t in self.terms.items()}
        dmaps = {d - n: m.scale(sign) for d, m in self.dmaps.items()}
        return ModuleComplex(self.A, terms, dmaps)

    def cohomology(self, i):
        """H^i as a Module (with the inclusion data discarded)."""
        X = self.term(i)
        kv = mod.kernel_vectors(self.dmap(i))
        K, incl = mod.submodule(X, kv, closed=True)
        if (i - 1) not in self.terms:
            return K
        imv = mod.image_vectors(self.dmap(i - 1))
        if imv.shape[0] == 0:
            return K
        # coordinates in K of the image rows, one factorisation per class
        F = self.field
        rows = F.zeros((imv.shape[0], K.total))
        for c in range(self.A.nclasses):
            piece = X.piece(imv, c)
            if incl.mats[c].shape[0] == 0:
                if np.any(piece != 0):
                    raise ValueError("vector not in the submodule")
                continue
            co = linalg.Coords(F, incl.mats[c]).of(piece)
            if co is None:
                raise ValueError("vector not in the submodule")
            K.piece(rows, c)[:] = co
        Q, _ = mod.quotient_module(K, rows)
        return Q


def zero_module(A):
    return mod.Module(
        A, [0] * A.nclasses, [A.field.zeros((0, 0)) for _ in range(A.dim)]
    )


def stalk_complex(M, degree=0):
    return ModuleComplex(M.A, {degree: M}, {})


class ChainMap:
    """Degree-zero chain map between module complexes."""

    def __init__(self, src, tgt, maps):
        self.src = src
        self.tgt = tgt
        self.maps = {
            d: m
            for d, m in maps.items()
            if d in src.terms and d in tgt.terms
        }
        self.field = src.field

    def map_at(self, i):
        if i in self.maps:
            return self.maps[i]
        return mod.zero_map(self.src.term(i), self.tgt.term(i))

    def check(self):
        for i in set(self.src.terms) | set(self.tgt.terms):
            lhs = self.map_at(i).compose(self.tgt.dmap(i))
            rhs = self.src.dmap(i).compose(self.map_at(i + 1))
            for c in range(self.src.A.nclasses):
                if not np.array_equal(lhs.mats[c], rhs.mats[c]):
                    return False
        return True

    def compose(self, other):
        maps = {
            d: self.map_at(d).compose(other.map_at(d)) for d in self.maps
        }
        return ChainMap(self.src, other.tgt, maps)

    def shift(self, n):
        maps = {d - n: m for d, m in self.maps.items()}
        return ChainMap(self.src.shift(n), self.tgt.shift(n), maps)

    def add(self, other):
        maps = {}
        for d in set(self.maps) | set(other.maps):
            maps[d] = self.map_at(d).add(other.map_at(d))
        return ChainMap(self.src, self.tgt, maps)

    def scale(self, c):
        return ChainMap(
            self.src, self.tgt, {d: m.scale(c) for d, m in self.maps.items()}
        )

    def is_zero(self):
        return all(m.is_zero() for m in self.maps.values())

    def is_chain_iso(self):
        for i in set(self.src.terms) | set(self.tgt.terms):
            if not self.map_at(i).is_isomorphism():
                return False
        return self.check()


def identity_chain_map(X):
    return ChainMap(X, X, {d: mod.identity_map(X.term(d)) for d in X.terms})


class HomSpace:
    """Hom of complexes modulo homotopy, with explicit coordinates."""

    def __init__(self, X, Y):
        self.X = X
        self.Y = Y
        self.field = X.field
        self._compute()

    def _layout(self):
        degs = sorted(set(self.X.terms) & set(self.Y.terms))
        sizes = []
        for d in degs:
            sz = sum(
                self.X.term(d).dims[c] * self.Y.term(d).dims[c]
                for c in range(self.X.A.nclasses)
            )
            sizes.append(sz)
        return degs, sizes

    def _compute(self):
        F = self.field
        X, Y = self.X, self.Y
        degs, sizes = self._layout()
        self.degs, self.sizes = degs, sizes
        nflat = sum(sizes)
        self.nflat = nflat
        if nflat == 0:
            z = F.zeros((0, 0))
            self.chain_basis = z
            self.htpy = z
            self.class_basis = z
            self.dim = 0
            self.htpy_gens = []
            self.htpy_images = z
            return
        # chain maps: per-degree module maps with the commuting condition
        per_deg = []
        for d in degs:
            maps, flat = mod.hom_space(X.term(d), Y.term(d))
            per_deg.append((maps, flat))
        # build candidate space as product of degreewise hom spaces
        rows = []
        offs = np.concatenate([[0], np.cumsum(sizes)])
        for di, d in enumerate(degs):
            maps, flat = per_deg[di]
            for r in range(flat.shape[0]):
                v = F.zeros((nflat,))
                v[offs[di] : offs[di + 1]] = flat[r]
                rows.append(v)
        cand = np.stack(rows, axis=0) if rows else F.zeros((0, nflat))
        # condition: f^d . d_Y - d_X . f^{d+1} = 0 for all d
        cond_rows = []
        for r in range(cand.shape[0]):
            f = self.map_from_flat(cand[r])
            viol = []
            for i in set(X.terms) | set(Y.terms):
                lhs = f.map_at(i).compose(Y.dmap(i))
                rhs = X.dmap(i).compose(f.map_at(i + 1))
                diff = lhs.add(rhs.scale(neg_one(F)))
                viol.append(diff.flat())
            cond_rows.append(np.concatenate(viol) if viol else F.zeros((0,)))
        if cond_rows and cond_rows[0].shape[0] > 0:
            cond = np.stack(cond_rows, axis=0)
            coeff_ker = linalg.kernel(F, cond.T)
            chain = linalg.row_space(F, F.matmul(coeff_ker, cand))
        else:
            chain = linalg.row_space(F, cand)
        self.chain_basis = chain
        # homotopies: image of s -> s d_Y + d_X s, with s^d : X^d -> Y^{d-1}
        # ranging over all degrees where both sides are nonzero; the
        # generators (d, s) and their images are kept for find_homotopy
        self.htpy_gens = []
        h_rows = []
        for d in sorted(set(X.terms)):
            if (d - 1) not in Y.terms:
                continue
            smaps, sflat = mod.hom_space(X.term(d), Y.term(d - 1))
            for r in range(sflat.shape[0]):
                s = mod.map_from_flat(X.term(d), Y.term(d - 1), sflat[r])
                out = {}
                out[d] = s.compose(Y.dmap(d - 1))
                out[d - 1] = X.dmap(d - 1).compose(s)
                h = ChainMap(X, Y, out)
                h_rows.append(self.flat_of(h))
                self.htpy_gens.append((d, s))
        if h_rows:
            self.htpy_images = np.stack(h_rows, axis=0)
            htpy = linalg.row_space(F, self.htpy_images)
        else:
            self.htpy_images = htpy = F.zeros((0, nflat))
        # homotopies that are chain maps (they all are, see below)
        self.htpy = linalg.intersect_spaces(F, htpy, chain) if htpy.shape[0] \
            else htpy
        self.class_basis = linalg.complement(F, self.htpy, chain)
        self.dim = self.class_basis.shape[0]

    def map_from_flat(self, v):
        offs = np.concatenate([[0], np.cumsum(self.sizes)])
        maps = {}
        for di, d in enumerate(self.degs):
            blk = v[offs[di] : offs[di + 1]]
            maps[d] = mod.map_from_flat(self.X.term(d), self.Y.term(d), blk)
        return ChainMap(self.X, self.Y, maps)

    def flat_of(self, f):
        parts = []
        for d in self.degs:
            parts.append(f.map_at(d).flat())
        if not parts:
            return self.field.zeros((0,))
        return np.concatenate(parts)

    def coords(self, f):
        """Class coordinates of a chain map over class_basis, mod homotopy."""
        return linalg.quotient_coords(
            self.field, self.htpy, self.class_basis, self.flat_of(f)
        )

    def class_map(self, i):
        return self.map_from_flat(self.class_basis[i])

    def is_nullhomotopic(self, f):
        v = self.flat_of(f)
        if self.htpy.shape[0] == 0:
            return bool(np.all(v == 0))
        return linalg.in_span(self.field, self.htpy, v)


def hom_complexes(X, Y, n=0):
    """Hom_{K}(X, Y[n]) with explicit chain and homotopy bases."""
    return HomSpace(X, Y.shift(n))


def find_homotopy(hs, f):
    """Explicit null-homotopy of a chain map f inside a HomSpace.

    Returns {degree: ModuleMap X^d -> Y^{d-1}} with
    f = s . d_Y + d_X . s, or None if f is not null-homotopic.
    """
    target = hs.flat_of(f)
    if not hs.htpy_gens:
        return {} if np.all(target == 0) else None
    co = linalg.coords_in_basis(hs.field, hs.htpy_images, target)
    if co is None:
        return None
    out = {}
    for c, (d, s) in zip(co, hs.htpy_gens):
        if c == 0:
            continue
        piece = s.scale(c)
        out[d] = piece if d not in out else out[d].add(piece)
    return out


def neg_one(F):
    return -1 % F.p if isinstance(F, linalg.GF) else -1


def mapping_cone(f):
    """cone of f : X -> Y at module level.

    cone^i = Y^i + X^{i+1}; returns (cone, incl: Y -> cone,
    proj: cone -> X[1]), both verified chain maps.
    """
    X, Y = f.src, f.tgt
    A = X.A
    F = X.field
    X1 = X.shift(1)
    degs = sorted(set(Y.terms) | set(X1.terms))
    terms = {}
    sums = {}
    for d in degs:
        S, incls, projs = mod.direct_sum([Y.term(d), X1.term(d)])
        terms[d] = S
        sums[d] = (S, incls, projs)
    dmaps = {}
    neg = neg_one(F)
    for d in degs:
        if (d + 1) not in terms:
            continue
        S0, incls0, projs0 = sums[d]
        S1, incls1, projs1 = sums[d + 1]
        m = mod.zero_map(S0, S1)
        # Y block: -d_Y
        m = m.add(
            projs0[0].compose(Y.dmap(d).scale(neg)).compose(incls1[0])
        )
        # X[1] -> Y[1] block: f^{d+1}
        m = m.add(projs0[1].compose(f.map_at(d + 1)).compose(incls1[0]))
        # X[1] block: unshifted d_X; together with -d_Y and the chain-map
        # property of f this gives d^2 = 0
        m = m.add(
            projs0[1].compose(X1.dmap(d).scale(neg)).compose(incls1[1])
        )
        dmaps[d] = m
    C = ModuleComplex(A, terms, dmaps)
    # both structure maps carry an alternating sign
    imaps = {}
    pmaps = {}
    for d in degs:
        S, incls, projs = sums[d]
        sign = 1 if d % 2 == 0 else neg
        if d in Y.terms:
            imaps[d] = incls[0].scale(sign)
        if d in X1.terms:
            pmaps[d] = projs[1].scale(sign)
    incl = ChainMap(Y, C, imaps)
    proj = ChainMap(C, X1, pmaps)
    if not C.check():
        raise RuntimeError("cone differential fails d^2 = 0")
    if not incl.check():
        raise RuntimeError("cone inclusion is not a chain map")
    if not proj.check():
        raise RuntimeError("cone projection is not a chain map")
    return C, incl, proj


# ---- complexes of projectives -------------------------------------------


class ProjComplex:
    """Complex of direct sums of indecomposable projectives.

    terms: {degree: list of idempotent classes}
    diffs: {degree: entries array (len src, len tgt, dim A)}
    """

    def __init__(self, A, terms, diffs):
        self.A = A
        self.field = A.field
        self.terms = {d: list(c) for d, c in terms.items() if c}
        self.diffs = {
            d: e
            for d, e in diffs.items()
            if d in self.terms and (d + 1) in self.terms
        }
        self._module_form = None

    def degrees(self):
        return sorted(self.terms)

    def diff(self, d):
        if d in self.diffs:
            return self.diffs[d]
        ns = len(self.terms.get(d, []))
        nt = len(self.terms.get(d + 1, []))
        return self.field.zeros((ns, nt, self.A.dim))

    def check(self):
        for d in self.degrees():
            if (d + 2) in self.terms or (d + 1) in self.terms:
                sq = entry_compose(self.A, self.diff(d), self.diff(d + 1))
                if np.any(sq != 0):
                    return False
        return True

    def module_form(self):
        """(ModuleComplex, {degree: ProjSum})."""
        if self._module_form is None:
            psums = {d: mod.ProjSum(self.A, cl) for d, cl in self.terms.items()}
            terms = {d: ps.module for d, ps in psums.items()}
            dmaps = {}
            for d in self.diffs:
                dmaps[d] = psums[d].map_from_entries(
                    psums[d + 1], self.diff(d)
                )
            mc = ModuleComplex(self.A, terms, dmaps)
            self._module_form = (mc, psums)
        return self._module_form

    def shift(self, n):
        F = self.field
        sign = 1 if n % 2 == 0 else neg_one(F)
        terms = {d - n: list(c) for d, c in self.terms.items()}
        diffs = {d - n: F.reduce(sign * e) for d, e in self.diffs.items()}
        return ProjComplex(self.A, terms, diffs)

    def summand_count(self):
        return sum(len(c) for c in self.terms.values())

    def is_minimal(self):
        """All differential entries lie in the radical."""
        for d in self.diffs:
            e = self.diff(d)
            for j in range(e.shape[0]):
                for k in range(e.shape[1]):
                    if not self.A.in_radical(e[j, k]):
                        return False
        return True


def entry_compose(A, a, b):
    """Entries of (map with entries a) followed by (map with entries b)."""
    F = A.field
    ns, mid, _ = a.shape
    mid2, nt, _ = b.shape
    if mid != mid2:
        raise ValueError("entry composition shape mismatch")
    out = F.zeros((ns, nt, A.dim))
    for j in range(ns):
        for l in range(nt):
            acc = F.zeros((A.dim,))
            for k in range(mid):
                acc = F.reduce(acc + A.el_mult(b[k, l], a[j, k]))
            out[j, l] = acc
    return out


def proj_complex_direct_sum(xs):
    A = xs[0].A
    F = A.field
    degs = sorted({d for x in xs for d in x.terms})
    terms = {}
    offsets = {}
    for d in degs:
        cl = []
        offs = []
        for x in xs:
            offs.append(len(cl))
            cl.extend(x.terms.get(d, []))
        terms[d] = cl
        offsets[d] = offs
    diffs = {}
    for d in degs:
        if (d + 1) not in terms:
            continue
        ns, nt = len(terms[d]), len(terms[d + 1])
        e = F.zeros((ns, nt, A.dim))
        for xi, x in enumerate(xs):
            xe = x.diff(d)
            r0 = offsets[d][xi]
            c0 = offsets[d + 1][xi]
            e[r0 : r0 + xe.shape[0], c0 : c0 + xe.shape[1]] = xe
        diffs[d] = e
    return ProjComplex(A, terms, diffs)


def two_term_complex(A, classes_m1, classes_0, entries):
    """Complex [P^{-1} -> P^0] in degrees -1 and 0."""
    terms = {-1: list(classes_m1), 0: list(classes_0)}
    diffs = {-1: entries}
    X = ProjComplex(A, terms, diffs)
    return X


def stalk_proj_complex(A, classes, degree=0):
    return ProjComplex(A, {degree: list(classes)}, {})


# ---- minimization -------------------------------------------------------


def minimize(X):
    """Homotopy-equivalent complex with all differential entries radical."""
    A = X.A
    F = A.field
    terms = {d: list(c) for d, c in X.terms.items()}
    diffs = {d: np.array(X.diff(d), copy=True) for d in X.diffs}

    def get_diff(d):
        if d in diffs:
            return diffs[d]
        ns = len(terms.get(d, []))
        nt = len(terms.get(d + 1, []))
        return F.zeros((ns, nt, A.dim))

    changed = True
    while changed:
        changed = False
        for d in sorted(list(diffs)):
            e = diffs[d]
            unit = None
            for j in range(e.shape[0]):
                for k in range(e.shape[1]):
                    if terms[d][j] != terms[d + 1][k]:
                        continue
                    inv = A.corner_inverse(e[j, k], terms[d][j])
                    if inv is not None:
                        unit = (j, k, inv)
                        break
                if unit:
                    break
            if unit is None:
                continue
            j, k, inv = unit
            # clean column k (other rows) and row j (other columns):
            # e'[j2,k2] = e[j2,k2] - e[j,k2]*inv*e[j2,k]
            new_e = np.array(e, copy=True)
            for j2 in range(e.shape[0]):
                if j2 == j:
                    continue
                for k2 in range(e.shape[1]):
                    if k2 == k:
                        continue
                    corr = A.el_mult(
                        A.el_mult(e[j, k2], inv), e[j2, k]
                    )
                    new_e[j2, k2] = F.reduce(e[j2, k2] - corr)
            for j2 in range(e.shape[0]):
                if j2 != j:
                    new_e[j2, k] = 0
            for k2 in range(e.shape[1]):
                if k2 != k:
                    new_e[j, k2] = 0
            # adjacent differentials get the inverse basis changes; the
            # affected row/column must then vanish by d^2 = 0
            prev = get_diff(d - 1)
            if prev.size:
                newprev = np.array(prev, copy=True)
                for r in range(prev.shape[0]):
                    acc = prev[r, j]
                    for j2 in range(e.shape[0]):
                        if j2 == j:
                            continue
                        lam = A.el_mult(inv, e[j2, k])
                        acc = F.reduce(acc + A.el_mult(lam, prev[r, j2]))
                    newprev[r, j] = acc
                prev = newprev
            nxt = get_diff(d + 1)
            if nxt.size:
                newnxt = np.array(nxt, copy=True)
                for c2 in range(nxt.shape[1]):
                    acc = nxt[k, c2]
                    for k2 in range(e.shape[1]):
                        if k2 == k:
                            continue
                        lam = A.el_mult(e[j, k2], inv)
                        acc = F.reduce(acc + A.el_mult(nxt[k2, c2], lam))
                    newnxt[k, c2] = acc
                nxt = newnxt
            # drop summand j at degree d and k at degree d+1
            keep_j = [x for x in range(e.shape[0]) if x != j]
            keep_k = [x for x in range(e.shape[1]) if x != k]
            diffs[d] = new_e[np.ix_(keep_j, keep_k)]
            if prev.size:
                if np.any(prev[:, j] != 0):
                    raise RuntimeError("minimization: incoming map did not clear")
                diffs[d - 1] = prev[:, keep_j]
            if nxt.size:
                if np.any(nxt[k, :] != 0):
                    raise RuntimeError("minimization: outgoing map did not clear")
                diffs[d + 1] = nxt[keep_k, :]
            terms[d] = [terms[d][x] for x in keep_j]
            terms[d + 1] = [terms[d + 1][x] for x in keep_k]
            changed = True
            break
    out = ProjComplex(A, terms, diffs)
    if not out.check():
        raise RuntimeError("minimization broke d^2 = 0")
    if not out.is_minimal():
        raise RuntimeError("minimization left a unit entry")
    return out


# ---- decomposition and isomorphism --------------------------------------


def chain_end_algebra(X):
    """Chain endomorphisms of a module-form complex as an Algebra.

    Returns (Algebra, list of ChainMaps matching its basis, HomSpace of
    the pair for homotopy bookkeeping).  Identity is basis element 0.
    """
    hs = HomSpace(X, X)
    F = X.field
    ident = identity_chain_map(X)
    idflat = hs.flat_of(ident)
    rest = linalg.complement(F, idflat.reshape(1, -1), hs.chain_basis)
    basis_flat = np.concatenate([idflat.reshape(1, -1), rest], axis=0)
    n = basis_flat.shape[0]
    basis_maps = [hs.map_from_flat(basis_flat[i]) for i in range(n)]
    coords = linalg.Coords(F, basis_flat)
    mult = F.zeros((n, n, n))
    for i in range(n):
        prods = np.stack([
            hs.flat_of(basis_maps[i].compose(basis_maps[j])) for j in range(n)
        ])
        block = coords.of(prods)
        if block is None:
            raise RuntimeError("chain endomorphisms not closed")
        mult[i] = block
    E = alg_mod.Algebra(
        F, ["f%d" % i for i in range(n)], [0] * n, [0] * n, mult, [0], 1
    )
    return E, basis_maps, hs


def chain_map_from_element(basis_maps, x):
    out = None
    for i in np.flatnonzero(np.asarray(x) != 0):
        piece = basis_maps[int(i)].scale(x[int(i)])
        out = piece if out is None else out.add(piece)
    if out is None:
        return basis_maps[0].scale(0)
    return out


def decompose_complex(X, rng=None):
    """Indecomposable summands of a projective complex, up to isomorphism.

    Minimizes first, then splits idempotent chain endomorphisms.  Returns
    a list of groups of ProjComplex summands; summands within a group are
    isomorphic.
    """
    Xm = minimize(X)
    if not Xm.terms:
        return []
    mc, psums = Xm.module_form()
    E, basis_maps, hs = chain_end_algebra(mc)
    groups = E.decompose_identity(rng)
    out = []
    for g in groups:
        grp = []
        for el in g:
            emap = chain_map_from_element(basis_maps, el)
            grp.append(_standardize_summand(mc, emap))
        out.append(grp)
    return out


def _standardize_summand(mc, emap):
    """Image of an idempotent chain endo, re-expressed by summand classes."""
    terms = {}
    incls = {}
    for d in mc.terms:
        imv = mod.image_vectors(emap.map_at(d))
        terms[d], incls[d] = mod.submodule(mc.term(d), imv, closed=True)
    # the differential of the image complex, retracted through the inclusion
    dmaps = {
        d: retract_through_inclusion(
            incls[d + 1], incls[d].compose(mc.dmap(d))
        )
        for d in terms
        if (d + 1) in terms
    }
    image = ModuleComplex(mc.A, terms, dmaps)
    return proj_complex_from_module_complex(image)[0]


def proj_complex_from_module_complex(Xmc):
    """(ProjComplex, covers) for a complex of projective modules."""
    A = Xmc.A
    psums = {}
    covers = {}
    for d, M in Xmc.terms.items():
        ps, cover = mod.projective_cover(M)
        if not cover.is_isomorphism():
            raise RuntimeError("complex term is not projective")
        psums[d] = ps
        covers[d] = cover
    diffs = {}
    for d in Xmc.dmaps:
        dm = (
            covers[d]
            .compose(Xmc.dmaps[d])
            .compose(map_inverse(covers[d + 1]))
        )
        diffs[d] = psums[d].entry_matrix_to(psums[d + 1], dm)
    out = ProjComplex(A, {d: ps.classes for d, ps in psums.items()}, diffs)
    if not out.check():
        raise RuntimeError("projective presentation fails d^2 = 0")
    return out, covers


def retract_through_inclusion(incl, f):
    """g with g . incl = f, given im f inside im incl."""
    F = incl.field
    mats = []
    for c in range(incl.src.A.nclasses):
        x = linalg.solve_matrix(
            F, incl.mats[c].T, f.mats[c].T
        )
        if x is None:
            raise RuntimeError("image does not land in the submodule")
        mats.append(x.T)
    return mod.ModuleMap(f.src, incl.src, mats)


def map_inverse(f):
    F = f.field
    mats = []
    for c in range(f.src.A.nclasses):
        inv = linalg.invert(F, f.mats[c])
        if inv is None:
            raise RuntimeError("map is not invertible")
        mats.append(inv)
    return mod.ModuleMap(f.tgt, f.src, mats)


def complexes_isomorphic(X, Y, rng=None):
    """Isomorphism in the homotopy category, tested after minimization."""
    rng = rng or random.Random(0)
    Xm, Ym = minimize(X), minimize(Y)
    if sorted(Xm.terms) != sorted(Ym.terms):
        return (Xm.terms == {} and Ym.terms == {}) or None
    for d in Xm.terms:
        if sorted(Xm.terms[d]) != sorted(Ym.terms[d]):
            return None
    mx, _ = Xm.module_form()
    my, _ = Ym.module_form()
    hs = HomSpace(mx, my)
    for v in linalg.candidates(X.field, hs.chain_basis, rng, 40):
        f = hs.map_from_flat(v)
        if f.is_chain_iso():
            return f
    return None


# ---- Nakayama functor ---------------------------------------------------


def nu_complex(X):
    """Complex of injectives nu(X) for a projective complex X."""
    A = X.A
    Aop = mod.opposite_algebra(A)
    terms = {}
    metas = {}
    for d, classes in X.terms.items():
        injs = [mod.injective_module(A, c) for c in classes]
        S, incls, projs = mod.direct_sum(injs)
        terms[d] = S
        metas[d] = (injs, incls, projs, classes)
    dmaps = {}
    for d in X.diffs:
        e = X.diff(d)
        injs0, incls0, projs0, cls0 = metas[d]
        injs1, incls1, projs1, cls1 = metas[d + 1]
        m = mod.zero_map(terms[d], terms[d + 1])
        for j in range(e.shape[0]):
            for k in range(e.shape[1]):
                if np.all(e[j, k] == 0):
                    continue
                blk = _nu_of_entry(A, Aop, e[j, k], cls0[j], cls1[k])
                m = m.add(projs0[j].compose(blk).compose(incls1[k]))
        dmaps[d] = m
    return ModuleComplex(A, terms, dmaps)


def _nu_of_entry(A, Aop, a, cj, ck):
    """nu of left multiplication by a : e_{cj} A -> e_{ck} A.

    Induced map D(A e_{cj}) -> D(A e_{ck}): the dual of right
    multiplication by a on the opposite projectives.
    """
    Pj_op = mod.projective_module(Aop, cj)
    Pk_op = mod.projective_module(Aop, ck)
    # in the opposite algebra, a in e_{ck} A e_{cj} = e_{cj}^op A^op e_{ck}^op
    ps_j = mod.ProjSum(Aop, [cj])
    ps_k = mod.ProjSum(Aop, [ck])
    f_op = ps_k.map_from_entries(ps_j, np.reshape(a, (1, 1, -1)))
    # dual over A: transpose blocks and swap direction
    Ij = mod.dual_module(ps_j.module, A)
    Ik = mod.dual_module(ps_k.module, A)
    mats = [f_op.mats[c].T for c in range(A.nclasses)]
    return mod.ModuleMap(Ij, Ik, mats)
