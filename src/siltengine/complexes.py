"""Bounded complexes over a finite dimensional algebra.

A ModuleComplex is a cochain complex of modules with ModuleMap
differentials (d^i : X^i -> X^{i+1}).  Chain maps, Hom modulo homotopy,
cones and cohomology are computed on it.

A ProjComplex is a ModuleComplex whose terms are direct sums of
indecomposable projectives.  It records each term by its summand classes
(`classes`) and each differential by an algebra-entry matrix (`diffs`):
entry [j, k] lies in e_{c_k} A e_{d_j} and sends generator j to generator
k times the entry.  Minimization, direct sums, shifts and summand
bookkeeping work on the entries; the module terms (the `proj_sum`
modules) and differentials are built from them on first read.  Every
computation on entries reads them through one batched `Algebra.lm`:
`entry_compose` (which minimization's elimination step calls), the module
differentials (`ProjSum.map_from_entries`) and the Nakayama functor
`nu_complex`.  A complex of projective modules built as a ModuleComplex
(the image of an idempotent, a cone, the induced complex Q) is read back
into a ProjComplex through the projective cover of each term.
"""

import functools
import random

import numpy as np

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
        sign = 1 if n % 2 == 0 else linalg.neg_one(F)
        terms = {d - n: t for d, t in self.terms.items()}
        dmaps = {d - n: m.scale(sign) for d, m in self.dmaps.items()}
        return ModuleComplex(self.A, terms, dmaps)

    def cohomology(self, i):
        """H^i as a Module (with the inclusion data discarded)."""
        K, incl = mod.submodule(
            self.term(i), mod.kernel_vectors(self.dmap(i))
        )
        if (i - 1) not in self.dmaps:
            return K
        # the image of d^{i-1}, read in K
        imv = mod.image_vectors(
            mod.retract_through_inclusion(incl, self.dmaps[i - 1])
        )
        if imv.shape[0] == 0:
            return K
        return mod.quotient_module(K, imv)[0]


def zero_module(A):
    """The zero module over A, built once and kept on A."""
    if getattr(A, "_zero_cache", None) is None:
        A._zero_cache = mod.Module(
            A, [0] * A.nclasses, [A.field.zeros((0, 0)) for _ in range(A.dim)]
        )
    return A._zero_cache


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
    """Hom of complexes modulo homotopy, with explicit coordinates.

    A chain map is flattened degree by degree over the degrees where X
    and Y both have a term, each degree in the flat layout of module maps.
    The chain maps are the candidates, the block-diagonal rows of the
    degreewise `hom_space` bases, that meet f^i d_Y - d_X f^{i+1} = 0;
    the homotopies are the images s d_Y + d_X s of the `hom_space` bases
    of X^d -> Y^{d-1}.  Both are composed in batches with
    `modules.compose_flats`, one product per degree and class.  The terms
    of a ProjComplex are ProjSum modules, whose `hom_space` bases are read
    off generator images without a solve.
    """

    def __init__(self, X, Y):
        self.X = X
        self.Y = Y
        self.field = X.field
        self._compute()

    def _compute(self):
        F = self.field
        X, Y = self.X, self.Y
        slot, nflat = _hom_slots(X, Y)
        self.degs = degs = list(slot)
        self._slot = slot
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
        # condition i is the map X^i -> Y^{i+1}; a degree-d candidate
        # meets condition d through d_Y^d and condition d - 1 through
        # d_X^{d-1}
        cslot, ncond = _flat_slots({
            i: (X.term(i), Y.term(i + 1))
            for i in sorted(X.terms) if (i + 1) in Y.terms
        })
        bases = [mod.hom_space(X.term(d), Y.term(d))[1] for d in degs]
        ncand = sum(b.shape[0] for b in bases)
        cand = F.zeros((ncand, nflat))
        cond = F.zeros((ncand, ncond))
        r = 0
        for d, basis in zip(degs, bases):
            k = basis.shape[0]
            if not k:
                continue
            M, N = X.term(d), Y.term(d)
            lo, hi = slot[d]
            cand[r : r + k, lo:hi] = basis
            if d in cslot:
                lo, hi = cslot[d]
                cond[r : r + k, lo:hi] = mod.compose_flats(
                    basis, M, N, right=Y.dmap(d)
                )
            if (d - 1) in cslot:
                lo, hi = cslot[d - 1]
                cond[r : r + k, lo:hi] = F.neg(
                    mod.compose_flats(basis, M, N, left=X.dmap(d - 1))
                )
            r += k
        if ncand and ncond:
            coeff_ker = linalg.kernel(F, cond.T)
            chain = linalg.row_space(F, F.matmul(coeff_ker, cand))
        else:
            chain = linalg.row_space(F, cand)
        self.chain_basis = chain
        # homotopies: image of s -> s d_Y + d_X s, with s^d : X^d -> Y^{d-1}
        # ranging over all degrees where both sides are nonzero; the
        # generators (d, s) and their images are kept for find_homotopy
        self.htpy_gens = []
        images = []
        for d in sorted(X.terms):
            if (d - 1) not in Y.terms:
                continue
            M, N = X.term(d), Y.term(d - 1)
            smaps, sflat = mod.hom_space(M, N)
            if not smaps:
                continue
            img = F.zeros((len(smaps), nflat))
            if d in slot:
                lo, hi = slot[d]
                img[:, lo:hi] = mod.compose_flats(
                    sflat, M, N, right=Y.dmap(d - 1)
                )
            if (d - 1) in slot:
                lo, hi = slot[d - 1]
                img[:, lo:hi] = mod.compose_flats(
                    sflat, M, N, left=X.dmap(d - 1)
                )
            images.append(img)
            self.htpy_gens.extend((d, s) for s in smaps)
        if images:
            self.htpy_images = np.concatenate(images, axis=0)
            htpy = linalg.row_space(F, self.htpy_images)
        else:
            self.htpy_images = htpy = F.zeros((0, nflat))
        # every s . d_Y + d_X . s is a chain map, so the canonical basis of
        # the homotopies already lies in the chain maps
        self.htpy = htpy
        self.class_basis = linalg.complement(F, self.htpy, chain)
        self.dim = self.class_basis.shape[0]

    def map_from_flat(self, v):
        maps = {
            d: mod.map_from_flat(self.X.term(d), self.Y.term(d), v[lo:hi])
            for d, (lo, hi) in self._slot.items()
        }
        return ChainMap(self.X, self.Y, maps)

    def flat_of(self, f):
        parts = []
        for d in self.degs:
            parts.append(f.map_at(d).flat())
        if not parts:
            return self.field.zeros((0,))
        return np.concatenate(parts)

    @functools.cached_property
    def _quotient(self):
        """[htpy; class_basis] factored once, homotopy coordinates dropped."""
        return linalg.Coords(
            self.field,
            np.concatenate([self.htpy, self.class_basis], axis=0),
            skip=self.htpy.shape[0],
        )

    def coords_of(self, flats):
        """Class coordinates over class_basis, modulo homotopy, of a batch
        of flat chain maps (one per row)."""
        if not flats.shape[0]:
            return self.field.zeros((0, self.dim))
        x = self._quotient.of(flats)
        if x is None:
            raise ValueError("vector not in the spanned space")
        return x

    def coords(self, f):
        """Class coordinates of a chain map over class_basis, mod homotopy."""
        return self.coords_of(self.flat_of(f).reshape(1, -1))[0]

    def induced(self, tgt, left=None, right=None):
        """Matrix whose row r is tgt's class coordinates of left then
        class_map(r), for a chain map left : tgt.X -> X, or of class_map(r)
        then right, for right : Y -> tgt.Y; give exactly one of the two."""
        return tgt.coords_of(compose_flats(
            self.class_basis, self.X, self.Y, left=left, right=right
        ))

    def class_map(self, i):
        return self.map_from_flat(self.class_basis[i])

    def is_nullhomotopic(self, f):
        return linalg.in_span(self.field, self.htpy, self.flat_of(f))


def compose_flats(flats, X, Y, left=None, right=None):
    """Flat rows of `left` then f, or of f then `right`, for a batch of
    chain maps f : X -> Y given as rows in the layout of HomSpace(X, Y).

    Give exactly one of left (a ChainMap L -> X) and right (Y -> R); the
    rows come back in the layout of HomSpace(L, Y) or HomSpace(X, R).
    Each degree takes one `modules.compose_flats` for the whole batch.
    """
    if (left is None) == (right is None):
        raise ValueError("give exactly one of left and right")
    side, g = ("left", left) if right is None else ("right", right)
    slot, _ = _hom_slots(X, Y)
    out_slot, width = _hom_slots(g.src, Y) if right is None else \
        _hom_slots(X, g.tgt)
    out = X.field.zeros((flats.shape[0], width))
    if not flats.shape[0]:
        return out
    for d, (lo, hi) in out_slot.items():
        if d in slot and d in g.maps:
            a, b = slot[d]
            out[:, lo:hi] = mod.compose_flats(
                flats[:, a:b], X.term(d), Y.term(d), **{side: g.maps[d]}
            )
    return out


def _hom_slots(X, Y):
    """`_flat_slots` of the chain maps X -> Y: one slot per degree where
    both complexes have a term."""
    degs = sorted(set(X.terms) & set(Y.terms))
    return _flat_slots({d: (X.term(d), Y.term(d)) for d in degs})


def _flat_slots(pairs):
    """({key: (lo, hi)}, width): the columns of each flat map M -> N, for
    pairs {key: (M, N)}, laid side by side in key order."""
    slots, pos = {}, 0
    for key, (M, N) in pairs.items():
        size = sum(a * b for a, b in zip(M.dims, N.dims))
        slots[key] = (pos, pos + size)
        pos += size
    return slots, pos


def hom_complexes(X, Y, n=0):
    """Hom_{K}(X, Y[n]) with explicit chain and homotopy bases."""
    return HomSpace(X, Y.shift(n))


def find_homotopy(hs, f):
    """Explicit null-homotopy of a chain map f inside a HomSpace.

    Returns {degree: ModuleMap X^d -> Y^{d-1}} with
    f = s . d_Y + d_X . s, or None if f is not null-homotopic.
    """
    co = linalg.coords_in_basis(hs.field, hs.htpy_images, hs.flat_of(f))
    if co is None:
        return None
    out = {}
    for d in {d for d, _ in hs.htpy_gens}:
        ks = [k for k, (e, _) in enumerate(hs.htpy_gens) if e == d]
        if np.any(co[ks] != 0):
            out[d] = mod.combination([hs.htpy_gens[k][1] for k in ks], co[ks])
    return out


def mapping_cone(f):
    """cone of f : X -> Y at module level.

    cone^i = Y^i + X^{i+1} with differential [[-d_Y, 0], [f, d_X]], the
    unshifted d_X, written block by block; returns (cone, incl: Y ->
    cone, proj: cone -> X[1]), both verified chain maps, with the sign
    (-1)^i on their identity blocks.
    """
    X, Y = f.src, f.tgt
    F = X.field
    neg = linalg.neg_one(F)
    degs = sorted(set(Y.terms) | {d - 1 for d in X.terms})
    terms = {d: mod.direct_sum([Y.term(d), X.term(d + 1)])[0] for d in degs}
    dmaps = {}
    for d in degs:
        if (d + 1) not in terms:
            continue
        dy, fx, dx = Y.dmap(d), f.map_at(d + 1), X.dmap(d + 1)
        mats = []
        for c in range(X.A.nclasses):
            y0, y1 = dy.mats[c].shape
            m = F.zeros((y0 + fx.mats[c].shape[0], y1 + dx.mats[c].shape[1]))
            m[:y0, :y1] = F.neg(dy.mats[c])
            m[y0:, :y1] = fx.mats[c]
            m[y0:, y1:] = dx.mats[c]
            mats.append(m)
        dmaps[d] = mod.ModuleMap(terms[d], terms[d + 1], mats)
    C = ModuleComplex(X.A, terms, dmaps)
    imaps, pmaps = {}, {}
    for d in degs:
        sign = 1 if d % 2 == 0 else neg
        S, y = terms[d], Y.term(d).dims
        eyes = [F.reduce(sign * F.eye(n)) for n in S.dims]
        if d in Y.terms:
            imaps[d] = mod.ModuleMap(
                Y.term(d), S, [e[:n] for e, n in zip(eyes, y)])
        if (d + 1) in X.terms:
            pmaps[d] = mod.ModuleMap(
                S, X.term(d + 1), [e[:, n:] for e, n in zip(eyes, y)])
    incl = ChainMap(Y, C, imaps)
    proj = ChainMap(C, X.shift(1), pmaps)
    if not C.check():
        raise RuntimeError("cone differential fails d^2 = 0")
    if not incl.check():
        raise RuntimeError("cone inclusion is not a chain map")
    if not proj.check():
        raise RuntimeError("cone projection is not a chain map")
    return C, incl, proj


# ---- complexes of projectives -------------------------------------------


class ProjComplex(ModuleComplex):
    """Complex of direct sums of indecomposable projectives.

    classes: {degree: list of idempotent classes}
    diffs: {degree: entries array (len src, len tgt, dim A)}
    The module terms and differentials are built from them on first read.
    """

    def __init__(self, A, classes, diffs):
        self.A = A
        self.field = A.field
        self.classes = {d: list(c) for d, c in classes.items() if c}
        self.diffs = {
            d: e
            for d, e in diffs.items()
            if d in self.classes and (d + 1) in self.classes
        }

    @functools.cached_property
    def terms(self):
        return {d: mod.proj_sum(self.A, cl).module
                for d, cl in self.classes.items()}

    @functools.cached_property
    def dmaps(self):
        return {d: self.terms[d].psum.map_from_entries(
                    self.terms[d + 1].psum, e)
                for d, e in self.diffs.items()}

    def diff(self, d):
        if d in self.diffs:
            return self.diffs[d]
        ns = len(self.classes.get(d, []))
        nt = len(self.classes.get(d + 1, []))
        return self.field.zeros((ns, nt, self.A.dim))

    def check(self):
        """d^2 = 0 on the entries, without building the module terms."""
        for d in sorted(self.classes):
            if (d + 2) in self.classes or (d + 1) in self.classes:
                sq = entry_compose(self.A, self.diff(d), self.diff(d + 1))
                if np.any(sq != 0):
                    return False
        return True

    def shift(self, n):
        F = self.field
        sign = 1 if n % 2 == 0 else linalg.neg_one(F)
        classes = {d - n: list(c) for d, c in self.classes.items()}
        diffs = {d - n: F.reduce(sign * e) for d, e in self.diffs.items()}
        return ProjComplex(self.A, classes, diffs)

    def summand_count(self):
        return sum(len(c) for c in self.classes.values())

    def is_minimal(self):
        """All differential entries lie in the radical: one solve of all
        of them against rad A."""
        ents = np.concatenate([self.field.zeros((0, self.A.dim))] + [
            e.reshape(-1, self.A.dim) for e in self.diffs.values()])
        return not ents.shape[0] or linalg.solve_matrix(
            self.field, self.A.radical().T, ents.T) is not None


def entry_compose(A, a, b):
    """Entries of (map with entries a) followed by (map with entries b).

    Entry [j, l] is the sum over k of b[k, l] * a[j, k], that is of
    a[j, k] @ lm(b[k, l]): one batched lm and one product.
    """
    F = A.field
    ns, mid, dim = a.shape
    mid2, nt, _ = b.shape
    if mid != mid2:
        raise ValueError("entry composition shape mismatch")
    lm = A.lm(b).transpose(0, 2, 1, 3).reshape(mid * dim, nt * dim)
    return F.matmul(a.reshape(ns, mid * dim), lm).reshape(ns, nt, dim)


def proj_complex_direct_sum(xs):
    A = xs[0].A
    F = A.field
    degs = sorted({d for x in xs for d in x.classes})
    classes = {}
    offsets = {}
    for d in degs:
        cl = []
        offs = []
        for x in xs:
            offs.append(len(cl))
            cl.extend(x.classes.get(d, []))
        classes[d] = cl
        offsets[d] = offs
    diffs = {}
    for d in degs:
        if (d + 1) not in classes:
            continue
        ns, nt = len(classes[d]), len(classes[d + 1])
        e = F.zeros((ns, nt, A.dim))
        for xi, x in enumerate(xs):
            xe = x.diff(d)
            r0 = offsets[d][xi]
            c0 = offsets[d + 1][xi]
            e[r0 : r0 + xe.shape[0], c0 : c0 + xe.shape[1]] = xe
        diffs[d] = e
    return ProjComplex(A, classes, diffs)


def two_term_complex(A, classes_m1, classes_0, entries):
    """Complex [P^{-1} -> P^0] in degrees -1 and 0."""
    return ProjComplex(
        A, {-1: list(classes_m1), 0: list(classes_0)}, {-1: entries})


def stalk_proj_complex(A, classes, degree=0):
    return ProjComplex(A, {degree: list(classes)}, {})


# ---- minimization -------------------------------------------------------


def minimize(X):
    """Homotopy-equivalent complex with all differential entries radical."""
    A = X.A
    F = A.field
    classes = {d: list(c) for d, c in X.classes.items()}
    diffs = {d: np.array(X.diff(d), copy=True) for d in X.diffs}

    def get_diff(d):
        if d in diffs:
            return diffs[d]
        ns = len(classes.get(d, []))
        nt = len(classes.get(d + 1, []))
        return F.zeros((ns, nt, A.dim))

    changed = True
    while changed:
        changed = False
        for d in sorted(list(diffs)):
            e = diffs[d]
            unit = None
            for j in range(e.shape[0]):
                for k in range(e.shape[1]):
                    if classes[d][j] != classes[d + 1][k]:
                        continue
                    inv = A.corner_inverse(e[j, k], classes[d][j])
                    if inv is not None:
                        unit = (j, k, inv)
                        break
                if unit:
                    break
            if unit is None:
                continue
            j, k, inv = unit
            inv = inv.reshape(1, 1, -1)
            # with row = e[j, .] and col = e[., k] (their unit entry
            # zeroed), lam_row = row * inv and lam_col = inv * col; the
            # kept block becomes e - col . lam_row, and the adjacent
            # differentials get the inverse basis changes, after which
            # the affected column / row must vanish by d^2 = 0
            row = np.array(e[j : j + 1], copy=True)
            row[0, k] = 0
            col = np.array(e[:, k : k + 1], copy=True)
            col[j, 0] = 0
            lam_row = entry_compose(A, inv, row)
            lam_col = entry_compose(A, col, inv)
            new_e = F.reduce(e - entry_compose(A, col, lam_row))
            prev = get_diff(d - 1)
            if prev.size:
                prev = np.array(prev, copy=True)
                prev[:, j] = F.reduce(
                    prev[:, j] + entry_compose(A, prev, lam_col)[:, 0])
            nxt = get_diff(d + 1)
            if nxt.size:
                nxt = np.array(nxt, copy=True)
                nxt[k] = F.reduce(nxt[k] + entry_compose(A, lam_row, nxt)[0])
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
            classes[d] = [classes[d][x] for x in keep_j]
            classes[d + 1] = [classes[d + 1][x] for x in keep_k]
            changed = True
            break
    out = ProjComplex(A, classes, diffs)
    if not out.check():
        raise RuntimeError("minimization broke d^2 = 0")
    if not out.is_minimal():
        raise RuntimeError("minimization left a unit entry")
    return out


# ---- decomposition and isomorphism --------------------------------------


def chain_end_algebra(X):
    """Chain endomorphisms of a complex as an Algebra.

    Returns (Algebra, list of ChainMaps matching its basis, HomSpace of
    the pair for homotopy bookkeeping).  Identity is basis element 0.
    """
    hs = HomSpace(X, X)
    E, basis_maps = mod.algebra_of_maps(
        X.field, hs.chain_basis, hs.map_from_flat,
        [m for d in hs.degs for m in X.term(d).dims],
    )
    return E, basis_maps, hs


def decompose_complex(X, rng=None):
    """Indecomposable summands of a projective complex, up to isomorphism.

    Minimizes first, then splits the identity of the chain endomorphism
    algebra into primitive idempotents and takes the image of each.
    Returns a list of groups of ProjComplex summands; summands within a
    group are isomorphic.  `summand_class_count` counts the groups with
    the same random draws and no images.
    """
    Xm, basis_maps, groups = _primitive_idempotents(X, rng)
    return [
        [_standardize_summand(Xm, mod.combination(basis_maps, el))
         for el in g]
        for g in groups
    ]


def summand_class_count(X, rng):
    """len(decompose_complex(X, rng)): the isomorphism classes of
    indecomposable summands of X.  `_standardize_summand` draws no random
    numbers, so rng ends in the same state as after `decompose_complex`."""
    return len(_primitive_idempotents(X, rng)[2])


def _primitive_idempotents(X, rng):
    """(minimized X, chain End basis maps, primitive idempotents of End
    grouped by isomorphism class)."""
    Xm = minimize(X)
    if not Xm.classes:
        return None, [], []
    E, basis_maps, _ = chain_end_algebra(Xm)
    return Xm, basis_maps, E.decompose_identity(rng)


def _standardize_summand(mc, emap):
    """Image of an idempotent chain endo, re-expressed by summand classes."""
    terms = {}
    incls = {}
    for d in mc.terms:
        imv = mod.image_vectors(emap.map_at(d))
        terms[d], incls[d] = mod.submodule(mc.term(d), imv)
    # the differential of the image complex, retracted through the inclusion
    dmaps = {
        d: mod.retract_through_inclusion(
            incls[d + 1], incls[d].compose(mc.dmap(d))
        )
        for d in terms
        if (d + 1) in terms
    }
    image = ModuleComplex(mc.A, terms, dmaps)
    return proj_complex_from_module_complex(image)


def proj_complex_from_module_complex(Xmc):
    """The ProjComplex of a complex of projective modules, read through
    the projective cover of each term."""
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
    return out


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
    if sorted(Xm.classes) != sorted(Ym.classes):
        return (Xm.classes == {} and Ym.classes == {}) or None
    for d in Xm.classes:
        if sorted(Xm.classes[d]) != sorted(Ym.classes[d]):
            return None
    hs = HomSpace(Xm, Ym)
    for v in linalg.candidates(X.field, hs.chain_basis, rng, 40):
        f = hs.map_from_flat(v)
        if f.is_chain_iso():
            return f
    return None


# ---- Nakayama functor ---------------------------------------------------


def nu_complex(X):
    """Complex of injectives nu(X) for a projective complex X.

    nu = D Hom_A(-, A): Hom(-, A) turns the entries of each differential
    into a map between sums of projectives over A^op with the transposed
    entry matrix, as in `modules.transpose_module`, and nu(X)'s
    differential is its dual, the transposed blocks.
    """
    A = X.A
    Aop = mod.opposite_algebra(A)
    psums = {d: mod.proj_sum(Aop, cl) for d, cl in X.classes.items()}
    terms = {d: mod.dual_module(ps.module, A) for d, ps in psums.items()}
    dmaps = {}
    for d in X.diffs:
        f_op = psums[d + 1].map_from_entries(
            psums[d], X.diff(d).transpose(1, 0, 2))
        dmaps[d] = mod.ModuleMap(
            terms[d], terms[d + 1],
            [np.array(m.T, copy=True) for m in f_op.mats])
    return ModuleComplex(A, terms, dmaps)
