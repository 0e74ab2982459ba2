"""Differential entries through one batched lm, against the per-entry code
it replaces.

`Algebra.lm` takes a batch of elements and returns one matrix per element
from one product.  Everything that computes with the entries of a
`ProjComplex` goes through it: `entry_compose` is that product and one
more, `minimize` eliminates a unit entry with `entry_compose`,
`ProjSum.map_from_entries` gathers each class block out of lm of the
whole entries array, and `nu_complex` is the dual of `map_from_entries`
over A^op on the transposed entries.  `ProjComplex.is_minimal` solves all
entries against rad A at once, `SiltingContext.left_mult_map` masks an
element to the corners e_k A e_j, and `mapping_cone` writes its
differential and structure maps as blocks.

The earlier bodies are kept here as references: an `el_mult` per entry
and summand, `in_span` per entry, one total-space action matrix per entry
(`_ref_act_total` of test_modules.py, the removed `Module.act_total`),
the Nakayama functor one entry at a time through the inclusions and
projections of a direct sum, the cone composed through them, and the
removed `ProjComplex.module_form`, a separate module complex that a
ProjComplex now is itself, its terms built on first read.  They are
compared on every complex and chain map that `minimize`, `nu_complex`
and `mapping_cone` receive while P is checked, its context and both
batteries are built, the theorem is verified and P is completed, on the
three fixtures and linear A4 over GF(32003) and Q, and on random entries
arrays and complexes, zero-size shapes included.  The random complexes
also check `TorsionPair._ker_dx` and `radical_vectors` / `socle_vectors`
against the references of test_torsion.py and test_modules.py.
"""

import functools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siltengine import complexes as cx
from siltengine import linalg
from siltengine import modules as mod
from siltengine import silting

from conftest import make_a3_algebra, make_paper_algebra
from test_coordinates import NAMES, _input
from test_modules import _ref_act_total, _same_radical_and_socle


# ---- references ------------------------------------------------------------


def _ref_neg_one(F):
    return -1 % F.p if isinstance(F, linalg.GF) else -1


def _ref_entry_compose(A, a, b):
    """entry_compose with one el_mult per entry and summand."""
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


def _ref_is_minimal(X):
    """is_minimal with one in_span against rad A per entry."""
    for d in X.diffs:
        e = X.diff(d)
        for j in range(e.shape[0]):
            for k in range(e.shape[1]):
                if not linalg.in_span(X.field, X.A.radical(), e[j, k]):
                    return False
    return True


def _ref_check(X):
    for d in sorted(X.classes):
        if (d + 2) in X.classes or (d + 1) in X.classes:
            sq = _ref_entry_compose(X.A, X.diff(d), X.diff(d + 1))
            if np.any(sq != 0):
                return False
    return True


def _ref_minimize(X):
    """minimize with its elimination step written entry by entry."""
    A = X.A
    F = A.field
    terms = {d: list(c) for d, c in X.classes.items()}
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
    out = cx.ProjComplex(A, terms, diffs)
    if not _ref_check(out):
        raise RuntimeError("minimization broke d^2 = 0")
    if not _ref_is_minimal(out):
        raise RuntimeError("minimization left a unit entry")
    return out


def _ref_map_from_entries(ps, other, entries):
    """map_from_entries with one `_ref_act_total` per entry: generator images,
    then `map_to`."""
    F = ps.A.field
    gen_images = []
    for j in range(len(ps.classes)):
        v = F.zeros((other.module.total,))
        for k in range(len(other.classes)):
            op = _ref_act_total(other.module, entries[j][k])
            gen = other.incls[k].apply(other.summands[k].gen)
            v = F.reduce(v + F.matmul(gen.reshape(1, -1), op)[0])
        gen_images.append(v)
    return ps.map_to(other.module, gen_images)


def _ref_nu_of_entry(A, Aop, a, cj, ck):
    """nu of left multiplication by a : e_{cj} A -> e_{ck} A, the dual of
    right multiplication by a on the opposite projectives."""
    ps_j = mod.proj_sum(Aop, [cj])
    ps_k = mod.proj_sum(Aop, [ck])
    f_op = _ref_map_from_entries(ps_k, ps_j, np.reshape(a, (1, 1, -1)))
    Ij = mod.dual_module(ps_j.module, A)
    Ik = mod.dual_module(ps_k.module, A)
    mats = [f_op.mats[c].T for c in range(A.nclasses)]
    return mod.ModuleMap(Ij, Ik, mats)


def _ref_nu_complex(X):
    """nu_complex one entry at a time, through a direct sum of injectives."""
    A = X.A
    Aop = mod.opposite_algebra(A)
    terms = {}
    metas = {}
    for d, classes in X.classes.items():
        injs = [mod.injective_module(A, c) for c in classes]
        S, incls, projs = mod.direct_sum(injs)
        terms[d] = S
        metas[d] = (incls, projs, classes)
    dmaps = {}
    for d in X.diffs:
        e = X.diff(d)
        _, projs0, cls0 = metas[d]
        incls1, _, cls1 = metas[d + 1]
        m = mod.zero_map(terms[d], terms[d + 1])
        for j in range(e.shape[0]):
            for k in range(e.shape[1]):
                if np.all(e[j, k] == 0):
                    continue
                blk = _ref_nu_of_entry(A, Aop, e[j, k], cls0[j], cls1[k])
                m = m.add(projs0[j].compose(blk).compose(incls1[k]))
        dmaps[d] = m
    return cx.ModuleComplex(A, terms, dmaps)


def _ref_mapping_cone(f):
    """mapping_cone composed through direct_sum's inclusions and
    projections."""
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
    neg = _ref_neg_one(F)
    for d in degs:
        if (d + 1) not in terms:
            continue
        S0, _, projs0 = sums[d]
        S1, incls1, _ = sums[d + 1]
        m = mod.zero_map(S0, S1)
        m = m.add(
            projs0[0].compose(Y.dmap(d).scale(neg)).compose(incls1[0])
        )
        m = m.add(projs0[1].compose(f.map_at(d + 1)).compose(incls1[0]))
        m = m.add(
            projs0[1].compose(X1.dmap(d).scale(neg)).compose(incls1[1])
        )
        dmaps[d] = m
    C = cx.ModuleComplex(A, terms, dmaps)
    imaps = {}
    pmaps = {}
    for d in degs:
        S, incls, projs = sums[d]
        sign = 1 if d % 2 == 0 else neg
        if d in Y.terms:
            imaps[d] = incls[0].scale(sign)
        if d in X1.terms:
            pmaps[d] = projs[1].scale(sign)
    return C, cx.ChainMap(Y, C, imaps), cx.ChainMap(C, X1, pmaps)


def _ref_module_form(X):
    """The removed `ProjComplex.module_form`: a separate ModuleComplex of
    the `proj_sum` modules and `map_from_entries` of the entries, with its
    ProjSums."""
    psums = {d: mod.proj_sum(X.A, cl) for d, cl in X.classes.items()}
    terms = {d: ps.module for d, ps in psums.items()}
    dmaps = {
        d: psums[d].map_from_entries(psums[d + 1], X.diff(d))
        for d in X.diffs
    }
    return cx.ModuleComplex(X.A, terms, dmaps), psums


def _ref_left_mult_map(ctx, avec):
    """left_mult_map with two el_mults per pair of idempotents."""
    A = ctx.A
    idem = [A.idem_vec(c) for c in range(A.nclasses)]
    entries = np.stack([
        np.stack([A.el_mult(A.el_mult(ek, avec), ej) for ek in idem])
        for ej in idem
    ])
    return _ref_map_from_entries(ctx.psA0, ctx.psA0, entries)


# ---- comparisons -------------------------------------------------------------


def _same(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _same_map(f, g):
    assert f.src.dims == g.src.dims and f.tgt.dims == g.tgt.dims
    for a, b in zip(f.mats, g.mats):
        _same(a, b)


def _same_module(M, N):
    assert M.dims == N.dims
    for a, b in zip(M.act, N.act):
        _same(a, b)


def _same_complex(X, Y):
    assert sorted(X.terms) == sorted(Y.terms)
    assert sorted(X.dmaps) == sorted(Y.dmaps)
    for d in X.terms:
        _same_module(X.term(d), Y.term(d))
    for d in X.dmaps:
        _same_map(X.dmap(d), Y.dmap(d))


def _same_chain_map(f, g):
    assert sorted(f.maps) == sorted(g.maps)
    for d in f.maps:
        _same_map(f.maps[d], g.maps[d])


def _same_proj_complex(X, Y):
    assert X.classes == Y.classes
    assert sorted(X.diffs) == sorted(Y.diffs)
    for d in X.diffs:
        _same(X.diffs[d], Y.diffs[d])


def _same_as_module_form(X):
    """X read as a module complex is its earlier module form, term for
    term the same ProjSum modules, and so are its shifts."""
    mc, psums = _ref_module_form(X)
    _same_complex(X, mc)
    for d, ps in psums.items():
        assert X.term(d) is ps.module
    for n in (-1, 1, 2):
        _same_complex(X.shift(n), mc.shift(n))


def _key(X):
    """Content key of a ProjComplex, to test each distinct one once."""
    return repr((sorted(X.classes.items()),
                 [(d, X.diffs[d].shape, X.diffs[d].tolist())
                  for d in sorted(X.diffs)]))


def _distinct(xs):
    seen = {}
    for X in xs:
        seen.setdefault(_key(X), X)
    return list(seen.values())


# ---- what the engine passes on the fixtures and linear A4 --------------------


@pytest.fixture(
    scope="module",
    params=[(n, f) for n in NAMES for f in ("32003", "Q")],
    ids=lambda p: "%s-%s" % p,
)
def built(request):
    """Every complex given to minimize and nu_complex, every chain map
    given to mapping_cone and every map_from_entries call while P is
    checked as in `silt check`, its context and both batteries are built,
    the theorem is verified and P is completed, with the context."""
    _, P = _input(*request.param)
    minimized, nus, cones, entries = [], [], [], []
    minimize, nu, cone = cx.minimize, cx.nu_complex, cx.mapping_cone
    from_entries = mod.ProjSum.map_from_entries

    def record_minimize(X):
        minimized.append(X)
        return minimize(X)

    def record_nu(X):
        nus.append(X)
        return nu(X)

    def record_cone(f):
        cones.append(f)
        return cone(f)

    def record_entries(self, other, ents):
        entries.append((self, other, ents))
        return from_entries(self, other, ents)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cx, "minimize", record_minimize)
        mp.setattr(cx, "nu_complex", record_nu)
        mp.setattr(cx, "mapping_cone", record_cone)
        mp.setattr(mod.ProjSum, "map_from_entries", record_entries)
        silting.is_presilting(P)
        silting.has_all_classes(P)
        ctx = silting.SiltingContext(P)
        batteries = [
            silting.module_battery(B, tp)[0]
            for B, tp in ((ctx.A, ctx.torsion_A), (ctx.B, ctx.torsion_B))
        ]
        silting.verify_theorem(ctx, *batteries)
        silting.bongartz_complete(ctx.summands[0])
    return SimpleNamespace(
        minimized=_distinct(minimized), nus=_distinct(nus), cones=cones,
        entries=entries, ctx=ctx,
    )


def test_minimize_equals_entrywise_reference(built):
    assert built.minimized
    for X in built.minimized:
        _same_proj_complex(cx.minimize(X), _ref_minimize(X))


def test_is_minimal_and_entry_compose_equal_references(built):
    """On every complex minimize receives and returns: is_minimal, and
    entry_compose of each pair of adjacent differentials."""
    for X in built.minimized:
        for Y in (X, cx.minimize(X)):
            assert Y.is_minimal() is _ref_is_minimal(Y)
            for d in Y.degrees():
                a, b = Y.diff(d), Y.diff(d + 1)
                _same(cx.entry_compose(Y.A, a, b),
                      _ref_entry_compose(Y.A, a, b))


def test_module_terms_equal_module_form_reference(built):
    for X in built.minimized + [cx.minimize(X) for X in built.minimized]:
        _same_as_module_form(X)


def test_nu_complex_equals_per_entry_reference(built):
    assert built.nus
    for X in built.nus + built.minimized:
        _same_complex(cx.nu_complex(X), _ref_nu_complex(X))


def test_mapping_cone_equals_composed_reference(built):
    """Every cone the engine takes, and the cone of the identity of each
    complex minimize receives, whose d_X is not zero."""
    maps = list(built.cones)
    assert maps
    maps += [cx.identity_chain_map(X) for X in built.minimized]
    for f in maps:
        got, want = cx.mapping_cone(f), _ref_mapping_cone(f)
        _same_complex(got[0], want[0])
        _same_chain_map(got[1], want[1])
        _same_chain_map(got[2], want[2])


def test_map_from_entries_equals_per_entry_reference(built):
    assert built.entries
    for ps, other, ents in built.entries:
        _same_map(ps.map_from_entries(other, ents),
                  _ref_map_from_entries(ps, other, ents))


def test_left_mult_map_equals_el_mult_reference(built):
    ctx = built.ctx
    A, F = ctx.A, ctx.field
    rng = random.Random(5)
    elements = [A.basis_vec(b) for b in range(A.dim)] + [A.unit()]
    elements += [F.array([F.rand(rng) for _ in range(A.dim)])
                 for _ in range(3)]
    for x in elements:
        _same_map(ctx.left_mult_map(x), _ref_left_mult_map(ctx, x))


# ---- random entries arrays ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _algebra(name, field):
    F = linalg.GF(32003) if field == "32003" else linalg.RationalField()
    return {"a3": make_a3_algebra, "paper": make_paper_algebra}[name](F)


ALGEBRAS = st.sampled_from(
    [(n, f) for n in ("a3", "paper") for f in ("32003", "Q")]
)


def _random_elements(A, rng, shape, corners=None):
    """Random elements of A of the given shape; with corners (an array of
    the shape of (src class, tgt class) pairs) each is masked to its
    corner e_src A e_tgt."""
    F = A.field
    vals = F.array(
        [[rng.choice([0, F.rand(rng)]) for _ in range(A.dim)]
         for _ in range(int(np.prod(shape)))]
    ).reshape(shape + (A.dim,))
    return vals if corners is None else _mask(A, vals, corners)


def _mask(A, vals, corners):
    mask = (A.src == corners[..., 0:1]) & (A.tgt == corners[..., 1:2])
    return np.where(mask, vals, A.field.zeros((A.dim,)))


def _corner_grid(rows, cols):
    """Entry [j, k] of a map from classes rows to classes cols lies in
    e_{cols[k]} A e_{rows[j]}."""
    grid = np.zeros((len(rows), len(cols), 2), dtype=np.int64)
    grid[..., 0] = np.array(cols, dtype=np.int64)[None, :]
    grid[..., 1] = np.array(rows, dtype=np.int64)[:, None]
    return grid


@settings(max_examples=40, deadline=None)
@given(alg=ALGEBRAS, lead=st.lists(st.integers(0, 3), max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_lm_of_batch_is_stack_of_lm(alg, lead, seed):
    A = _algebra(*alg)
    x = _random_elements(A, random.Random(seed), tuple(lead))
    got = A.lm(x)
    assert got.shape == tuple(lead) + (A.dim, A.dim)
    for idx in np.ndindex(*lead):
        _same(got[idx], A.lm(x[idx]))


@settings(max_examples=40, deadline=None)
@given(alg=ALGEBRAS, ns=st.integers(0, 3), mid=st.integers(0, 3),
       nt=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_entry_compose_on_random_arrays(alg, ns, mid, nt, seed):
    A = _algebra(*alg)
    rng = random.Random(seed)
    a = _random_elements(A, rng, (ns, mid))
    b = _random_elements(A, rng, (mid, nt))
    _same(cx.entry_compose(A, a, b), _ref_entry_compose(A, a, b))


CLASSES = st.lists(st.integers(0, 2), max_size=3)


@settings(max_examples=40, deadline=None)
@given(alg=ALGEBRAS, src=CLASSES, tgt=CLASSES, masked=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_map_from_entries_on_random_arrays(alg, src, tgt, masked, seed):
    """Any entries, in their corners or not, and empty sums."""
    A = _algebra(*alg)
    src = [c % A.nclasses for c in src]
    tgt = [c % A.nclasses for c in tgt]
    ps, other = mod.proj_sum(A, src), mod.proj_sum(A, tgt)
    ents = _random_elements(A, random.Random(seed), (len(src), len(tgt)),
                            _corner_grid(src, tgt) if masked else None)
    got = ps.map_from_entries(other, ents)
    _same_map(got, _ref_map_from_entries(ps, other, ents))
    if masked:
        assert got.check()
        _same(ps.entry_matrix_to(other, got), ents)


def _random_complex(A, rng, pieces):
    """A complex in degrees -1, 0, 1 with d^2 = 0: a sum of contractible
    pieces P_c --unit--> P_c, stalks and radical maps between two
    projectives, mixed by an elementary basis change I + a E_pq in each
    degree (its inverse is I - a E_pq)."""
    F = A.field
    rad = A.radical()
    parts = []
    for kind, d, c, c2 in pieces:
        c, c2 = c % A.nclasses, c2 % A.nclasses
        if kind == "stalk":
            parts.append(cx.stalk_proj_complex(A, [c], d))
            continue
        if kind == "unit":
            ent = F.reduce(A.idem_vec(c) * (1 + rng.randrange(5)))
            ent = ent.reshape(1, 1, -1)
            c2 = c
        else:
            # rad A is an ideal, so its corners lie in it
            co = F.array([[F.rand(rng) for _ in range(rad.shape[0])]])
            ent = _mask(A, F.matmul(co, rad).reshape(1, 1, -1),
                        _corner_grid([c], [c2]))
        parts.append(cx.ProjComplex(A, {d: [c], d + 1: [c2]}, {d: ent}))
    if not parts:
        return cx.ProjComplex(A, {}, {})
    X = cx.proj_complex_direct_sum(parts)
    changes = {}
    for d, cl in X.classes.items():
        n = len(cl)
        g, ginv = F.zeros((n, n, A.dim)), F.zeros((n, n, A.dim))
        for i, c in enumerate(cl):
            g[i, i] = ginv[i, i] = A.idem_vec(c)
        if n > 1:
            p, q = rng.sample(range(n), 2)
            a = _random_elements(A, rng, (1, 1), _corner_grid([cl[p]], [cl[q]]))
            g[p, q], ginv[p, q] = a[0, 0], F.neg(a[0, 0])
        changes[d] = (g, ginv)
    diffs = {
        d: _ref_entry_compose(A, _ref_entry_compose(
            A, changes[d][1], e), changes[d + 1][0])
        for d, e in X.diffs.items()
    }
    Y = cx.ProjComplex(A, X.classes, diffs)
    assert _ref_check(Y)
    return Y


PIECES = st.lists(
    st.tuples(st.sampled_from(["unit", "stalk", "radical"]),
              st.integers(-1, 0), st.integers(0, 2), st.integers(0, 2)),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(alg=ALGEBRAS, pieces=PIECES, seed=st.integers(0, 2 ** 16))
# contractible pieces in both differentials, so that eliminating a unit
# entry changes the incoming or the outgoing map
@example(alg=("a3", "32003"), seed=0,
         pieces=[("unit", -1, 0, 0), ("unit", 0, 0, 0)])
@example(alg=("paper", "Q"), seed=0,
         pieces=[("unit", -1, 0, 0), ("unit", 0, 0, 0)])
def test_minimize_nu_and_is_minimal_on_random_complexes(alg, pieces, seed):
    A = _algebra(*alg)
    X = _random_complex(A, random.Random(seed), pieces)
    assert X.is_minimal() is _ref_is_minimal(X)
    Xm = cx.minimize(X)
    _same_proj_complex(Xm, _ref_minimize(X))
    assert Xm.is_minimal() is _ref_is_minimal(Xm) is True
    _same_complex(cx.nu_complex(X), _ref_nu_complex(X))
    _same_as_module_form(X)
    got, want = cx.mapping_cone(cx.identity_chain_map(X)), \
        _ref_mapping_cone(cx.identity_chain_map(X))
    _same_complex(got[0], want[0])
    _same_chain_map(got[1], want[1])
    _same_chain_map(got[2], want[2])


@functools.lru_cache(maxsize=None)
def _battery(name, field):
    return silting.module_battery(_algebra(name, field), None)[0]


@settings(max_examples=40, deadline=None)
@given(alg=ALGEBRAS, pieces=PIECES, seed=st.integers(0, 2 ** 16))
@example(alg=("paper", "Q"), seed=0,
         pieces=[("radical", -1, 1, 0), ("stalk", 0, 0, 0)])
def test_module_terms_built_on_first_read(alg, pieces, seed):
    """The entry-level work on a ProjComplex builds no module term; the
    first read builds them once, as the earlier module form did."""
    A = _algebra(*alg)
    X = _random_complex(A, random.Random(seed), pieces)
    X.check()
    X.is_minimal()
    for Y in (X, cx.minimize(X), X.shift(1),
              cx.proj_complex_direct_sum([X, X])):
        assert "terms" not in vars(Y) and "dmaps" not in vars(Y)
    cx.nu_complex(X)
    assert "terms" not in vars(X) and "dmaps" not in vars(X)
    _same_as_module_form(X)
    assert X.terms is X.terms and X.dmaps is X.dmaps


@settings(max_examples=30, deadline=None)
@given(alg=ALGEBRAS, pieces=PIECES, seed=st.integers(0, 2 ** 16))
@example(alg=("a3", "32003"), seed=0, pieces=[("stalk", 0, 1, 0)])
@example(alg=("paper", "Q"), seed=0, pieces=[("stalk", -1, 1, 0)])
def test_ker_dx_on_random_complexes(alg, pieces, seed):
    """D_X of a random complex, P^0 or P^{-1} missing included, on every
    battery module and the zero module."""
    from test_torsion import same_ker_dx

    A = _algebra(*alg)
    tp = silting.TorsionPair(_random_complex(A, random.Random(seed), pieces))
    for X in _battery(*alg) + [cx.zero_module(A)]:
        same_ker_dx(tp, X)


@settings(max_examples=30, deadline=None)
@given(alg=ALGEBRAS, pieces=PIECES, seed=st.integers(0, 2 ** 16))
def test_radical_and_socle_on_random_complexes(alg, pieces, seed):
    """radical_vectors and socle_vectors against test_modules.py's per-row
    references, on the terms and cohomology modules of random complexes."""
    X = _random_complex(_algebra(*alg), random.Random(seed), pieces)
    for d in range(-2, 3):
        _same_radical_and_socle(X.term(d))
        _same_radical_and_socle(X.cohomology(d))
