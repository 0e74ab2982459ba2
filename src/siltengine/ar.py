"""Almost-split theory of the endomorphism side of a 2-term silting complex.

Covers the connecting sequences of mod B (left term Hom(P, nu P_i), right
term Hom(P, P_i[1])), the splitting/separating verdicts for the induced
torsion pairs, and the split-case inventory mapping AR sequences across
the equivalences.
"""

import numpy as np

from . import complexes as cx
from . import linalg
from . import modules as mod
from . import silting
from .silting import PreconditionError, _entry


def stalk_in_add_p(ctx, i, shift=0):
    """Is the stalk complex P_i[shift] a summand class of P?"""
    X = cx.stalk_proj_complex(ctx.A, [i])
    if shift:
        X = X.shift(shift)
    return any(cx.complexes_isomorphic(X, s, ctx.rng) for s in ctx.summands)


def _is_injective_over(B, Y):
    """Ext^1(S, Y) = 0 against every simple is equivalent to injectivity."""
    if Y.total == 0:
        return True
    for c in range(B.nclasses):
        if mod.ext_dim(mod.simple_module(B, c), Y, 1) != 0:
            return False
    return True


def connecting_term_check(ctx, i):
    """Verify tau^{-1} Hom(P, nu P_i) = Hom(P, P_i[1]) for one class i.

    Skipped when P_i[1] is a summand class of P (then Hom(P, nu P_i) = 0
    and there is no connecting term).  Also verifies that the left term
    is injective over B exactly when P_i is a summand class of P.
    """
    A = ctx.A
    name = "connecting-term-%d" % (i + 1)
    if stalk_in_add_p(ctx, i, shift=1):
        left = ctx.hom_P_of(mod.injective_module(A, i), 0).module
        ok = left.total == 0
        return _entry(name, "skipped" if ok else "fail",
                      {"left": left.total})
    left = ctx.hom_P_of(mod.injective_module(A, i), 0).module
    right = ctx.hom_P_of(mod.projective_module(A, i), 1).module
    moved = mod.tau_inverse(left)
    ok = mod.modules_isomorphic(moved, right, ctx.rng) is not None
    inj = _is_injective_over(ctx.B, left)
    ok = ok and (inj == stalk_in_add_p(ctx, i, shift=0))
    return _entry(
        name, "pass" if ok else "fail",
        {"left": left.total, "right": right.total, "injective": int(inj)},
    )


def connecting_sequence(ctx, i):
    """Connecting AR sequence of mod B for the class i, with its
    canonical-sequence description of the middle term.

    Returns (left, E, right, f, g, report entry).
    """
    A = ctx.A
    if stalk_in_add_p(ctx, i, shift=0):
        raise PreconditionError("projective class is a summand of P")
    if stalk_in_add_p(ctx, i, shift=1):
        raise PreconditionError("shifted projective class is a summand of P")
    left = ctx.hom_P_of(mod.injective_module(A, i), 0).module
    right = ctx.hom_P_of(mod.projective_module(A, i), 1).module
    tX, E, X, f, g = mod.ar_sequence(right)
    if mod.modules_isomorphic(tX, left, ctx.rng) is None:
        raise RuntimeError("AR sequence does not start at Hom(P, nu P_i)")
    if not mod.sequence_is_exact(tX, E, X, f, g):
        raise RuntimeError("AR sequence is not exact")
    # canonical sequence of E in the torsion pair over B
    tE, _, fE, _ = ctx.torsion_B.canonical_sequence(E)
    Pi = mod.projective_module(A, i)
    radPi, _ = mod.submodule(Pi, mod.radical_vectors(Pi), closed=True)
    nuPi = mod.injective_module(A, i)
    nuQuot, _ = mod.quotient_module(nuPi, mod.socle_vectors(nuPi))
    want_t = ctx.hom_P_of(radPi, 1).module
    want_f = ctx.hom_P_of(nuQuot, 0).module
    ok = (
        mod.modules_isomorphic(tE, want_t, ctx.rng) is not None
        and mod.modules_isomorphic(fE, want_f, ctx.rng) is not None
        and E.total == left.total + right.total
    )
    entry = _entry(
        "connecting-sequence-%d" % (i + 1), "pass" if ok else "fail",
        {
            "left": left.total, "middle": E.total, "right": right.total,
            "torsion-part": tE.total, "free-part": fE.total,
        },
    )
    return tX, E, X, f, g, entry


def hereditary_certificate(A):
    """Ext^2 vanishes between all simples, so the global dimension is
    at most one and every Ext^2 over A vanishes."""
    simples = [mod.simple_module(A, c) for c in range(A.nclasses)]
    for S in simples:
        for T in simples:
            if mod.ext_dim(S, T, 2) != 0:
                return False
    return True


def splitting_check(ctx, battery=None, certified=False):
    """Is the induced torsion pair over B split?

    Certified when A is hereditary; otherwise an Ext^2 battery scan over
    pairs (M in T, N in F) gives evidence or a counterexample.
    """
    if hereditary_certificate(ctx.A):
        return _entry(
            "splitting", "certified", {"verdict": "CERTIFIED-SPLITTING"}
        )
    if battery is None:
        battery, certified = silting.module_battery(ctx.A, ctx.torsion_A)
    tp = ctx.torsion_A
    tside = [X for X in battery if tp.in_torsion(X)]
    fside = [X for X in battery if tp.in_free(X)]
    for M in tside:
        for N in fside:
            if mod.ext_dim(M, N, 2) != 0:
                # an explicit nonzero Ext^2 certifies non-splitting
                return _entry(
                    "splitting", "certified",
                    {"verdict": "COUNTEREXAMPLE",
                     "ext2": mod.ext_dim(M, N, 2)},
                    witness="Ext^2 nonzero on a torsion/torsion-free pair "
                    "with dimension vectors %s, %s"
                    % (M.dim_vector(), N.dim_vector()),
                )
    status = "certified" if certified else "evidence"
    return _entry(
        "splitting", status,
        {"verdict": "SPLITTING-" + status.upper(),
         "pairs": len(tside) * len(fside)},
    )


def separating_check(ctx, battery=None, certified=False):
    """Does every battery indecomposable lie in T(P) or F(P)?"""
    if battery is None:
        battery, certified = silting.module_battery(ctx.A, ctx.torsion_A)
    tp = ctx.torsion_A
    witness = None
    for X in battery:
        if not tp.in_torsion(X) and not tp.in_free(X):
            witness = X
            break
    if witness is not None:
        return _entry(
            "separating", "certified",
            {"verdict": "NOT-SEPARATING",
             "witness-dims": list(witness.dim_vector())},
            witness="indecomposable in neither class, dimension vector %s"
            % (witness.dim_vector(),),
        )
    # a non-tilting silting complex is never separating, so a certified
    # complete battery without a witness would expose an engine bug
    if not ctx.tilting and certified:
        raise RuntimeError(
            "non-tilting complex separating on a certified battery"
        )
    status = "certified" if certified else "evidence"
    return _entry(
        "separating", status,
        {"verdict": "SEPARATING-" + status.upper(), "size": len(battery)},
    )


def _hom_p_sequence(ctx, tX, E, X, f, g, shift):
    """Image of a short exact sequence under Hom(P, -[shift])."""
    h1 = ctx.hom_P_of(tX, shift)
    h2 = ctx.hom_P_of(E, shift)
    h3 = ctx.hom_P_of(X, shift)
    w1 = silting.hom_P_of_module_map(ctx, h1, h2, f)
    w2 = silting.hom_P_of_module_map(ctx, h2, h3, g)
    return h1.module, h2.module, h3.module, w1, w2


def split_ar_report(ctx, battery=None, battery_b=None):
    """Split-case inventory: transported AR sequences plus the trichotomy.

    Requires the splitting verdict to be certified.  AR sequences of mod A
    lying inside the torsion (resp. torsion-free) class are pushed through
    Hom(P, -) (resp. Hom(P, -[1])) and checked almost split over B; every
    AR sequence of mod B ending at a battery module is classified as
    torsion-side, free-side, or connecting.
    """
    sp = splitting_check(ctx, battery)
    if sp["dims"].get("verdict") != "CERTIFIED-SPLITTING":
        raise PreconditionError("splitting is not certified")
    if battery is None:
        battery, _ = silting.module_battery(ctx.A, ctx.torsion_A)
    if battery_b is None:
        battery_b, _ = silting.module_battery(ctx.B, ctx.torsion_B)
    tp = ctx.torsion_A
    tpB = ctx.torsion_B
    entries = [sp]

    mapped = 0
    ok = True
    for X in battery:
        if mod.tau(X).total == 0:
            continue  # projective: no AR sequence ends here
        tX, E, X3, f, g = mod.ar_sequence(X)
        if tp.in_torsion(X) and tp.in_torsion(tX):
            m1, m2, m3, w1, w2 = _hom_p_sequence(ctx, tX, E, X3, f, g, 0)
        elif tp.in_free(X) and tp.in_free(tX):
            m1, m2, m3, w1, w2 = _hom_p_sequence(ctx, tX, E, X3, f, g, 1)
        else:
            continue
        mapped += 1
        if not mod.sequence_is_exact(m1, m2, m3, w1, w2):
            ok = False
        elif not mod.is_almost_split(m1, m2, m3, w1, w2, battery_b):
            ok = False
    entries.append(_entry(
        "transported-ar-sequences", "pass" if ok else "fail",
        {"mapped": mapped},
    ))

    counts = {"torsion-side": 0, "free-side": 0, "connecting": 0}
    ok = True
    nu_terms = [
        ctx.hom_P_of(mod.injective_module(ctx.A, i), 0).module
        for i in range(ctx.A.nclasses)
    ]
    for N in battery_b:
        tN = mod.tau(N)
        if tN.total == 0:
            continue
        in_x = tpB.in_torsion(N) and tpB.in_torsion(tN)
        in_y = tpB.in_free(N) and tpB.in_free(tN)
        if in_x:
            counts["torsion-side"] += 1
        elif in_y:
            counts["free-side"] += 1
        elif tpB.in_torsion(N) and tpB.in_free(tN):
            counts["connecting"] += 1
            if not any(
                Y.total and mod.modules_isomorphic(tN, Y, ctx.rng) is not None
                for Y in nu_terms
            ):
                ok = False
        else:
            ok = False
    entries.append(_entry(
        "ar-trichotomy", "pass" if ok else "fail", dict(counts)
    ))
    return entries
