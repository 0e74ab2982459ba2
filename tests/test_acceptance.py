"""End-to-end acceptance checks on the bundled fixtures.

Each test exercises one pillar: the two-vertex Nakayama fixture, the
tilting and the non-tilting path-algebra fixtures, the trivial-complex
laws, the universal invariant suite, Bongartz completion, and report
determinism.  Everything is exact; there are no tolerances.
"""

import os

import numpy as np
import pytest

from siltengine import algebra as alg_mod
from siltengine import ar, cli
from siltengine import complexes as cx
from siltengine import linalg, silting
from test_silting import _total_endo_of_rep

FIXDIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def load_context(base):
    with open(fixture(base + ".alg"), "r", encoding="utf-8") as fh:
        A = cli.parse_algebra(fh.read())
    with open(fixture(base + ".cpx"), "r", encoding="utf-8") as fh:
        _, P = cli.parse_complex(fh.read(), A)
    return silting.SiltingContext(P)


@pytest.fixture(scope="module")
def paper_ctx():
    return load_context("paper_nakayama2")


@pytest.fixture(scope="module")
def a2_ctx():
    return load_context("a2_tilt")


@pytest.fixture(scope="module")
def a3_ctx():
    return load_context("a3_silt")


def test_nakayama_fixture_triangle_and_strict_commuting_endo(paper_ctx):
    ctx = paper_ctx
    A = ctx.A
    F = ctx.field
    assert A.dim == 6
    assert silting.is_silting(ctx.P)[0]
    assert ctx.B.dim == 6
    # the approximation triangle: P' = P1 + P1 and P'' = (P2 -> P1)
    assert ctx.Pp.classes == {0: [0, 0]}
    e = F.zeros((1, 1, A.dim))
    e[0, 0] = alg_mod.element_from_paths(A, [(1, ["alpha"])])
    want = cx.two_term_complex(A, [1], [0], e)
    assert cx.complexes_isomorphic(ctx.Ppp, want)
    # the endomorphism (0, c) of the cone with c acting on the P2 row by
    # beta.alpha commutes with the whole triangle ...
    ba = alg_mod.element_from_paths(A, [(1, ["beta", "alpha"])])
    zero = F.zeros((A.dim,))
    ents = [[zero, zero], [zero, ba]]
    # P' has no degree -1 term, so the cone's degree -1 term is A, laid
    # out by the projectives P1, P2 of the cone's term
    ps = ctx.cone.term(-1).psum
    assert -1 not in ctx.Pp.classes and ps.classes == [0, 1]
    assert all(
        np.array_equal(x, y)
        for x, y in zip(ps.module.act, ctx.mcC.term(-1).act)
    )
    m = ps.map_from_entries(ps, ents)
    c = cx.ChainMap(ctx.mcC, ctx.mcC, {-1: m})
    assert c.check()
    assert cx.HomSpace(ctx.Pp, ctx.mcC).is_nullhomotopic(
        ctx.f.compose(c)
    )
    assert cx.HomSpace(ctx.mcC, ctx.stalkA.shift(1)).is_nullhomotopic(
        c.compose(ctx.g)
    )
    # ... yet the induced endomorphism of the induced complex is not
    # null-homotopic, so the pair (0, c) is not the image of a = 0
    w0 = silting.hom_P_map(ctx.HBc, ctx.HBc, c)
    q_endo = cx.ChainMap(ctx.Q_mod, ctx.Q_mod, {0: w0})
    assert q_endo.check()
    hsQ = cx.hom_complexes(ctx.Q_mod, ctx.Q_mod, 0)
    assert not hsQ.is_nullhomotopic(q_endo)


def test_tilting_fixture_full_report_and_connecting_sequence(a2_ctx):
    ctx = a2_ctx
    assert ctx.tilting
    # the comparison map is an isomorphism onto End of the induced complex
    assert ctx.phi_kernel.shape[0] == 0
    assert ctx.EndQ.dim == ctx.A.dim == ctx.B.dim == 3
    battery, cert = silting.module_battery(ctx.A, ctx.torsion_A)
    assert cert and len(battery) == 3
    entries = silting.verify_theorem(ctx)
    by_name = {e["name"]: e for e in entries}
    for e in entries:
        assert e["status"] in ("pass", "certified"), e
    for name in ("round-trip-torsion", "round-trip-free",
                 "hom-cohomology-dims", "hom-through-h0-dims"):
        assert by_name[name]["status"] == "pass"
    _, E, _, _, _, entry = ar.connecting_sequence(ctx, 1)
    assert entry["status"] == "pass"
    assert (entry["dims"]["left"], entry["dims"]["middle"],
            entry["dims"]["right"]) == (1, 2, 1)
    assert entry["dims"]["torsion-part"] == 0
    assert entry["dims"]["free-part"] == 2


def test_silting_fixture_kernel_quotient_and_ar_verdicts(a3_ctx):
    ctx = a3_ctx
    A = ctx.A
    ok, wit = silting.is_tilting(ctx.P)
    assert silting.is_silting(ctx.P)[0] and not ok
    assert wit is not None and not wit.is_zero()
    # the kernel of the comparison map is spanned by the paths b and a.b;
    # the two independent kernel computations agree (asserted at build)
    assert ctx.phi_kernel.shape[0] == 2
    for label in ("b", "a.b"):
        v = A.basis_vec(A.labels.index(label))
        assert linalg.in_span(A.field, ctx.phi_kernel, v)
        assert not ctx.phi_class(v).any()
    assert ctx.EndQ.dim == A.dim - 2 == 4
    ok, _ = silting.is_silting(ctx.Q)
    assert ok and len(cx.decompose_complex(ctx.Q)) == 3
    battery, cert = silting.module_battery(A, ctx.torsion_A)
    assert cert
    by_name = {
        e["name"]: e for e in silting.verify_theorem(ctx, battery=battery)
    }
    assert by_name["pushforward-memberships"]["status"] == "pass"
    sep = ar.separating_check(ctx, battery, cert)
    assert sep["dims"]["verdict"] == "NOT-SEPARATING"
    assert "witness" in sep
    sp = ar.splitting_check(ctx, battery, cert)
    assert sp["status"] == "certified"
    assert sp["dims"]["verdict"] == "CERTIFIED-SPLITTING"


def test_trivial_complex_laws_on_all_fixture_algebras():
    for base in ("paper_nakayama2", "a2_tilt", "a3_silt"):
        with open(fixture(base + ".alg"), "r", encoding="utf-8") as fh:
            A = cli.parse_algebra(fh.read())
        allc = list(range(A.nclasses))
        # P = stalk of the regular module
        ctx = silting.SiltingContext(cx.stalk_proj_complex(A, allc))
        _assert_endo_matches_regular(A, ctx)
        assert set(ctx.Q.classes) == {-1}
        assert sorted(ctx.Q.classes[-1]) == list(range(ctx.B.nclasses))
        assert ctx.phi_kernel.shape[0] == 0
        assert ctx.EndQ.dim == A.dim
        battery, _ = silting.module_battery(A, ctx.torsion_A)
        assert all(ctx.torsion_A.in_torsion(X) for X in battery)
        assert not any(ctx.torsion_A.in_free(X) for X in battery)
        # P = shifted stalk of the regular module
        ctx1 = silting.SiltingContext(
            cx.stalk_proj_complex(A, allc).shift(1)
        )
        assert set(ctx1.Q.classes) == {0}
        assert sorted(ctx1.Q.classes[0]) == list(range(ctx1.B.nclasses))
        battery, _ = silting.module_battery(A, ctx1.torsion_A)
        assert all(ctx1.torsion_A.in_free(X) for X in battery)
        assert not any(ctx1.torsion_A.in_torsion(X) for X in battery)


def _assert_endo_matches_regular(A, ctx):
    """End(stalk A) has the multiplication table of A itself."""
    B = ctx.B
    F = A.field
    assert B.dim == A.dim and B.nclasses == A.nclasses
    perm = []
    for b in range(B.dim):
        x = ctx.element_of_regular_endo(
            _total_endo_of_rep(ctx, ctx.reps[b])
        )
        idx = np.flatnonzero(x != 0)
        assert idx.shape[0] == 1 and x[idx[0]] == 1
        perm.append(int(idx[0]))
    assert sorted(perm) == list(range(A.dim))
    for i in range(B.dim):
        for j in range(B.dim):
            lhs = B.el_mult(B.basis_vec(i), B.basis_vec(j))
            rhs = A.el_mult(A.basis_vec(perm[i]), A.basis_vec(perm[j]))
            mapped = F.zeros((A.dim,))
            for k in np.flatnonzero(lhs != 0):
                mapped[perm[int(k)]] = lhs[k]
            assert np.array_equal(mapped, rhs)


def test_universal_invariant_suite_on_all_fixtures(
    paper_ctx, a2_ctx, a3_ctx
):
    required = (
        "class-counts", "torsion-axioms-A", "torsion-axioms-B",
        "hom-cohomology-dims", "hom-through-h0-dims",
        "canonical-part-isos", "ext1-dim-transfer", "ext2-dim-transfer",
        "torsion-resolutions", "round-trip-torsion", "round-trip-free",
        "round-trip-naturality", "induced-torsion-match",
        "pushforward-memberships", "endo-map-multiplicative",
        "endo-map-unital", "kernel-two-ways", "kernel-iff-tilting",
        "quotient-dims", "heart-membership", "battery-certified",
    )
    for ctx in (paper_ctx, a2_ctx, a3_ctx):
        entries = silting.verify_theorem(ctx)
        names = [e["name"] for e in entries]
        for name in required:
            assert name in names, name
        for e in entries:
            assert e["status"] in ("pass", "certified"), e


def test_bongartz_completion_of_presilting_inputs():
    with open(fixture("a2_tilt.alg"), "r", encoding="utf-8") as fh:
        A = cli.parse_algebra(fh.read())
    inputs = [
        cx.stalk_proj_complex(A, [0]),
        cx.stalk_proj_complex(A, [1]).shift(1),
    ]
    for P in inputs:
        Q = silting.bongartz_complete(P)
        ok, _ = silting.is_silting(Q)
        assert ok
        groups = cx.decompose_complex(Q)
        assert any(
            cx.complexes_isomorphic(g[0], P) for g in groups
        )


def test_reports_are_byte_identical_across_runs(capsys):
    for base in ("a2_tilt", "a3_silt"):
        argv = [
            "theorem", fixture(base + ".alg"), fixture(base + ".cpx"),
            "--report", "json", "--seed", "0",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
