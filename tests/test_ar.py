import pytest

from siltengine import ar
from siltengine import complexes as cx
from siltengine import linalg, modules, silting

F = linalg.GF(32003)


def two_term(A, label, src_cls, tgt_cls):
    v = A.basis_vec(A.labels.index(label))
    e = F.zeros((1, 1, A.dim))
    e[0, 0] = v
    return cx.two_term_complex(A, [src_cls], [tgt_cls], e)


def _battery(ctx):
    """(battery, certified) over A, as `silt ar` builds it."""
    return silting.module_battery(ctx.A, ctx.torsion_A)


def _split_ar_report(ctx):
    """split_ar_report with both batteries and the splitting entry built
    as `silt ar` builds them."""
    battery, cert = _battery(ctx)
    battery_b, _ = silting.module_battery(ctx.B, ctx.torsion_B)
    return ar.split_ar_report(
        ctx, battery, battery_b, ar.splitting_check(ctx, battery, cert)
    )


@pytest.fixture(scope="module")
def a2_ctx(a2_algebra):
    A = a2_algebra
    P = cx.proj_complex_direct_sum(
        [cx.stalk_proj_complex(A, [0]), two_term(A, "a", 1, 0)]
    )
    return silting.SiltingContext(P)


@pytest.fixture(scope="module")
def a3_ctx(a3_algebra):
    A = a3_algebra
    P = cx.proj_complex_direct_sum(
        [
            two_term(A, "a", 1, 0),
            cx.stalk_proj_complex(A, [2]),
            cx.stalk_proj_complex(A, [1]).shift(1),
        ]
    )
    return silting.SiltingContext(P)


@pytest.fixture(scope="module")
def paper_ctx(paper_algebra):
    A = paper_algebra
    P = cx.proj_complex_direct_sum(
        [cx.stalk_proj_complex(A, [0]), two_term(A, "alpha", 1, 0)]
    )
    return silting.SiltingContext(P)


def test_connecting_term_checks_a2(a2_ctx):
    # class 0: P1 is a summand of P, so the left term must be injective
    e0 = ar.connecting_term_check(a2_ctx, 0)
    assert e0["status"] == "pass"
    assert e0["dims"]["injective"] == 1
    # class 1: genuine connecting term, tau^{-1} matches
    e1 = ar.connecting_term_check(a2_ctx, 1)
    assert e1["status"] == "pass"
    assert e1["dims"]["injective"] == 0
    assert e1["dims"]["left"] == 1
    assert e1["dims"]["right"] == 1


def test_connecting_term_skip_a3(a3_ctx):
    # P2[1] is a summand of P, so there is no connecting term at class 1
    e = ar.connecting_term_check(a3_ctx, 1)
    assert e["status"] == "skipped"
    assert e["dims"]["left"] == 0


def test_connecting_sequence_a2(a2_ctx):
    left, E, right, f, g, entry = ar.connecting_sequence(a2_ctx, 1)
    assert entry["status"] == "pass"
    assert (left.total, E.total, right.total) == (1, 2, 1)
    assert modules.sequence_is_exact(left, E, right, f, g)
    # rad P2 = 0: the middle term is entirely torsion-free over B
    assert entry["dims"]["torsion-part"] == 0
    assert entry["dims"]["free-part"] == 2


def test_connecting_sequence_a3(a3_ctx):
    left, E, right, f, g, entry = ar.connecting_sequence(a3_ctx, 0)
    assert entry["status"] == "pass"
    assert E.total == left.total + right.total


def test_connecting_sequence_preconditions(a2_ctx, a3_ctx):
    with pytest.raises(silting.PreconditionError):
        ar.connecting_sequence(a2_ctx, 0)  # P1 in add P
    with pytest.raises(silting.PreconditionError):
        ar.connecting_sequence(a3_ctx, 1)  # P2[1] in add P


def test_hereditary_certificate(a2_algebra, a3_algebra, paper_algebra):
    assert ar.hereditary_certificate(a2_algebra)
    assert ar.hereditary_certificate(a3_algebra)
    assert not ar.hereditary_certificate(paper_algebra)


def test_splitting_check(a2_ctx, a3_ctx, paper_ctx):
    for ctx in (a2_ctx, a3_ctx):
        assert ar.splitting_check(ctx, *_battery(ctx))["status"] == \
            "certified"
    entry = ar.splitting_check(paper_ctx, *_battery(paper_ctx))
    # Ext^2(S1, S2) = 1 with S1 torsion and S2 torsion-free, so the
    # Nakayama fixture is certifiably non-splitting
    assert entry["status"] == "certified"
    assert entry["dims"]["verdict"] == "COUNTEREXAMPLE"


def test_separating_check(a2_ctx, a3_ctx):
    e2 = ar.separating_check(a2_ctx, *_battery(a2_ctx))
    assert e2["dims"]["verdict"].startswith("SEPARATING")
    e3 = ar.separating_check(a3_ctx, *_battery(a3_ctx))
    assert e3["dims"]["verdict"] == "NOT-SEPARATING"
    assert "witness" in e3


def test_separating_stalk_regular(a2_algebra):
    ctx = silting.SiltingContext(cx.stalk_proj_complex(a2_algebra, [0, 1]))
    e = ar.separating_check(ctx, *_battery(ctx))
    assert e["dims"]["verdict"].startswith("SEPARATING")


def test_split_ar_report_a2(a2_ctx):
    entries = _split_ar_report(a2_ctx)
    by_name = {e["name"]: e for e in entries}
    assert by_name["splitting"]["status"] == "certified"
    # the single A-side AR sequence straddles the classes: none mapped
    assert by_name["transported-ar-sequences"]["status"] == "pass"
    assert by_name["transported-ar-sequences"]["dims"]["mapped"] == 0
    # the lone B-side AR sequence is the connecting one
    tri = by_name["ar-trichotomy"]
    assert tri["status"] == "pass"
    assert tri["dims"]["connecting"] == 1
    assert tri["dims"]["torsion-side"] == 0
    assert tri["dims"]["free-side"] == 0


def test_split_ar_report_a3(a3_ctx):
    entries = _split_ar_report(a3_ctx)
    by_name = {e["name"]: e for e in entries}
    assert by_name["transported-ar-sequences"]["status"] == "pass"
    assert by_name["ar-trichotomy"]["status"] == "pass"


def test_split_ar_report_stalk_regular(a2_algebra):
    ctx = silting.SiltingContext(cx.stalk_proj_complex(a2_algebra, [0, 1]))
    entries = _split_ar_report(ctx)
    by_name = {e["name"]: e for e in entries}
    assert by_name["transported-ar-sequences"]["status"] == "pass"
    # mod B is a copy of mod A: its AR sequence lives on the torsion side
    assert by_name["transported-ar-sequences"]["dims"]["mapped"] == 1


def test_split_ar_report_precondition(paper_ctx):
    with pytest.raises(silting.PreconditionError):
        _split_ar_report(paper_ctx)
