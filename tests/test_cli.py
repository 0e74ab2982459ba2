import os

import pytest

from siltengine import cli
from siltengine import complexes as cx
from siltengine import linalg

FIXDIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXDIR, name)


def read(name):
    with open(fixture(name), "r", encoding="utf-8") as fh:
        return fh.read()


# ---- parsing --------------------------------------------------------------


def test_parse_algebra_paper_fixture():
    A = cli.parse_algebra(read("paper_nakayama2.alg"))
    assert A.dim == 6
    assert A.nclasses == 2
    assert "alpha.beta" in A.labels and "beta.alpha" in A.labels
    assert cli.field_name(A.field) == "32003"


def test_parse_algebra_default_bound_for_acyclic():
    A = cli.parse_algebra(read("a3_silt.alg"))
    assert A.dim == 6  # three idempotents, a, b, a.b
    assert sorted(A.labels)[0] == "a"


def test_parse_algebra_field_override():
    A = cli.parse_algebra(read("a2_tilt.alg"), linalg.RationalField())
    assert cli.field_name(A.field) == "Q"


def test_parse_algebra_errors():
    base = "field 32003\nvertices 2\narrow a 1 2\n"
    with pytest.raises(cli.ParseError, match="line 4.*length >= 2"):
        cli.parse_algebra(base + "relation a\n")
    with pytest.raises(cli.ParseError, match="line 4.*unknown arrow"):
        cli.parse_algebra(base + "relation a.zz\n")
    with pytest.raises(cli.ParseError, match="line 4.*non-composable"):
        cli.parse_algebra(base + "relation a.a\n")
    with pytest.raises(cli.ParseError, match="oriented cycle"):
        cli.parse_algebra(
            "vertices 2\narrow a 1 2\narrow b 2 1\n"
        )
    with pytest.raises(cli.ParseError, match="line 2.*unknown directive"):
        cli.parse_algebra("vertices 2\nvortex 3\n")


def test_parse_complex_paper_fixture():
    A = cli.parse_algebra(read("paper_nakayama2.alg"))
    name, P = cli.parse_complex(read("paper_nakayama2.cpx"), A)
    assert name == "paper_nakayama2"
    assert P.terms == {-1: [1], 0: [0, 0]}
    assert P.check()


def test_parse_complex_stalk_without_differential():
    A = cli.parse_algebra(read("a2_tilt.alg"))
    _, P = cli.parse_complex("complex s\nsummand\ndeg 0 P2^2\n", A)
    assert P.terms == {0: [1, 1]}


def test_parse_complex_errors():
    A = cli.parse_algebra(read("a2_tilt.alg"))
    head = "complex x\nsummand\ndeg -1 P2\ndeg 0 P1\n"
    with pytest.raises(cli.ParseError, match="line 5.*corner e1.A.e2"):
        cli.parse_complex(head + "d[1,1] e1\n", A)
    with pytest.raises(cli.ParseError, match="line 5.*out of range"):
        cli.parse_complex(head + "d[2,1] a\n", A)
    with pytest.raises(cli.ParseError, match="line 3.*degrees -1 and 0"):
        cli.parse_complex("complex x\nsummand\ndeg 1 P1\n", A)
    with pytest.raises(cli.ParseError, match="line 3.*undeclared vertex"):
        cli.parse_complex("complex x\nsummand\ndeg 0 P9\n", A)
    with pytest.raises(cli.ParseError, match="missing complex line"):
        cli.parse_complex("summand\ndeg 0 P1\n", A)


def test_parse_element_expressions():
    A = cli.parse_algebra(read("paper_nakayama2.alg"))
    v = cli.parse_element(A, "alpha.beta + 2*e1", 1)
    assert v[A.labels.index("alpha.beta")] == 1
    assert v[A.labels.index("e1")] == 2
    # relations kill alpha.beta.alpha
    z = cli.parse_element(A, "alpha.beta.alpha", 1)
    assert not z.any()


def test_complex_round_trip():
    for base in ("paper_nakayama2", "a2_tilt", "a3_silt"):
        A = cli.parse_algebra(read(base + ".alg"))
        _, P = cli.parse_complex(read(base + ".cpx"), A)
        _, P2 = cli.parse_complex(cli.emit_complex(P, "again"), A)
        assert cx.complexes_isomorphic(P, P2)


# ---- commands -------------------------------------------------------------


def test_check_command_exit_codes(capsys):
    rc = cli.main([
        "check", fixture("a2_tilt.alg"), fixture("a2_tilt.cpx"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tilting" in out and "result: ok" in out


def test_check_command_reports_non_tilting(capsys):
    rc = cli.main([
        "check", fixture("a3_silt.alg"), fixture("a3_silt.cpx"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=no" in out  # tilting fails, with a witness line


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cpx"
    bad.write_text("complex x\nsummand\ndeg -1 P2\ndeg 0 P1\nd[1,1] e1\n")
    rc = cli.main(["check", fixture("a2_tilt.alg"), str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 5" in err


def test_missing_file_exit_code(capsys):
    rc = cli.main(["check", fixture("a2_tilt.alg"), "/nonexistent.cpx"])
    assert rc == 1


def test_precondition_exit_code(tmp_path, capsys):
    notsilt = tmp_path / "n.cpx"
    notsilt.write_text("complex n\nsummand\ndeg 0 P1\n")
    rc = cli.main(["endo", fixture("a2_tilt.alg"), str(notsilt)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "precondition" in err


def test_non_presilting_complex_is_refused_with_its_witness(tmp_path, capsys):
    # P1 + P1[1] over A2: id of P1 is a nonzero map P1[1] -> (P1 + P1[1])[1]
    bad = tmp_path / "bad.cpx"
    bad.write_text("complex bad\nsummand\ndeg 0 P1\nsummand\ndeg -1 P1\n")
    for cmd in ("endo", "theorem", "ar"):
        rc = cli.main([cmd, fixture("a2_tilt.alg"), str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "precondition: complex is not presilting: nonzero degree-1 "
            "self-map witness of total rank 2\n"
        )


def test_presilting_with_too_few_classes_is_refused(tmp_path, capsys):
    # the stalk P1 over A2 is presilting with one summand class of two
    stalk = tmp_path / "p1.cpx"
    stalk.write_text("complex p1\nsummand\ndeg 0 P1\n")
    for cmd in ("endo", "theorem", "ar"):
        rc = cli.main([cmd, fixture("a2_tilt.alg"), str(stalk)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "precondition: complex is presilting but has too few summand "
            "classes\n"
        )
    rc = cli.main(["check", fixture("a2_tilt.alg"), str(stalk)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "presilting  certified  verdict=yes\n" in out
    assert "silting     certified  verdict=no\n" in out
    assert "tilting     certified  verdict=no  [not silting]\n" in out


def test_endo_command(capsys):
    rc = cli.main([
        "endo", fixture("paper_nakayama2.alg"),
        fixture("paper_nakayama2.cpx"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim 6" in out
    assert "gabriel vertices 2" in out
    assert "complex paper_nakayama2_induced" in out


def test_complete_command(tmp_path, capsys):
    stalk = tmp_path / "p1.cpx"
    stalk.write_text("complex p1\nsummand\ndeg 0 P1\n")
    rc = cli.main(["complete", fixture("a2_tilt.alg"), str(stalk)])
    out = capsys.readouterr().out
    assert rc == 0
    # the completion must be re-parseable over the same algebra
    A = cli.parse_algebra(read("a2_tilt.alg"))
    _, Q = cli.parse_complex(out, A)
    assert Q.summand_count() == 2


def test_theorem_command_json(capsys):
    rc = cli.main([
        "theorem", fixture("a2_tilt.alg"), fixture("a2_tilt.cpx"),
        "--report", "json",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("{") and '"fixture": "a2_tilt"' in out


def test_theorem_command_deterministic(capsys):
    argv = [
        "theorem", fixture("a3_silt.alg"), fixture("a3_silt.cpx"),
        "--report", "json", "--seed", "0",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_ar_command(capsys):
    rc = cli.main([
        "ar", fixture("a3_silt.alg"), fixture("a3_silt.cpx"),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "connecting-term-2" in out and "skipped" in out
    assert "NOT-SEPARATING" in out


def test_battery_command(capsys):
    rc = cli.main(["battery", fixture("a3_silt.alg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size=6" in out and "certified=1" in out


def test_out_directory(tmp_path, capsys):
    rc = cli.main([
        "check", fixture("a2_tilt.alg"), fixture("a2_tilt.cpx"),
        "--report", "json", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    saved = (tmp_path / "a2_tilt-check.json").read_text()
    assert saved == out


def test_usage_error_exit_code(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_non_prime_field_is_refused(tmp_path, capsys):
    argv = [fixture("paper_nakayama2.alg"), fixture("paper_nakayama2.cpx")]
    assert cli.main(["check"] + argv + ["--field", "4"]) == 1
    assert "field 4 is not a prime" in capsys.readouterr().err
    alg = tmp_path / "f4.alg"
    alg.write_text(read("paper_nakayama2.alg").replace("field 32003", "field 4"))
    assert cli.main(["check", str(alg), argv[1]]) == 1
    assert "field 4 is not a prime" in capsys.readouterr().err
    with pytest.raises(cli.ParseError, match="not a prime"):
        cli.parse_field("1")


def test_field_too_small_is_a_precondition(capsys):
    rc = cli.main([
        "check", fixture("paper_nakayama2.alg"),
        fixture("paper_nakayama2.cpx"), "--field", "3",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("precondition:")
    assert captured.out == ""


def test_field_too_large_is_refused(tmp_path, capsys):
    argv = [fixture("a2_tilt.alg"), fixture("a2_tilt.cpx")]
    assert cli.main(["check"] + argv + ["--field", "2147483647"]) == 1
    err = capsys.readouterr().err
    assert "field 2147483647 is too large" in err
    assert "not a prime" not in err
    alg = tmp_path / "big.alg"
    alg.write_text(read("a2_tilt.alg").replace("field 32003",
                                                "field 16777259"))
    assert cli.main(["check", str(alg), argv[1]]) == 1
    assert "field 16777259 is too large" in capsys.readouterr().err


def test_largest_accepted_prime_runs(capsys):
    argv = [fixture("a2_tilt.alg"), fixture("a2_tilt.cpx")]
    assert cli.main(["check"] + argv + ["--field", "16777213"]) == 0
    out = capsys.readouterr().out
    assert "field:   16777213" in out
    assert cli.main(["check"] + argv) == 0
    assert capsys.readouterr().out.replace("32003", "16777213") == out
