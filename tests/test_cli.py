import ast
import glob
import inspect
import json
import os
import subprocess
import sys

import pytest

from siltengine import algebra as alg_mod
from siltengine import ar, cli
from siltengine import complexes as cx
from siltengine import linalg, silting

from test_golden import CASES, EXIT_CODES, GOLDEN, LINEAR_A4, linear_a4_text

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
    assert P.classes == {-1: [1], 0: [0, 0]}
    assert P.check()


def test_parse_complex_stalk_without_differential():
    A = cli.parse_algebra(read("a2_tilt.alg"))
    _, P = cli.parse_complex("complex s\nsummand\ndeg 0 P2^2\n", A)
    assert P.classes == {0: [1, 1]}


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


@pytest.mark.parametrize("flag", ["--battery-cap", "--battery-max-dim"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_battery_bound_below_one_is_refused(flag, value, capsys):
    # an empty battery passes every battery check vacuously
    rc = cli.main([
        "theorem", fixture("a3_silt.alg"), fixture("a3_silt.cpx"),
        flag, value,
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "%s: must be at least 1, got %s" % (flag, value) in captured.err


@pytest.mark.parametrize("cmd", ["check", "endo", "complete"])
@pytest.mark.parametrize(
    "flag", ["--seed", "--battery-cap", "--battery-max-dim"]
)
def test_battery_flags_only_on_battery_commands(cmd, flag, capsys):
    # check, endo and complete build no battery: the flags would do nothing
    rc = cli.main([
        cmd, fixture("a3_silt.alg"), fixture("a3_silt.cpx"), flag, "1",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "unrecognized arguments: %s 1" % flag in captured.err


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


def test_ar_battery_flags_reach_both_sides(monkeypatch, capsys):
    # a3_silt splits, so `ar` builds a battery over A and one over B
    real = silting.module_battery
    sig = inspect.signature(real)
    calls = []

    def spy(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(silting, "module_battery", spy)
    rc = cli.main([
        "ar", fixture("a3_silt.alg"), fixture("a3_silt.cpx"),
        "--battery-max-dim", "5", "--battery-cap", "2", "--seed", "3",
    ])
    capsys.readouterr()
    assert rc == 0
    assert len({id(c["A"]) for c in calls}) == 2
    for c in calls:
        assert (c["max_dim"], c["cap"], c["seed"]) == (5, 2, 3)


def test_ar_decides_splitting_once(monkeypatch, capsys):
    # a3_silt is hereditary: one certificate serves the splitting entry of
    # `ar` and the split-case report that starts with it
    real = ar.hereditary_certificate
    calls = []

    def spy(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(ar, "hereditary_certificate", spy)
    rc = cli.main(["ar", fixture("a3_silt.alg"), fixture("a3_silt.cpx")])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1


def test_battery_command(capsys):
    rc = cli.main(["battery", fixture("a3_silt.alg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size=6" in out and "certified=1" in out


def test_battery_on_kronecker_is_evidence(tmp_path, capsys):
    # representation-infinite: the knit stops at the size bound, which is
    # not a failure, but the battery is not certified to be complete
    kron = tmp_path / "kronecker.alg"
    kron.write_text("field 32003\nvertices 2\narrow a 1 2\narrow b 1 2\n")
    rc = cli.main([
        "battery", str(kron), "--battery-max-dim", "10", "--report", "json",
    ])
    head = json.loads(capsys.readouterr().out)["checks"][0]
    assert rc == 0
    assert head["name"] == "battery" and head["status"] == "evidence"
    assert head["dims"]["certified"] == 0


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


# ---- no sympy in the engine -----------------------------------------------


def _run_fresh(argvs, block=False):
    """Run cli.main on each argument list in a fresh interpreter; return its
    exit codes, its reports and whether sympy was imported.  With
    block=True an import of sympy fails, as if it were not installed."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import contextlib, io, json, sys\n"
        + ("sys.modules['sympy'] = None\n" if block else "")
        + "from siltengine import cli\n"
        + "rcs, outs = [], []\n"
        + "for a in %r:\n" % (argvs,)
        + "    buf = io.StringIO()\n"
        + "    with contextlib.redirect_stdout(buf):\n"
        + "        rcs.append(cli.main(a))\n"
        + "    outs.append(buf.getvalue())\n"
        + "print(json.dumps([rcs, outs, "
        + "sys.modules.get('sympy') is not None]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def test_gf_commands_do_not_import_sympy():
    """Nor do the rational ones: min polys over Q are factored in plain
    Python too."""
    argv = [fixture("a3_silt.alg"), fixture("a3_silt.cpx")]
    rcs, _, loaded = _run_fresh(
        [["check"] + argv, ["theorem"] + argv + ["--field", "32003"]])
    assert rcs == [0, 0] and not loaded
    a2 = [fixture("a2_tilt.alg"), fixture("a2_tilt.cpx")]
    rcs, _, loaded = _run_fresh([
        ["check"] + argv + ["--field", "Q"],
        ["theorem"] + a2 + ["--field", "Q"],
    ])
    assert rcs == [0, 0] and not loaded


def test_field_q_without_sympy_gives_golden_bytes(tmp_path):
    # the linear A4 cases name their algebra file by LINEAR_A4
    a4 = tmp_path / (LINEAR_A4 + ".alg")
    a4.write_text(linear_a4_text(), encoding="utf-8")
    cases = [(name, [str(a4) if a == LINEAR_A4 else a for a in argv])
             for name, argv in CASES
             if name.split("-")[1] in ("check", "theorem") and "Q" in argv]
    assert len(cases) == 5
    rcs, outs, loaded = _run_fresh([argv for _, argv in cases], block=True)
    assert not loaded
    with open(EXIT_CODES, encoding="utf-8") as fh:
        codes = json.load(fh)
    for (name, _), rc, out in zip(cases, rcs, outs):
        with open(os.path.join(GOLDEN, name), encoding="utf-8",
                  newline="") as fh:
            assert out == fh.read(), name
        assert rc == codes[name], name


def test_no_engine_file_imports_sympy():
    engine = os.path.dirname(cli.__file__)
    for path in sorted(glob.glob(os.path.join(engine, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "sympy" for n in names), path


def test_split_search_refusal_exits_2(monkeypatch, capsys):
    """A seeded idempotent search that finds nothing is a refusal (exit 2)
    that names the search, not an invariant failure."""
    monkeypatch.setattr(alg_mod.Algebra, "_corner_is_local",
                        lambda self, corner: False)
    monkeypatch.setattr(alg_mod, "split_by_min_poly", lambda *a: None)
    argv = [fixture("a2_tilt.alg"), fixture("a2_tilt.cpx")]
    assert cli.main(["check"] + argv + ["--field", "Q"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition: the seeded idempotent search")
    assert "non-split semisimple" not in err
