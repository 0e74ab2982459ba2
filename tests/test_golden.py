"""Golden reports: `silt` stdout and exit codes on the fixtures, byte for byte.

The snapshots in tests/golden/ pin the reports an engine change must not
move.  Besides the bundled fixtures they cover linear A4 (1 -> 2 -> 3 -> 4
over GF(32003)), whose battery and `ar` reach Ext on more than three
vertices, and whose `theorem` checks the comparison theorem on four
vertices; its `ar`, `theorem`, `endo` and `complete` are also pinned over
Q, the only cases that run the rational path on more than three vertices.
Over Q, `endo` and `complete` are pinned on a3_silt and paper_nakayama2 as
well: they print the rational coefficients of B, Q and the completion.
Its algebra file is written from the ladder recipe at run time;
its complex, tests/golden/linear_a4.cpx, is `silt complete` of the seed
complex P2 --x1--> P1.  They also cover the battery of linear A5
(tests/golden/linear_a5.alg), the largest battery a case closes, and
`check` and `endo` on linear A4 and A5, which read every Hom space of
complexes and the chain endomorphism algebras, and `check`, `endo`,
`complete`, `theorem` and `battery` on the self-injective Nakayama
algebras N(3,3) and N(3,4) (tests/golden/nakayama_3_3.alg,
nakayama_3_4.alg: the 3-cycle with every path of length 3, resp. 4, zero;
each .cpx is `silt complete` of P2 --a1--> P1).  Their `endo` prints the
induced complex Q, which follows the choice and order of the minimal left
approximation's generators, and their `complete` takes the minimal right
approximation of A[1] over a non-hereditary algebra.  After a deliberate report change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

tests/golden/paper_nakayama2-theorem-Q.json is not one of these cases: it
is the JSON report of `theorem` on paper_nakayama2 with --field Q, and the
rational-theorem CI job compares against it under a time limit.  Neither
is tests/golden/linear_a5-theorem.json, the JSON report of `theorem` on
linear A5 (tests/golden/linear_a5.alg, with linear_a5.cpx the `silt
complete` of P2 --x1--> P1), nor are linear_a5-theorem-Q.json and
linear_a5-endo-Q.txt, its JSON `theorem` and text `endo` reports with
--field Q; the linear-a5-theorem CI job compares against them under a
time limit.  Nor are tests/golden/linear_a6-theorem.json, the
same report on linear A6 (linear_a6.alg, linear_a6.cpx), and
tests/golden/linear_a6-ar.txt, the text report of `ar` on it, which the
linear-a6-theorem CI job compares against under a time limit, nor
tests/golden/linear_a8-theorem.json, linear_a8-endo.txt and
linear_a8-ar.txt, the JSON `theorem` and text `endo` and `ar` reports on
linear A8 (linear_a8.alg, linear_a8.cpx), and linear_a8-check.txt, its
`check` report, which the linear-a8-theorem CI job compares against (the
same job compares `silt complete` of linear_a8_seed.cpx, P2 --x1--> P1,
with linear_a8.cpx), nor tests/golden/nakayama_4_5-theorem.json and
nakayama_4_5-endo.txt, the JSON `theorem` and text `endo` reports on
N(4,5) (nakayama_4_5.alg, nakayama_4_5.cpx), which the nakayama-4-5-theorem
CI job compares against (the same job compares `silt complete` of
nakayama_4_5_seed.cpx, P2 --a1--> P1, with nakayama_4_5.cpx), nor
tests/golden/linear_a10-theorem.json, linear_a10-endo.txt,
linear_a10-ar.txt and linear_a10-check.txt, the JSON `theorem` and text
`endo`, `ar` and `check` reports on linear A10 (linear_a10.alg,
linear_a10.cpx, the `silt complete` of P2 --x1--> P1), which the
linear-a10-theorem CI job compares against.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from siltengine import cli

FIXDIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
FIXTURES = ("a2_tilt", "a3_silt", "paper_nakayama2")
LINEAR_A4 = "linear_a4"
NAKAYAMA = ("nakayama_3_3", "nakayama_3_4")


def linear_a4_text():
    """Path algebra of 1 -> 2 -> 3 -> 4, arrows x<i>: i -> i+1."""
    lines = ["# Linear A4: 1 -> 2 -> 3 -> 4.", "field 32003", "vertices 4"]
    lines += ["arrow x%d %d %d" % (i, i, i + 1) for i in range(1, 4)]
    return "\n".join(lines) + "\n"


def _cases():
    """(snapshot name, argv) pairs."""
    out = []
    for fx in FIXTURES:
        alg = os.path.join(FIXDIR, fx + ".alg")
        cpx = os.path.join(FIXDIR, fx + ".cpx")
        for cmd in ("check", "endo", "ar", "complete", "theorem"):
            for fmt, ext in (("text", "txt"), ("json", "json")):
                out.append((
                    "%s-%s.%s" % (fx, cmd, ext),
                    [cmd, alg, cpx, "--report", fmt],
                ))
        out.append((
            "%s-battery.json" % fx, ["battery", alg, "--report", "json"],
        ))
    alg = os.path.join(FIXDIR, "a2_tilt.alg")
    cpx = os.path.join(FIXDIR, "a2_tilt.cpx")
    for cmd in ("check", "endo", "ar", "complete"):
        out.append((
            "a2_tilt-%s-Q.txt" % cmd, [cmd, alg, cpx, "--field", "Q"],
        ))
    out.append(("a2_tilt-theorem-Q.json",
                ["theorem", alg, cpx, "--field", "Q", "--report", "json"]))
    for fx in ("a3_silt", "paper_nakayama2"):
        alg = os.path.join(FIXDIR, fx + ".alg")
        cpx = os.path.join(FIXDIR, fx + ".cpx")
        for cmd in ("check", "endo", "complete"):
            out.append((
                "%s-%s-Q.txt" % (fx, cmd), [cmd, alg, cpx, "--field", "Q"],
            ))
    # LINEAR_A4 stands for the algebra file that _run writes.
    cpx = os.path.join(GOLDEN, LINEAR_A4 + ".cpx")
    out.append(("linear_a4-battery.json",
                ["battery", LINEAR_A4, "--report", "json"]))
    out.append(("linear_a4-ar.txt", ["ar", LINEAR_A4, cpx]))
    out.append(("linear_a4-theorem.json",
                ["theorem", LINEAR_A4, cpx, "--report", "json"]))
    for cmd in ("ar", "endo", "complete"):
        out.append(("linear_a4-%s-Q.txt" % cmd,
                    [cmd, LINEAR_A4, cpx, "--field", "Q"]))
    out.append(("linear_a4-theorem-Q.json",
                ["theorem", LINEAR_A4, cpx, "--field", "Q",
                 "--report", "json"]))
    a5_alg = os.path.join(GOLDEN, "linear_a5.alg")
    a5_cpx = os.path.join(GOLDEN, "linear_a5.cpx")
    out.append(("linear_a5-battery.json",
                ["battery", a5_alg, "--report", "json"]))
    for cmd in ("check", "endo"):
        out.append(("linear_a4-%s.txt" % cmd, [cmd, LINEAR_A4, cpx]))
        out.append(("linear_a5-%s.txt" % cmd, [cmd, a5_alg, a5_cpx]))
    for nak in NAKAYAMA:
        alg = os.path.join(GOLDEN, nak + ".alg")
        cpx = os.path.join(GOLDEN, nak + ".cpx")
        for cmd in ("check", "endo", "complete"):
            out.append(("%s-%s.txt" % (nak, cmd), [cmd, alg, cpx]))
        out.append(("%s-theorem.json" % nak,
                    ["theorem", alg, cpx, "--report", "json"]))
        out.append(("%s-battery.json" % nak,
                    ["battery", alg, "--report", "json"]))
    return out


CASES = _cases()


def _run(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if LINEAR_A4 in argv:
            alg = os.path.join(tmp, LINEAR_A4 + ".alg")
            with open(alg, "w", encoding="utf-8") as fh:
                fh.write(linear_a4_text())
            argv = [alg if a == LINEAR_A4 else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.mark.parametrize(
    "name,argv", CASES, ids=[name for name, _ in CASES]
)
def test_golden_report(name, argv):
    with open(EXIT_CODES, "r", encoding="utf-8") as fh:
        want_rc = json.load(fh)[name]
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8",
              newline="") as fh:
        want_out = fh.read()
    rc, out = _run(argv)
    assert rc == want_rc
    assert out == want_out


def write_snapshots():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in CASES:
        rc, out = _run(argv)
        codes[name] = rc
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(out)
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(write_snapshots())
