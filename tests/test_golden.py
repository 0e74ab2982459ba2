"""Golden reports: `silt` stdout and exit codes on the fixtures, byte for byte.

The snapshots in tests/golden/ pin the reports an engine change must not
move.  After a deliberate report change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from siltengine import cli

FIXDIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
FIXTURES = ("a2_tilt", "a3_silt", "paper_nakayama2")


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
    return out


CASES = _cases()


def _run(argv):
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
