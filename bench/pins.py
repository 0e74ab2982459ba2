"""Correctness pins for each op, derived from theory.

`problems(command, facts, field, text)` returns the list of pins the
report `text` breaks (empty when the op is correct).  The expected values
come from the input's theory facts (see workloads.py), never from a stored
copy of this engine's output.
"""

import json
import re

_DIM = re.compile(r"(\S+?)=(\[[^\]]*\]|\S+)")


def _value(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_report(text):
    """(field, {check name: (status, dims)}, result ok) of a report."""
    if text.startswith("{"):
        report = json.loads(text)
        entries = {c["name"]: (c["status"], c["dims"])
                   for c in report["checks"]}
        ok = all(status != "fail" for status, _ in entries.values())
        return report["field"], entries, ok
    lines = text.splitlines()
    field = lines[1].split(":", 1)[1].strip()
    entries = {}
    ok = False
    for line in lines[2:]:
        if line.startswith("result: "):
            ok = line == "result: ok"
            break
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=2)
        rest = parts[2].split("  [", 1)[0] if len(parts) > 2 else ""
        entries[parts[0]] = (parts[1], {k: _value(v)
                                        for k, v in _DIM.findall(rest)})
    return field, entries, ok


def _expect(out, what, got, want):
    if got != want:
        out.append("%s is %r, expected %r" % (what, got, want))


def problems(command, facts, field, text):
    if command == "complete":
        # The emitted complex is checked for silting by a separate `check`.
        return [] if text.startswith("complex ") else ["no complex emitted"]
    try:
        got_field, entries, ok = parse_report(text)
    except (ValueError, IndexError, KeyError) as exc:
        return ["unreadable report: %s" % exc]
    out = []
    _expect(out, "field", got_field, "Q" if field == "Q" else "32003")
    if not ok:
        out.append("report has a failed check")

    def dims(name):
        if name not in entries:
            out.append("missing check %r" % name)
            return {}
        return entries[name][1]

    n = facts["classes"]
    if command == "check":
        _expect(out, "presilting", dims("presilting").get("verdict"), "yes")
        _expect(out, "silting", dims("silting").get("verdict"), "yes")
        if facts["tilting"] is not None:
            _expect(out, "tilting", dims("tilting").get("verdict"),
                    "yes" if facts["tilting"] else "no")
    elif command == "endo":
        _expect(out, "End(P) classes", dims("endo-dimension").get("classes"),
                n)
        _expect(out, "Gabriel vertices",
                dims("gabriel-quiver").get("vertices"), n)
    elif command == "ar":
        if facts["hereditary"]:  # torsion pairs of hereditary algebras split
            _expect(out, "splitting", dims("splitting").get("verdict"),
                    "CERTIFIED-SPLITTING")
    elif command == "battery":
        want = facts["indecomposables"]
        _expect(out, "battery status", entries.get("battery", ("",))[0],
                "certified")
        _expect(out, "battery size", dims("battery").get("size"), len(want))
        got = sorted(d.get("dim-vector") for name, (_, d) in entries.items()
                     if name.startswith("module-"))
        _expect(out, "dimension vectors", got, want)
    elif command == "theorem":
        for name, (status, _) in entries.items():
            if status not in ("pass", "certified"):
                out.append("theorem entry %s is %s" % (name, status))
        _expect(out, "class-counts", dims("class-counts"),
                {"A": n, "B": n, "P": n})
        kt = dims("kernel-iff-tilting")
        if (kt.get("kernel") == 0) != (kt.get("tilting") == 1):
            out.append("kernel-iff-tilting inconsistent: %r" % (kt,))
        if facts["tilting"] is not None:
            _expect(out, "tilting", kt.get("tilting"), int(facts["tilting"]))
    return out
