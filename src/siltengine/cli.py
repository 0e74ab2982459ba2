"""Command line surface: algebra/complex file formats, commands, reports.

File formats are line oriented.  An algebra file declares a quiver with
relations; a complex file declares a two-term complex of projectives as
a list of summand blocks.  Both accept ``#`` comments.

Commands (`silt <command> ...`):
  check     presilting / silting / tilting verdicts with witnesses
  complete  Bongartz completion of a presilting complex (emits a file)
  endo      endomorphism algebra, its Gabriel quiver, the induced complex
  theorem   full comparison-theorem report over module batteries
  ar        almost-split-theory report for the endomorphism side
  battery   list the generated indecomposable battery of an algebra

Exit codes: 0 all checks pass, 1 usage or parse error, 2 mathematical
precondition failure, 3 violated internal invariant.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import algebra as alg_mod
from . import ar
from . import complexes as cx
from . import linalg
from . import report as rep
from . import silting


class ParseError(ValueError):
    """Malformed input file; the message carries the line number."""


def _fail(lineno, msg):
    raise ParseError("line %d: %s" % (lineno, msg))


def parse_field(text):
    """'Q' or a prime characteristic as decimal digits."""
    if text == "Q":
        return linalg.RationalField()
    if text.isdigit():
        try:
            return linalg.GF(int(text))
        except linalg.FieldTooLargeError:
            raise ParseError(
                "field %s is too large: GF(p) needs p < 2^24 so that int64 "
                "products cannot overflow" % text
            ) from None
        except ValueError:
            raise ParseError("field %s is not a prime" % text) from None
    raise ParseError("unknown field %r (use Q or a prime)" % text)


def field_name(F):
    if isinstance(F, linalg.GF):
        return str(F.p)
    return "Q"


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _quiver_is_acyclic(quiver):
    adj = [[] for _ in range(quiver.n + 1)]
    for _, s, t in quiver.arrows:
        adj[s].append(t)
    state = [0] * (quiver.n + 1)  # 0 unseen, 1 on stack, 2 done

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    return all(state[v] == 2 or visit(v) for v in range(1, quiver.n + 1))


def parse_algebra(text, field=None):
    """Build an algebra from an algebra file; `field` overrides the file."""
    nvertices = None
    arrows = []
    relation_lines = []
    bound = None
    file_field = None
    for lineno, toks in _lines(text):
        key, args = toks[0], toks[1:]
        if key == "field":
            if len(args) != 1:
                _fail(lineno, "field takes one value")
            file_field = parse_field(args[0])
        elif key == "vertices":
            if len(args) != 1 or not args[0].isdigit():
                _fail(lineno, "vertices takes one integer")
            nvertices = int(args[0])
        elif key == "arrow":
            if len(args) != 3 or not (args[1].isdigit() and args[2].isdigit()):
                _fail(lineno, "arrow takes a name and two vertex numbers")
            arrows.append((args[0], int(args[1]), int(args[2])))
        elif key == "relation":
            relation_lines.append((lineno, " ".join(args)))
        elif key == "nilpotency":
            if len(args) != 1 or not args[0].isdigit():
                _fail(lineno, "nilpotency takes one integer")
            bound = int(args[0])
        else:
            _fail(lineno, "unknown directive %r" % key)
    if nvertices is None:
        raise ParseError("missing vertices line")
    if field is None:
        field = file_field if file_field is not None else linalg.GF(32003)
    try:
        quiver = alg_mod.Quiver(nvertices, arrows)
    except ValueError as exc:
        raise ParseError(str(exc))
    relations = []
    for lineno, body in relation_lines:
        terms = []
        for part in body.split("+"):
            coeff, names = _parse_term(part, lineno)
            path = []
            for nm in names:
                if nm not in quiver.name_to_index:
                    _fail(lineno, "unknown arrow %r" % nm)
                path.append(quiver.name_to_index[nm])
            if len(path) < 2:
                _fail(lineno, "relation paths must have length >= 2")
            terms.append((coeff, tuple(path)))
        try:
            relations.append(alg_mod.Relation(quiver, terms))
        except ValueError as exc:
            _fail(lineno, str(exc))
    if bound is None:
        if not _quiver_is_acyclic(quiver):
            raise ParseError(
                "quiver has an oriented cycle: a nilpotency bound is required"
            )
        bound = nvertices
    return alg_mod.build_algebra(field, quiver, relations, bound)


def _parse_term(text, lineno):
    """'3*a.b' or 'a.b' -> (coefficient, list of names)."""
    text = text.strip()
    if not text:
        _fail(lineno, "empty term")
    coeff = 1
    if "*" in text:
        head, text = text.split("*", 1)
        try:
            coeff = Fraction(head.strip())
            if coeff.denominator == 1:
                coeff = int(coeff)
        except ValueError:
            _fail(lineno, "bad scalar %r" % head.strip())
        text = text.strip()
    names = [nm.strip() for nm in text.split(".")]
    if any(not nm for nm in names):
        _fail(lineno, "malformed path %r" % text)
    return coeff, names


def _name_vector(A, name, lineno):
    if len(name) > 1 and name[0] == "e" and name[1:].isdigit():
        v = int(name[1:])
        if not (1 <= v <= A.nclasses):
            _fail(lineno, "undeclared vertex in %r" % name)
        return A.idem_vec(v - 1)
    if A.quiver is None or name not in A.quiver.name_to_index:
        _fail(lineno, "unknown name %r" % name)
    try:
        return alg_mod.element_from_paths(A, [(1, [name])])
    except ValueError as exc:
        _fail(lineno, str(exc))


def parse_element(A, text, lineno):
    """Algebra element from an expression over e<i>, arrows, '.', '+', '*'."""
    F = A.field
    vec = F.zeros((A.dim,))
    for part in text.split("+"):
        coeff, names = _parse_term(part, lineno)
        cur = None
        for nm in names:
            v = _name_vector(A, nm, lineno)
            cur = v if cur is None else A.el_mult(cur, v)
        vec = F.reduce(vec + coeff * cur)
    return vec


def _parse_class(A, token, lineno):
    """'P3' or 'P3^2' -> (0-based class index, multiplicity)."""
    mult = 1
    if "^" in token:
        token, m = token.split("^", 1)
        if not m.isdigit() or int(m) < 1:
            _fail(lineno, "bad multiplicity %r" % m)
        mult = int(m)
    if not (len(token) > 1 and token[0] == "P" and token[1:].isdigit()):
        _fail(lineno, "expected a projective class like P1, got %r" % token)
    v = int(token[1:])
    if not (1 <= v <= A.nclasses):
        _fail(lineno, "undeclared vertex in %r" % token)
    return v - 1, mult


def parse_complex(text, A):
    """(name, ProjComplex) from a complex file over the algebra A."""
    name = None
    blocks = []  # each: {"terms": {d: [classes]}, "entries": {(r,c): ...}}
    cur = None
    for lineno, toks in _lines(text):
        key, args = toks[0], toks[1:]
        if key == "complex":
            if len(args) != 1:
                _fail(lineno, "complex takes one name")
            name = args[0]
        elif key == "summand":
            cur = {"terms": {}, "entries": {}}
            blocks.append(cur)
        elif key == "deg":
            if cur is None:
                _fail(lineno, "deg line outside a summand block")
            if len(args) != 2:
                _fail(lineno, "deg takes a degree and a projective class")
            try:
                d = int(args[0])
            except ValueError:
                _fail(lineno, "bad degree %r" % args[0])
            if d not in (-1, 0):
                _fail(lineno, "only degrees -1 and 0 are supported")
            c, mult = _parse_class(A, args[1], lineno)
            cur["terms"].setdefault(d, []).extend([c] * mult)
        elif key.startswith("d[") and key.endswith("]"):
            if cur is None:
                _fail(lineno, "differential line outside a summand block")
            body = key[2:-1].split(",")
            if len(body) != 2 or not all(b.strip().isdigit() for b in body):
                _fail(lineno, "differential index must be d[<row>,<col>]")
            r, c = int(body[0]), int(body[1])
            if not args:
                _fail(lineno, "missing element expression")
            cur["entries"][(r, c)] = (" ".join(args), lineno)
        else:
            _fail(lineno, "unknown directive %r" % key)
    if name is None:
        raise ParseError("missing complex line")
    if not blocks:
        raise ParseError("complex has no summand blocks")
    parts = []
    for cur in blocks:
        rows = cur["terms"].get(-1, [])
        cols = cur["terms"].get(0, [])
        if not rows and not cols:
            raise ParseError("summand block declares no terms")
        F = A.field
        entries = F.zeros((len(rows), len(cols), A.dim))
        for (r, c), (expr, lineno) in cur["entries"].items():
            if not (1 <= r <= len(rows) and 1 <= c <= len(cols)):
                _fail(lineno, "differential index d[%d,%d] out of range"
                      % (r, c))
            vec = parse_element(A, expr, lineno)
            dj, ck = rows[r - 1], cols[c - 1]
            for b in np.flatnonzero(vec != 0):
                if A.src[b] != ck or A.tgt[b] != dj:
                    _fail(
                        lineno,
                        "entry d[%d,%d] is not in the corner e%d.A.e%d"
                        % (r, c, ck + 1, dj + 1),
                    )
            entries[r - 1, c - 1] = vec
        terms = {}
        if rows:
            terms[-1] = rows
        if cols:
            terms[0] = cols
        diffs = {-1: entries} if rows and cols else {}
        parts.append(cx.ProjComplex(A, terms, diffs))
    P = cx.proj_complex_direct_sum(parts)
    if not P.check():
        raise ParseError("differential does not square to zero")
    return name, P


# ---- emission -------------------------------------------------------------


def _coeff_str(c):
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    return str(c)


def element_expr(A, vec):
    """Expression string for an algebra element, empty for zero."""
    terms = []
    for b in np.flatnonzero(vec != 0):
        label = A.labels[int(b)]
        c = vec[b]
        terms.append(label if c == 1 else "%s*%s" % (_coeff_str(c), label))
    return " + ".join(terms)


def emit_complex(P, name):
    """Complex file text for a two-term complex (single summand block)."""
    lines = ["complex %s" % name, "summand"]
    for d in sorted(P.classes):
        for c in P.classes[d]:
            lines.append("  deg %d P%d" % (d, c + 1))
    if -1 in P.classes and 0 in P.classes:
        e = P.diff(-1)
        for r in range(e.shape[0]):
            for c in range(e.shape[1]):
                expr = element_expr(P.A, e[r, c])
                if expr:
                    lines.append("  d[%d,%d] %s" % (r + 1, c + 1, expr))
    return "\n".join(lines) + "\n"


def emit_algebra_summary(B):
    """Structure constants and Gabriel quiver of an algebra, as text."""
    lines = ["dim %d" % B.dim, "classes %d" % B.nclasses]
    for i, lab in enumerate(B.labels):
        lines.append(
            "basis %s : %d -> %d" % (lab, B.src[i] + 1, B.tgt[i] + 1)
        )
    for i in range(B.dim):
        for j in range(B.dim):
            expr = element_expr(B, B.mult[i, j])
            if expr and not (i == j and i in list(B.idem)
                             and expr == B.labels[i]):
                lines.append(
                    "mult %s * %s = %s"
                    % (B.labels[i], B.labels[j], expr)
                )
    n, counts = B.gabriel_quiver_report()
    lines.append("gabriel vertices %d" % n)
    for i in range(n):
        for j in range(n):
            if counts[i, j]:
                lines.append(
                    "gabriel arrows %d -> %d : %d" % (i + 1, j + 1,
                                                      int(counts[i, j]))
                )
    return "\n".join(lines) + "\n"


# ---- commands -------------------------------------------------------------


def _fixture_id(path):
    return os.path.splitext(os.path.basename(path))[0]


def _load(args):
    with open(args.algebra, "r", encoding="utf-8") as fh:
        atext = fh.read()
    field = parse_field(args.field) if args.field else None
    A = parse_algebra(atext, field)
    P = None
    if getattr(args, "complex", None):
        with open(args.complex, "r", encoding="utf-8") as fh:
            ctext = fh.read()
        _, P = parse_complex(ctext, A)
    return A, P


def _emit(args, report, extra_text=""):
    if args.report == "json":
        out = rep.emit_json(report)
        suffix = ".json"
    else:
        out = rep.emit_text(report) + extra_text
        suffix = ".txt"
    sys.stdout.write(out)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(
            args.out, "%s-%s%s" % (report["fixture"], args.command, suffix)
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    return 3 if rep.has_failure(report) else 0


def _witness_text(wit):
    if wit is None:
        return None
    ranks = {
        d: int(np.count_nonzero(np.concatenate(
            [m.reshape(-1) for m in wit.map_at(d).mats]
        )))
        for d in wit.maps
    }
    return "nonzero chain-map witness with entries in degrees %s" % (
        sorted(ranks),
    )


def cmd_check(args):
    A, P = _load(args)
    checks = []
    pre, wit = silting.is_presilting(P)
    checks.append(_verdict("presilting", pre, _witness_text(wit)))
    # P is decomposed once, and only when it is presilting.  A silting P
    # that is not tilting has a witness in Hom(P, P[-1]).
    sil = pre and silting.has_all_classes(P)
    til, wit = silting.negative_hom_vanishes(P) if sil else (False, None)
    checks.append(_verdict("silting", sil, None if pre
                           else "not presilting"))
    checks.append(_verdict("tilting", til, _witness_text(wit) if sil
                           else "not silting"))
    report = rep.make_report(
        _fixture_id(args.complex), field_name(A.field), checks
    )
    return _emit(args, report)


def _verdict(name, yes, witness):
    entry = {"name": name, "status": "certified",
             "dims": {"verdict": "yes" if yes else "no"}}
    if not yes and witness:
        entry["witness"] = witness
    return entry


def cmd_complete(args):
    _, P = _load(args)
    Q = silting.bongartz_complete(P)
    text = emit_complex(Q, _fixture_id(args.complex) + "_completed")
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(
            args.out, "%s-completed.cpx" % _fixture_id(args.complex)
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_endo(args):
    A, P = _load(args)
    ctx = silting.SiltingContext(P)
    n, counts = ctx.B.gabriel_quiver_report()
    checks = [
        {"name": "endo-dimension", "status": "pass",
         "dims": {"dim": ctx.B.dim, "classes": ctx.B.nclasses}},
        {"name": "gabriel-quiver", "status": "pass",
         "dims": {"vertices": n, "arrows": int(counts.sum())}},
        {"name": "induced-complex", "status": "pass",
         "dims": {"terms-%d" % d: len(c) for d, c in ctx.Q.classes.items()}},
    ]
    report = rep.make_report(
        _fixture_id(args.complex), field_name(A.field), checks
    )
    extra = emit_algebra_summary(ctx.B)
    extra += emit_complex(ctx.Q, _fixture_id(args.complex) + "_induced")
    return _emit(args, report, extra_text=extra)


def cmd_theorem(args):
    A, P = _load(args)
    ctx = silting.SiltingContext(P)
    checks = silting.verify_theorem(
        ctx, max_dim=args.battery_max_dim, cap=args.battery_cap,
        seed=args.seed,
    )
    report = rep.make_report(
        _fixture_id(args.complex), field_name(A.field), checks
    )
    return _emit(args, report)


def cmd_ar(args):
    A, P = _load(args)
    ctx = silting.SiltingContext(P)
    battery, cert = silting.module_battery(
        A, ctx.torsion_A, args.battery_max_dim, args.battery_cap, args.seed
    )
    checks = []
    for i in range(A.nclasses):
        checks.append(ar.connecting_term_check(ctx, i))
    for i in range(A.nclasses):
        if ar.stalk_in_add_p(ctx, i, 0) or ar.stalk_in_add_p(ctx, i, 1):
            continue
        checks.append(ar.connecting_sequence(ctx, i)[5])
    sp = ar.splitting_check(ctx, battery, cert)
    if sp["dims"].get("verdict") == "CERTIFIED-SPLITTING":
        battery_b, _ = silting.module_battery(
            ctx.B, ctx.torsion_B, args.battery_max_dim, args.battery_cap,
            args.seed,
        )
        checks.extend(ar.split_ar_report(ctx, battery, battery_b, sp))
    else:
        checks.append(sp)
    checks.append(ar.separating_check(ctx, battery, cert))
    report = rep.make_report(
        _fixture_id(args.complex), field_name(A.field), checks
    )
    return _emit(args, report)


def cmd_battery(args):
    A, _ = _load(args)
    battery, cert = silting.module_battery(
        A, None, args.battery_max_dim, args.battery_cap, args.seed
    )
    checks = [{
        "name": "battery", "status": "certified" if cert else "evidence",
        "dims": {"size": len(battery), "certified": int(cert)},
    }]
    for k, M in enumerate(battery):
        checks.append({
            "name": "module-%03d" % k, "status": "pass",
            "dims": {"total": M.total,
                     "dim-vector": list(M.dim_vector())},
        })
    report = rep.make_report(
        _fixture_id(args.algebra), field_name(A.field), checks
    )
    return _emit(args, report)


COMMANDS = {
    "check": cmd_check,
    "complete": cmd_complete,
    "endo": cmd_endo,
    "theorem": cmd_theorem,
    "ar": cmd_ar,
    "battery": cmd_battery,
}


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


@functools.lru_cache(maxsize=None)
def build_parser():
    """The `silt` argument parser, built once per process: `main` runs
    many times in one process under the tests and the benchmark worker,
    and parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="silt",
        description="two-term silting complexes and their endomorphism side",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("algebra", help="algebra file")
        if name != "battery":
            p.add_argument("complex", help="complex file")
        p.add_argument("--field", default=None,
                       help="override the file's field (Q or a prime)")
        p.add_argument("--report", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None,
                       help="directory for a copy of the output")
        if name in ("theorem", "ar", "battery"):  # they build batteries
            p.add_argument("--battery-max-dim", type=positive_int, default=30)
            p.add_argument("--battery-cap", type=positive_int, default=60)
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (silting.PreconditionError, alg_mod.NotNilpotentError,
            alg_mod.FieldTooSmallError, alg_mod.SplitNotFoundError) as exc:
        sys.stderr.write("precondition: %s\n" % exc)
        return 2
    except RuntimeError as exc:
        sys.stderr.write("invariant: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
