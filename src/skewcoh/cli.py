"""Command-line front end.

Job files are a single JSON document:

    {"field": {"type": "prime", "p": 3}, "generator": [[1, 1], [0, 1]]}
    {"field": {"type": "rational"}, "generator": [[0, "1/2"], [2, 0]]}

The document takes exactly the keys "field" and "generator"; the field
takes "type" and, for a prime field, "p".  Any other key (a "p" in a
rational field, a top-level "max_order") is an input error, not ignored,
and so is a key given twice at any level, whose last value json would keep.
`--max-order` must be at least 1.

Subcommands: analyze (closed-form dimensions), compare (closed form vs
cochain-complex oracle), reps (distinguished representative bases), deform
(square bracket + confluence + Hilbert count for the worked 2-dimensional
deformation).  Only deform needs the rewriting layer (`skewcoh.deformation`),
and it loads that layer on first use, so the other commands never import it.

Exit codes: 0 pass, 1 verification failure, 2 input error.  The input
boundary gives 2: `main` (for `--max-order`), `load_job` and the
constructors that see nothing but the job (the field, the group, the
deform generator and prime) raise JobError for whatever the input can get
wrong.  A MemoryError, an input too large to check here, also exits 2.
A reader that closes standard output early (`skewcoh analyze job.json |
head -1`) gets no more output, nothing on stderr, and exit 141
(128 + SIGPIPE), as a command killed by the signal would give.  Any
other exception is a failed verification or a bug, and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .fields import Field
from .formula import full_report, nonmodular_crosscheck
from .group_action import (
    DEFAULT_ORDER_BOUND,
    CyclicGroup,
    group_from_generator,
    wedge_pairs,
)
from .linalg import Matrix
from .oracle import group_rows, oracle_report, representative_basis

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 128 + 13        # the reader closed standard output (128 + SIGPIPE)


class JobError(Exception):
    """The job cannot be run as given (exit 2)."""


def _from_input(construct, *args):
    """construct(*args) on values read from the job: what it rejects is the
    input's fault, so its ValueError, TypeError or ZeroDivisionError is a
    JobError."""
    try:
        return construct(*args)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise JobError(str(e)) from e


def _refuse_stray_keys(spec: dict, allowed, what: str) -> None:
    """A key outside `allowed` would be ignored, so it is an input error."""
    stray = sorted(set(spec) - set(allowed))
    if stray:
        raise JobError("unknown key %r in the %s; it takes %s"
                       % (stray[0], what, ", ".join('"%s"' % k for k in allowed)))


def _unique_keys(pairs) -> dict:
    """`object_pairs_hook` for a job: json keeps only the last value of a
    key given twice, so a repeated key, at any level, is an input error."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise JobError("duplicate key %r in the job" % (key,))
        doc[key] = value
    return doc


def load_job(path: str):
    """Read a job file; returns (Field, generator row lists)."""
    try:
        fh = open(path)
    except Exception as e:      # OSError, or ValueError for a NUL byte in the path
        raise JobError("cannot read %s: %s" % (path, e)) from e
    try:
        with fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise JobError("cannot read %s: %s" % (path, e)) from e
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError, or nesting too deep to parse
        raise JobError("bad JSON in %s: %s" % (path, e)) from e
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    _refuse_stray_keys(doc, ("field", "generator"), "job")
    fspec = doc.get("field")
    if not isinstance(fspec, dict) or "type" not in fspec:
        raise JobError('job needs "field": {"type": "prime", "p": ...} or {"type": "rational"}')
    if fspec["type"] == "prime":
        _refuse_stray_keys(fspec, ("type", "p"), "prime field")
        p = fspec.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise JobError('prime field needs an integer "p", got %r' % (p,))
        field = _from_input(Field.prime, p)
    elif fspec["type"] == "rational":
        _refuse_stray_keys(fspec, ("type",), "rational field")
        field = Field.rational()
    else:
        raise JobError("unknown field type %r" % (fspec["type"],))
    gen = doc.get("generator")
    if (not isinstance(gen, list) or not gen
            or any(not isinstance(r, list) or len(r) != len(gen) for r in gen)):
        raise JobError('"generator" must be a square matrix (list of equal-length rows)')
    return field, gen


def build_group(args) -> CyclicGroup:
    field, gen = load_job(args.job)
    return _from_input(group_from_generator, field, gen, args.max_order)


def group_summary(gr: CyclicGroup) -> dict:
    f = gr.field
    elements = []
    for i in range(gr.order):
        ed = gr.element(i)
        elements.append({
            "index": i,
            "codim": ed.codim,
            "chi_of_generator": f.to_str(ed.chi_of_generator),
            "det": f.to_str(gr.det(i)),
            "reflection": ed.codim == 1,
            "nondiagonalizable_reflection": ed.transvection,
        })
    return {
        "field": repr(f),
        "n": gr.n,
        "order": gr.order,
        "transfer_image_dim": gr.transfer().dim,
        "elements": elements,
    }


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(x, out: List[str], nl: str) -> None:
    """Append the text of x, as `json.dumps(x, indent=2)` writes it, to out;
    nl is the newline and indentation of x's own line.  Only str-keyed
    dicts, lists, tuples, str, int, bool and None are written: anything
    else, a float or a NamedTuple record included, is a TypeError, so no
    inexact value or unconverted record reaches an output."""
    if isinstance(x, str):
        out.append(_encode_str(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif type(x) is list or type(x) is tuple:     # a record is a tuple too
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        for k, v in enumerate(x):
            if k:
                out.append(sep)
            _write_json(v, out, inner)
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for k, (key, v) in enumerate(x.items()):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s" % type(key).__name__)
            if k:
                out.append(sep)
            out.append(_encode_str(key) + ": ")
            _write_json(v, out, inner)
        out.append(nl + "}")
    else:
        raise TypeError("Object of type %s is not written as JSON" % type(x).__name__)


def _print_json(doc: dict) -> None:
    """doc and a newline in one write, byte for byte as
    `json.dumps(doc, indent=2) + "\\n"`, which runs the pure-Python encoder
    whenever indent is set; `_write_json` builds the same text faster."""
    out: List[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))


def _print_group(gr: CyclicGroup, out) -> None:
    print("group: %s, n = %d, |G| = %d, dim im T = %d"
          % (repr(gr.field), gr.n, gr.order, gr.transfer().dim), file=out)
    for e in group_summary(gr)["elements"]:
        flags = []
        if e["nondiagonalizable_reflection"]:
            flags.append("nondiagonalizable reflection")
        elif e["reflection"]:
            flags.append("reflection")
        print("  g^%d: codim %d, chi_h(g) = %s, det = %s%s"
              % (e["index"], e["codim"], e["chi_of_generator"], e["det"],
                 (" [" + ", ".join(flags) + "]") if flags else ""), file=out)


def cmd_analyze(args) -> int:
    gr = build_group(args)
    rep = full_report(gr)
    nm = nonmodular_crosscheck(gr, rep) if args.nonmodular_check else None
    if args.json:
        doc = {"command": "analyze", "group": group_summary(gr), "formula": rep.to_dict()}
        if nm is not None:
            doc["nonmodular"] = nm.to_dict()
        _print_json(doc)
    else:
        _print_group(gr, sys.stdout)
        for s in rep.per_element:
            pieces = " + ".join("%d (%s)" % (d, name) for name, d in s.pieces)
            print("  g^%d [%s]: %s = %d" % (s.element_index, s.case, pieces, s.total))
        print("total dim = %d" % rep.total_dim)
        if nm is not None:
            print("nonmodular cross-check: %s (%d assertions)" % (nm.verdict, nm.checked))
            for v in nm.violations:
                print("  violation: %s" % v)
    if nm is not None and nm.verdict == "fail":
        return EXIT_FAIL
    return EXIT_PASS


def cmd_compare(args) -> int:
    gr = build_group(args)
    rep = full_report(gr)
    orc = oracle_report(gr)
    mismatches = []
    rows = []
    for s, o in zip(rep.per_element, orc):
        ok = s.total == o.hh_dim
        if not ok:
            mismatches.append(s.element_index)
        rows.append({"index": s.element_index, "formula": s.total,
                     "oracle": o.hh_dim, "z_dim": o.z_dim, "b_dim": o.b_dim,
                     "agree": ok})
    verdict = "pass" if not mismatches else "fail"
    if args.json:
        _print_json({"command": "compare", "group": group_summary(gr),
                     "formula": rep.to_dict(),
                     "oracle": rows,
                     "verdict": verdict})
    else:
        _print_group(gr, sys.stdout)
        for r in rows:
            print("  g^%(index)d: formula %(formula)d, oracle %(oracle)d "
                  "(Z %(z_dim)d / B %(b_dim)d) %(mark)s"
                  % dict(r, mark="ok" if r["agree"] else "MISMATCH"))
        print("total dim = %d; verdict: %s" % (rep.total_dim, verdict))
    return EXIT_PASS if verdict == "pass" else EXIT_FAIL


def _rep_to_dict(gr: CyclicGroup, c) -> dict:
    f = gr.field
    return {
        "lambda": [f.to_str(x) for x in c.lam],
        "lambda_tag": "g^%d" % ((c.element_index + 1) % gr.order),
        "alpha": {"e%d^e%d" % (a + 1, b + 1): [f.to_str(x) for x in c.alpha[w]]
                  for w, (a, b) in enumerate(wedge_pairs(gr.n))},
        "alpha_tag": "g^%d" % c.element_index,
    }


def cmd_reps(args) -> int:
    gr = build_group(args)
    record = group_rows(gr)
    out = []
    for i in range(gr.order):
        basis = representative_basis(gr, i, record)
        out.append({"index": i, "h": "g^%d" % i,
                    "hg": "g^%d" % ((i + 1) % gr.order),
                    "codim": gr.element(i).codim,
                    "hh_dim": len(basis),
                    "basis": [_rep_to_dict(gr, c) for c in basis]})
    if args.json:
        _print_json({"command": "reps", "group": group_summary(gr), "elements": out})
    else:
        _print_group(gr, sys.stdout)
        for e in out:
            print("element %(h)s (codim %(codim)d): %(hh_dim)d representative(s)" % e)
            for k, r in enumerate(e["basis"]):
                print("  rep %d:" % (k + 1))
                print("    lambda at hg = %s: [%s]" % (e["hg"], ", ".join(r["lambda"])))
                for key in r["alpha"]:      # wedge_pairs order, as in --json
                    print("    alpha  at h  = %s: %s -> [%s]"
                          % (e["h"], key, ", ".join(r["alpha"][key])))
    return EXIT_PASS


def cmd_deform(args) -> int:
    # the rewriting layer is loaded here, on first use: no other command needs it
    from .deformation import (TRANSVECTION, builtin_transvection_gamma, confluence_check,
                              hilbert_check, orbifold_algebra, square_bracket_transvection)

    if args.job is not None and args.deform_prime is not None:
        raise JobError("deform takes a job file or --deform-prime, not both")
    if args.deform_prime is not None:
        p = args.deform_prime
    elif args.job is not None:
        field, gen = load_job(args.job)
        if field.char == 0:
            raise JobError("deform needs a prime field")
        p = field.char
        # refused before the tables, which are Theta(p^2), are built
        if _from_input(Matrix, field, gen) != Matrix(field, TRANSVECTION):
            raise JobError("deform covers the worked example generator %s over F_p; "
                           "pass that job or use --deform-prime"
                           % json.dumps(TRANSVECTION, separators=(",", ":")))
    else:
        raise JobError("deform needs a job file or --deform-prime")
    params = _from_input(builtin_transvection_gamma, p, args.max_order)
    f = params.group.field
    bracket = square_bracket_transvection(params)
    bracket_zero = not any(map(any, bracket))
    rs = orbifold_algebra(params)
    conf = confluence_check(rs)
    dim = hilbert_check(rs, 4, confluence=conf) if conf.ok else None
    # the output needs neither the system, with its cached reducts, nor
    # the dense tables: free them before it is written
    del params, rs
    ok = bracket_zero and conf.ok
    if args.json:
        doc = {
            "command": "deform", "prime": p,
            "bracket": [[f.to_str(x) for x in v] for v in bracket],
            "bracket_zero": bracket_zero,
            "confluence": {"ok": conf.ok, "words_checked": conf.words_checked,
                           "witness": conf.witness,
                           "witness_forms": list(conf.witness_forms)},
            "hilbert": None if dim is None else
                {"ok": True, "degree": 4, "count": dim, "expected": dim},
            "verdict": "pass" if ok else "fail",
        }
        _print_json(doc)
    else:
        print("deformation check for the transvection action over F_%d" % p)
        print("  square bracket values: %s"
              % ("all zero" if bracket_zero else "NONZERO at "
                 + ", ".join("i=%d" % i for i, v in enumerate(bracket)
                             if any(x != 0 for x in v))))
        print("  confluence on overlaps (length <= 3): %s (%d words)"
              % ("pass" if conf.ok else "FAIL", conf.words_checked))
        if not conf.ok:
            print("    witness word: %s" % conf.witness)
            for wf in conf.witness_forms:
                print("      normal form: %s" % wf)
        if dim is not None:
            print("  Hilbert count at degree 4: %d (expected %d) pass" % (dim, dim))
        print("verdict: %s" % ("pass" if ok else "fail"))
    return EXIT_PASS if ok else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main` call:
    parse_args reads it without changing it, and each call gets a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="skewcoh",
        description="Exact graded-deformation dimensions for S(V) x| G, cyclic G.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, job_required=True):
        if job_required:
            p.add_argument("job", help="path to a JSON job file")
        else:
            p.add_argument("job", nargs="?", default=None,
                           help="path to a JSON job file (worked-example generator)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_BOUND, metavar="K",
                       help="cap on the group order (default: %(default)s)")

    p = sub.add_parser("analyze", help="closed-form dimension report")
    common(p)
    p.add_argument("--nonmodular-check", action="store_true",
                   help="cross-check against the coprime-order statements")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="closed form vs cochain-complex oracle")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reps", help="distinguished representative bases")
    common(p)
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("deform", help="square bracket, confluence, Hilbert count")
    common(p, job_required=False)
    p.add_argument("--deform-prime", type=int, default=None, metavar="p",
                   help="run the builtin worked example over F_p")
    p.set_defaults(func=cmd_deform)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_order < 1:
            raise JobError("--max-order must be at least 1, got %d" % args.max_order)
        code = args.func(args)
        sys.stdout.flush()          # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; point stdout at the null device
        # so that the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except JobError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large for this machine", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
