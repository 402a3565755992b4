"""Command-line front end.

Job files are a single JSON document:

    {"field": {"type": "prime", "p": 3}, "generator": [[1, 1], [0, 1]]}
    {"field": {"type": "rational"}, "generator": [["1/2", 0], [0, 2]]}

Subcommands: analyze (closed-form dimensions), compare (closed form vs
cochain-complex oracle), reps (distinguished representative bases), deform
(square bracket + confluence + Hilbert count for the worked 2-dimensional
deformation).  Exit codes: 0 pass, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .deformation import (
    PrerequisiteFailed,
    UnsupportedKappaShape,
    builtin_transvection_gamma,
    confluence_check,
    hilbert_check,
    orbifold_algebra,
    square_bracket_transvection,
)
from .fields import CharacteristicTwoError, Field, NotInvertibleError
from .formula import full_report, nonmodular_crosscheck
from .group_action import (
    CyclicGroup,
    NotGStableError,
    OrderExceedsBoundError,
    group_from_generator,
    wedge_pairs,
)
from .linalg import Matrix
from .oracle import oracle_report, representative_basis

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class JobError(ValueError):
    pass


def load_job(path: str):
    """Read a job file; returns (Field, generator row lists, raw dict)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise JobError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise JobError("bad JSON in %s: %s" % (path, e))
    if not isinstance(doc, dict):
        raise JobError("job document must be a JSON object")
    fspec = doc.get("field")
    if not isinstance(fspec, dict) or "type" not in fspec:
        raise JobError('job needs "field": {"type": "prime", "p": ...} or {"type": "rational"}')
    if fspec["type"] == "prime":
        p = fspec.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise JobError('prime field needs an integer "p", got %r' % (p,))
        field = Field.prime(p)
    elif fspec["type"] == "rational":
        field = Field.rational()
    else:
        raise JobError("unknown field type %r" % (fspec["type"],))
    gen = doc.get("generator")
    if (not isinstance(gen, list) or not gen
            or any(not isinstance(r, list) or len(r) != len(gen) for r in gen)):
        raise JobError('"generator" must be a square matrix (list of equal-length rows)')
    return field, gen, doc


def build_group(args) -> CyclicGroup:
    field, gen, _ = load_job(args.job)
    return group_from_generator(field, gen, order_bound=args.max_order)


def group_summary(gr: CyclicGroup) -> dict:
    f = gr.field
    elements = []
    for i in range(gr.order):
        ed = gr.element(i)
        elements.append({
            "index": i,
            "codim": ed.codim,
            "chi_of_generator": f.to_str(ed.chi_of_generator),
            "det": f.to_str(ed.det),
            "reflection": gr.is_reflection(i),
            "nondiagonalizable_reflection": gr.is_nondiagonalizable_reflection(i),
        })
    t = gr.transfer()
    return {
        "field": repr(f),
        "n": gr.n,
        "order": gr.order,
        "transfer_image_dim": t.image.dim,
        "elements": elements,
    }


def _print_group(gr: CyclicGroup, out) -> None:
    t = gr.transfer()
    print("group: %s, n = %d, |G| = %d, dim im T = %d"
          % (repr(gr.field), gr.n, gr.order, t.image.dim), file=out)
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
        json.dump(doc, sys.stdout, indent=2)
        print()
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
        json.dump({"command": "compare", "group": group_summary(gr),
                   "formula": rep.to_dict(),
                   "oracle": rows,
                   "verdict": verdict}, sys.stdout, indent=2)
        print()
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
    out = []
    for i in range(gr.order):
        basis = representative_basis(gr, i)
        out.append({"index": i, "h": "g^%d" % i,
                    "hg": "g^%d" % ((i + 1) % gr.order),
                    "codim": gr.element(i).codim,
                    "hh_dim": len(basis),
                    "basis": [_rep_to_dict(gr, c) for c in basis]})
    if args.json:
        json.dump({"command": "reps", "group": group_summary(gr), "elements": out},
                  sys.stdout, indent=2)
        print()
    else:
        _print_group(gr, sys.stdout)
        for e in out:
            print("element %(h)s (codim %(codim)d): %(hh_dim)d representative(s)" % e)
            for k, r in enumerate(e["basis"]):
                print("  rep %d:" % (k + 1))
                print("    lambda at hg = %s: [%s]" % (e["hg"], ", ".join(r["lambda"])))
                for key in sorted(r["alpha"]):
                    print("    alpha  at h  = %s: %s -> [%s]"
                          % (e["h"], key, ", ".join(r["alpha"][key])))
    return EXIT_PASS


def _transvection_prime_from_job(args) -> int:
    field, gen, _ = load_job(args.job)
    if field.char == 0:
        raise JobError("deform needs a prime field")
    p = field.char
    m = Matrix(field, gen)
    expected = Matrix(field, [[1, 1], [0, 1]])
    if m != expected:
        raise JobError("deform covers the worked example generator [[1,1],[0,1]] over F_p; "
                       "pass that job or use --deform-prime")
    return p


def cmd_deform(args) -> int:
    if args.deform_prime is not None:
        p = args.deform_prime
    elif args.job is not None:
        p = _transvection_prime_from_job(args)
    else:
        raise JobError("deform needs a job file or --deform-prime")
    params = builtin_transvection_gamma(p)
    f = params.group.field
    bracket = square_bracket_transvection(params)
    bracket_zero = all(all(x == 0 for x in v) for v in bracket)
    rs = orbifold_algebra(params)
    conf = confluence_check(rs, max_overlap_len=3)
    hil = hilbert_check(rs, 4, confluence=conf) if conf.ok else None
    ok = bracket_zero and conf.ok and hil is not None and hil.ok
    if args.json:
        doc = {
            "command": "deform", "prime": p,
            "bracket": [[f.to_str(x) for x in v] for v in bracket],
            "bracket_zero": bracket_zero,
            "confluence": {"ok": conf.ok, "words_checked": conf.words_checked,
                           "witness": conf.witness,
                           "witness_forms": list(conf.witness_forms)},
            "hilbert": None if hil is None else
                {"ok": hil.ok, "degree": hil.degree,
                 "count": hil.count, "expected": hil.expected},
            "verdict": "pass" if ok else "fail",
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
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
        if hil is not None:
            print("  Hilbert count at degree 4: %d (expected %d) %s"
                  % (hil.count, hil.expected, "pass" if hil.ok else "FAIL"))
        print("verdict: %s" % ("pass" if ok else "fail"))
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--max-order", type=int, default=None, metavar="K",
                       help="cap on the group order (default: SKEWCOH_MAX_ORDER or 10000)")

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
        return args.func(args)
    except (JobError, CharacteristicTwoError, NotInvertibleError,
            OrderExceedsBoundError, NotGStableError, UnsupportedKappaShape,
            ValueError, TypeError, ZeroDivisionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except (PrerequisiteFailed, AssertionError) as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
