"""Command line front end: table generation, invariant computation,
conjugacy testing, realization, real forms and the self-verification suite.

All numeric payloads in the JSON formats are exact strings ("3/4"); nothing
is ever emitted as a float.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from .algebra import CLASSICAL, EXCEPTIONAL, SimpleAlgebra, make_algebra
from .autg import parse_label
from .errors import KmautError, MalformedData
from .loopaut import (
    SecondKindInvariant,
    StandardLoopAutomorphism,
    canonical_pair,
    conjugacy_test,
    invariant,
)
from .realforms import real_form_basis
from .tables import (
    enumerate_first_kind,
    enumerate_second_kind,
    invariant_from_json,
    realize,
    valid_ks,
)


def _emit(args, payload, text_fn=None, latex_fn=None):
    """JSON, or the text or latex form where the verb has an --emit option;
    a payload given as a function is made only for JSON."""
    fn = {"text": text_fn, "latex": latex_fn}.get(getattr(args, "emit", None))
    print(fn() if fn else json.dumps(payload() if callable(payload) else payload,
                                     indent=2, sort_keys=True))


def cmd_tables(args):
    algebra = make_algebra(args.family, args.n)
    ks = [args.k] if args.k else valid_ks(algebra)
    kinds = [args.kind] if args.kind else [1, 2]
    rows = []
    for kind in kinds:
        for k in ks:
            rows.append(enumerate_first_kind(algebra, k) if kind == 1
                        else enumerate_second_kind(algebra, k))
    _emit(args, [r.to_json() for r in rows],
          text_fn=lambda: "\n".join(r.render() for r in rows),
          latex_fn=lambda: "\n".join([r"\begin{tabular}{lll}"] + [
              r.latex() for r in rows if r.entries] + [r"\end{tabular}"]))
    return 0


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_invariant(args):
    phi = StandardLoopAutomorphism.from_json(_load(args.infile))
    _emit(args, invariant(phi).to_json())
    return 0


def cmd_conjugate(args):
    a = StandardLoopAutomorphism.from_json(_load(args.a))
    b = StandardLoopAutomorphism.from_json(_load(args.b))
    verdict = conjugacy_test(a, b)
    _emit(args, {"result": verdict})
    return 0


def cmd_realize(args):
    """Realize an invariant, and emit the realization only if its invariant
    reads back as the one asked for (a second-kind pair in canonical
    form, of either linearity)."""
    inv = invariant_from_json(_load(args.infile))
    phi = realize(inv)
    base = getattr(inv, "base", inv)
    if isinstance(base, SecondKindInvariant):
        base.pair = canonical_pair(base.algebra, *base.pair)
    got = invariant(phi)
    if got != inv:
        raise MalformedData("%r is not realized: its realization reads back "
                            "as %r" % (inv, got))
    _emit(args, phi.to_json())
    return 0


def cmd_realform(args):
    algebra = SimpleAlgebra.from_label(args.algebra)
    labels = [s.strip() for s in args.pair.split(",")]
    if len(labels) != 2:
        raise KmautError("--pair wants two labels, e.g. 'mu,id'")
    pair = tuple(parse_label(algebra, s) for s in labels)
    basis = real_form_basis(algebra, pair, N=args.window)
    closed = basis.closed_under_bracket()

    def payload():  # the elements are written for JSON only
        return {
            "algebra": algebra.to_json(),
            "pair": [repr(x) for x in pair],
            "l": basis.l,
            "window": basis.window,
            "coefficient_dims": {str(k): v for k, v in
                                 sorted(basis.coefficient_dims().items())},
            "bracket_closed": closed,
            "basis": [b.to_json() for b in basis.basis],
        }

    def latex_fn():
        lines = [r"\begin{tabular}{ll}"]
        for n, d in sorted(basis.coefficient_dims().items()):
            lines.append(r"$n = %d$ & $\dim = %d$ \\" % (n, d))
        lines.append(r"\end{tabular}")
        return "\n".join(lines)

    def text_fn():
        dims = ", ".join("%d: %d" % kv
                         for kv in sorted(basis.coefficient_dims().items()))
        return ("real form for pair [%s, %s] on %s\n"
                "conductor %d, window %d, bracket closed: %s\n"
                "coefficient dims: %s"
                % (repr(pair[0]), repr(pair[1]), algebra.label(), basis.l,
                   basis.window, closed, dims))

    _emit(args, payload, text_fn=text_fn, latex_fn=latex_fn)
    return 0


def cmd_selftest(args):
    from .selftest import run_all
    results = run_all()
    failed = [r for r in results if not r[1]]
    print("%d/%d criteria passed" % (len(results) - len(failed), len(results)))
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="kmaut",
        description="Exact classification machinery for finite-order "
                    "automorphisms and real forms of twisted loop and "
                    "affine Kac-Moody algebras.")
    sub = p.add_subparsers(dest="verb", required=True)

    t = sub.add_parser("tables", help="emit classification table rows")
    t.add_argument("--family", required=True, choices=CLASSICAL + EXCEPTIONAL)
    t.add_argument("--n", type=int)
    t.add_argument("--k", type=int, choices=[1, 2, 3])
    t.add_argument("--kind", type=int, choices=[1, 2])
    t.add_argument("--emit", choices=["json", "text", "latex"], default="json")
    t.set_defaults(fn=cmd_tables)

    i = sub.add_parser("invariant", help="invariant of a serialized automorphism")
    i.add_argument("--in", dest="infile", required=True)
    i.set_defaults(fn=cmd_invariant)

    c = sub.add_parser("conjugate", help="decide conjugacy of two automorphisms")
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.set_defaults(fn=cmd_conjugate)

    r = sub.add_parser("realize", help="realize an invariant as an automorphism")
    r.add_argument("--in", dest="infile", required=True)
    r.set_defaults(fn=cmd_realize)

    f = sub.add_parser("realform", help="window basis of a real form")
    f.add_argument("--pair", required=True)
    f.add_argument("--algebra", required=True,
                   help="algebra label like a1, d4, e6")
    f.add_argument("--window", type=int)
    f.add_argument("--emit", choices=["json", "text", "latex"], default="json")
    f.set_defaults(fn=cmd_realform)

    s = sub.add_parser("selftest", help="run the verification suite")
    s.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
        if code != 0:
            print(json.dumps({"error": "argument parsing failed"}))
        return code
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: the rest goes to the null device, quietly
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1
    except KmautError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": "%s: %s" % (type(exc).__name__, exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
