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
from .algebra import CLASSICAL, EXCEPTIONAL
from .autg import InvLabel, parse_label
from .cyclo import _json_int
from .errors import KmautError, MalformedData
from .loopaut import (
    SecondKindInvariant,
    StandardLoopAutomorphism,
    canonical_pair,
    conjugacy_test,
    invariant,
)
from .pi0 import pair_k
from .realforms import real_form_basis
from .tables import (
    _entry_text,
    algebra_from_args,
    algebra_from_label,
    enumerate_first_kind,
    enumerate_second_kind,
    first_kind_class,
    realize,
    valid_ks,
)


def _emit(args, payload, text_fn=None, latex_fn=None):
    """JSON, or the text or latex form where the verb has an --emit option;
    a payload given as a function is made only for JSON."""
    fn = {"text": text_fn, "latex": latex_fn}.get(getattr(args, "emit", None))
    print(fn() if fn else json.dumps(payload() if callable(payload) else payload,
                                     indent=2, sort_keys=True))


def _row_latex(rows):
    lines = [r"\begin{tabular}{lll}"]
    for row in rows:
        for e in row.entries:
            lines.append("%s & %s & %s \\\\" % (row.label(), _entry_text(e),
                                                row.count))
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


def cmd_tables(args):
    algebra = algebra_from_args(args.family, args.n)
    ks = [args.k] if args.k else list(valid_ks(algebra))
    kinds = [args.kind] if args.kind else [1, 2]
    rows = []
    for kind in kinds:
        for k in ks:
            rows.append(enumerate_first_kind(algebra, k) if kind == 1
                        else enumerate_second_kind(algebra, k))
    _emit(args, [r.to_json() for r in rows],
          text_fn=lambda: "\n".join(r.render() for r in rows),
          latex_fn=lambda: _row_latex(rows))
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


def _invariant_from_json(obj):
    if not (isinstance(obj, dict) and isinstance(obj.get("algebra"), dict)
            and isinstance(obj["algebra"].get("family"), str)):
        raise MalformedData("an invariant is an object with an algebra object")
    n = obj["algebra"].get("n")
    if n is not None:
        n = _json_int(obj["algebra"], "n")
    algebra = algebra_from_args(obj["algebra"]["family"], n)
    if _json_int(obj, "kind", allowed=(1, 2)) == 1:
        rho = parse_label(algebra, obj["rho"]) if obj.get("rho") else InvLabel(0)
        if "beta" not in obj:
            raise MalformedData("a first-kind invariant names its class beta")
        beta = obj["beta"]
        q, p = _json_int(obj, "q", 2), _json_int(obj, "p", 0)
        if not 0 <= p < q:
            raise MalformedData("p must satisfy 0 <= p < q = %d, not %d" % (q, p))
        rep = beta.get("rep") if isinstance(beta, dict) else beta
        return first_kind_class(algebra, q, p, rho, rep)
    if not (isinstance(obj.get("pair"), list) and len(obj["pair"]) == 2):
        raise MalformedData("a second-kind pair holds two labels")
    pair = tuple(parse_label(algebra, x) for x in obj["pair"])
    k, outer = _json_int(obj, "k"), pair_k(algebra, *pair)
    if k != outer:
        raise MalformedData("k = %d is not the outer order %d of the pair"
                            % (k, outer))
    return SecondKindInvariant(algebra, _json_int(obj, "order", 2), pair, k)


def cmd_realize(args):
    """Realize an invariant, and emit the realization only if its invariant
    reads back as the one asked for (a second-kind pair in canonical
    form)."""
    inv = _invariant_from_json(_load(args.infile))
    phi = realize(inv)
    want = inv
    if isinstance(inv, SecondKindInvariant):
        want = SecondKindInvariant(inv.algebra, inv.order,
                                   canonical_pair(inv.algebra, *inv.pair), inv.k)
    got = invariant(phi)
    if got != want:
        raise MalformedData("%r is not realized: its realization reads back "
                            "as %r" % (want, got))
    _emit(args, phi.to_json())
    return 0


def cmd_realform(args):
    algebra = algebra_from_label(args.algebra)
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
