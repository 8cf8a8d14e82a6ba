"""Classification tables: enumerate involution invariants of both kinds for
every algebra and outer class, read labels, table entries and invariant
JSON as invariants, realize every label class of order at most two and
every conjugate-linear class as a concrete automorphism, and decide
membership of invariants in the set attached to a twist.

Classical rows are computed from the matrix models; exceptional rows come
from the static label data and are marked as such.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import SimpleAlgebra
from .autg import (
    InvLabel,
    _entry_word,
    identity_automorphism,
    label_out_word,
    outer_order,
    parse_label,
    standard_involution,
    standard_labels,
    standard_list,
)
from .cyclo import _json_bool, _json_int, _json_object
from .errors import (InvalidK, InvalidLabel, MalformedData, StaticOnlyAlgebra,
                     UnsupportedOrder)
from .loopaut import (
    ConjLinearInvariant,
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    _rotation,
    canonical_pair,
    conj_linear_extend,
)
from .pi0 import pair_k, pi0_row


class TableRow:
    """One table row: entries plus count and provenance, static for an
    exceptional algebra and computed for a classical one."""

    __slots__ = ("algebra", "k", "kind", "entries", "count")

    def __init__(self, algebra, k, kind, entries, count):
        self.algebra = algebra
        self.k = k
        self.kind = kind
        self.entries = entries
        self.count = count

    provenance = property(lambda self: "static" if self.algebra.is_exceptional
                          else "computed")

    def label(self):
        return "%s^(%d)" % (self.algebra.label(), self.k)

    def to_json(self):
        return {"algebra": self.label(), "kind": self.kind,
                "entries": [_entry_json(e) for e in self.entries],
                "count": self.count, "provenance": self.provenance}

    def render(self):
        lines = ["%s  kind %s  (%s)  count %s" % (self.label(), self.kind,
                                                  self.provenance, self.count)]
        for e in self.entries:
            lines.append("  " + _entry_text(e))
        return "\n".join(lines)

    def latex(self):
        """The row's lines of a three-column tabular."""
        return "\n".join("%s & %s & %s \\\\" % (self.label(), _entry_text(e),
                                                self.count)
                         for e in self.entries)


def _entry_json(e):
    if e[0] == "1a":
        return {"type": "1a", "rho": repr(e[1]), "sigma": e[2]}
    if e[0] == "1b":
        return {"type": "1b", "beta": e[1]}
    return {"type": "2", "pair": [repr(e[1]), repr(e[2])]}


def _entry_text(e):
    if e[0] == "1a":
        return "(%s, %s)" % (repr(e[1]), e[2])
    if e[0] == "1b":
        return "beta = %s" % e[1]
    return "[%s, %s]" % (repr(e[1]), repr(e[2]))


def valid_ks(algebra):
    """The outer orders of the algebra: those of the identity row."""
    return sorted(e.k for e in pi0_row(algebra, InvLabel(0)).entries)


def enumerate_first_kind(algebra, k):
    """Involutions of the first kind on the loop algebra with outer class of
    order k: pairs (rho, sigma) plus the beta-classes of translation type."""
    if k not in valid_ks(algebra):
        raise InvalidK("k = %d is not valid for %s" % (k, algebra.label()))
    entries_1a = [("1a", lab, e.rep) for lab in standard_list(algebra)
                  for e in pi0_row(algebra, lab).entries if e.k == k]
    # translation-type invariants (1, id, [beta]) live on the twist beta^2,
    # whose outer class has the order of word(beta)^2
    entries_1b = [("1b", e.rep) for e in pi0_row(algebra, InvLabel(0)).entries
                  if outer_order((_entry_word(e), 2)) == k]
    count = "%d+%d" % (len(entries_1a), len(entries_1b))
    return TableRow(algebra, k, "1", entries_1a + entries_1b, count)


def enumerate_second_kind(algebra, k):
    """Involutions of the second kind: canonical pairs [rho+, rho-] with
    outer product class of order k."""
    if k not in valid_ks(algebra):
        raise InvalidK("k = %d is not valid for %s" % (k, algebra.label()))
    # the involution-or-identity classes
    labels = [InvLabel(0)] + standard_labels(algebra)
    seen = set()
    entries = []
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            if pair_k(algebra, la, lb) != k:
                continue
            pair = canonical_pair(algebra, la, lb)
            if pair not in seen:
                seen.add(pair)
                entries.append(("2", pair[0], pair[1]))
    entries.sort(key=lambda e: ((e[1].p, e[1].prime), (e[2].p, e[2].prime)))
    return TableRow(algebra, k, "2", entries, len(entries))


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def first_kind_class(algebra, q, p, rho, rep):
    """The label invariant (p, rho, [beta]) at order q, with beta the
    component class named rep in the row of rho (p = 0) or of the identity
    (p != 0)."""
    row = rho if p == 0 else InvLabel(0)
    for e in pi0_row(algebra, row).entries:
        if e.rep == rep:
            return FirstKindInvariant(algebra, q, p, rho, e)
    raise InvalidLabel("no component class %r in the row of %r" % (rep, row))


def entry_invariant(algebra, entry):
    """The invariant of a table entry: (0, rho, [sigma]) or (1, id, [beta])
    at order two, or the pair [rho+, rho-] with its outer order."""
    if entry[0] == "1a":
        return first_kind_class(algebra, 2, 0, entry[1], entry[2])
    if entry[0] == "1b":
        return first_kind_class(algebra, 2, 1, InvLabel(0), entry[1])
    return SecondKindInvariant(algebra, 2, entry[1:],
                               pair_k(algebra, entry[1], entry[2]))


def invariant_from_json(obj):
    """The invariant that a `to_json` of `loopaut` writes, with its algebra
    added as a map carries it.  A first-kind class takes q = 2 and p = 0 by
    default and beta as a rep or {"rep": rep}; a pair is kept in the order
    given.  With "conj_linear": true it is the conjugate-linear class
    wrapping that compact class, whose q, if given, is the derived one: 2
    at p = 1, and at p = 0 1 for rho = id, else 2; its beta_conj must be
    p == 1."""
    _json_object(obj, "an invariant")
    algebra = SimpleAlgebra.from_json(obj.get("algebra"))
    conj = _json_bool(obj, "conj_linear")
    if _json_int(obj, "kind", allowed=(1, 2)) == 2:
        if not (isinstance(obj.get("pair"), list) and len(obj["pair"]) == 2):
            raise MalformedData("a second-kind pair holds two labels")
        pair = tuple(parse_label(algebra, x) for x in obj["pair"])
        k, outer = _json_int(obj, "k"), pair_k(algebra, *pair)
        if k != outer:
            raise MalformedData("k = %d is not the outer order %d of the pair"
                                % (k, outer))
        inv = SecondKindInvariant(algebra, _json_int(obj, "order", 2), pair, k)
    else:
        rho = parse_label(algebra, obj["rho"]) if obj.get("rho") else InvLabel(0)
        if "beta" not in obj:
            raise MalformedData("a first-kind invariant names its class beta")
        p = _json_int(obj, "p", 0)
        q = 2 if p or rho.p else 1  # a conjugate-linear class's, derived
        q = _json_int(obj, "q", q, (q,)) if conj else _json_int(obj, "q", 2)
        if not 0 <= p < q:
            raise MalformedData("p must satisfy 0 <= p < q = %d, not %d"
                                % (q, p))
        if conj and obj.get("beta_conj", p == 1) is not (p == 1):
            raise MalformedData("beta_conj must be %s at p = %d, not %.40r" % (
                "true" if p else "false", p, obj["beta_conj"]))
        beta = obj["beta"]
        inv = first_kind_class(algebra, q, p, rho, beta.get("rep")
                               if isinstance(beta, dict) else beta)
    return ConjLinearInvariant(inv) if conj else inv


def realize(inv):
    """Constant-curve automorphism whose invariant is inv, for every label
    class of order at most two: for (0, rho, [sigma]), u(t) -> rho(u(t)) on
    the loop algebra twisted by sigma, with rho = id at q = 1 and rho != id
    at q = 2; for (1, id, [beta]), u(t) -> beta^(-1) u(t + pi) on the twist
    beta^2; for [rho+, rho-], u(t) -> rho+(u(-t)) on the twist
    rho-^(-1) rho+; for a conjugate-linear class, the conjugate-linear
    extension of its compact class's realization.  Built unchecked: l is
    the twist's order, found here."""
    if isinstance(inv, ConjLinearInvariant):
        return conj_linear_extend(realize(inv.base))
    if not isinstance(inv, (FirstKindInvariant, SecondKindInvariant)):
        raise InvalidLabel("not an invariant: %r" % (inv,))
    algebra = inv.algebra
    algebra._need_matrix()
    if inv.raw:
        raise StaticOnlyAlgebra("certificate invariants are not realizable")
    if isinstance(inv, SecondKindInvariant):
        plus = standard_involution(algebra, inv.pair[0])
        minus = standard_involution(algebra, inv.pair[1])
        twist = minus.inverse().compose(plus)
        return StandardLoopAutomorphism(twist, twist.order(bound=64), -1, 0,
                                        None, plus, validate=False)
    if inv.q not in (1, 2):
        raise UnsupportedOrder("only order <= 2 label invariants realize")
    if inv.p == 0 and (inv.q == 1) != (inv.rho.p == 0):
        raise InvalidLabel("at p = 0, rho = id gives the class of order "
                           "q = 1 and every other rho one of order 2; "
                           "rho = %r has no class at q = %d" % (inv.rho, inv.q))
    if inv.beta.builder is None:
        raise StaticOnlyAlgebra("representative %r is static" % inv.beta.rep)
    beta = inv.beta.builder()
    if inv.p:
        twist = beta.compose(beta)
        return StandardLoopAutomorphism(twist, twist.order(bound=64), 1,
                                        Fraction(1, 2), None, beta.inverse(),
                                        validate=False)
    frame = pi0_row(algebra, inv.rho).frame() if inv.q == 2 \
        else identity_automorphism(algebra)
    return StandardLoopAutomorphism(beta, beta.order(bound=64), 1, 0, None,
                                    frame, validate=False)


def realize_entry(algebra, entry):
    """The realization of a table entry."""
    return realize(entry_invariant(algebra, entry))


def membership_condition(inv, k):
    """Whether the invariant belongs to the loop algebra twisted by an outer
    class of order k: the attached outer class must have that order.  A
    conjugate-linear class lies on the twist of the class it extends."""
    if isinstance(inv, ConjLinearInvariant):
        inv = inv.base
    if isinstance(inv, FirstKindInvariant):
        if inv.raw:
            raise StaticOnlyAlgebra("certificate invariants carry no label data")
        _, qprime, l, _ = _rotation(inv.p, inv.q)
        return outer_order((label_out_word(inv.algebra, inv.rho), l),
                           (_entry_word(inv.beta), qprime)) == k
    return inv.k == k
