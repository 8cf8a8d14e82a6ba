"""Classification tables: enumerate involution invariants of both kinds for
every algebra and outer class, read labels and table entries as invariants,
realize every label class of order at most two as a concrete automorphism,
and decide membership of invariants in the set attached to a twist.

Classical rows are computed from the matrix models; exceptional rows come
from the static label data and are marked as such.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import CLASSICAL, EXCEPTIONAL, make_algebra
from .autg import (
    InvLabel,
    _entry_word,
    identity_automorphism,
    label_out_word,
    outer_order,
    standard_involution,
    standard_labels,
    standard_list,
)
from .errors import InvalidK, InvalidLabel, StaticOnlyAlgebra, UnsupportedOrder
from .loopaut import (
    ConjLinearInvariant,
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    _rotation,
    canonical_pair,
)
from .pi0 import pair_k, pi0_row


class TableRow:
    """One table row: entries plus count and provenance."""

    __slots__ = ("algebra", "k", "kind", "entries", "count", "provenance")

    def __init__(self, algebra, k, kind, entries, count, provenance):
        self.algebra = algebra
        self.k = k
        self.kind = kind
        self.entries = entries
        self.count = count
        self.provenance = provenance

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


def _provenance(algebra):
    return "static" if algebra.is_exceptional else "computed"


def enumerate_first_kind(algebra, k):
    """Involutions of the first kind on the loop algebra with outer class of
    order k: pairs (rho, sigma) plus the beta-classes of translation type."""
    if k not in valid_ks(algebra):
        raise InvalidK("k = %d is not valid for %s" % (k, algebra.label()))
    entries_1a = []
    for lab in standard_list(algebra):
        row = pi0_row(algebra, lab)
        for e in row.entries:
            if e.k == k:
                entries_1a.append(("1a", lab, e.rep))
    entries_1b = []
    for e in pi0_row(algebra, InvLabel(0)).entries:
        # translation-type invariants (1, id, [beta]) live on the twist
        # beta^2, whose outer class has the order of word(beta)^2
        if outer_order((_entry_word(e), 2)) == k:
            entries_1b.append(("1b", e.rep))
    count = "%d+%d" % (len(entries_1a), len(entries_1b))
    return TableRow(algebra, k, "1", entries_1a + entries_1b, count,
                    _provenance(algebra))


def second_kind_label_set(algebra):
    """Involution-or-identity class labels entering second-kind pairs."""
    return [InvLabel(0)] + standard_labels(algebra)


def enumerate_second_kind(algebra, k):
    """Involutions of the second kind: canonical pairs [rho+, rho-] with
    outer product class of order k."""
    if k not in valid_ks(algebra):
        raise InvalidK("k = %d is not valid for %s" % (k, algebra.label()))
    labels = second_kind_label_set(algebra)
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
    return TableRow(algebra, k, "2", entries, len(entries),
                    _provenance(algebra))


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def _row_entry(algebra, rho_label, rep):
    """The entry named rep in the component row of rho_label."""
    for e in pi0_row(algebra, rho_label).entries:
        if e.rep == rep:
            return e
    raise InvalidLabel("no component class %r in the row of %r"
                       % (rep, rho_label))


def _component_rep(algebra, rho_label, rep):
    """The representative automorphism of a component class."""
    e = _row_entry(algebra, rho_label, rep)
    if e.builder is None:
        raise StaticOnlyAlgebra("representative %r is static" % rep)
    return e.builder()


def first_kind_class(algebra, q, p, rho, rep):
    """The label invariant (p, rho, [beta]) at order q, with beta the
    component class named rep in the row of rho (p = 0) or of the identity
    (p != 0)."""
    row = rho if p == 0 else InvLabel(0)
    return FirstKindInvariant(algebra, q, p, rho, _row_entry(algebra, row, rep))


def entry_invariant(algebra, entry):
    """The invariant of a table entry: (0, rho, [sigma]) or (1, id, [beta])
    at order two, or the pair [rho+, rho-] with its outer order."""
    if entry[0] == "1a":
        return first_kind_class(algebra, 2, 0, entry[1], entry[2])
    if entry[0] == "1b":
        return first_kind_class(algebra, 2, 1, InvLabel(0), entry[1])
    return SecondKindInvariant(algebra, 2, entry[1:],
                               pair_k(algebra, entry[1], entry[2]))


def realize(inv):
    """Constant-curve automorphism whose invariant is inv, for every label
    class of order at most two: for (0, rho, [sigma]), u(t) -> rho(u(t)) on
    the loop algebra twisted by sigma, with rho = id at q = 1 and rho != id
    at q = 2; for (1, id, [beta]), u(t) -> beta^(-1) u(t + pi) on the twist
    beta^2; for [rho+, rho-], u(t) -> rho+(u(-t)) on the twist
    rho-^(-1) rho+.  Built unchecked: l is the twist's order, found here."""
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
    beta = _component_rep(algebra, inv.beta.rho, inv.beta.rep)
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


# ---------------------------------------------------------------------------
# all supported algebras
# ---------------------------------------------------------------------------

def algebra_from_args(family, n=None):
    """The compact algebra of a family and, for a classical one, a rank."""
    family = family.lower()
    if family in CLASSICAL:
        if n is None:
            raise InvalidLabel("classical families need a rank")
        return make_algebra(family, int(n))
    return make_algebra(family)


def algebra_from_label(label):
    """The compact algebra named like a1, d4 or e6."""
    label = label.strip().lower()
    if label in EXCEPTIONAL:
        return make_algebra(label)
    rank = label[1:]
    if not (label[:1] in CLASSICAL and rank.isascii() and rank.isdigit()):
        raise InvalidLabel("unknown algebra %r: expected a classical family "
                           "and rank such as a1 or d4, or one of %s"
                           % (label, ", ".join(EXCEPTIONAL)))
    return make_algebra(label[0], int(rank))

