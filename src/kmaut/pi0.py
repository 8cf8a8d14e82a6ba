"""Component groups of involution centralizers: representative rows and the
discrete signatures that decide which component a commuting automorphism
lies in.

Signatures are frame-free: they are built from the central scalar of the
group commutator of the two matrix parts, from determinants of eigenblock
restrictions, and from the outer word; all of these are invariant under
simultaneous conjugation and choice of representative.  Ad(G) = Ad(c G), so
a rule must not see the scale of a matrix, and every rule reads ratios in
which it cancels.  The a and c rules read a commutator scalar, over the
scalar G^2 of rho's matrix where an outer beta leaves rho's scale squared
in it.  The b and d rules read beta's eigenblock determinants over the
power of its form scalar s_B that makes them +-1: det(B|V) / s_B^(dim V/2)
on a block V of even dimension, else only det(B) / s_B^(m/2), on the
eigenspaces of rho's unit involution S d / tr(S) (d the rational root of
tr(S)^2 / s).  A traceless S of so(4k) has no such unit; there the block
determinants are read off the even part of a determinant polynomial.  No
rule takes a square root, so a matrix at any scale has the signature of
the unscaled one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import _KEYS_CACHED, tau_matrix
from .autg import (
    Automorphism,
    InvLabel,
    _classes,
    _form_scalar,
    _scalar_ratio,
    _unit_trace,
    identity_automorphism,
    involution_int_class,
    label_out_word,
    mu_automorphism,
    outer_order,
    standard_involution,
    triality_automorphism,
)
from .cyclo import CycloMatrix
from .errors import (
    InvalidLabel,
    NonCommuting,
    NoSignatureRule,
    Unclassifiable,
)


class ComponentClass:
    """Component of the centralizer of the involution class rho, as its row
    holds it: the representative's name rep and outer order k, a function
    that returns the representative (None where only static data exist) and
    signatures it carries besides the one read off its map.  Equal on
    (rho, rep, k)."""

    __slots__ = ("rho", "rep", "k", "builder", "extra_sigs", "_sig_cache")

    def __init__(self, rho, rep, k, builder, extra_sigs):
        self.rho = rho
        self.rep = rep
        self.k = k
        self.builder = builder
        self.extra_sigs = tuple(extra_sigs)
        self._sig_cache = None

    def __eq__(self, other):
        return (isinstance(other, ComponentClass)
                and (self.rho, self.rep, self.k) == (other.rho, other.rep, other.k))

    def __hash__(self):
        return hash((self.rho, self.rep, self.k))

    def __repr__(self):
        return "ComponentClass(%s | %s, k=%d)" % (self.rho, self.rep, self.k)


class Pi0Row:
    __slots__ = ("algebra", "rho_label", "frame_builder", "entries", "_frame")

    def __init__(self, algebra, rho_label, frame_builder, entries):
        self.algebra = algebra
        self.rho_label = rho_label
        self.frame_builder = frame_builder
        self.entries = entries
        self._frame = None

    def frame(self):
        if self._frame is None and self.frame_builder is not None:
            self._frame = self.frame_builder()
        return self._frame

    def entry_signatures(self, entry):
        if entry._sig_cache is None:
            sigs = set(entry.extra_sigs)
            if entry.builder is not None and self.frame() is not None:
                sig = raw_signature(self.frame(), entry.builder())
                if sig is not None:
                    sigs.add(sig)
            entry._sig_cache = sigs
        return entry._sig_cache


# One row per (algebra, involution label): a sweep over the classification
# tables of a2-a7, b2-b5, c3-c6 and d4-d8 keys about a hundred, which all stay.
_ROWS_CACHED = 4 * _KEYS_CACHED


@lru_cache(maxsize=_ROWS_CACHED)
def pi0_row(algebra, rho_label):
    return _build_row(algebra, rho_label)


def id_row_class(algebra, k):
    """The component class of outer order k in the row of rho = id."""
    return next(e for e in pi0_row(algebra, InvLabel(0)).entries if e.k == k)


def pi0_table(algebra, rho_label):
    """Representatives of the centralizer components of the involution class:
    list of (label, k, representative Automorphism or None)."""
    if isinstance(rho_label, str):
        from .autg import parse_label
        rho_label = parse_label(algebra, rho_label)
    row = pi0_row(algebra, rho_label)
    return [(e.rep, e.k, e.builder() if e.builder is not None else None)
            for e in row.entries]


def _build_row(algebra, lab):
    """The row of an unprimed class: the identity component, then the
    components that `_classes` lists with the class, read against the
    class's frame, else its standard involution."""
    if lab.p == 0:
        return _out_row(algebra)
    cls = _classes(algebra).get(lab)
    if cls is None or lab.prime:
        raise InvalidLabel("no component row for %r on %s" % (lab, algebra.label()))
    _, _, build, row, frame = cls
    ident = ComponentClass(lab, "id", 1, None if build is None
                           else lambda: identity_automorphism(algebra), ())
    if build is not None and frame is None:
        frame = lambda: standard_involution(algebra, lab)
    return Pi0Row(algebra, lab, frame,
                  [ident] + [ComponentClass(lab, *e) for e in row])


def _out_row(algebra):
    """rho = id: conjugacy classes of the outer group."""
    def entry(rep, k, w, builder):
        return ComponentClass(InvLabel(0), rep, k, builder, [("out", w)])
    classical = not algebra.is_exceptional
    entries = [entry("id", 1, 0, (lambda: identity_automorphism(algebra))
                     if classical else None)]
    if algebra.outer == "mu" and algebra.out_order == 2:
        entries.append(entry("mu", 2, 1, lambda: mu_automorphism(algebra)))
    elif algebra.outer == "det":
        m = algebra.size
        entries.append(entry("rho1", 2, 1, lambda: Automorphism(
            algebra, tau_matrix(1, m), label="rho1")))
        if algebra.has_triality:
            entries.append(entry("theta", 3, 3,
                                 lambda: triality_automorphism(algebra)))
    elif algebra.out_order == 2:
        entries.append(entry("rho1", 2, 1, None))
    return Pi0Row(algebra, InvLabel(0), None, entries)


# ---------------------------------------------------------------------------
# frame-free signatures
# ---------------------------------------------------------------------------

def _commutator(rho, beta):
    """(rho o beta, beta o rho, c), the products formed once and c with
    G(rho o beta) = c * G(beta o rho), which, with one outer power, tests
    that they commute (else NonCommuting)."""
    ab, ba = rho.compose(beta), beta.compose(rho)
    (A, v), (B, w) = ab.parts(), ba.parts()
    c = _scalar_ratio(A, B)
    if c is None or v != w:
        raise NonCommuting("beta does not commute with rho")
    return ab, ba, c


def _block_det(S0, B, sign):
    """det B|V for the sign eigenspace V of S0 (S0^2 = E), which B keeps: the
    determinant of B on V and of the identity on the other eigenspace."""
    E = CycloMatrix.identity(S0.n)
    P = (E + S0 * sign) * Fraction(1, 2)
    return (B * P + E - P).det()


def _mean_block_det(S, B, s):
    """(det B|V+ + det B|V-) / 2 over the +-sqrt(s) eigenspaces of a
    traceless S with S^2 = s E on C^2n, B in its centralizer.  G(t) =
    det(t (B + E) + (B - E) S) is det(2 sqrt(s) B|V+) (2 sqrt(s))^n at t =
    sqrt(s), and the same with V+ and V- swapped at t = -sqrt(s), so the even
    part of G, of degree n in t^2, is 4^n s^n times the mean at t^2 = s; it
    is interpolated from t = 0, +-1, ..., +-n, with no square root of s."""
    n = S.n // 2
    E = CycloMatrix.identity(S.n)
    A1, A0 = B + E, (B - E) * S
    even = [A0.det()] + [((A1 * k + A0).det() + (A0 - A1 * k).det())
                         * Fraction(1, 2) for k in range(1, n + 1)]
    at_s = 0
    for k, g in enumerate(even):
        for j in range(n + 1):
            if j != k:
                g = g * (s - j * j) * Fraction(1, k * k - j * j)
        at_s = at_s + g
    return at_s * (s ** n * 4 ** n).inverse()


def _sgn(x):
    if x == 1 or x == -1:
        return int(x.as_fraction())
    raise NoSignatureRule("signature value %r is not +-1" % (x,))


def raw_signature(rho, beta):
    """Frame-free component signature of beta inside the centralizer of rho.

    Returns a hashable tuple, or None when no discrete rule exists.
    """
    algebra = rho.algebra
    if beta.conj or rho.conj:
        raise NoSignatureRule("signatures apply to complex-linear parts")
    pair = _commutator(rho, beta)
    if rho.is_identity():
        return _out_signature(beta)
    m = algebra.size
    if algebra.has_triality:
        if rho.parts()[1]:
            raise NoSignatureRule("rho involves the order-3 outer generator")
        if beta.parts()[1]:
            S = rho.parts()[0]
            if S.trace().is_zero() and (S * S).is_scalar() == _form_scalar(rho):
                return ("theta",)  # the tau_4 row
            return None
    if algebra.outer == "mu":  # a
        e = 0 if beta.is_inner() else 1
        if rho.is_inner():
            S0 = rho.parts()[0]
            if S0.trace().is_zero():
                c = pair[2]
                if e:
                    # S0 B = c B S0^-T carries S0's scale squared: read c
                    # over the scalar S0^2
                    c = c * (S0 * S0).is_scalar().inverse()
                return (e, _sgn(c))
            return (e,)
        S0 = rho.parts()[0]
        mu_type = _scalar_ratio(S0, S0.transpose()) == 1
        if not mu_type:
            return (e,)
        if m % 2:
            return (e,)
        if e == 0:
            return (0, _mu_det_sign(beta, pair))
        beta = beta.compose(rho)
        return (1, _mu_det_sign(beta, _commutator(rho, beta)))
    if -1 in algebra.form[1]:  # c: the symplectic form
        # S0 B = c B S0 whatever the scales of S0 and B.  The rule covers the
        # classes of trace zero, Ad(iE) among them: G^-1 = J^-1 G^T J / s for
        # the form scalar s puts s / lambda in the spectrum of G with lambda,
        # at its multiplicity, and s / lambda swaps the eigenvalues
        # +-sqrt(-s) of an S0 with S0^2 = -s
        if rho.parts()[0].trace().is_zero():
            return (_sgn(pair[2]),)
        return ()
    # b and d: B / sqrt(s_B) is orthogonal, so det B|V / s_B^(dim V / 2) is
    # +-1 on a block V of even dimension, C^m itself when m is even
    S, B = rho.parts()[0], beta.parts()[0]
    s, sB = _form_scalar(rho), _form_scalar(beta)

    def unit(det, dim):
        return _sgn(det * sB.inverse() ** (dim // 2))

    tr = S.trace()
    # the +-1 eigenspaces V-, V+ of S0 = S d / tr(S), dim V- = p <= dim V+
    d = 0 if tr.is_zero() else _unit_trace(S, s)
    p = (m - d) // 2
    S0 = None if d == 0 else S * (tr.inverse() * d)
    if m % 2:  # b
        # det B0|V- = det B0|V+ for the B0 = +-B / sqrt(s_B) of determinant
        # one, and the sign of B0 drops out on the even block
        sign, dim = (-1, p) if p % 2 == 0 else (1, m - p)
        return (unit(_block_det(S0, B, sign), dim),)
    c = _sgn(pair[2])
    if c == -1 or (S * S).is_scalar() == -s:
        return (c, unit(B.det(), m))
    # the signs (a, b) on (V-, V+) up to (-a, -b) when p and q = m - p are
    # odd, and up to (b, a) when p = q: the smallest of the orbit
    if p % 2:
        return (1, (-1, -unit(B.det(), m)))
    if S0 is not None:
        return (1, (unit(_block_det(S0, B, -1), p),
                    unit(_block_det(S0, B, 1), m - p)))
    # traceless S on so(4k): (-1, 1) when ab = -1, else (a, a)
    if unit(B.det(), m) == -1:
        return (1, (-1, 1))
    a = unit(_mean_block_det(S, B, s), m // 2)
    return (1, (a, a))


def _mu_det_sign(beta, pair):
    """det-ratio sign separating the inner components of the centralizer of
    an outer involution of su(2n): with B S0 B^T = (1/c) S0, the value
    det(B) * c^n is +-1 and frame-independent (pair: `_commutator`)."""
    m = beta.algebra.size
    c = pair[2]
    B = beta.parts()[0]
    val = B.det() * (c ** (m // 2))
    return _sgn(val)


def _out_signature(beta):
    return ("out", {1: 0, 2: 1, 3: 3}[outer_order((beta.word(), 1))])


def component_signature(rho, beta, lab=None):
    """Component of beta in the centralizer of the involution rho, matched
    against the representative row; lab is rho's class if the caller holds
    it already."""
    algebra = rho.algebra
    if lab is None:
        lab = involution_int_class(rho)
    if lab.prime:
        raise NoSignatureRule("rows are indexed by the standard list; "
                              "conjugate rho to an unprimed class first")
    row = pi0_row(algebra, lab)
    sig = raw_signature(rho, beta)
    if sig is None:
        raise NoSignatureRule("no discrete rule for this pair")
    for entry in row.entries:
        if sig in row.entry_signatures(entry):
            return entry
    raise Unclassifiable("signature %r not matched in the %r row" % (sig, lab))


def pair_k(algebra, la, lb):
    """Outer order of the product of two involution class labels."""
    return outer_order((label_out_word(algebra, la), 1),
                       (label_out_word(algebra, lb), 1))
