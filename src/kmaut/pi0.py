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

from .algebra import _KEYS_CACHED, tau_matrix, j_matrix
from .autg import (
    Automorphism,
    ID_PERM,
    InvLabel,
    _classes,
    _d4_frame,
    _form_scalar,
    _named,
    _pcomp,
    _porder,
    _scalar_ratio,
    _theta_power_of,
    _unit_trace,
    identity_automorphism,
    involution_int_class,
    label_out_word,
    mu_automorphism,
    standard_involution,
    standard_list,
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
    """Component of the centralizer of an involution: a representative label
    together with its outer order."""

    __slots__ = ("rho", "rep", "k")

    def __init__(self, rho, rep, k):
        self.rho = rho
        self.rep = rep
        self.k = k

    def __eq__(self, other):
        return (isinstance(other, ComponentClass)
                and (self.rho, self.rep, self.k) == (other.rho, other.rep, other.k))

    def __hash__(self):
        return hash((self.rho, self.rep, self.k))

    def __repr__(self):
        return "ComponentClass(%s | %s, k=%d)" % (self.rho, self.rep, self.k)


class Pi0Entry:
    __slots__ = ("rep", "k", "builder", "extra_sigs", "_sig_cache")

    def __init__(self, rep, k, builder=None, extra_sigs=()):
        self.rep = rep
        self.k = k
        self.builder = builder
        self.extra_sigs = tuple(extra_sigs)
        self._sig_cache = None


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
    """The first component class of outer order k in the row of rho = id."""
    rep = next((e.rep for e in pi0_row(algebra, InvLabel(0)).entries
                if e.k == k), None)
    return ComponentClass(InvLabel(0), rep, k)


def pi0_table(algebra, rho_label):
    """Representatives of the centralizer components of the involution class:
    list of (label, k, representative Automorphism or None)."""
    if isinstance(rho_label, str):
        from .autg import parse_label
        rho_label = parse_label(algebra, rho_label)
    row = pi0_row(algebra, rho_label)
    return [(e.rep, e.k, e.builder() if e.builder is not None else None)
            for e in row.entries]


def _ad(algebra, M, label):
    return lambda: Automorphism(algebra, M, label=label)


def _std(algebra, alias):
    return lambda: standard_involution(algebra, _named(algebra, alias))


def _build_row(algebra, lab):
    fam = algebra.family
    if lab.p == 0:
        return _out_row(algebra)
    if algebra.is_exceptional:
        return _exceptional_row(algebra, lab)
    if lab not in standard_list(algebra):
        raise InvalidLabel("no component row for %r on %s" % (lab, algebra.label()))
    alias = _classes(algebra)[lab][0]
    m = algebra.size
    ident = Pi0Entry("id", 1, lambda: identity_automorphism(algebra))
    frame = lambda: standard_involution(algebra, lab)
    if fam == "a":
        if alias is None:
            if m >= 3 and 2 * lab.p == m:
                half = m // 2
                entries = [
                    ident,
                    Pi0Entry("AdJ", 1, _ad(algebra, j_matrix(half), "AdJ")),
                    Pi0Entry("mu", 2, _std(algebra, "mu")),
                    Pi0Entry("muAdJ", 2, _std(algebra, "muadj")),
                ]
            elif m >= 3:
                entries = [ident, Pi0Entry("mu", 2, _std(algebra, "mu"))]
            else:
                entries = [ident,
                           Pi0Entry("mu", 1, lambda: mu_automorphism(algebra))]
        elif alias == "mu":
            if m % 2 == 0:
                entries = [
                    ident,
                    Pi0Entry("rho1", 1, _ad(algebra, tau_matrix(1, m), "rho1")),
                    Pi0Entry("mu", 2, frame),
                    Pi0Entry("rho1*mu", 2, lambda: Automorphism(
                        algebra, tau_matrix(1, m), w=1, label="rho1*mu")),
                ]
            else:
                entries = [ident,
                           Pi0Entry("mu", 2, frame)]
        else:  # mu Ad J class
            entries = [ident,
                       Pi0Entry("muAdJ", 2, frame)]
        return Pi0Row(algebra, lab, frame, entries)
    if fam == "b":
        p = lab.p
        B = tau_matrix(1, m) * tau_matrix(p + 1, m)
        entries = [ident,
                   Pi0Entry("rho1*tau%d" % (p + 1), 1,
                            _ad(algebra, B, "rho1*tau%d" % (p + 1)))]
        return Pi0Row(algebra, lab, frame, entries)
    if fam == "c":
        n = algebra.param
        if alias == "adie":
            entries = [ident,
                       Pi0Entry("AdjE", 1, _ad(algebra, j_matrix(n), "AdjE"))]
        elif 2 * lab.p == n:
            # the quaternionic J: block-antidiagonal in quaternionic indices,
            # hence diag(Jq, Jq) in the complex 2n model
            Jq = j_matrix(n // 2)
            rows = [[Jq.entry(i, j) for j in range(n)] + [0] * n
                    for i in range(n)]
            rows += [[0] * n + [Jq.entry(i, j) for j in range(n)]
                     for i in range(n)]
            M = CycloMatrix.from_scalars(rows)
            entries = [ident, Pi0Entry("AdJ", 1, _ad(algebra, M, "AdJ"))]
        else:
            entries = [ident]
        return Pi0Row(algebra, lab, frame, entries)
    # family d
    if algebra.has_triality:
        return _d4_row(algebra, lab)
    n = algebra.param
    if alias is None:
        p = lab.p
        if p == n:
            J = j_matrix(n)
            if n % 2 == 0:
                entries = [
                    ident,
                    Pi0Entry("rho1*tau%d" % (p + 1), 1,
                             _ad(algebra, tau_matrix(1, m) * tau_matrix(p + 1, m),
                                 "rho1*tau%d" % (p + 1))),
                    Pi0Entry("AdJ", 1, _ad(algebra, J, "AdJ")),
                    Pi0Entry("rho1", 2, _ad(algebra, tau_matrix(1, m), "rho1")),
                    Pi0Entry("rho1*AdJ", 2,
                             _ad(algebra, tau_matrix(1, m) * J, "rho1*AdJ")),
                ]
            else:
                entries = [
                    ident,
                    Pi0Entry("AdJ", 1, _ad(algebra, J, "AdJ")),
                    Pi0Entry("rho%d" % p, 2, frame),
                    Pi0Entry("rho%d*AdJ" % p, 2,
                             _ad(algebra, tau_matrix(p, m) * J, "rho%d*AdJ" % p)),
                ]
        elif p % 2 == 0:
            entries = [
                ident,
                Pi0Entry("rho1*tau%d" % (p + 1), 1,
                         _ad(algebra, tau_matrix(1, m) * tau_matrix(p + 1, m),
                             "rho1*tau%d" % (p + 1))),
                Pi0Entry("rho1", 2, _ad(algebra, tau_matrix(1, m), "rho1")),
                Pi0Entry("rho%d" % (p + 1), 2,
                         _ad(algebra, tau_matrix(p + 1, m), "rho%d" % (p + 1))),
            ]
        else:
            entries = [ident,
                       Pi0Entry("rho%d" % p, 2, frame)]
        return Pi0Row(algebra, lab, frame, entries)
    # the Ad J row (rows are indexed by the standard list, so unprimed only)
    tn = tau_matrix(n, m)
    if n % 2 == 0:
        entries = [ident,
                   Pi0Entry("rho%d" % n, 1, _ad(algebra, tn, "rho%d" % n))]
    else:
        entries = [ident,
                   Pi0Entry("rho%d" % n, 2, _ad(algebra, tn, "rho%d" % n))]
    return Pi0Row(algebra, lab, frame, entries)


def _d4_row(algebra, lab):
    m = 8
    ident = Pi0Entry("id", 1, lambda: identity_automorphism(algebra))
    frame = lambda: standard_involution(algebra, lab)
    if lab.p in (1, 3):
        entries = [ident,
                   Pi0Entry("rho%d" % lab.p, 2, frame)]
        return Pi0Row(algebra, lab, frame, entries)
    if lab.p == 2:
        entries = [
            ident,
            Pi0Entry("rho1*rho3", 1,
                     _ad(algebra, tau_matrix(1, m) * tau_matrix(3, m), "rho1*rho3")),
            Pi0Entry("rho1", 2, _ad(algebra, tau_matrix(1, m), "rho1")),
            Pi0Entry("rho3", 2, _ad(algebra, tau_matrix(3, m), "rho3")),
        ]
        return Pi0Row(algebra, lab, frame, entries)
    # p == 4: the row with a 5-class component group.  Frame: the diagonal
    # tau_4-type involution that commutes with the order-3 outer generator
    # exactly.  The inner (-,-) block type and the J type lie in the same
    # component here (unlike so(4n), n >= 3), so the AdJ entry carries both
    # signatures.
    P, JP = _d4_frame(algebra)
    minus = [i for i in range(8) if P.entry(i, i) == -1]
    r1rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    r1rows[minus[0]][minus[0]] = Fraction(-1)
    R1 = CycloMatrix.from_scalars(r1rows)
    frame = lambda: Automorphism(algebra, P, label="rho4")
    entries = [
        ident,
        Pi0Entry("AdJ", 1, _ad(algebra, JP, "AdJ"),
                 extra_sigs=[(1, (-1, -1))]),
        Pi0Entry("rho1", 2, _ad(algebra, R1, "rho1")),
        Pi0Entry("rho1*AdJ", 2, _ad(algebra, R1 * JP, "rho1*AdJ")),
        Pi0Entry("theta", 3, lambda: triality_automorphism(algebra),
                 extra_sigs=[("theta",)]),
    ]
    return Pi0Row(algebra, lab, frame, entries)


def _out_row(algebra):
    """rho = id: conjugacy classes of the outer group."""
    classical = not algebra.is_exceptional
    ident = Pi0Entry("id", 1,
                     (lambda: identity_automorphism(algebra)) if classical else None,
                     extra_sigs=[("out", 0)])
    entries = [ident]
    if algebra.outer == "mu" and algebra.out_order == 2:
        entries.append(Pi0Entry("mu", 2, lambda: mu_automorphism(algebra),
                                extra_sigs=[("out", 1)]))
    elif algebra.outer == "det":
        m = algebra.size
        entries.append(Pi0Entry("rho1", 2, _ad(algebra, tau_matrix(1, m), "rho1"),
                                extra_sigs=[("out", 1)]))
        if algebra.has_triality:
            entries.append(Pi0Entry("theta", 3,
                                    lambda: triality_automorphism(algebra),
                                    extra_sigs=[("out", 3)]))
    elif algebra.family == "e6":
        entries.append(Pi0Entry("rho1", 2, None, extra_sigs=[("out", 1)]))
    return Pi0Row(algebra, InvLabel(0), None, entries)


def _exceptional_row(algebra, lab):
    fam = algebra.family
    if fam == "e6":
        entries = [Pi0Entry("id", 1), Pi0Entry("rho1", 2)]
    elif fam == "e7":
        if lab.p in (1, 3):
            entries = [Pi0Entry("id", 1), Pi0Entry("sigma%d" % lab.p, 1)]
        else:
            entries = [Pi0Entry("id", 1)]
    else:
        entries = [Pi0Entry("id", 1)]
    return Pi0Row(algebra, lab, None, entries)


# ---------------------------------------------------------------------------
# frame-free signatures
# ---------------------------------------------------------------------------

def _commutator(rho, beta):
    """(rho o beta, beta o rho, c), the products formed once and c with
    matrix(rho o beta) = c * matrix(beta o rho), which tests that they
    commute (else NonCommuting); operator maps leave c None."""
    ab, ba = rho.compose(beta), beta.compose(rho)
    group = ab.has_parts and ba.has_parts
    c = _scalar_ratio(ab.parts()[0], ba.parts()[0]) if group else None
    if (c is None or ab.parts()[1] != ba.parts()[1]) if group else ab != ba:
        raise NonCommuting("beta does not commute with rho")
    return ab, ba, c


def _commutator_scalar(pair):
    """The c of a `_commutator` triple, read from the parts if left None."""
    ab, ba, c = pair
    c = _scalar_ratio(ab.parts()[0], ba.parts()[0]) if c is None else c
    if c is None:
        raise NonCommuting("automorphisms do not commute")
    return c


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
    fam = algebra.family
    if beta.conj or rho.conj:
        raise NoSignatureRule("signatures apply to complex-linear parts")
    pair = _commutator(rho, beta)
    if rho.is_identity():
        return _out_signature(beta)
    m = algebra.size
    if algebra.has_triality:
        if not rho.has_parts and _theta_power_of(rho.word())[1]:
            raise NoSignatureRule("rho involves the order-3 outer generator")
        if not beta.has_parts and _theta_power_of(beta.word())[1]:
            S = rho.parts()[0]
            if S.trace().is_zero() and (S * S).is_scalar() == _form_scalar(rho):
                return ("theta",)  # the tau_4 row
            return None
    if fam == "a":
        e = 0 if beta.is_inner() else 1
        if rho.is_inner():
            S0 = rho.parts()[0]
            if S0.trace().is_zero():
                c = _commutator_scalar(pair)
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
    if fam == "c":
        # S0 B = c B S0 whatever the scales of S0 and B.  The rule covers the
        # classes of trace zero, Ad(iE) among them: G^-1 = J^-1 G^T J / s for
        # the form scalar s puts s / lambda in the spectrum of G with lambda,
        # at its multiplicity, and s / lambda swaps the eigenvalues
        # +-sqrt(-s) of an S0 with S0^2 = -s
        if rho.parts()[0].trace().is_zero():
            return (_sgn(_commutator_scalar(pair)),)
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
    if fam == "b":
        # det B0|V- = det B0|V+ for the B0 = +-B / sqrt(s_B) of determinant
        # one, and the sign of B0 drops out on the even block
        sign, dim = (-1, p) if p % 2 == 0 else (1, m - p)
        return (unit(_block_det(S0, B, sign), dim),)
    c = _sgn(_commutator_scalar(pair))
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
    c = _commutator_scalar(pair)
    B = beta.parts()[0]
    val = B.det() * (c ** (m // 2))
    return _sgn(val)


def _out_signature(beta):
    w = beta.word()
    if w == ID_PERM:
        return ("out", 0)
    if _porder(w) == 2:
        return ("out", 1)
    return ("out", 3)


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
            return ComponentClass(lab, entry.rep, entry.k)
    raise Unclassifiable("signature %r not matched in the %r row" % (sig, lab))


def pair_k(algebra, la, lb):
    """Outer order of the product of two involution class labels."""
    w = _pcomp(label_out_word(algebra, la), label_out_word(algebra, lb))
    return _porder(w)
