"""Conjugate-linear automorphisms of complex loop algebras, the extension
maps on their invariants, real form bases and Cartan decompositions.

A conjugate-linear automorphism is a standard automorphism whose constant
part carries the compact conjugation; its invariant (`loopaut.invariant`)
reduces to the complex-linear machinery through the composition with that
conjugation.
Real forms are the fixed points of conjugate-linear involutions and a
Cartan decomposition is the +-1 split of an involution, so every real
structure here is a fixed part, taken by one routine (`_fixed_part`) from
pairs (e, phi(e)) whose e span a phi-stable rational space: the averages
(e + phi(e)) / 2 span the fixed vectors over Q.  Independence is decided on
rows of algebra coordinates over Q(zeta_M) (`loop._affine_row`) flattened
over Q.  Complex conjugation fixes the real field F = Q(zeta_M)^+, of degree
phi(M)/2, so a real structure is an F-space: its rational span holds F c and
F d, and its Q-dimensions are [F : Q] times its dimensions over F.
Bracket closure (`closed_under_bracket` and the three Cartan inclusions) is
checked on the same rows: each bracket is formed from the rows of its two
factors through the algebra's structure constants (`loop.row_bracket`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .algebra import make_algebra, sigma_eigenspace
from .autg import InvLabel, omega_automorphism, standard_involution
from .cyclo import CycloScalar, _context, root_of_unity
from .errors import (
    NotCompactMode,
    NotInvolution,
    StaticOnlyAlgebra,
    UnsupportedOrder,
)
from .linalg import Span, flatten
from .loop import (
    AffineElement,
    LoopElement,
    _affine_row,
    row_bracket,
    window_basis,
)
from .loopaut import (
    ConjLinearInvariant,
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    affine_extend,
    invariant,
)
from .pi0 import pi0_row
from .tables import (
    entry_invariant,
    enumerate_first_kind,
    enumerate_second_kind,
    first_kind_class,
    realize,
)


# ---------------------------------------------------------------------------
# conjugate-linear extension and invariants
# ---------------------------------------------------------------------------

def conj_linear_extend(phi):
    """The conjugate-linear extension: compose the constant part with the
    compact conjugation.  Kind is preserved; the order doubles or not
    according to divisibility by four."""
    if phi.algebra.mode != "compact":
        raise NotCompactMode("extension starts from a compact-mode automorphism")
    om = omega_automorphism(phi.algebra)
    return StandardLoopAutomorphism(phi.twist, phi.l, phi.epsilon, phi.t0,
                                    phi.X, phi.phi0.compose(om), phi.scale)


# ---------------------------------------------------------------------------
# the extension maps on invariants and their bijectivity
# ---------------------------------------------------------------------------

def invariant_extension_map(inv):
    """Image of a compact-side order-two invariant under conjugate-linear
    extension: (p, rho, [b]) -> (p, rho*omega^(q'), [b*omega^l]) and
    [p+, p-] -> [p+*omega, p-*omega]."""
    algebra = inv.algebra
    if isinstance(inv, FirstKindInvariant):
        if inv.q not in (1, 2):
            raise UnsupportedOrder("extension maps are implemented at order 2")
        if inv.p == 0:
            # q' = 1, l = 0
            return ConjLinearInvariant(algebra, 1, p=0, rho=inv.rho,
                                       beta=inv.beta)
        # p = 1: q' = 2, l = 1
        return ConjLinearInvariant(algebra, 1, p=1, rho=InvLabel(0),
                                   beta=inv.beta, beta_bar=True)
    if isinstance(inv, SecondKindInvariant):
        return ConjLinearInvariant(algebra, 2, pair=inv.pair, k=inv.k)
    raise UnsupportedOrder("not an order-two invariant")


def _classes(algebra, k):
    """Invariants of the compact-side classes of order at most two and
    outer order k, by type: the identity on each twist class of order k
    (q = 1) and the first-kind table row (q = 2), then the second-kind
    table row."""
    ident = InvLabel(0)
    type1 = [first_kind_class(algebra, 1, 0, ident, x.rep)
             for x in pi0_row(algebra, ident).entries if x.k == k]
    type1 += [entry_invariant(algebra, e)
              for e in enumerate_first_kind(algebra, k).entries]
    type2 = [entry_invariant(algebra, e)
             for e in enumerate_second_kind(algebra, k).entries]
    return {1: type1, 2: type2}


def enumerate_conj_linear(algebra, k, type_):
    """The conjugate-linear involution classes of the complexification of
    type 1 or 2 and outer order k: the images of the compact-side classes
    under the extension map; type 1 starts from the compact conjugations
    themselves, one class for each outer class of order k."""
    return [invariant_extension_map(inv) for inv in _classes(algebra, k)[type_]]


def check_extension_bijection(algebra, k):
    """Realize every compact-side class of order at most two and outer
    order k, and require that the realization reads back as its class and
    its conjugate-linear extension as the class's image under the extension
    map."""
    def reads_back(inv):
        phi = realize(inv)
        return (invariant(phi) == inv and invariant(conj_linear_extend(phi))
                == invariant_extension_map(inv))

    report = {"algebra": algebra.label(), "k": k}
    for type_, invs in _classes(algebra, k).items():
        report["type%d" % type_] = all(map(reads_back, invs))
    report["ok"] = report["type1"] and report["type2"]
    return report


# ---------------------------------------------------------------------------
# real form bases (fixed parts of conjugate-linear involutions)
# ---------------------------------------------------------------------------

def _field_basis(M):
    """Q-basis of the window field Q(zeta_M): 1 and zeta_M^t for
    1 <= t < phi(M)."""
    return [CycloScalar.from_rational(1)] + [
        root_of_unity(M, t) for t in range(1, _context(M).phi)]


def _real_field_basis(M):
    """Q-basis of F = Q(zeta_M)^+: 1 and zeta_M^t + zeta_M^(-t) for
    1 <= t < phi(M)/2."""
    return [CycloScalar.from_rational(1)] + [
        root_of_unity(M, t) + root_of_unity(M, -t)
        for t in range(1, _context(M).phi // 2)]


def _fixed_part(pairs, M, N, sign=1):
    """The fixed part (sign 1) or the negated part (sign -1) of an
    involution phi, from pairs (e, phi(e)) of affine elements over
    Q(zeta_M) whose e span a phi-stable Q-space: each (e + sign phi(e)) / 2
    independent of the ones before it, and their Q-span on the window
    [-N, N]."""
    half = Fraction(1, 2)
    span = Span()
    out = []
    for e, img in pairs:
        x = (e + img * sign) * half
        if span.add(_affine_qvec(x, M, N)):
            out.append(x)
    return out, span


def real_form_basis(algebra, pair, N=None):
    """Window basis of the real form attached to a second-kind pair.

    The real form is the fixed part of the conjugate-linear involution
    u(t) -> rho+ omega(u(-t)) on the loop algebra twisted by
    sigma = rho-^(-1) rho+: for each |n| <= N, a rational basis of the
    fixed vectors among the degree-n sigma-eigenvectors times Q(zeta_M),
    returned as affine elements, together with i f c and i f d for f in
    the basis of F (`_real_field_basis`).
    """
    if algebra.is_exceptional:
        raise StaticOnlyAlgebra("no matrix model")
    la, lb = pair
    plus = standard_involution(algebra, la)
    minus = standard_involution(algebra, lb)
    sigma = minus.inverse().compose(plus)
    l = sigma.order(bound=64)
    if N is None:
        N = 2 * l + 4
    M = lcm(4, 2 * l)
    # on loop elements only: the extension leaves c and d unconjugated,
    # and the real form holds them as i F c and i F d, added below
    phi = StandardLoopAutomorphism(sigma, l, -1, 0, None,
                                   plus.compose(omega_automorphism(algebra)))
    units = [u * z for u in window_basis(algebra, sigma, l, N)
             for z in _field_basis(M)]
    out, _ = _fixed_part(((AffineElement(u), AffineElement(
        phi.apply(u, validate=False))) for u in units), M, N)
    i = root_of_unity(4, 1)
    zero = LoopElement.zero(algebra, sigma, l)
    for f in _real_field_basis(M):
        out.append(AffineElement(zero, c=i * f))
        out.append(AffineElement(zero, d=i * f))
    return RealFormBasis(algebra, pair, N, l, out)


class RealFormBasis:
    __slots__ = ("algebra", "pair", "window", "l", "basis")

    def __init__(self, algebra, pair, window, l, basis):
        self.algebra = algebra
        self.pair = pair
        self.window = window
        self.l = l
        self.basis = basis

    def loop_elements(self):
        return [b for b in self.basis if not b.loop.is_zero()]

    def coefficient_dims(self):
        """Dimension over F of each degree's coefficient space."""
        dims = {}
        for b in self.loop_elements():
            n = b.loop.support()[0]
            dims[n] = dims.get(n, 0) + 1
        degree = _context(lcm(4, 2 * self.l)).phi // 2  # [F : Q]
        assert all(d % degree == 0 for d in dims.values()), (dims, degree)
        return {n: d // degree for n, d in dims.items()}

    def closed_under_bracket(self):
        """Brackets of window elements with window-bounded support must be
        rational combinations of the basis."""
        M = lcm(4, 2 * self.l)
        span = Span(_affine_qvec(b, M, self.window) for b in self.basis)
        return _brackets_in(self.basis, self.basis, span, M, self.window)


def _brackets_in(xs, ys, span, M, N):
    """Whether every bracket [x, y] supported in the window lies in span,
    each formed on rows through the structure constants
    (`loop.row_bracket`) from the rows of x and y, computed once.

    When xs is ys each unordered pair is bracketed once: [x, x] = 0, and
    [y, x] = -[x, y] lies in span exactly when [x, y] does."""
    if not xs or not ys:
        return True
    alg, l = xs[0].loop.algebra, xs[0].loop.l
    rx = [_affine_row(x, N, M) for x in xs]
    ry = rx if xs is ys else [_affine_row(y, N, M) for y in ys]
    for x, y in combinations(rx, 2) if xs is ys else product(rx, ry):
        z = row_bracket(alg, l, x, y, N, M)
        if z is not None and not span.contains(flatten(z, M)):
            return False
    return True


def _affine_qvec(elt, M, N):
    """The packed rational row of an affine element over Q(zeta_M) on the
    window [-N, N]: its `loop._affine_row`, flattened over Q."""
    return flatten(_affine_row(elt, N, M), M)


# ---------------------------------------------------------------------------
# Cartan decompositions on windows
# ---------------------------------------------------------------------------

def compact_window_basis(algebra, twist, l, N):
    """Rational basis of the compact form's window: u_(-n) = omega(u_n),
    with u_n running over the eigenvectors of degree n times the Q-basis of
    the window field."""
    M0 = lcm(4, 2 * l)
    scalars = _field_basis(M0)
    out = []
    om = algebra.omega_matrix
    for n in range(1, N + 1):
        for b in sigma_eigenspace(algebra, twist, l, n % l):
            for z in scalars:
                M = b.matrix * z
                out.append(LoopElement(algebra, twist, l,
                                       {n: M, -n: om(M)}, validate=False))
    # n = 0: the omega-fixed part of the twist-fixed subalgebra
    def zero_mode(A):
        return AffineElement(LoopElement(algebra, twist, l, {0: A},
                                         validate=False))

    units = [b.matrix * z for b in sigma_eigenspace(algebra, twist, l, 0)
             for z in scalars]
    fixed, _ = _fixed_part(((zero_mode(A), zero_mode(om(A))) for A in units),
                           M0, 0)
    return out + [x.loop for x in fixed]


def cartan_decomposition(phi, N=None):
    """Exact +-1 eigenbasis split of an involution on the compact window,
    plus the noncompact form basis K + iP.

    The involution must map the compact window onto itself: its curve is
    constant, its twist and constant part commute with the compact
    conjugation, and its rotation phases lie in the window's field; otherwise
    NotCompactMode is raised before any work.

    Returns a dict with K, P, noncompact (lists of AffineElement) and the
    window bracket-closure verdicts."""
    algebra = phi.algebra
    if algebra.mode != "compact":
        raise NotCompactMode("cartan decompositions live on the compact form")
    om = omega_automorphism(algebra)
    if any(a.compose(om) != om.compose(a) for a in (phi.twist, phi.phi0)):
        raise NotCompactMode("twist and constant part must commute with the "
                             "compact conjugation")
    if not phi.X.matrix.is_zero():
        raise NotCompactMode("a nonconstant curve moves degrees out of the "
                             "window")
    tw = phi.twist
    l = phi.l
    M = lcm(4, 2 * l)
    if M % (phi.t0.denominator * l):
        raise NotCompactMode("rotation by 2 pi t0 = 2 pi %s has phases outside "
                             "the window field Q(zeta_%d)" % (phi.t0, M))
    if phi.order(bound=8) not in (1, 2):
        raise NotInvolution("input is not an involution")
    if N is None:
        N = 2 * l + 4
    # constant curve and target twist tw: images stay at conductor l
    ext = affine_extend(phi)
    zero = LoopElement.zero(algebra, tw, l)
    elts = [AffineElement(b) for b in compact_window_basis(algebra, tw, l, N)]
    for f in _real_field_basis(M):
        elts += [AffineElement(zero, c=f), AffineElement(zero, d=f)]
    pairs = [(e, ext.apply(e)) for e in elts]
    Kb, kspan = _fixed_part(pairs, M, N)
    Pb, pspan = _fixed_part(pairs, M, N, -1)
    i = root_of_unity(4, 1)
    noncompact = list(Kb) + [AffineElement(x.loop * i, x.c * i, x.d * i)
                             for x in Pb]
    inclusions = {
        "KK_in_K": _brackets_in(Kb, Kb, kspan, M, N),
        "KP_in_P": _brackets_in(Kb, Pb, pspan, M, N),
        "PP_in_K": _brackets_in(Pb, Pb, kspan, M, N),
    }
    return {"K": Kb, "P": Pb, "noncompact": noncompact, "window": N,
            "inclusions": inclusions}


# ---------------------------------------------------------------------------
# the sl(2) catalogue
# ---------------------------------------------------------------------------

def sl2_catalogue():
    """Almost compact and almost split real forms of the rank-one complex
    loop algebra, with verified invariants and window bases."""
    algebra = make_algebra("a", 1, "compact")
    report = {}
    # almost compact = conjugate-linear type 1 classes
    t1 = enumerate_conj_linear(algebra, 1, 1)
    names = {}
    for inv in t1:
        if inv.p == 1:
            names[inv] = "L_pi(sl(2,C), omega)"
        elif inv.rho.p == 0:
            names[inv] = "L(su(2))  [compact]"
        elif inv.beta.rep == "id":
            names[inv] = "L(sl(2,R))"
        else:
            names[inv] = "L(sl(2,R), tau)"
    report["almost_compact"] = [(repr(i), names[i]) for i in t1]
    report["almost_compact_count"] = len(t1)
    report["noncompact_almost_compact_count"] = sum(
        1 for i in t1 if names[i] != "L(su(2))  [compact]")
    # almost split = type 2 classes
    t2 = enumerate_conj_linear(algebra, 1, 2)
    report["almost_split"] = [repr(i) for i in t2]
    report["almost_split_count"] = len(t2)
    # second kind pairs with window bases
    bases = {}
    for inv in t2:
        rb = real_form_basis(algebra, inv.pair)
        bases[repr(tuple(map(repr, inv.pair)))] = {
            "l": rb.l, "dims": rb.coefficient_dims(),
            "closed": rb.closed_under_bracket()}
    report["almost_split_bases"] = bases
    # realize every class and its conjugate-linear extension, and read
    # both back
    report["verified"] = check_extension_bijection(algebra, 1)["ok"]
    report["ok"] = (report["verified"]
                    and report["almost_split_count"] == 3
                    and report["noncompact_almost_compact_count"] == 3
                    and report["almost_compact_count"] == 4
                    and all(v["closed"] for v in bases.values()))
    return report
