"""Conjugate-linear automorphisms of complex loop algebras, the extension
maps on their invariants, real form bases and Cartan decompositions.

A conjugate-linear automorphism is a standard automorphism whose constant
part carries the compact conjugation; its invariant (`loopaut.invariant`)
reduces to the complex-linear machinery through the composition with that
conjugation.
Real form coefficient spaces are computed as exact rational kernels of the
defining reality constraints, one Fourier slot at a time, on rows of algebra
coordinates over Q(zeta_M) (`loop._affine_row` for affine elements,
`algebra.coords` for constraint matrices) flattened over Q.  Complex
conjugation fixes the real field F = Q(zeta_M)^+, of degree phi(M)/2, so a
real structure is an F-space: its rational span holds F c and F d, and its
Q-dimensions are [F : Q] times its dimensions over F.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .algebra import make_algebra, sigma_eigenspace
from .autg import (
    InvLabel,
    identity_automorphism,
    omega_automorphism,
    standard_involution,
)
from .cyclo import CycloMatrix, CycloScalar, _context, root_of_unity
from .errors import (
    NotCompactMode,
    NotInvolution,
    StaticOnlyAlgebra,
    UnsupportedOrder,
)
from .linalg import Span, flatten, relations
from .loop import (
    AffineElement,
    LoopElement,
    _affine_row,
    affine_bracket,
    join_rows,
)
from .loopaut import (
    ConjLinearInvariant,
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    affine_extend,
    invariant_conj_linear,
)
from .pi0 import ComponentClass, pi0_row
from .tables import enumerate_first_kind, enumerate_second_kind


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


def _first_kind_classes(algebra, k):
    """(q, p, rho, component class) of the order-one and order-two
    first-kind classes of outer order k: the identity on each twist class of
    order k (q = 1), then the first-kind table row (q = 2)."""
    ident = InvLabel(0)
    for x in pi0_row(algebra, ident).entries:
        if x.k == k:
            yield 1, 0, ident, ComponentClass(ident, x.rep, x.k)
    for e in enumerate_first_kind(algebra, k).entries:
        p, rho, rep = (0, e[1], e[2]) if e[0] == "1a" else (1, ident, e[1])
        x = next(x for x in pi0_row(algebra, rho).entries if x.rep == rep)
        yield 2, p, rho, ComponentClass(rho, x.rep, x.k)


def enumerate_conj_linear(algebra, k, type_):
    """Independent enumeration of the conjugate-linear involution classes of
    the complexification, from the enlarged component-class data; type 1
    starts from the compact conjugations themselves, one class for each
    outer class of order k."""
    if type_ == 1:
        return [ConjLinearInvariant(algebra, 1, p=p, rho=rho, beta=cc,
                                    beta_bar=p == 1)
                for _, p, rho, cc in _first_kind_classes(algebra, k)]
    return [ConjLinearInvariant(algebra, 2, pair=(e[1], e[2]), k=k)
            for e in enumerate_second_kind(algebra, k).entries]


def check_extension_bijection(algebra, k):
    """Exhaustive matching of the compact-side order-2 invariant sets against
    the conjugate-linear sets under the extension maps."""
    report = {"algebra": algebra.label(), "k": k, "type1": None, "type2": None}
    compact_side = [FirstKindInvariant(algebra, q, p, rho, cc)
                    for q, p, rho, cc in _first_kind_classes(algebra, k)]
    mapped = [invariant_extension_map(i) for i in compact_side]
    target = enumerate_conj_linear(algebra, k, 1)
    report["type1"] = (len(set(mapped)) == len(mapped)
                       and set(mapped) == set(target))
    row2 = enumerate_second_kind(algebra, k)
    compact2 = [SecondKindInvariant(algebra, 2, (e[1], e[2]), k)
                for e in row2.entries]
    mapped2 = [invariant_extension_map(i) for i in compact2]
    target2 = enumerate_conj_linear(algebra, k, 2)
    report["type2"] = (len(set(mapped2)) == len(mapped2)
                       and set(mapped2) == set(target2))
    report["ok"] = report["type1"] and report["type2"]
    return report


# ---------------------------------------------------------------------------
# real form bases (exact rational kernels of the reality constraints)
# ---------------------------------------------------------------------------

def _constraint_row(algebra, mats, M):
    """The packed rational row of constraint matrices in the algebra over
    Q(zeta_M): the coords of the k-th from column k * dim on, flattened over
    Q."""
    return flatten(join_rows([(k * algebra.dim, algebra.coords(x.promote(M)))
                              for k, x in enumerate(mats)]), M)


def _combinations(units, rels, n, M):
    """The matrices sum_k c_k units[k], one per packed rational relation c."""
    return [sum((units[k] * c for k, (c,) in ents.items()),
                CycloMatrix.zeros(n, M)) * Fraction(1, den)
            for ents, den in rels]


def _field_basis(M):
    """Q-basis of the window field Q(zeta_M): 1 and zeta_M^t for
    1 <= t < phi(M)."""
    return [CycloScalar.from_rational(1)] + [
        root_of_unity(M, t) for t in range(1, _context(M).phi)]


def _algebra_units(algebra, M):
    """Q-spanning set of the algebra's coefficient space over Q(zeta_M)."""
    return [b * z for b in algebra.basis() for z in _field_basis(M)]


def _real_field_basis(M):
    """Q-basis of F = Q(zeta_M)^+: 1 and zeta_M^t + zeta_M^(-t) for
    1 <= t < phi(M)/2."""
    return [CycloScalar.from_rational(1)] + [
        root_of_unity(M, t) + root_of_unity(M, -t)
        for t in range(1, _context(M).phi // 2)]


def real_form_basis(algebra, pair, N=None):
    """Window basis of the real form attached to a second-kind pair.

    For each |n| <= N this is an exact rational basis of
    {v : v fixed by rho+ omega and zeta_(2l)^n v fixed by rho- omega},
    returned as loop elements, together with i f c and i f d for f in the
    basis of F (`_real_field_basis`).
    """
    if algebra.is_exceptional:
        raise StaticOnlyAlgebra("no matrix model")
    la, lb = pair
    plus = standard_involution(algebra, la)
    minus = standard_involution(algebra, lb)
    om = omega_automorphism(algebra)
    tplus = plus.compose(om)
    tminus = minus.compose(om)
    sigma = minus.inverse().compose(plus)
    l = sigma.order(bound=64)
    if N is None:
        N = 2 * l + 4
    M = lcm(4, 2 * l)
    units = _algebra_units(algebra, M)
    out = []
    for n in range(-N, N + 1):
        zeta = root_of_unity(2 * l, n % (2 * l))
        zinv = root_of_unity(2 * l, (-n) % (2 * l))
        rows = [_constraint_row(algebra, [
                    tplus.apply_matrix(u) - u,
                    tminus.apply_matrix(u * zeta) * zinv - u], M)
                for u in units]
        out.extend(LoopElement(algebra, sigma, l, {n: acc}) for acc in
                   _combinations(units, relations(rows, 1), algebra.size, M))
    i = root_of_unity(4, 1)
    zero = LoopElement.zero(algebra, sigma, l)
    for f in _real_field_basis(M):
        out.append(AffineElement(zero, c=i * f))
        out.append(AffineElement(zero, d=i * f))
    return RealFormBasis(algebra, pair, N, l,
                         [x if isinstance(x, AffineElement) else AffineElement(x)
                          for x in out])


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
    """Whether every bracket [x, y] supported in the window lies in span.

    When xs is ys each unordered pair is bracketed once: [x, x] = 0, and
    [y, x] = -[x, y] lies in span exactly when [x, y] does."""
    for x, y in combinations(xs, 2) if xs is ys else product(xs, ys):
        z = affine_bracket(x, y)
        if z.is_zero() or any(abs(n) > N for n in z.loop.support()):
            continue
        if not span.contains(_affine_qvec(z, M, N)):
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
    # n = 0: omega-fixed part of the twist-fixed subalgebra, solving
    # omega(v) = v inside the span of zero_modes over Q
    units = [b.matrix * z for b in sigma_eigenspace(algebra, twist, l, 0)
             for z in scalars]
    rows = [_constraint_row(algebra, [om(u) - u], M0) for u in units]
    for acc in _combinations(units, relations(rows, 1), algebra.size, M0):
        if not acc.is_zero():
            out.append(LoopElement(algebra, twist, l, {0: acc}, validate=False))
    return out


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
    imgs = [ext.apply(e) for e in elts]
    half = Fraction(1, 2)

    def eigenbasis(sign):
        """Independent (e + sign phi(e)) / 2 over the window basis."""
        span = Span()
        out = []
        for e, img in zip(elts, imgs):
            combo = AffineElement((e.loop + img.loop * sign) * half,
                                  (e.c + img.c * sign) * half,
                                  (e.d + img.d * sign) * half)
            if span.add(_affine_qvec(combo, M, N)):
                out.append(combo)
        return out, span

    Kb, kspan = eigenbasis(1)
    Pb, pspan = eigenbasis(-1)
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
    # verify each invariant by realizing a conjugate-linear involution
    verified = []
    om = omega_automorphism(algebra)
    iden = identity_automorphism(algebra)
    tau = standard_involution(algebra, "rho1")
    fixtures = {
        ("1", 0, "rho0"): StandardLoopAutomorphism(iden, 1, 1, 0, None, om),
        ("1", 0, "rho1"): StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                                   tau.compose(om)),
        ("1b",): StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None, om),
    }
    inv_a = invariant_conj_linear(fixtures[("1", 0, "rho0")])
    inv_b = invariant_conj_linear(fixtures[("1", 0, "rho1")])
    inv_c = invariant_conj_linear(fixtures[("1b",)])
    verified.extend([repr(inv_a), repr(inv_b), repr(inv_c)])
    report["verified_type1"] = verified
    # second kind pairs with window bases
    pairs = [(InvLabel(0), InvLabel(0)), (InvLabel(1), InvLabel(1)),
             (InvLabel(0), InvLabel(1))]
    bases = {}
    for pa in pairs:
        rb = real_form_basis(algebra, pa)
        dims = rb.coefficient_dims()
        bases[repr(tuple(map(repr, pa)))] = {
            "l": rb.l, "dims": dims, "closed": rb.closed_under_bracket()}
    report["almost_split_bases"] = bases
    # verify the second-kind invariants through the machinery
    ver2 = []
    for pa in pairs:
        plus = standard_involution(algebra, pa[0])
        minus = standard_involution(algebra, pa[1])
        tw = minus.inverse().compose(plus)
        l = tw.order(bound=8)
        phi = StandardLoopAutomorphism(tw, l, -1, 0, None,
                                       plus.compose(om))
        inv = invariant_conj_linear(phi)
        ver2.append(repr(inv))
    report["verified_type2"] = ver2
    report["ok"] = (report["almost_split_count"] == 3
                    and report["noncompact_almost_compact_count"] == 3
                    and report["almost_compact_count"] == 4
                    and all(v["closed"] for v in bases.values()))
    return report
