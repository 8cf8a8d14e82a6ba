"""The extension maps on the invariants of conjugate-linear automorphisms,
real form bases and Cartan decompositions.

A conjugate-linear automorphism is a standard automorphism whose constant
part carries the compact conjugation (`loopaut.conj_linear_extend`); its
invariant (`loopaut.invariant`) reduces to the complex-linear machinery
through the composition with that conjugation.
Every real structure here is a fixed part, taken by one routine
(`_fixed_part`) from pairs (e, phi(e)) whose e span a phi-stable rational
space: the averages (e + phi(e)) / 2 span the fixed vectors over Q.  The
real form of a compact involution is the fixed part of its conjugate-linear
extension (`real_form`); it is K + iP for the +-1 split K + P of the
involution on the compact window (`cartan_decomposition`), whose K and P
come from one pass over the pairs.  Complex conjugation fixes the real
field F = Q(zeta_M)^+, of degree phi(M)/2, so a real structure is an
F-space, and its Q-dimensions are [F : Q] times its dimensions over F.

Each element's window row (`loop._affine_row`, one block per degree) is
formed once; `_fixed_part` forms the row of (e +- phi(e)) / 2 from those of
e and phi(e) and builds the element only when its row, laid out by
`loop._packed` and flattened over Q, is independent.  Closure checks
bracket rows through the structure constants (`loop._parts_bracket`).

Periods.  T^s moves degree n to n + s for n > 0 and n - s for n < 0
(`loop._shifted`).  Degree n holds the zeta_l^n eigenspace of the twist;
the maps here have constant curves, x t^n -> A(lambda^n x) t^(+-n), lambda
a root of unity, so for l | P and lambda^P = 1 they commute with T^P, which
moves n and -n together as a first-kind psi, omega^ and a second-kind phi
pair them.  `_map_period` finds the least such P | M by one probe;
`real_form` and `cartan_decomposition` form degrees |n| <= P and `_tiled`
moves them into place: the kept rows of a degree (or pair n, -n) use only
its columns, so the greedy choice at n + P repeats that at n, and the
span's stored rows of 1 <= |n| <= P are collected once and moved.

A closure check (`_brackets_in`) takes P, the period its rows and span were
tiled with (None, for rows made otherwise, is the full sweep: each group
stands alone): each row lies on one group of degrees {n, -n} or on c and
d, each stored row of the span in one group (c and d one more), and the
rows of group n + P, in order, and the stored rows there are those of
group n moved by T^P.  A pair's key holds each
factor's class (n mod P, degree 0 apart, other rows alone), its position
in its group and sign(m - n) for the groups, which fix the sign (-, 0, +)
of each degree sum, p + q and p - q on {n, -n}.  For x = T^a x' and
y = T^b y' keyed as a checked (x', y'), [x, y] in degree p + q is
[u_p, v_q] = [u'_p', v'_q'], so each group of [x, y] is one of [x', y'] of
like class and sign moved by T, and the terms in n/l scale: a d row's
derivative i (n/l) v_n scales both blocks of a group by n/n', the cocycle
i sum (n/l) K(u_n, v_-n) c at degree 0 by |p|/|p'|.  The span splits by
groups, so each group of a bracket lies in it on its own, as does a
rational multiple: [x, y] is in the span exactly when [x', y'] is.  The
pairs of two groups are checked together, and count only if all stay in
the window; groups go by increasing m + n.  Each key first occurs at
m, n <= 2P, m + n <= 3P (each class has a degree in 1..P, and a sign those
do not give takes P more on one side), so for N >= 3P every key is checked
there and the groups above 2P are left out: the bracket count stops
growing with N.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm

from .algebra import make_algebra
from .autg import InvLabel, omega_automorphism
from .cyclo import CycloScalar, _context, root_of_unity
from .errors import (NotCompactMode, NotInvolution, OrderExceedsBound,
                     UnsupportedOrder, WindowTooSmall)
from .linalg import Span, flatten
from .loop import (
    AffineElement,
    LoopElement,
    _affine_row,
    _packed,
    _parts_bracket,
    _scale,
    _shifted,
    _window_sum,
    window_basis,
)
from .loopaut import (
    ConjLinearInvariant,
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    affine_extend,
    conj_linear_extend,
    invariant,
)
from .pi0 import pair_k, pi0_row
from .tables import (
    entry_invariant,
    enumerate_first_kind,
    enumerate_second_kind,
    first_kind_class,
    realize,
)


# ---------------------------------------------------------------------------
# the extension maps on invariants and their bijectivity
# ---------------------------------------------------------------------------

def invariant_extension_map(inv):
    """Image of a compact-side order-two invariant under conjugate-linear
    extension, (p, rho, [b]) -> (p, rho*omega^(q'), [b*omega^l]) and
    [p+, p-] -> [p+*omega, p-*omega]: the conjugate-linear class that wraps
    it."""
    if (isinstance(inv, FirstKindInvariant) and inv.q in (1, 2)
            or isinstance(inv, SecondKindInvariant) and inv.order == 2):
        return ConjLinearInvariant(inv)
    raise UnsupportedOrder("extension maps are implemented at order 2")


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


def _fixed_part(rows, build, M, N, dim, signs=(1,)):
    """The fixed part (sign 1) and the negated part (sign -1) of an
    involution phi, for each of signs, from pairs (e, phi(e)) of affine
    elements over Q(zeta_M) whose e span a phi-stable Q-space.  Pair j is
    given by rows[j], the window rows of e and phi(e) on [-N, N] in an
    algebra of dimension dim, and build(j), which makes e and phi(e).

    One pass over the pairs yields, per sign, each (e + sign phi(e)) / 2
    whose row, formed from the pair's rows, is independent of the ones
    before it, their Q-span and their rows; an element is built only when
    its row is kept."""
    half = Fraction(1, 2)
    parts = [([], Span(), []) for _ in signs]
    for j, (re, ri) in enumerate(rows):
        made = None
        for sign, (out, span, kept) in zip(signs, parts):
            row = _window_sum(re, ri, sign, 2)
            if span.add(flatten(_packed(row, N, dim), M)):
                if made is None:
                    made = build(j)
                e, img = made
                out.append((e + img if sign == 1 else e - img) * half)
                kept.append(row)
    return parts


def _window_involution(phi, N):
    """The conductor M = lcm(4, 2l) of the window field and the window N
    (2l + 4 by default) of a compact involution phi, which must map the
    compact window onto itself: its curve is constant, its twist and
    constant part commute with the compact conjugation and its rotation
    phases lie in Q(zeta_M).  Otherwise NotCompactMode, or NotInvolution for
    an order above two, is raised before any work: the order is sought up
    to two only, so a non-involution costs two compositions.  A negative
    window N raises WindowTooSmall."""
    if N is not None and N < 0:
        raise WindowTooSmall("a window [-N, N] needs N >= 0, not %d" % N)
    if phi.algebra.mode != "compact":
        raise NotCompactMode("real forms and Cartan decompositions live on "
                             "the compact form")
    om = omega_automorphism(phi.algebra)
    if any(a.compose(om) != om.compose(a) for a in (phi.twist, phi.phi0)):
        raise NotCompactMode("twist and constant part must commute with the "
                             "compact conjugation")
    if not phi.X.matrix.is_zero():
        raise NotCompactMode("a nonconstant curve moves degrees out of the "
                             "window")
    M = lcm(4, 2 * phi.l)
    if M % (phi.t0.denominator * phi.l):
        raise NotCompactMode("rotation by 2 pi t0 = 2 pi %s has phases outside "
                             "the window field Q(zeta_%d)" % (phi.t0, M))
    try:
        phi.order(bound=2)
    except OrderExceedsBound:
        raise NotInvolution("input is not an involution") from None
    return M, 2 * phi.l + 4 if N is None else N


def real_form(phi, N=None):
    """Window basis of the real form of a compact involution phi of either
    kind, the identity included: the fixed part of its conjugate-linear
    extension psi on the window [-N, N] of phi's twist.

    The units are the degree-n twist eigenvectors u times the Q-basis z of
    Q(zeta_M), paired with psi(u z) = psi(u) conj(z).  psi conjugates c and
    d and multiplies them by eps, so it fixes F c and F d on the first kind
    and i F c and i F d on the second, which are added as they are."""
    M, N = _window_involution(phi, N)
    algebra, tw, l, dim = phi.algebra, phi.twist, phi.l, phi.algebra.dim
    psi = conj_linear_extend(phi)
    P = _map_period(psi.apply, algebra, tw, l, M)
    scalars = [(z, z.conj()) for z in _field_basis(M)]
    units = [(u, psi.apply(u)) for u in window_basis(algebra, tw, l, min(N, P or N))]

    def rows():  # those of u z and psi(u) conj(z): one degree, no c or d
        for pair in units:
            ru, rp = (_affine_row(AffineElement(v), N, M) for v in pair)
            for zs in scalars:
                yield [({n: _scale((M, blk, r[3]), z)[1]
                         for n, blk in r[0].items()}, None, None, r[3] * z.den)
                       for r, z in zip((ru, rp), zs)]

    def build(j):
        (u, pu), (z, zc) = units[j // len(scalars)], scalars[j % len(scalars)]
        return AffineElement(u * z), AffineElement(pu * zc)

    out, span, kept = _tiled(_fixed_part(rows(), build, M, N, dim)[0],
                             range(-N, N + 1), P, N, dim * _context(M).phi)
    # c and d go in by hand, on the basis of `_real_field_basis`: through the
    # extension they would come as the halves (z + eps conj(z)) / 2
    i = root_of_unity(4, 1)
    zero = LoopElement.zero(algebra, tw, l)
    for f in _real_field_basis(M):
        f = f if phi.epsilon == 1 else i * f
        for x in (AffineElement(zero, c=f), AffineElement(zero, d=f)):
            kept.append(_affine_row(x, N, M))
            span.add(flatten(_packed(kept[-1], N, dim), M))
            out.append(x)
    return RealFormBasis(algebra, phi, N, l, out, span, kept, P)


def real_form_basis(algebra, pair, N=None):
    """Window basis of the real form attached to a second-kind pair: the
    real form of the pair's realization, u(t) -> rho+(u(-t)) on the loop
    algebra twisted by rho-^(-1) rho+."""
    inv = SecondKindInvariant(algebra, 2, pair, pair_k(algebra, *pair))
    return real_form(realize(inv), N)


class RealFormBasis:
    """A real form's window basis, with the Q-span of its window rows, the
    rows, which `real_form` formed, and the period P they were tiled with
    (None: a full sweep checks them)."""

    __slots__ = ("algebra", "phi", "window", "l", "basis", "_span", "_rows",
                 "period")

    def __init__(self, algebra, phi, window, l, basis, span, rows, period):
        self.algebra = algebra
        self.phi = phi
        self.window = window
        self.l = l
        self.basis = basis
        self._span = span
        self._rows = rows
        self.period = period

    def loop_elements(self):
        return [b for b in self.basis if not b.loop.is_zero()]

    def coefficient_dims(self):
        """Dimension over F of each degree's coefficient space.  On the
        first kind each element pairs degrees -n and n and is counted at
        -n."""
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
        return _brackets_in(self.algebra, self.l, self._rows, self._rows,
                            self._span, lcm(4, 2 * self.l), self.window,
                            self.period)


def _map_period(f, algebra, tw, l, M):
    """The least multiple P of l dividing M with f(x t^P) = t^(+-P) f(x), or
    None: f maps degrees one by one, so one call takes x at 0 and each P."""
    steps = [P for P in range(l, M + 1, l) if not M % P]
    x = window_basis(algebra, tw, l, 0)[:1]
    img = x and f(LoopElement._of_normal(algebra, tw, l, dict.fromkeys(
        [0, *steps], x[0].rows[0]))).rows
    if img and sorted(map(abs, img)) == [0, *steps]:
        return next((P for P in steps if img.get(P, img.get(-P)) == img[0]), None)


def _moved(rows, s, top, N, width):
    """Stored span rows (pivot, row) of pivot degree |n| <= top, moved s."""
    def mv(j):
        return j + s * width if j // width > N else j - s * width
    return {mv(p): ({mv(c): v for c, v in row.items()}, den)
            for p, (row, den) in rows if abs(p // width - N) <= top}


def _tiled(part, order, P, N, width):
    """The (elements, span, rows) of `_fixed_part` on [-N, N] from those on
    |n| <= P, by unit degree (that of the lowest block) in order."""
    out, span, kept = part
    if P is None or N <= P:
        return part
    by = {}
    for e, r in zip(out, kept):
        by.setdefault(min(r[0], default=None), []).append((e, r))
    out, kept = [], []
    for n in [*order, None]:
        s = (abs(n) - 1) // P * P if n else 0
        for e, r in by.get(n if not s else n - s if n > 0 else n + s, ()):
            u = e.loop
            out.append(AffineElement(LoopElement._of_normal(
                u.algebra, u.twist, u.l, _shifted(u.rows, s)), e.c, e.d))
            kept.append((_shifted(r[0], s),) + r[1:])
    one = [(p, r) for p, r in span.rows() if 0 < abs(p // width - N) <= P]
    for s in range(P, N, P):
        span.join(_moved(one, s, N - s, N, width))
    return out, span, kept


def _brackets_in(algebra, l, xs, ys, span, M, N, P):
    """Whether each bracket [x, y] supported in [-N, N] lies in span, for xs and
    ys window rows over Q(zeta_M) at loop conductor l, tiled with period P
    (None: the full sweep): one pair a key (module docstring) is bracketed,
    unless it has no d and all |p + q| exceed N; for N >= 3P, of the groups
    up to 2P only."""
    top = 2 * P if P and N >= 3 * P else N
    def grouped(rows):  # {n: rows on degrees in {n, -n}}, others at n < 0
        groups = {}
        for k, r in enumerate(rows):
            ns = {abs(n) for n in r[0]}
            n = ns.pop() if len(ns) == 1 and not (r[1] or r[2]) else ~k
            if n <= top:
                groups.setdefault(n, []).append(r)
        return sorted(groups.items())
    gx = grouped(xs)
    gy = gx if ys is xs else grouped(ys)
    complete = set()
    for (m, rx), (n, ry) in sorted(combinations_with_replacement(gx, 2) if ys is xs
                                   else product(gx, gy), key=lambda g: g[0][0] + g[1][0]):
        regime = tuple((k % P if P else k) if k > 0 else k for k in (m, n)) + (
            m == 0, n == 0, (m > n) - (m < n))
        if regime in complete:
            continue
        zs = [None if x[2] is None and y[2] is None and all(
                  abs(p + q) > N for p in x[0] for q in y[0])
              else _parts_bracket(algebra, l, x, y, N, M)
              for x, y in (combinations(rx, 2) if rx is ry else product(rx, ry))]
        if any(z and (z[0] or z[1]) and not span.contains(
                flatten(_packed(z, N, algebra.dim), M)) for z in zs):
            return False
        if all(zs):  # each bracket stayed in the window
            complete.add(regime)
    return True


# ---------------------------------------------------------------------------
# Cartan decompositions on windows
# ---------------------------------------------------------------------------

def compact_window_basis(algebra, twist, l, N):
    """Rational basis of the compact form's window, the fixed points of the
    loop map omega^: u(t) -> omega(u(t)), degree n to -n: u + omega^(u) for
    u an eigenvector of degree 1 <= n <= N times a Q-basis element of the
    window field, then the omega^-fixed part at n = 0."""
    M0 = lcm(4, 2 * l)
    # twist^l = id holds for the caller's map, and omega^ has no curve
    hat = StandardLoopAutomorphism(twist, l, 1, 0, None,
                                   omega_automorphism(algebra), validate=False)
    units = [(u.support()[0], u * z) for u in window_basis(algebra, twist, l, N)
             if u.support()[0] >= 0 for z in _field_basis(M0)]
    pairs = [(AffineElement(u), AffineElement(hat.apply(u)))
             for n, u in units if n == 0]
    [(fixed, _, _)] = _fixed_part(
        [tuple(_affine_row(x, 0, M0) for x in p) for p in pairs],
        pairs.__getitem__, M0, 0, algebra.dim)
    return [u + hat.apply(u) for n, u in units if n > 0] + [x.loop for x in fixed]


def cartan_decomposition(phi, N=None):
    """Exact +-1 eigenbasis split K + P of a compact involution on the
    compact window, under the guard of `real_form`, whose basis spans
    K + iP.  Returns a dict with K and P (lists of AffineElement), the
    window and the window bracket-closure verdicts."""
    M, N = _window_involution(phi, N)
    algebra, tw, l = phi.algebra, phi.twist, phi.l
    # constant curve, target twist tw: images at conductor l, ext on loops is phi
    ext = affine_extend(phi)
    P = _map_period(phi.apply, algebra, tw, l, M)
    zero = LoopElement.zero(algebra, tw, l)
    elts = [AffineElement(b) for b in compact_window_basis(algebra, tw, l, min(N, P or N))]
    for f in _real_field_basis(M):
        elts += [AffineElement(zero, c=f), AffineElement(zero, d=f)]
    pairs = [(e, ext.apply(e)) for e in elts]
    (Kb, kspan, ks), (Pb, pspan, ps) = (
        _tiled(part, [*range(-1, -N - 1, -1), 0], P, N, algebra.dim * _context(M).phi)
        for part in _fixed_part(
            [tuple(_affine_row(x, N, M) for x in p) for p in pairs],
            pairs.__getitem__, M, N, algebra.dim, (1, -1)))
    inclusions = {
        "KK_in_K": _brackets_in(algebra, l, ks, ks, kspan, M, N, P),
        "KP_in_P": _brackets_in(algebra, l, ks, ps, pspan, M, N, P),
        "PP_in_K": _brackets_in(algebra, l, ps, ps, kspan, M, N, P),
    }
    return {"K": Kb, "P": Pb, "window": N, "inclusions": inclusions}


# ---------------------------------------------------------------------------
# the sl(2) catalogue
# ---------------------------------------------------------------------------

def sl2_catalogue():
    """Almost compact and almost split real forms of the rank-one complex
    loop algebra, with verified invariants and the window basis of every
    class: the real form of the class's realization."""
    algebra = make_algebra("a", 1, "compact")
    report = {}
    for type_, invs in _classes(algebra, 1).items():
        bases = report["almost_compact_bases" if type_ == 1
                       else "almost_split_bases"] = {}
        for inv in invs:
            rb = real_form(realize(inv))
            bases[repr(invariant_extension_map(inv))] = {
                "l": rb.l, "dims": rb.coefficient_dims(),
                "closed": rb.closed_under_bracket()}
    # almost compact = conjugate-linear type 1 classes
    t1 = enumerate_conj_linear(algebra, 1, 1)
    names = {}
    for inv in t1:
        if inv.base.p == 1:
            names[inv] = "L_pi(sl(2,C), omega)"
        elif inv.base.rho.p == 0:
            names[inv] = "L(su(2))  [compact]"
        elif inv.base.beta.rep == "id":
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
    # realize every class and its conjugate-linear extension, and read
    # both back
    report["verified"] = check_extension_bijection(algebra, 1)["ok"]
    report["ok"] = (report["verified"]
                    and report["almost_split_count"] == 3
                    and report["noncompact_almost_compact_count"] == 3
                    and report["almost_compact_count"] == 4
                    and all(v["closed"] for key in ("almost_compact_bases",
                                                    "almost_split_bases")
                            for v in report[key].values()))
    return report
