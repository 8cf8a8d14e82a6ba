"""Twisted loop algebras with finite Fourier support and their two-dimensional
central/derivation extension.

A loop element is a finite map n -> u_n with u_n in the zeta_l^n eigenspace
of the twist; the bracket is coefficient convolution plus, on the extended
algebra, the exact pairing cocycle (u', v) c.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from . import kernel
from .algebra import AlgebraElement, sigma_eigenspace
from .cyclo import CycloMatrix, CycloScalar, _context, _json_int, root_of_unity
from .errors import TwistMismatch, WindowTooSmall
from .linalg import Span, _strip

_ZERO = CycloScalar.from_rational(0)


class LoopElement:
    """Finite Laurent sum u(t) = sum_n u_n e^(i n t / l) with twist-eigenspace
    coefficients."""

    __slots__ = ("algebra", "twist", "l", "coeffs")

    def __init__(self, algebra, twist, l, coeffs, validate=True):
        self.algebra = algebra
        self.twist = twist
        self.l = l
        clean = {}
        for n, M in coeffs.items():
            if isinstance(M, AlgebraElement):
                M = M.matrix
            if not M.is_zero():
                clean[int(n)] = M
        self.coeffs = clean
        if validate:
            if twist.algebra != algebra:
                raise TwistMismatch("twist lives on a different algebra")
            for n, M in clean.items():
                img = twist.apply_matrix(M)
                if img != M * root_of_unity(l, n % l):
                    raise TwistMismatch(
                        "coefficient %d is not in the twist eigenspace" % n)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(algebra, twist, l):
        return LoopElement(algebra, twist, l, {}, validate=False)

    @staticmethod
    def constant(x, twist, l):
        return LoopElement(x.algebra, twist, l, {0: x.matrix})

    def support(self):
        return sorted(self.coeffs)

    def coefficient(self, n):
        M = self.coeffs.get(n)
        if M is None:
            return CycloMatrix.zeros(self.algebra.size)
        return M

    def is_zero(self):
        return not self.coeffs

    def _compat(self, other):
        if (self.algebra != other.algebra or self.l != other.l
                or self.twist != other.twist):
            raise TwistMismatch("loop elements live on different twists")

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        self._compat(other)
        return self.coeffs.keys() == other.coeffs.keys() and all(
            self.coeffs[n] == other.coeffs[n] for n in self.coeffs)

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for n, M in other.coeffs.items():
            out[n] = out[n] + M if n in out else M
        return LoopElement(self.algebra, self.twist, self.l, out, validate=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LoopElement(self.algebra, self.twist, self.l,
                           {n: -M for n, M in self.coeffs.items()}, validate=False)

    def __mul__(self, scalar):
        return LoopElement(self.algebra, self.twist, self.l,
                           {n: M * scalar for n, M in self.coeffs.items()},
                           validate=False)

    __rmul__ = __mul__

    def re_conductor(self, l_new):
        """Reindex to a larger conductor l_new (l | l_new)."""
        if l_new == self.l:
            return self
        if l_new % self.l:
            raise TwistMismatch("conductor %d does not refine %d" % (l_new, self.l))
        f = l_new // self.l
        return LoopElement(self.algebra, self.twist, l_new,
                           {n * f: M for n, M in self.coeffs.items()},
                           validate=False)

    def is_compact(self):
        """Reality constraint of the compact form: u_(-n) = omega(u_n)."""
        omega = self.algebra.omega_matrix
        return all(self.coefficient(-n) == omega(M)
                   for n, M in self.coeffs.items())

    def to_json(self):
        return {"twist": self.twist.to_json(), "l": self.l,
                "coeffs": {str(n): M.to_json() for n, M in self.coeffs.items()}}

    @staticmethod
    def from_json(obj):
        from .autg import Automorphism
        twist = Automorphism.from_json(obj["twist"])
        coeffs = {int(n): CycloMatrix.from_json(m)
                  for n, m in obj["coeffs"].items()}
        return LoopElement(twist.algebra, twist, _json_int(obj, "l"), coeffs)

    def __repr__(self):
        return "LoopElement(%s, l=%d, support=%s)" % (
            self.algebra.label(), self.l, self.support())


class AffineElement:
    """Loop element plus central and derivation coordinates."""

    __slots__ = ("loop", "c", "d")

    def __init__(self, loop, c=None, d=None):
        self.loop = loop
        self.c = c if c is not None else _ZERO
        self.d = d if d is not None else _ZERO
        if not isinstance(self.c, CycloScalar):
            self.c = CycloScalar.from_rational(self.c)
        if not isinstance(self.d, CycloScalar):
            self.d = CycloScalar.from_rational(self.d)

    def __eq__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        return (self.loop == other.loop and self.c == other.c
                and self.d == other.d)

    def __add__(self, other):
        return AffineElement(self.loop + other.loop, self.c + other.c,
                             self.d + other.d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AffineElement(-self.loop, -self.c, -self.d)

    def __mul__(self, scalar):
        return AffineElement(self.loop * scalar, self.c * scalar,
                             self.d * scalar)

    __rmul__ = __mul__

    def is_zero(self):
        return self.loop.is_zero() and self.c.is_zero() and self.d.is_zero()

    def to_json(self):
        out = self.loop.to_json()
        out["c"] = self.c.to_json()
        out["d"] = self.d.to_json()
        return out

    @staticmethod
    def from_json(obj):
        loop = LoopElement.from_json(obj)
        return AffineElement(loop, CycloScalar.from_json(obj["c"]),
                             CycloScalar.from_json(obj["d"]))

    def __repr__(self):
        return "AffineElement(%r, c=%r, d=%r)" % (self.loop, self.c, self.d)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def loop_bracket(u, v):
    """Pointwise bracket: coefficient convolution."""
    u._compat(v)
    alg = u.algebra
    out = {}
    for a, Ma in u.coeffs.items():
        for b, Mb in v.coeffs.items():
            B = alg.bracket_matrix(Ma, Mb)
            if not B.is_zero():
                n = a + b
                out[n] = out[n] + B if n in out else B
    return LoopElement(alg, u.twist, u.l, out, validate=False)


def loop_form(u, v):
    """Averaged invariant form: only exponent pairs summing to zero pair up.

    Pairs whose exponent sum is a nonzero multiple of l integrate to zero
    over a full period; pairs whose sum is not a multiple of l have zero
    pairing by eigenspace orthogonality, which is asserted exactly instead
    of being integrated."""
    u._compat(v)
    alg = u.algebra
    total = _ZERO
    for a, Ma in u.coeffs.items():
        for b, Mb in v.coeffs.items():
            s = a + b
            if s == 0:
                total = total + alg.killing_matrix(Ma, Mb)
            elif s % u.l != 0:
                val = alg.killing_matrix(Ma, Mb)
                assert val.is_zero(), "eigenspace orthogonality violated"
    return total


def _rates(u):
    """r(u)_n = (n/l) u_n at each coefficient's own conductor; u' = i r(u)."""
    return {n: M * Fraction(n, u.l) for n, M in u.coeffs.items() if n}


def derivative(u):
    """u' with coefficientwise factor i*n/l."""
    i = root_of_unity(4, 1)
    return LoopElement(u.algebra, u.twist, u.l,
                       {n: M * i for n, M in _rates(u).items()}, validate=False)


def affine_bracket(x, y):
    """[u + a c + b d, v + g c + e d] = [u,v]_0 + b v' - e u' + (u', v) c.

    With u' = i r(u), the derivative terms of each degree are summed as
    b r(v)_n - e r(u)_n and multiplied by i once, and the cocycle is
    i (r(u), v).  A degree that receives a derivative term is lifted to the
    conductor of i even where that term cancels, and the cocycle only where
    some degree pairs, as forming u' and v' first would."""
    u, v = x.loop, y.loop
    u._compat(v)
    b, e = x.d, y.d
    ru = _rates(u)
    terms = {n: M * (b * Fraction(n, v.l))
             for n, M in v.coeffs.items() if n} if b else {}
    if e:
        for n, M in ru.items():
            terms[n] = terms[n] - M * e if n in terms else M * -e
    i = root_of_unity(4, 1)
    out = loop_bracket(u, v).coeffs
    for n, D in terms.items():
        D = D * i
        out[n] = out[n] + D if n in out else D
    cocycle = loop_form(LoopElement(u.algebra, u.twist, u.l, ru, validate=False), v)
    if any(-n in v.coeffs for n in ru):
        cocycle = cocycle * i
    return AffineElement(LoopElement(u.algebra, u.twist, u.l, out, validate=False),
                         cocycle, _ZERO)


def affine_form(x, y):
    """(u + a c + b d, v + g c + e d) = (u, v) + a e + b g."""
    x.loop._compat(y.loop)
    return loop_form(x.loop, y.loop) + x.c * y.d + x.d * y.c


def central_element(algebra, twist, l):
    return AffineElement(LoopElement.zero(algebra, twist, l),
                         CycloScalar.from_rational(1), _ZERO)


def derivation_element(algebra, twist, l):
    return AffineElement(LoopElement.zero(algebra, twist, l), _ZERO,
                         CycloScalar.from_rational(1))


def window_basis(algebra, twist, l, N):
    """Loop elements b * e^(int/l) for eigenspace bases b of g_n, |n| <= N."""
    out = []
    for n in range(-N, N + 1):
        for b in sigma_eigenspace(algebra, twist, l, n % l):
            out.append(LoopElement(algebra, twist, l, {n: b.matrix},
                                   validate=False))
    return out


def join_rows(parts):
    """One packed row from (column offset, packed row) parts over one field:
    the entries of each part shifted by its offset, over the lcm of the
    parts' denominators."""
    den = lcm(1, *(d for _, (_, d) in parts))
    return {base + j: tuple(c * (den // d) for c in v)
            for base, (ents, d) in parts for j, v in ents.items()}, den


def _affine_row(x, N, M):
    """The packed row over Q(zeta_M) of an affine element on the window
    [-N, N]: the coords of its degree-n coefficient from column
    (n + N) * dim on, then c and d.  Degrees outside the window are
    ignored."""
    alg = x.loop.algebra
    top = (2 * N + 1) * alg.dim
    parts = [((n + N) * alg.dim, alg.coords(A.promote(M)))
             for n, A in x.loop.coeffs.items() if abs(n) <= N]
    parts += [(col, ({0: s.promote(M).nums}, s.den))
              for col, s in ((top, x.c), (top + 1, x.d)) if s]
    return join_rows(parts)


def _row_parts(row, N, dim):
    """The coefficients {n: {k: coordinates}} and the d coordinate (None if
    zero) of an affine element's `_affine_row` on the window [-N, N]."""
    top = (2 * N + 1) * dim
    coeffs = {}
    for col, v in row[0].items():
        if col < top:
            n, k = divmod(col, dim)
            coeffs.setdefault(n - N, {})[k] = v
    return coeffs, row[0].get(top + 1)


def row_bracket(algebra, l, x, y, N, M):
    """The row of [x, y] on the window [-N, N] (`_affine_row`) from the rows
    x and y of two affine elements over Q(zeta_M) there, 4 | M, or None if
    [x, y] has a nonzero coefficient outside the window.

    The value is that of `affine_bracket`: for x = u + a c + b d and
    y = v + g c + e d, the convolution sum_(p+q=n) [u_p, v_q] through the
    structure constants, the derivative terms (n/l) i (b v_n - e u_n) and
    the cocycle i sum_n (n/l) K(u_n, v_-n) c.  The degrees outside the
    window are formed first, and the first nonzero one ends the call; the
    zero bracket is the empty row."""
    C, K, D = algebra.structure_constants()
    dim = algebra.dim
    ctx = _context(M)
    red, phi = ctx.red, ctx.phi
    conv = kernel.conv_reduce
    u, b = _row_parts(x, N, dim)
    v, e = _row_parts(y, N, dim)
    # numerators over x's den * y's den * D * l
    den = x[1] * y[1] * D * l
    sums = {}
    for p in u:
        for q in v:
            sums.setdefault(p + q, []).append((u[p], v[q]))
    ents = {}
    for n in sorted(sums, key=lambda n: abs(n) <= N):  # outside first
        acc = {}
        for up, vq in sums[n]:
            for i, s in up.items():
                Ci = C[i]
                for j, t in vq.items():
                    if Ci[j]:
                        st = conv(s, t, red, phi)
                        for k, c in Ci[j]:
                            w = acc.get(k)
                            if w is None:
                                w = acc[k] = [0] * phi
                            for r in range(phi):
                                w[r] += c * st[r]
        acc = {k: w for k, w in acc.items() if any(w)}
        if acc and abs(n) > N:
            return None
        base = (n + N) * dim
        for k, w in acc.items():
            ents[base + k] = [l * a for a in w]
    # (n/l) i (b v_n - e u_n) and the cocycle, over den / D before i
    deriv = {}
    for s, w, sign in ((b, v, D), (e, u, -D)):
        for n, coeff in w.items():
            if s and n:
                for k, t in coeff.items():
                    st = conv(s, t, red, phi)
                    acc = deriv.setdefault((n + N) * dim + k, [0] * phi)
                    for r in range(phi):
                        acc[r] += sign * n * st[r]
    cocycle = [0] * phi
    for n, up in u.items():
        vq = v.get(-n)
        if n and vq:
            for i, s in up.items():
                Ki = K[i]
                for j, t in vq.items():
                    if Ki[j]:
                        st = conv(s, t, red, phi)
                        for r in range(phi):
                            cocycle[r] += n * Ki[j] * st[r]
    if any(cocycle):
        deriv[(2 * N + 1) * dim] = cocycle
    if deriv:
        i = ctx.power(M // 4)
        for col, w in deriv.items():
            t = conv(tuple(w), i, red, phi)
            w = ents.get(col)
            ents[col] = t if w is None else [a + c for a, c in zip(w, t)]
    row = {col: tuple(w) for col, w in ents.items() if any(w)}
    return _strip(row, den) if row else ({}, 1)


def derived_algebra_witness(algebra, twist, l, N):
    """Check on the window [-N, N] that brackets together with c span every
    coefficient of degree <= N/2, and that d is not in the bracket span."""
    if N < 2 * l:
        raise WindowTooSmall("window must be at least twice the conductor")
    gens = window_basis(algebra, twist, l, N)
    # one field for every row: the conductors of the basis and that of i
    M = lcm(4, *(A.N for u in gens for A in u.coeffs.values()))
    rows = [_affine_row(AffineElement(u), N, M) for u in gens]
    span = Span((z for x, y in combinations(rows, 2)
                 for z in [row_bracket(algebra, l, x, y, N, M)]
                 if z is not None), M)
    targets = [AffineElement(u) for u in window_basis(algebra, twist, l, N // 2)]
    span.add(_affine_row(central_element(algebra, twist, l), N, M))
    report = {"window": N, "c_in_span": True, "d_in_span": False,
              "checked": 0}
    for x in targets:
        if not span.contains(_affine_row(x, N, M)):
            report["c_in_span"] = False
            report["missing"] = repr(x.loop)
            break
        report["checked"] += 1
    report["d_in_span"] = span.contains(
        _affine_row(derivation_element(algebra, twist, l), N, M))
    report["ok"] = report["c_in_span"] and not report["d_in_span"]
    return report
