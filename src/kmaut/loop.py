"""Twisted loop algebras with finite Fourier support and their two-dimensional
central/derivation extension.

A loop element is a finite map n -> u_n with u_n in the zeta_l^n eigenspace
of the twist.  Each coefficient u_n is stored as its coordinates on
`algebra.basis()`: a packed row (N, {k: coefficient tuple}, den) over
Q(zeta_N) in lowest terms, N being the conductor that u_n's matrix carries.
Matrices are met only at the JSON and public boundary: the constructor
reads them through `coords`, and `coeffs`, `coefficient` and `to_json` write
them through `from_coords`.  Loop automorphisms (`loopaut`) act on the rows.

Everything else is bilinear in the coordinates.  The bracket is one pass
over raw rows: `_convolution` forms each pair through the structure
constants (`_convolve`, shared with `_parts_bracket`), each row lifted once
per conductor; `affine_bracket` adds the derivation terms, i b and i e held
as coordinates (`_times_i`), and the cocycle (u', v) c, and each degree is
put in lowest terms once.  The form and the cocycle are one weighted pairing
sum through the Killing Gram matrix K (`_form`); `affine_form` adds a e + b g
as rows.  Each result coefficient carries the conductor the matrix
computation gives it: the lcm of the conductors of its nonzero
contributions, lifted to that of i where a derivative term reaches it.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import gcd, lcm

from . import kernel
from .algebra import AlgebraElement, sigma_eigenspace
from .cyclo import (CycloMatrix, CycloScalar, _context, _json_int, _lift,
                    root_of_unity)
from .errors import MembershipError, TwistMismatch, WindowTooSmall
from .linalg import Span, _strip

_ZERO = CycloScalar.from_rational(0)
_I = 4, (0, 1), 1  # i, as (N, numerators, den)


# ---------------------------------------------------------------------------
# coefficient rows (N, {k: coefficient tuple}, den)
# ---------------------------------------------------------------------------

def _lift_row(row, M):
    """The entries of a coefficient row over Q(zeta_M), N | M."""
    N, ents, _ = row
    if N == M:
        return ents
    return {k: _lift(v, N, M) for k, v in ents.items()}


def _normal(row):
    """The row in lowest terms, zero entries dropped, or None if it is zero."""
    N, ents, den = row
    g = gcd(den, *chain.from_iterable(ents.values()))
    ents = {k: tuple(w) if g == 1 else tuple([c // g for c in w])
            for k, w in ents.items() if any(w)}
    return (N, ents, den // g) if ents else None


def _row_eq(a, b):
    """Whether two rows in lowest terms hold the same value: lifting to a
    common conductor keeps them in lowest terms."""
    if a[0] == b[0]:
        return a[1:] == b[1:]
    M = lcm(a[0], b[0])
    return a[2] == b[2] and _lift_row(a, M) == _lift_row(b, M)


def _combine(a, b, sign=1):
    """a + sign * b at the lcm of the conductors.  Entries that cancel are
    deleted, so the sum may be the empty row, which keeps its conductor."""
    N = a[0] if a[0] == b[0] else lcm(a[0], b[0])
    ea, eb = _lift_row(a, N), _lift_row(b, N)
    den = lcm(a[2], b[2])
    return N, kernel.add_rows(ea, den // a[2], eb, sign * (den // b[2])), den


def _scale(row, s, n=1, l=1):
    """row * s * n / l for s a CycloScalar, int, Fraction or raw (N, nums,
    den) and integers n, l (folded into s), at the lcm of the conductors (a
    rational s keeps the row's); the empty row if s n = 0."""
    if not isinstance(s, tuple):
        s = s if isinstance(s, CycloScalar) else _scalar(s)
        s = s.N, s.nums, s.den
    sN, nums, sden = s
    N = row[0]
    M = N if N == sN else lcm(N, sN)
    if not n or not any(nums):
        return M, {}, 1
    if any(nums[1:]):
        ctx = _context(M)
        nums = [n * a for a in _lift(nums, sN, M)]
        ents = {k: tuple([v[0] * a for a in nums]) if len(v) == 1 else
                kernel.conv_reduce(_lift(v, N, M), nums, ctx.red, ctx.phi)
                for k, v in row[1].items()}
    else:
        c = n * nums[0]
        ents = {k: tuple([x * c for x in v])
                for k, v in _lift_row(row, M).items()}
    return M, ents, row[2] * sden * l


def _times_i(N, nums):
    """i z as (lcm(N, 4), numerators), for z in Q(zeta_N) as numerators."""
    if len(nums) == 1:  # N is 1 or 2
        return 4, (0, nums[0])
    M = lcm(N, 4)
    ctx = _context(M)
    return M, kernel.conv_reduce(_lift(nums, N, M), ctx.power(M // 4),
                                 ctx.red, ctx.phi)


def _convolve(acc, x, y, C, red, phi):
    """Add sum_(i, j) x_i y_j C[i][j] into acc ({k: list of phi integers}):
    the numerators of [sum_i x_i b_i, sum_j y_j b_j] in coordinates, over
    the denominators of x, y and the structure constants."""
    conv = kernel.conv_reduce
    for i, s in x.items():
        Ci = C[i]
        for j, t in y.items():
            cij = Ci[j]
            if cij:
                st = conv(s, t, red, phi)
                for k, c in cij:
                    w = acc.get(k)
                    if w is None:
                        acc[k] = [c * a for a in st]
                    else:
                        for r in range(phi):
                            w[r] += c * st[r]


def _pairing(pairs, K, red, phi):
    """sum_(w, x, y) w sum_(i, j) x_i y_j K[i][j] as phi integers, for integer
    weights w: a weighted Killing pairing sum of coordinate vectors."""
    conv = kernel.conv_reduce
    acc = [0] * phi
    for w, x, y in pairs:
        for i, s in x.items():
            Ki = K[i]
            for j, t in y.items():
                kij = Ki[j]
                if kij:
                    st = conv(s, t, red, phi)
                    kij *= w
                    for r in range(phi):
                        acc[r] += kij * st[r]
    return acc


def _form(algebra, pairs, N=1):
    """sum w K(x, y) over (w, x, y), w an integer and x, y coefficient rows,
    as (M, numerators, den) over Q(zeta_M), M the lcm of N and the rows'
    conductors: the pairing sum that `loop_form` and the cocycle share."""
    _, K, D = algebra.structure_constants()
    N = lcm(N, *(r[0] for _, x, y in pairs for r in (x, y)))
    den = lcm(1, *(x[2] * y[2] for _, x, y in pairs))
    ctx = _context(N)
    return N, _pairing([(w * (den // (x[2] * y[2])), _lift_row(x, N),
                         _lift_row(y, N)) for w, x, y in pairs],
                       K, ctx.red, ctx.phi), den * D


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class LoopElement:
    """Finite Laurent sum u(t) = sum_n u_n e^(i n t / l) with twist-eigenspace
    coefficients, each held as the coordinate row (N, entries, den) of
    `rows[n]`."""

    __slots__ = ("algebra", "twist", "l", "rows")

    def __init__(self, algebra, twist, l, coeffs, validate=True):
        """Read the coefficient matrices (or AlgebraElements) of coeffs into
        coordinates.  With validate, each must lie in the algebra and in its
        twist eigenspace; without, a matrix outside the algebra silently
        becomes the element of its coordinates."""
        if validate and twist.algebra != algebra:
            raise TwistMismatch("twist lives on a different algebra")
        rows = {}
        for n, M in coeffs.items():
            if isinstance(M, AlgebraElement):
                M = M.matrix
            if M.is_zero():
                continue
            n = int(n)
            if validate:
                if not algebra.contains_matrix(M):
                    raise MembershipError(
                        "coefficient %d is not in %r" % (n, algebra))
                if twist.apply_matrix(M) != M * root_of_unity(l, n % l):
                    raise TwistMismatch(
                        "coefficient %d is not in the twist eigenspace" % n)
            row = _normal((M.N,) + algebra.coords(M))
            if row is not None:
                rows[n] = row
        self.algebra = algebra
        self.twist = twist
        self.l = l
        self.rows = rows

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(algebra, twist, l, rows):
        """The element of coordinate rows {n: (N, entries, den)}, unchecked;
        empty rows are dropped and the others put in lowest terms."""
        out = LoopElement.__new__(LoopElement)
        out.algebra, out.twist, out.l = algebra, twist, l
        out.rows = {n: r for n, row in rows.items() if (r := _normal(row))}
        return out

    @staticmethod
    def zero(algebra, twist, l):
        return LoopElement.from_rows(algebra, twist, l, {})

    def _like(self, rows):
        return LoopElement.from_rows(self.algebra, self.twist, self.l, rows)

    def support(self):
        return sorted(self.rows)

    @property
    def coeffs(self):
        """{n: coefficient matrix}, each written through `from_coords` at its
        degree's conductor."""
        fc = self.algebra.from_coords
        return {n: fc((ents, den), N) for n, (N, ents, den) in self.rows.items()}

    def coefficient(self, n):
        row = self.rows.get(n)
        if row is None:
            return CycloMatrix.zeros(self.algebra.size)
        N, ents, den = row
        return self.algebra.from_coords((ents, den), N)

    def is_zero(self):
        return not self.rows

    def _compat(self, other):
        a, b, s, t = self.algebra, other.algebra, self.twist, other.twist
        if self.l != other.l or a is not b and a != b or s is not t and s != t:
            raise TwistMismatch("loop elements live on different twists")

    def __eq__(self, other):
        if not isinstance(other, LoopElement):
            return NotImplemented
        self._compat(other)
        return self.rows.keys() == other.rows.keys() and all(
            _row_eq(r, other.rows[n]) for n, r in self.rows.items())

    def _plus(self, other, sign):
        """self + sign * other.  Only a degree that both hold is put in
        lowest terms again: the other rows, and their negations, already
        are."""
        self._compat(other)
        out = dict(self.rows)
        for n, r in other.rows.items():
            if n in out:
                r = _normal(_combine(out[n], r, sign))
                if r is None:
                    del out[n]
                    continue
            elif sign != 1:
                r = _scale(r, -1)
            out[n] = r
        res = LoopElement.__new__(LoopElement)
        res.algebra, res.twist, res.l, res.rows = (self.algebra, self.twist,
                                                   self.l, out)
        return res

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        return self._like({n: _scale(r, scalar) for n, r in self.rows.items()})

    __rmul__ = __mul__

    def re_conductor(self, l_new):
        """Reindex to a larger conductor l_new (l | l_new)."""
        if l_new == self.l:
            return self
        if l_new % self.l:
            raise TwistMismatch("conductor %d does not refine %d" % (l_new, self.l))
        f = l_new // self.l
        return LoopElement.from_rows(self.algebra, self.twist, l_new,
                                     {n * f: r for n, r in self.rows.items()})

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


def _scalar(s):
    """An int, Fraction or None (zero) written at conductor 1."""
    s = s or 0
    return CycloScalar(1, (s.numerator,), s.denominator, _normalized=True)


class AffineElement:
    """Loop element plus central and derivation coordinates."""

    __slots__ = ("loop", "c", "d")

    def __init__(self, loop, c=None, d=None):
        self.loop = loop
        self.c = c if isinstance(c, CycloScalar) else _scalar(c)
        self.d = d if isinstance(d, CycloScalar) else _scalar(d)

    def __eq__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        return (self.loop == other.loop and self.c == other.c
                and self.d == other.d)

    def __add__(self, other):
        return AffineElement(self.loop + other.loop, self.c + other.c,
                             self.d + other.d)

    def __sub__(self, other):
        return AffineElement(self.loop - other.loop, self.c - other.c,
                             self.d - other.d)

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

def _convolution(u, v):
    """The rows {n: (N, entries, den)} of sum_(a+b=n) [u_a, v_b] through the
    structure constants, not in lowest terms.  Each pair is formed at the
    lcm of its conductors (a row is lifted once per call), and a nonzero one
    is summed into degree n, which so carries the lcm of the conductors of
    its nonzero pairs; a degree whose pairs cancel is left out."""
    u._compat(v)
    C, _, D = u.algebra.structure_constants()
    lifted, out = {}, {}

    def at(r, N):
        return lifted.get((id(r), N)) or lifted.setdefault(
            (id(r), N), _lift_row(r, N))

    for a, x in u.rows.items():
        for b, y in v.rows.items():
            N = x[0] if x[0] == y[0] else lcm(x[0], y[0])
            ctx = _context(N)
            acc = {}
            _convolve(acc, x[1] if x[0] == N else at(x, N),
                      y[1] if y[0] == N else at(y, N), C, ctx.red, ctx.phi)
            if any(map(any, acc.values())):
                row, n = (N, acc, x[2] * y[2] * D), a + b
                out[n] = _combine(out[n], row) if n in out else row
    return {n: r for n, r in out.items() if any(map(any, r[1].values()))}


def loop_bracket(u, v):
    """Pointwise bracket: `_convolution`, each degree in lowest terms."""
    return u._like(_convolution(u, v))


def loop_form(u, v):
    """Averaged invariant form: only exponent pairs summing to zero pair up.

    Pairs whose exponent sum is a nonzero multiple of l integrate to zero
    over a full period, and pairs whose sum is not a multiple of l pair to
    zero by eigenspace orthogonality.  The value carries the lcm of the
    conductors of the pairing coefficients."""
    u._compat(v)
    pairs = [(1, x, v.rows[-n]) for n, x in u.rows.items() if -n in v.rows]
    return CycloScalar(*_form(u.algebra, pairs))


def derivative(u):
    """u' with coefficientwise factor i*n/l, at the lcm of each coefficient's
    conductor and that of i."""
    return u._like({n: _scale(r, _I, n, u.l)
                    for n, r in u.rows.items() if n})


def affine_bracket(x, y):
    """[u + a c + b d, v + g c + e d] = [u,v]_0 + b v' - e u' + (u', v) c.

    The derivative terms of each degree are (n/l) (i b v_n - i e u_n), with
    i b v_n at the lcm of the conductors of v_n, b and i (i e u_n likewise),
    so a degree that receives one is lifted to the conductor of i even
    where the terms cancel; each degree is put in lowest terms once.  The
    cocycle is i sum_n (n/l) K(u_n, v_-n), at the conductor of i only when
    some degree n != 0 pairs."""
    u, v = x.loop, y.loop
    out = _convolution(u, v)
    l = u.l
    for s, w, sign in ((x.d, v.rows, 1), (y.d, u.rows, -1)):
        if any(s.nums):
            s = _times_i(s.N, s.nums) + (s.den * l,)
            for n, r in w.items():
                if n:
                    t = _scale(r, s, sign * n)
                    out[n] = _combine(out[n], t) if n in out else t
    pairs = [(n, r, v.rows[-n]) for n, r in u.rows.items()
             if n and -n in v.rows]
    cocycle = _ZERO
    if pairs:
        N, nums, den = _form(u.algebra, pairs)
        cocycle = CycloScalar(*_times_i(N, nums), den * l)
    return AffineElement(u._like(out), cocycle, _ZERO)


def affine_form(x, y):
    """(u + a c + b d, v + g c + e d) = (u, v) + a e + b g, at the lcm of the
    conductors of its terms, with a e and b g formed as rows."""
    f = loop_form(x.loop, y.loop)
    row = f.N, {0: f.nums}, f.den
    for s, t in ((x.c, y.d), (x.d, y.c)):
        row = _combine(row, _scale((t.N, {0: t.nums}, t.den), s))
    N, ents, den = row
    return CycloScalar(N, ents.get(0, (0,) * _context(N).phi), den)


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
    [-N, N]: the stored coordinates of its degree-n coefficient, lifted to
    Q(zeta_M), from column (n + N) * dim on, then c and d.  Degrees outside
    the window are ignored."""
    alg = x.loop.algebra
    top = (2 * N + 1) * alg.dim
    parts = [((n + N) * alg.dim, (_lift_row(r, M), r[2]))
             for n, r in x.loop.rows.items() if abs(n) <= N]
    parts += [(col, ({0: s.promote(M).nums}, s.den))
              for col, s in ((top, x.c), (top + 1, x.d)) if s]
    return join_rows(parts)


def _row_parts(row, N, dim):
    """The coefficients {n: {k: coordinates}}, the d coordinate (None if
    zero) and the denominator of an affine element's `_affine_row` on the
    window [-N, N]: the split form that `_parts_bracket` takes."""
    top = (2 * N + 1) * dim
    coeffs = {}
    for col, v in row[0].items():
        if col < top:
            n, k = divmod(col, dim)
            coeffs.setdefault(n - N, {})[k] = v
    return coeffs, row[0].get(top + 1), row[1]


def row_bracket(algebra, l, x, y, N, M):
    """The row of [x, y] on the window [-N, N] (`_affine_row`) in lowest
    terms, from the rows x and y of two affine elements over Q(zeta_M)
    there, 4 | M, or None if [x, y] has a nonzero coefficient outside the
    window (`_parts_bracket`); the zero bracket is the empty row."""
    xp, yp = (_row_parts(r, N, algebra.dim) for r in (x, y))
    z = _parts_bracket(algebra, l, xp, yp, N, M)
    return z if z is None else _strip(*z)


def _parts_bracket(algebra, l, x, y, N, M):
    """The row of [x, y] on the window [-N, N], not in lowest terms, from
    the `_row_parts` x and y of two affine elements over Q(zeta_M), 4 | M,
    or None if [x, y] has a nonzero coefficient outside the window.  A
    caller that brackets an element with many others splits it once, and
    one that only tests or extends a `Span` skips the reduction, which the
    span makes itself.

    The value is that of `affine_bracket`: for x = u + a c + b d and
    y = v + g c + e d, the convolution sum_(p+q=n) [u_p, v_q] through the
    structure constants, the derivative terms (n/l) i (b v_n - e u_n) and
    the cocycle i sum_n (n/l) K(u_n, v_-n) c.  The degrees outside the
    window are formed first, and the first nonzero one ends the call."""
    C, K, D = algebra.structure_constants()
    dim = algebra.dim
    ctx = _context(M)
    red, phi = ctx.red, ctx.phi
    conv = kernel.conv_reduce
    u, b, xden = x
    v, e, yden = y
    # numerators over x's den * y's den * D * l
    den = xden * yden * D * l
    sums = {}
    for p in u:
        for q in v:
            sums.setdefault(p + q, []).append((u[p], v[q]))
    ents = {}
    for n in sorted(sums, key=lambda n: abs(n) <= N):  # outside first
        acc = {}
        for up, vq in sums[n]:
            _convolve(acc, up, vq, C, red, phi)
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
    cocycle = _pairing([(n, up, v[-n]) for n, up in u.items()
                        if n and -n in v], K, red, phi)
    if any(cocycle):
        deriv[(2 * N + 1) * dim] = cocycle
    if deriv:
        i = ctx.power(M // 4)
        for col, w in deriv.items():
            t = conv(tuple(w), i, red, phi)
            w = ents.get(col)
            ents[col] = t if w is None else [a + c for a, c in zip(w, t)]
    return {col: tuple(w) for col, w in ents.items() if any(w)}, den


def derived_algebra_witness(algebra, twist, l, N):
    """Check on the window [-N, N] that brackets together with c span every
    coefficient of degree <= N/2, and that d is not in the bracket span."""
    if N < 2 * l:
        raise WindowTooSmall("window must be at least twice the conductor")
    gens = window_basis(algebra, twist, l, N)
    # one field for every row: the conductors of the basis and that of i
    M = lcm(4, *(r[0] for u in gens for r in u.rows.values()))
    parts = [_row_parts(_affine_row(AffineElement(u), N, M), N, algebra.dim)
             for u in gens]
    span = Span((z for x, y in combinations(parts, 2)
                 for z in [_parts_bracket(algebra, l, x, y, N, M)]
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
