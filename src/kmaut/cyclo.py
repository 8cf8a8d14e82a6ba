"""Exact arithmetic in cyclotomic fields Q(zeta_N) and linear algebra over them.

Scalars are coordinate vectors in the power basis 1, z, ..., z^(phi(N)-1)
modulo the N-th cyclotomic polynomial, stored as integer numerators over a
common denominator.  Matrices share one conductor and one denominator across
all entries, which keeps the hot kernel (kernel.matmul) free of per-entry
normalization, and store only their nonzero entries, row by row.

Every operation is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import kernel, linalg
from .errors import (
    ConductorOverflow,
    MalformedData,
    NotAntisymmetric,
    OddDimension,
    OrderMismatch,
)

MAX_CONDUCTOR = 10**6
# Conductors the per-conductor caches keep; a classification batch over the
# tables uses a handful, and the pair-keyed caches get four times as many.
_CONDUCTORS_CACHED = 64


# ---------------------------------------------------------------------------
# cyclotomic polynomial contexts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CONDUCTORS_CACHED)
def cyclotomic_poly(N):
    """Coefficients of the N-th cyclotomic polynomial, lowest degree first:
    the product of (x^(N/d) - 1)^mu(d) over the squarefree d | N."""
    signed = [(1, 1)]  # (d, mu(d))
    for p in _primes(N):
        signed += [(d * p, -mu) for d, mu in signed]
    poly = [1]
    for d, mu in signed:
        if mu == 1:  # times x^e - 1
            old, e = poly, N // d
            poly = [0] * e + old
            for k, c in enumerate(old):
                poly[k] -= c
    for d, mu in signed:
        if mu == -1:  # exactly divided by x^e - 1
            e = N // d
            q = [0] * (len(poly) - e)
            for k in range(len(q)):
                q[k] = (q[k - e] if k >= e else 0) - poly[k]
            poly = q
    return tuple(poly)


def _check_conductor(N):
    if N < 1:
        raise ConductorOverflow("conductor must be positive")
    if N > MAX_CONDUCTOR:
        raise ConductorOverflow("conductor %d exceeds cap" % N)


def _primes(N):
    """The distinct primes dividing N, by trial division."""
    out, p = [], 2
    while p * p <= N:
        if N % p == 0:
            out.append(p)
            while N % p == 0:
                N //= p
        p += 1
    return out + [N] if N > 1 else out


def _totient(N):
    """Euler's phi(N), the degree of Q(zeta_N)."""
    for p in _primes(N):
        N -= N // p
    return N


class _Context:
    """Per-conductor data: degree, reduction rows, lazy power table."""

    __slots__ = ("N", "phi", "poly", "red", "_pows")

    def __init__(self, N):
        _check_conductor(N)
        self.N = N
        self.poly = cyclotomic_poly(N)
        phi = len(self.poly) - 1
        self.phi = phi
        # reduction rows for z^phi .. z^(2phi-2)
        rows = []
        cur = tuple(-c for c in self.poly[:phi])  # z^phi
        rows.append(cur)
        for _ in range(phi - 2):
            shifted = (0,) + cur[:-1]
            top = cur[-1]
            if top:
                shifted = tuple(s + top * r for s, r in zip(shifted, rows[0]))
            cur = shifted
            rows.append(cur)
        self.red = tuple(rows)
        # z^0 .. z^m for the largest m asked so far
        self._pows = [(1,) + (0,) * (phi - 1)]

    def power(self, m):
        """Coordinate vector of z^m, m taken mod N."""
        m %= self.N
        pows, z_phi = self._pows, self.red[0]
        while len(pows) <= m:
            pows.append(_times_z(pows[-1], z_phi))
        return pows[m]


def _times_z(v, z_phi):
    """The coordinate vector of z v, z^phi being z_phi: the step of every
    walk through the powers of z."""
    top, nxt = v[-1], (0,) + v[:-1]
    return tuple(s + top * r for s, r in zip(nxt, z_phi)) if top else nxt


@lru_cache(maxsize=_CONDUCTORS_CACHED)
def _context(N):
    return _Context(N)


@lru_cache(maxsize=4 * _CONDUCTORS_CACHED)
def _embedding(N, M):
    """Images of the conductor-N basis powers in conductor-M coordinates."""
    assert M % N == 0
    ctx = _context(M)
    step = M // N
    return tuple(ctx.power(i * step) for i in range(_context(N).phi))


@lru_cache(maxsize=4 * _CONDUCTORS_CACHED)
def _galois_table(N, k):
    """Images of basis powers under the field automorphism z -> z^k: the
    vectors of z^(ik mod N), i < phi(N).  Below phi a power is a unit
    vector, and up to 2 phi - 2 it is a reduction row; the ones above are
    kept as one walk on from the last reduction row meets them, so that the
    other powers are never held."""
    ctx = _context(N)
    phi, red = ctx.phi, ctx.red
    out = [None] * phi
    m = phi + len(red) - 1
    cur = red[-1]
    for target, i in sorted((i * k % N, i) for i in range(phi)):
        if target < phi:
            out[i] = (0,) * target + (1,) + (0,) * (phi - 1 - target)
        elif target - phi < len(red):
            out[i] = red[target - phi]
        else:
            for _ in range(target - m):
                cur = _times_z(cur, red[0])
            out[i], m = cur, target
    return tuple(out)


def _lift(nums, N, M):
    """Map a coordinate vector from conductor N to conductor M (N | M); a
    rational one (N in {1, 2}) is padded with zeros."""
    if N == M:
        return nums
    if len(nums) == 1:
        return (nums[0],) + (0,) * (_context(M).phi - 1)
    return _apply_table(nums, _embedding(N, M), _context(M).phi)


def _apply_table(nums, table, phi):
    out = [0] * phi
    for i, c in enumerate(nums):
        if c:
            row = table[i]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
    return tuple(out)


def _normalize(nums, den):
    if den < 0:
        nums = tuple(-c for c in nums)
        den = -den
    g = den
    for c in nums:
        if c:
            g = gcd(g, c)
            if g == 1:
                return tuple(nums), den
    if g > 1:
        return tuple(c // g for c in nums), den // g
    return tuple(nums), den


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class CycloScalar:
    """An exact element of Q(zeta_N), N the conductor it was computed in, a
    zero's too: root_of_unity(4, 1) * 0 has conductor 4, from_rational(0)
    conductor 1; the two are ==, but `to_json` writes each at its own N."""

    __slots__ = ("N", "nums", "den")

    def __init__(self, N, nums, den=1, _normalized=False):
        self.N = N
        if _normalized:
            self.nums = nums
            self.den = den
        else:
            phi = _context(N).phi
            nums = tuple(nums)
            assert len(nums) == phi, (len(nums), phi)
            self.nums, self.den = _normalize(nums, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, N=1):
        q = Fraction(q)
        phi = _context(N).phi
        nums = [0] * phi
        nums[0] = q.numerator
        return CycloScalar(N, tuple(nums), q.denominator)

    # -- conversions -------------------------------------------------------

    def promote(self, M):
        if M == self.N:
            return self
        if M % self.N != 0:
            raise ConductorOverflow("cannot lift conductor %d into %d" % (self.N, M))
        return CycloScalar(M, _lift(self.nums, self.N, M), self.den)

    def restrict(self, M):
        """Express the value at conductor M (M | N); error if not possible."""
        if M == self.N:
            return self
        if self.N % M != 0:
            raise ConductorOverflow("conductor %d does not divide %d" % (M, self.N))
        # nums = sum_j c_j zeta_M^j over den, in the embedded powers of zeta_M
        powers = _embedding(M, self.N)
        sol = linalg.solve_in_span(
            [linalg.flatten(({0: v}, 1), self.N) for v in powers],
            linalg.flatten(({0: self.nums}, 1), self.N), 1)
        if sol is None:
            raise ConductorOverflow("value does not lie in Q(zeta_%d)" % M)
        ents, den = sol
        return CycloScalar(M, tuple(ents.get(j, (0,))[0]
                                    for j in range(len(powers))), den * self.den)

    def min_conductor(self):
        """Smallest divisor conductor that contains this value."""
        for d in sorted(_divisors(self.N)):
            try:
                return self.restrict(d)
            except ConductorOverflow:
                continue
        return self

    def as_fraction(self):
        if any(self.nums[1:]):
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def is_rational(self):
        return not any(self.nums[1:])

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloScalar.from_rational(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        a, b = _common(self, other)
        return a.nums == b.nums and a.den == b.den

    def __hash__(self):
        c = self.min_conductor()
        return hash((c.N, c.nums, c.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common(self, other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        nums = tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums))
        return CycloScalar(a.N, nums, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return CycloScalar(self.N, tuple(-c for c in self.nums), self.den,
                           _normalized=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloScalar(self.N, tuple(c * other.numerator for c in self.nums),
                               self.den * other.denominator)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common(self, other)
        ctx = _context(a.N)
        nums = kernel.conv_reduce(a.nums, b.nums, ctx.red, ctx.phi)
        return CycloScalar(a.N, nums, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if other == 1:
            return self.inverse()
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloScalar.from_rational(1, self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse by the Galois norm: with a = nums,
        a * prod_{k != 1} sigma_k(a) = N(a) is rational, so
        x^-1 = den * prod_{k != 1} sigma_k(a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        N = self.N
        ctx = _context(N)
        if ctx.phi == 1:
            return CycloScalar(N, (self.den,), self.nums[0])
        a = self.nums
        prod = None
        for k in range(2, N):
            if gcd(k, N) == 1:
                img = _apply_table(a, _galois_table(N, k), ctx.phi)
                prod = img if prod is None else kernel.conv_reduce(
                    prod, img, ctx.red, ctx.phi)
        norm = kernel.conv_reduce(a, prod, ctx.red, ctx.phi)[0]
        return CycloScalar(N, tuple(c * self.den for c in prod), norm)

    def conj(self):
        """Complex conjugation: the field automorphism z -> z^(-1)."""
        table = _galois_table(self.N, self.N - 1)
        return CycloScalar(self.N, _apply_table(self.nums, table, _context(self.N).phi),
                           self.den)

    # -- io ------------------------------------------------------------------

    def to_json(self):
        """At the stored conductor, a zero's too (see the class docstring)."""
        return {"conductor": self.N,
                "coeffs": [str(Fraction(c, self.den)) for c in self.nums]}

    @staticmethod
    def from_json(obj):
        return CycloScalar(*_json_scalar(obj))

    def __repr__(self):
        if self.is_rational():
            return "CycloScalar(%s)" % self.as_fraction()
        terms = []
        for i, c in enumerate(self.nums):
            if c:
                q = Fraction(c, self.den)
                terms.append("%s*z%d^%d" % (q, self.N, i) if i else str(q))
        return "CycloScalar(%s)" % " + ".join(terms)


def _json_scalar(obj):
    """The checked parts (N, numerators, den) of a JSON scalar
    {"conductor": N, "coeffs": [...]}, over the lcm of the coefficient
    denominators."""
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise MalformedData("a scalar is {\"conductor\": N, \"coeffs\": [...]}")
    N = _json_int(obj, "conductor")
    # "0", the common coefficient, is what the exact-string match would give
    coeffs = [0 if c == "0" else _json_rational(c, "a coefficient")
              for c in obj["coeffs"]]
    # phi(N) from N alone: the context of a large N takes seconds to build
    _check_conductor(N)
    phi = _totient(N)
    if len(coeffs) != phi:
        raise MalformedData("conductor %d takes %d coefficients, not %d"
                            % (N, phi, len(coeffs)))
    if not any(coeffs):
        return N, (0,) * phi, 1
    den = lcm(*[c.denominator for c in coeffs])
    return N, tuple([c.numerator * (den // c.denominator) for c in coeffs]), den


def _json_int(obj, key, default=None, allowed=None):
    """obj[key], default if missing: an int (not a bool) and one of allowed."""
    value = obj.get(key, default)
    if type(value) is not int or value not in (allowed or (value,)):
        raise MalformedData("%s must be %s, not %r" % (
            key, "one of %s" % (allowed,) if allowed else "an integer", value))
    return value


def _json_object(obj, what):
    """MalformedData naming what obj is meant to be, unless it is an object."""
    if not isinstance(obj, dict):
        raise MalformedData("%s must be a JSON object" % what)


_EXACT = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _json_rational(value, what):
    """The rational number of an int or of an exact string such as "-3/4"
    (no exponents or decimals: "1e100000000" would expand to a hundred
    million digits)."""
    if type(value) is int:
        return Fraction(value)
    match = _EXACT.fullmatch(value) if type(value) is str else None
    if match is None:
        raise MalformedData("%s must be an integer or an exact string such as "
                            "\"-3/4\", not %.40r" % (what, value))
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise MalformedData("%s %.40r is not rational" % (what, value)) from None


def _coerce(x):
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar.from_rational(x)
    return None


def _common(a, b):
    """Two scalars or two matrices over the lcm of their conductors."""
    if a.N == b.N:
        return a, b
    M = lcm(a.N, b.N)
    return a.promote(M), b.promote(M)


def _divisors(N):
    out = []
    d = 1
    while d * d <= N:
        if N % d == 0:
            out.append(d)
            if d != N // d:
                out.append(N // d)
        d += 1
    return out


def _rational_root(q, n):
    """The rational r >= 0 with r^n = q, or None if there is none (q < 0
    included)."""
    q = Fraction(q)
    if q < 0:
        return None
    a, b = _int_root(q.numerator, n), _int_root(q.denominator, n)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _int_root(a, n):
    """The integer r >= 0 with r^n = a (a >= 0), or None."""
    lo, hi = 0, 1 << (a.bit_length() // n + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        val = mid ** n
        if val == a:
            return mid
        if val < a:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def root_of_unity(N, k):
    """zeta_N^k as an exact scalar of conductor N."""
    ctx = _context(N)
    return CycloScalar(N, ctx.power(k % N), 1)


def root_index(value, N):
    """Return k with value == zeta_N^k, or None."""
    for k in range(N):
        if value == root_of_unity(N, k):
            return k
    return None


ZERO = CycloScalar.from_rational(0)
ONE = CycloScalar.from_rational(1)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class CycloMatrix:
    """A square matrix over Q(zeta_N) in sparse rows: row i maps column j to
    the coordinate tuple of entry (i, j) over the one denominator `den`.  No
    row ever stores a zero tuple, so every operation touches only nonzeros."""

    __slots__ = ("n", "N", "den", "rows")

    def __init__(self, n, N, den, rows, _normalized=False):
        # rows: a tuple of n dicts {column: nonzero coordinate tuple}
        self.n = n
        self.N = N
        if _normalized:
            self.den = den
            self.rows = rows
            return
        g = kernel.rows_gcd(map(dict.values, rows), den) if den != 1 else 1
        if den < 0:
            g = -g
        if g != 1:
            rows = tuple({j: tuple(c // g for c in v) for j, v in row.items()}
                         for row in rows)
            den //= g
        self.den = den
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_scalars(entries):
        """Build from a nested list of CycloScalar / Fraction / int."""
        n = len(entries)
        scal = []
        for row in entries:
            assert len(row) == n
            # a zero int or Fraction sets neither conductor nor denominator
            scal.append([(j, _coerce(x)) for j, x in enumerate(row)
                         if x or isinstance(x, CycloScalar)])
        N = lcm(1, *(x.N for row in scal for _, x in row))
        # all-zero entries build no context to check N
        _check_conductor(N)
        den = lcm(1, *(x.den for row in scal for _, x in row))
        rows = tuple({j: tuple(c * (den // x.den) for c in x.promote(N).nums)
                      for j, x in row if x} for row in scal)
        return CycloMatrix(n, N, den, rows)

    @staticmethod
    def identity(n, N=1):
        one = (1,) + (0,) * (_context(N).phi - 1)
        return CycloMatrix(n, N, 1, tuple({i: one} for i in range(n)),
                           _normalized=True)

    @staticmethod
    def zeros(n, N=1):
        _check_conductor(N)
        return CycloMatrix(n, N, 1, tuple({} for _ in range(n)), _normalized=True)

    @staticmethod
    def diag(values, N=None):
        """The diagonal matrix of the values, as from_scalars builds it with
        zeros of conductor N or 1 off the diagonal."""
        vals = [_coerce(v) for v in values]
        N = lcm((N or 1) if len(vals) > 1 else 1, *(x.N for x in vals))
        _check_conductor(N)
        den = lcm(1, *(x.den for x in vals))
        rows = tuple({i: tuple(c * (den // x.den) for c in x.promote(N).nums)}
                     if x else {} for i, x in enumerate(vals))
        return CycloMatrix(len(vals), N, den, rows)

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        vec = self.rows[i].get(j)
        if vec is None:
            return CycloScalar(self.N, (0,) * _context(self.N).phi, 1,
                               _normalized=True)
        return CycloScalar(self.N, vec, self.den)

    def scalars(self):
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def promote(self, M):
        if M == self.N:
            return self
        if M % self.N:
            raise ConductorOverflow("cannot lift conductor %d into %d" % (self.N, M))
        # a zero matrix builds no context to check M
        _check_conductor(M)
        N = self.N
        # the embedding is injective: a nonzero entry stays nonzero
        rows = tuple({j: _lift(v, N, M) for j, v in row.items()} for row in self.rows)
        return CycloMatrix(self.n, M, self.den, rows, _normalized=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not any(self.rows)

    def _scalar_vec(self):
        """The coordinates shared by every diagonal entry if every entry off
        the diagonal is zero, else None."""
        d = self.rows[0].get(0)
        size = 0 if d is None else 1
        for i, row in enumerate(self.rows):
            if len(row) != size or row.get(i) != d:
                return None
        return d or (0,) * _context(self.N).phi

    def is_identity(self):
        d = self._scalar_vec()
        return d is not None and self.den == 1 and d[0] == 1 and not any(d[1:])

    def is_scalar(self):
        """Return the scalar c if self == c*I, else None."""
        if self._scalar_vec() is None:
            return None
        return self.entry(0, 0)

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        a, b = _common(self, other)
        return a.den == b.den and a.rows == b.rows

    def __hash__(self):
        # a scalar hashes at its least conductor, so equal matrices of
        # different conductors hash alike
        return hash((self.n, frozenset((i, j, self.entry(i, j))
                                       for i, row in enumerate(self.rows) for j in row)))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, CycloMatrix):
            assert self.n == other.n
            a, b = _common(self, other)
            ctx = _context(a.N)
            rows = kernel.matmul(a.rows, b.rows, ctx.red, ctx.phi, a.n)
            return CycloMatrix(a.n, a.N, a.den * b.den, tuple(rows))
        if isinstance(other, CycloScalar):
            M, nums, den = lcm(self.N, other.N), other.nums, other.den
        elif isinstance(other, (int, Fraction)):
            M, nums, den = self.N, (other.numerator,), other.denominator
        else:
            return NotImplemented
        if not any(nums):
            return CycloMatrix.zeros(self.n, M)
        if M == self.N and not any(nums[1:]):
            # a rational scalar: integer multiples, empty rows shared
            c = nums[0]
            rows = tuple(row and {j: tuple([x * c for x in v])
                                  for j, v in row.items()} for row in self.rows)
            return CycloMatrix(self.n, M, self.den * den, rows)
        b = other.promote(M).nums
        ctx = _context(M)
        N, red, phi = self.N, ctx.red, ctx.phi
        # a product of nonzero field elements is nonzero
        rows = tuple({j: kernel.conv_reduce(_lift(v, N, M), b, red, phi)
                      for j, v in row.items()} for row in self.rows)
        return CycloMatrix(self.n, M, self.den * den, rows)

    # scalars commute with matrices
    __rmul__ = __mul__

    def _combine(self, other, sign):
        """self + sign * other; entries that cancel are deleted."""
        assert isinstance(other, CycloMatrix) and self.n == other.n
        a, b = _common(self, other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        rows = tuple(kernel.add_rows(ra, fa, rb, fb)
                     for ra, rb in zip(a.rows, b.rows))
        return CycloMatrix(a.n, a.N, den, rows)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        rows = tuple({j: tuple(-c for c in v) for j, v in row.items()}
                     for row in self.rows)
        return CycloMatrix(self.n, self.N, self.den, rows, _normalized=True)

    def transpose(self):
        cols = tuple({} for _ in range(self.n))
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return CycloMatrix(self.n, self.N, self.den, cols, _normalized=True)

    def conj(self):
        table = _galois_table(self.N, self.N - 1)
        phi = _context(self.N).phi
        rows = tuple({j: _apply_table(v, table, phi) for j, v in row.items()}
                     for row in self.rows)
        return CycloMatrix(self.n, self.N, self.den, rows)

    def conj_transpose(self):
        return self.conj().transpose()

    def trace(self):
        """The sum of the diagonal, formed on its coordinate tuples."""
        acc = [0] * _context(self.N).phi
        for i, row in enumerate(self.rows):
            v = row.get(i)
            if v is not None:
                for t, c in enumerate(v):
                    acc[t] += c
        return CycloScalar(self.N, tuple(acc), self.den)

    def trace_mul(self, other):
        """trace(self * other), summed over the nonzero pairs X[i][k] Y[k][i]
        without forming the product."""
        assert self.n == other.n
        a, b = _common(self, other)
        ctx = _context(a.N)
        acc = [0] * ctx.phi
        for i, row in enumerate(a.rows):
            for k, x in row.items():
                y = b.rows[k].get(i)
                if y is not None:
                    for t, c in enumerate(kernel.conv_reduce(x, y, ctx.red, ctx.phi)):
                        acc[t] += c
        return CycloScalar(a.N, tuple(acc), a.den * b.den)

    def packed_rows(self):
        """The rows as `linalg.rref` takes them, which it mutates: a copy of
        each row dict, over the matrix denominator."""
        return [(dict(row), self.den) for row in self.rows]

    @staticmethod
    def from_packed(n, N, rows, offset=0):
        """The n x n matrix whose row i holds the entries of packed row i at
        columns offset .. offset + n - 1."""
        den = lcm(*(d for _, d in rows))
        out = []
        for ents, d in rows:
            f = den // d
            out.append({j - offset: v if f == 1 else tuple(c * f for c in v)
                        for j, v in ents.items() if offset <= j < offset + n})
        return CycloMatrix(n, N, den, tuple(out))

    def rank(self):
        """The number of pivots of the packed elimination."""
        return len(linalg.rref(self.packed_rows(), self.n, self.N)[0])

    def _permutation(self):
        """The column of each row's one stored entry when every row and every
        column holds exactly one (a monomial matrix), else None."""
        cols = []
        for row in self.rows:
            if len(row) != 1:
                return None
            cols.append(next(iter(row)))
        return cols if len(set(cols)) == self.n else None

    def det(self):
        """sign(pi) prod_i a_i / den^n for a monomial matrix with entries
        a_i / den at (i, pi(i)); else the product of the pivots of
        `linalg.rref`."""
        cols = self._permutation()
        if cols is None:
            piv, det = linalg.rref(self.packed_rows(), self.n, self.N)
            if len(piv) < self.n:
                return CycloScalar.from_rational(0, self.N)
            return det
        ctx = _context(self.N)
        prod = None
        for row in self.rows:
            a, = row.values()
            prod = a if prod is None else kernel.conv_reduce(prod, a, ctx.red, ctx.phi)
        if _is_odd(cols):
            prod = tuple(-c for c in prod)
        return CycloScalar(self.N, prod, self.den ** self.n)

    def inverse(self):
        """The inverse: for a monomial matrix, den / a_i at (pi(i), i) for its
        entries a_i / den at (i, pi(i)); else by elimination on [self | I] in
        packed rows."""
        n, N = self.n, self.N
        cols = self._permutation()
        if cols is not None:
            # (i, numerators, den) of 1 / a_i in the row pi(i) of the inverse
            invs = [None] * n
            for i, row in enumerate(self.rows):
                a, = row.values()
                if any(a[1:]):
                    x = CycloScalar(N, a, 1, _normalized=True).inverse()
                    invs[cols[i]] = i, x.nums, x.den
                else:
                    invs[cols[i]] = i, (1 if a[0] > 0 else -1,) + a[1:], abs(a[0])
            den = lcm(*(d for _, _, d in invs))
            rows = tuple({i: tuple(c * (self.den * den // d) for c in nums)}
                         for i, nums, d in invs)
            return CycloMatrix(n, N, den, rows)
        one = (self.den,) + (0,) * (_context(N).phi - 1)
        rows = self.packed_rows()
        for i, (ents, _) in enumerate(rows):
            ents[n + i] = one
        piv, _ = linalg.rref(rows, 2 * n, N)
        if piv != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return CycloMatrix.from_packed(n, N, rows, offset=n)

    def matvec(self, vec, N=1):
        """Apply to a packed vector (entries, den) over Q(zeta_N), as the
        product with a one-column matrix; returns the packed image over
        Q(zeta_lcm(self.N, N)), not in lowest terms."""
        M, ents = lcm(self.N, N), vec[0]
        ctx = _context(M)
        col = [{0: _lift(ents[k], N, M)} if k in ents else {} for k in range(self.n)]
        rows = kernel.matmul(self.promote(M).rows, col, ctx.red, ctx.phi, self.n)
        return {i: row[0] for i, row in enumerate(rows) if row}, self.den * vec[1]

    # -- io ------------------------------------------------------------------

    def to_json(self):
        """Each entry as CycloScalar.to_json writes it, straight from the
        packed rows."""
        N, den, phi = self.N, self.den, _context(self.N).phi
        return [[{"conductor": N,
                  "coeffs": ["0"] * phi if v is None
                  else [str(c) if den == 1 else str(Fraction(c, den)) for c in v]}
                 for v in map(row.get, range(self.n))]
                for row in self.rows]

    @staticmethod
    def from_json(obj):
        if not (isinstance(obj, list) and obj
                and all(isinstance(row, list) and len(row) == len(obj) for row in obj)):
            raise MalformedData("a matrix is a nonempty square list of rows")
        # every entry is checked and counts towards the conductor, zero
        # entries too; only the nonzero ones are stored.  An entry equal to
        # the zero entry {"conductor": M, "coeffs": ["0"] * phi(M)} of an int
        # M already checked here passes by that one comparison (True == 1
        # and 1.0 == 1, hence the type test)
        N = den = 1
        ents, zeros = [], {}
        for row in obj:
            out = {}
            for j, x in enumerate(row):
                M = x.get("conductor") if type(x) is dict else None
                if type(M) is int and x == zeros.get(M):
                    continue
                M, nums, d = _json_scalar(x)
                N = lcm(N, M)
                if any(nums):
                    out[j] = M, nums, d
                    den = lcm(den, d)
                elif M not in zeros:
                    zeros[M] = {"conductor": M, "coeffs": ["0"] * len(nums)}
            ents.append(out)
        _check_conductor(N)
        rows = tuple({j: tuple(c * (den // d) for c in _lift(nums, M, N))
                      for j, (M, nums, d) in row.items()} for row in ents)
        return CycloMatrix(len(obj), N, den, rows)

    def __repr__(self):
        return "CycloMatrix(%d, conductor=%d)" % (self.n, self.N)


def _is_odd(perm):
    """Whether the permutation i -> perm[i] is odd: a cycle of length L is
    L - 1 transpositions."""
    odd, seen = False, [False] * len(perm)
    for i in range(len(perm)):
        j = perm[i]
        while not seen[j]:
            seen[j] = True
            if j != i:
                odd = not odd
            j = perm[j]
    return odd


# ---------------------------------------------------------------------------
# finite-order eigenstructure and pfaffians
# ---------------------------------------------------------------------------

def finite_order_eigenprojectors(M, N):
    """Eigenprojector resolution of a matrix with M^N = I.

    Returns [(eigenvalue, projector)] for the nonzero projectors
    P_k = (1/N) * sum_j zeta_N^(-kj) M^j; they are idempotent, pairwise
    orthogonal, sum to the identity, and satisfy M P_k = zeta_N^k P_k.
    """
    # I at conductor 1: at N = 1 the one projector is I in Q, whatever M's field
    powers = [CycloMatrix.identity(M.n)]
    for _ in range(N - 1):
        powers.append(powers[-1] * M)
    if not (powers[-1] * M).is_identity():
        raise OrderMismatch("matrix does not satisfy M^%d = I" % N)
    out = []
    inv_n = Fraction(1, N)
    for k in range(N):
        acc = powers[0]
        for j in range(1, N):
            acc = acc + powers[j] * root_of_unity(N, (-k * j) % N)
        P = acc * inv_n
        if not P.is_zero():
            out.append((root_of_unity(N, k), P))
    return out


def pfaffian(M):
    """Pfaffian of an antisymmetric matrix of even dimension, exactly."""
    n = M.n
    if n % 2:
        raise OddDimension("pfaffian needs even dimension")
    if not (M.transpose() + M).is_zero():
        raise NotAntisymmetric("matrix is not antisymmetric")
    entries = M.scalars()
    cache = {}

    def rec(idx):
        if not idx:
            return ONE
        if idx in cache:
            return cache[idx]
        i = idx[0]
        rest = idx[1:]
        total = CycloScalar.from_rational(0)
        for pos, j in enumerate(rest):
            a = entries[i][j]
            if a:
                sub = tuple(x for x in rest if x != j)
                sign = 1 if pos % 2 == 0 else -1
                term = a * rec(sub)
                total = total + (term if sign > 0 else -term)
        cache[idx] = total
        return total

    return rec(tuple(range(n)))
