"""Exact arithmetic in cyclotomic fields Q(zeta_N) and linear algebra over them.

Scalars are coordinate vectors in the power basis 1, z, ..., z^(phi(N)-1)
modulo the N-th cyclotomic polynomial, stored as integer numerators over a
common denominator.  Matrices share one conductor and one denominator across
all entries, which keeps the hot kernel (kernel.matmul) free of per-entry
normalization, and store only their nonzero entries, row by row.

Every operation is exact; there is no floating point anywhere.
"""

from __future__ import annotations

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

def _poly_div_exact(num, den):
    """Exact division of integer polynomials (lists, lowest degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=_CONDUCTORS_CACHED)
def cyclotomic_poly(N):
    """Coefficients of the N-th cyclotomic polynomial, lowest degree first."""
    if N == 1:
        return (-1, 1)
    num = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    den = [1]
    for d in range(1, N):
        if N % d == 0:
            phi_d = cyclotomic_poly(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                for j, b in enumerate(phi_d):
                    new[i + j] += a * b
            den = new
    return tuple(_poly_div_exact(num, den))


def _check_conductor(N):
    if N < 1:
        raise ConductorOverflow("conductor must be positive")
    if N > MAX_CONDUCTOR:
        raise ConductorOverflow("conductor %d exceeds cap %d" % (N, MAX_CONDUCTOR))


def _totient(N):
    """Euler's phi(N), the degree of Q(zeta_N), by trial division."""
    out = m = N
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


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
        self._pows = None

    def power(self, m):
        """Coordinate vector of z^m (m >= 0), via the lazily built table."""
        m %= self.N
        if m < self.phi:
            vec = [0] * self.phi
            vec[m] = 1
            return tuple(vec)
        if self._pows is None:
            self._pows = {}
        tab = self._pows
        if m not in tab:
            # walk up from the largest cached power (or z^(phi-1))
            best = max((k for k in tab if k <= m), default=self.phi - 1)
            if best < self.phi:
                cur = list(self.power(best))
            else:
                cur = list(tab[best])
            for k in range(best + 1, m + 1):
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    for j, r in enumerate(self.red[0]):
                        cur[j] += top * r
                if k >= self.phi:
                    tab[k] = tuple(cur)
        return tab[m]


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
    """Images of basis powers under the field automorphism z -> z^k."""
    ctx = _context(N)
    return tuple(ctx.power(i * k % N) for i in range(ctx.phi))


def _lift(nums, N, M):
    """Map a coordinate vector from conductor N to conductor M (N | M)."""
    if N == M:
        return nums
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
    """An exact element of Q(zeta_N)."""

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
        if M > MAX_CONDUCTOR:
            raise ConductorOverflow("conductor %d exceeds cap" % M)
        return CycloScalar(M, _lift(self.nums, self.N, M), self.den)

    def restrict(self, M):
        """Express the value at conductor M (M | N); error if not possible."""
        if M == self.N:
            return self
        if self.N % M != 0:
            raise ConductorOverflow("conductor %d does not divide %d" % (M, self.N))
        # nums has at most one relation with the independent embedded powers,
        # sum_j c_j zeta_M^j + nums = 0, and then x = -sum_j c_j zeta_M^j / den
        vecs = [({i: (c,) for i, c in enumerate(v) if c}, 1)
                for v in (*_embedding(M, self.N), self.nums)]
        rels = linalg.relations(vecs, 1)
        if not rels:
            raise ConductorOverflow("value does not lie in Q(zeta_%d)" % M)
        ents, den = rels[0]
        return CycloScalar(M, tuple(-ents.get(j, (0,))[0]
                                    for j in range(len(vecs) - 1)), den * self.den)

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
        return {"conductor": self.N,
                "coeffs": [str(Fraction(c, self.den)) for c in self.nums]}

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise MalformedData("a scalar is {\"conductor\": N, \"coeffs\": [...]}")
        N = _json_int(obj, "conductor")
        coeffs = [_json_rational(c, "a coefficient") for c in obj["coeffs"]]
        # phi(N) from N alone: the context of a large N takes seconds to build
        _check_conductor(N)
        phi = _totient(N)
        if len(coeffs) != phi:
            raise MalformedData("conductor %d takes %d coefficients, not %d"
                                % (N, phi, len(coeffs)))
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        return CycloScalar(N, tuple(int(c * den) for c in coeffs), den)

    def __repr__(self):
        if self.is_rational():
            return "CycloScalar(%s)" % self.as_fraction()
        terms = []
        for i, c in enumerate(self.nums):
            if c:
                q = Fraction(c, self.den)
                terms.append("%s*z%d^%d" % (q, self.N, i) if i else str(q))
        return "CycloScalar(%s)" % " + ".join(terms)


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


def _json_rational(value, what):
    """The rational number of an exact string such as "3/4" or an int."""
    if type(value) not in (str, int):
        raise MalformedData("%s must be an exact string or integer" % what)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise MalformedData("%s %r is not rational" % (what, value)) from None


def _coerce(x):
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar.from_rational(x)
    return None


def _common(a, b):
    if a.N == b.N:
        return a, b
    M = lcm(a.N, b.N)
    if M > MAX_CONDUCTOR:
        raise ConductorOverflow("conductor %d exceeds cap" % M)
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
        if N > MAX_CONDUCTOR:
            raise ConductorOverflow("conductor %d exceeds cap" % N)
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
        zero = CycloScalar.from_rational(0, N or 1)
        return CycloMatrix.from_scalars(
            [[v if i == j else zero for j in range(len(values))]
             for i, v in enumerate(values)])

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
        if M % self.N or M > MAX_CONDUCTOR:
            raise ConductorOverflow("cannot lift conductor %d into %d" % (self.N, M))
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
        M = lcm(self.N, other.N)
        a, b = self.promote(M), other.promote(M)
        return a.den == b.den and a.rows == b.rows

    def __hash__(self):
        # a scalar hashes at its least conductor, so equal matrices of
        # different conductors hash alike
        return hash((self.n, frozenset((i, j, self.entry(i, j))
                                       for i, row in enumerate(self.rows) for j in row)))

    # -- arithmetic ----------------------------------------------------------

    def _pair(self, other):
        if self.N == other.N:
            return self, other
        M = lcm(self.N, other.N)
        if M > MAX_CONDUCTOR:
            raise ConductorOverflow("conductor %d exceeds cap" % M)
        return self.promote(M), other.promote(M)

    def __mul__(self, other):
        if isinstance(other, CycloMatrix):
            assert self.n == other.n
            a, b = self._pair(other)
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
            # a rational scalar in the matrix's field: integer multiples
            c = nums[0]
            rows = tuple({j: tuple(x * c for x in v) for j, v in row.items()}
                         for row in self.rows)
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

    def commutator(self, other):
        """self * other - other * self, with the conductors paired once and
        both products reduced in one pass of the kernel."""
        assert self.n == other.n
        a, b = self._pair(other)
        ctx = _context(a.N)
        rows = kernel.commutator(a.rows, b.rows, ctx.red, ctx.phi)
        return CycloMatrix(a.n, a.N, a.den * b.den, tuple(rows))

    def _combine(self, other, sign):
        """self + sign * other; entries that cancel are deleted."""
        assert isinstance(other, CycloMatrix) and self.n == other.n
        a, b = self._pair(other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        rows = []
        for ra, rb in zip(a.rows, b.rows):
            row = dict(ra) if fa == 1 else {j: tuple(x * fa for x in v)
                                            for j, v in ra.items()}
            for j, vb in rb.items():
                va = row.get(j)
                if va is None:
                    row[j] = tuple(y * fb for y in vb)
                else:
                    v = tuple(x + y * fb for x, y in zip(va, vb))
                    if any(v):
                        row[j] = v
                    else:
                        del row[j]
            rows.append(row)
        return CycloMatrix(a.n, a.N, den, tuple(rows))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        rows = tuple({j: tuple(-c for c in v) for j, v in row.items()}
                     for row in self.rows)
        return CycloMatrix(self.n, self.N, self.den, rows, _normalized=True)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloMatrix.identity(self.n, self.N)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        t = CycloScalar.from_rational(0, self.N)
        for i in range(self.n):
            t = t + self.entry(i, i)
        return t

    def trace_mul(self, other):
        """trace(self * other), summed over the nonzero pairs X[i][k] Y[k][i]
        without forming the product."""
        assert self.n == other.n
        a, b = self._pair(other)
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
        """The rows as `linalg.eliminate` takes them, which it mutates: a
        copy of each row dict, over the matrix denominator."""
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
        return len(linalg.eliminate(self.packed_rows(), self.n, self.N)[0])

    def det(self):
        piv, det = linalg.eliminate(self.packed_rows(), self.n, self.N)
        if len(piv) < self.n:
            return CycloScalar.from_rational(0, self.N)
        return det

    def inverse(self):
        """The inverse, by elimination on [self | I] in packed rows."""
        n = self.n
        one = (self.den,) + (0,) * (_context(self.N).phi - 1)
        rows = self.packed_rows()
        for i, (ents, _) in enumerate(rows):
            ents[n + i] = one
        piv, _ = linalg.eliminate(rows, 2 * n, self.N)
        if piv != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return CycloMatrix.from_packed(n, self.N, rows, offset=n)

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
        return [[self.entry(i, j).to_json() for j in range(self.n)]
                for i in range(self.n)]

    @staticmethod
    def from_json(obj):
        if not (isinstance(obj, list) and obj
                and all(isinstance(row, list) and len(row) == len(obj) for row in obj)):
            raise MalformedData("a matrix is a nonempty square list of rows")
        entries = [[CycloScalar.from_json(x) for x in row] for row in obj]
        return CycloMatrix.from_scalars(entries)

    def __repr__(self):
        return "CycloMatrix(%d, conductor=%d)" % (self.n, self.N)


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
