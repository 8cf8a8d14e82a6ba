"""Matrix realizations of the classical simple Lie algebras.

Classical families are realized inside their defining complex representation:
sl(n+1,C), so(m,C) as antisymmetric matrices, sp(2n,C); the compact mode tags
the same complexified model together with the conjugation fixing the compact
real form.  Exceptional families carry no matrix model, only a static record.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .cyclo import (CycloMatrix, _context, _json_int, _json_object,
                    finite_order_eigenprojectors, root_index, root_of_unity)
from .errors import (
    AlgebraMismatch,
    MembershipError,
    OrderMismatch,
    TwistMismatch,
    UnsupportedExceptional,
    UnsupportedParam,
)

CLASSICAL = ("a", "b", "c", "d")
EXCEPTIONAL = ("e6", "e7", "e8", "f4", "g2")

# family -> (dimension, rank, order of the outer automorphism group,
#            number of involution classes in the standard list)
_EXCEPTIONAL_DATA = {
    "e6": (78, 6, 2, 4),
    "e7": (133, 7, 1, 3),
    "e8": (248, 8, 1, 2),
    "f4": (52, 4, 1, 2),
    "g2": (14, 2, 1, 1),
}


# User input keys the algebra, basis, tau and J tables; a batch over the
# classification tables uses about twenty algebras.
_KEYS_CACHED = 64

def _unit(i, j, size, one=1):
    rows = [[0] * size for _ in range(size)]
    rows[i][j] = one
    return CycloMatrix.from_scalars(rows)


@lru_cache(maxsize=_KEYS_CACHED)
def tau_matrix(p, size):
    """diag(-1 x p, 1 x (size-p))."""
    return CycloMatrix.diag([-1] * p + [1] * (size - p))


@lru_cache(maxsize=_KEYS_CACHED)
def j_matrix(half):
    """[[0, E], [-E, 0]] of size 2*half."""
    rows = [[0] * (2 * half) for _ in range(2 * half)]
    for i in range(half):
        rows[i][half + i] = 1
        rows[half + i][i] = -1
    return CycloMatrix.from_scalars(rows)


class SimpleAlgebra:
    """Descriptor plus (for classical families) a defining matrix model."""

    def __init__(self, family, param, mode="compact"):
        if mode not in ("compact", "complex"):
            raise UnsupportedParam("mode must be compact or complex")
        self.family = family
        self.param = param
        self.mode = mode
        if family in EXCEPTIONAL:
            self.dim, self.rank, self.out_order, self.n_involutions = \
                _EXCEPTIONAL_DATA[family]
            self.size = None
            return
        if family not in CLASSICAL:
            raise UnsupportedParam("unknown family %r" % (family,))
        n = param
        lo = {"a": 1, "b": 2, "c": 3, "d": 4}[family]
        if not isinstance(n, int) or n < lo:
            raise UnsupportedParam("family %s needs integer rank >= %d" % (family, lo))
        self.rank = n
        if family == "a":
            self.size = n + 1
            self.dim = (n + 1) ** 2 - 1
        elif family == "b":
            self.size = 2 * n + 1
            self.dim = self.size * (self.size - 1) // 2
        elif family == "c":
            self.size = 2 * n
            self.dim = n * (2 * n + 1)
        else:
            self.size = 2 * n
            self.dim = self.size * (self.size - 1) // 2
        self.out_order = {"a": 2 if n >= 2 else 1,
                          "b": 1,
                          "c": 1,
                          "d": 6 if n == 4 else 2}[family]

    # -- identity ------------------------------------------------------------

    @property
    def is_exceptional(self):
        return self.family in EXCEPTIONAL

    def _key(self):
        return (self.family, self.param, self.mode)

    def __eq__(self, other):
        return self is other or (isinstance(other, SimpleAlgebra)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.is_exceptional:
            return "SimpleAlgebra(%s, %s)" % (self.family, self.mode)
        return "SimpleAlgebra(%s%d, %s)" % (self.family, self.param, self.mode)

    def label(self):
        return self.family if self.is_exceptional else "%s%d" % (self.family, self.param)

    def to_json(self):
        return {"family": self.family, "n": self.param, "mode": self.mode}

    @staticmethod
    def from_json(obj):
        _json_object(obj, "an algebra")
        n = None if obj.get("n") is None else _json_int(obj, "n")
        return SimpleAlgebra(obj["family"], n, obj.get("mode", "compact"))

    # -- matrix model ----------------------------------------------------------

    def _need_matrix(self):
        if self.is_exceptional:
            raise UnsupportedExceptional(
                "%s has no matrix model; only static data" % self.family)

    @property
    def killing_scale(self):
        """c with killing(x, y) = c * tr(xy) in the defining representation."""
        self._need_matrix()
        if self.family == "a":
            return Fraction(2 * (self.param + 1))
        if self.family in ("b", "d"):
            return Fraction(self.size - 2)
        return Fraction(2 * self.param + 2)

    @lru_cache(maxsize=_KEYS_CACHED)
    def basis(self):
        """Defining-representation basis, closed under bracket."""
        self._need_matrix()
        m = self.size
        out = []
        if self.family == "a":
            for i in range(m):
                for j in range(m):
                    if i != j:
                        out.append(_unit(i, j, m))
            for k in range(m - 1):
                out.append(_unit(k, k, m) - _unit(k + 1, k + 1, m))
        elif self.family in ("b", "d"):
            for i in range(m):
                for j in range(i + 1, m):
                    out.append(_unit(i, j, m) - _unit(j, i, m))
        else:
            n = self.param
            for i in range(n):
                for j in range(n):
                    out.append(_unit(i, j, m) - _unit(n + j, n + i, m))
            for i in range(n):
                for j in range(i, n):
                    if i == j:
                        out.append(_unit(i, n + i, m))
                    else:
                        out.append(_unit(i, n + j, m) + _unit(j, n + i, m))
            for i in range(n):
                for j in range(i, n):
                    if i == j:
                        out.append(_unit(n + i, i, m))
                    else:
                        out.append(_unit(n + i, j, m) + _unit(n + j, i, m))
        assert len(out) == self.dim
        return tuple(out)

    def contains_matrix(self, M):
        """Exact membership in the complexified algebra."""
        self._need_matrix()
        if M.n != self.size:
            return False
        if self.family == "a":
            return M.trace().is_zero()
        if self.family in ("b", "d"):
            return (M.transpose() + M).is_zero()
        J = j_matrix(self.param)
        return (M.transpose() * J + J * M).is_zero()

    @lru_cache(maxsize=_KEYS_CACHED)
    def _supports(self):
        """Per basis element, its entries (i, j, +-1) in row order."""
        return tuple(tuple((i, j, v[0]) for i, row in enumerate(b.rows)
                           for j, v in sorted(row.items()))
                     for b in self.basis())

    def coords(self, M):
        """Coordinates of M w.r.t. basis(), as a packed row (entries, den)
        over M's conductor; closed form, no linear solve: the entry at the
        first +1 of each basis element, summed over the a-family Cartan."""
        self._need_matrix()
        out = {}
        for k, ((i, j, _), *_) in enumerate(self._supports()):
            if j in M.rows[i]:
                out[k] = M.rows[i][j]
        if self.family == "a":
            # the k-th Cartan coordinate is the sum of the first k + 1
            # diagonal entries
            acc = zero = (0,) * _context(M.N).phi
            for k in range(self.dim - self.size + 1, self.dim):
                acc = tuple(x + y for x, y in zip(acc, out.pop(k, zero)))
                if any(acc):
                    out[k] = acc
        return out, M.den

    def from_coords(self, vec, N=1):
        """The matrix of the packed row vec = (entries, den) of coordinates
        over Q(zeta_N): each coordinate goes to the +-1 entries of its basis
        element.  The zero vector gives the zero matrix of conductor 1."""
        self._need_matrix()
        rows = tuple({} for _ in range(self.size))
        for k, v in vec[0].items():
            for i, j, s in self._supports()[k]:
                w = rows[i].get(j, (0,) * len(v))
                rows[i][j] = tuple(x + s * y for x, y in zip(w, v))
        rows = tuple({j: v for j, v in row.items() if any(v)} for row in rows)
        if not any(rows):
            return CycloMatrix.zeros(self.size)
        return CycloMatrix(self.size, N, vec[1], rows)

    # -- operations -------------------------------------------------------------

    def bracket_matrix(self, X, Y):
        return X.commutator(Y)

    def killing_matrix(self, X, Y):
        return X.trace_mul(Y) * self.killing_scale

    def omega_matrix(self, X):
        """Conjugation fixing the compact form: X -> -conj(X)^T."""
        return -X.conj_transpose()

    def element(self, matrix, validate=True):
        return AlgebraElement(self, matrix, validate=validate)

    def basis_elements(self):
        return [AlgebraElement(self, b, validate=False) for b in self.basis()]

    # -- distinguished semisimple elements ----------------------------------------

    def torus_element(self, rates):
        """Standard-torus element with rational eigenvalue data.

        a/c families: i*diag(...) built from the rates (a: rates of length
        size summing to 0; c: length n, extended to (r, -r)); b/d: rotation
        rates per coordinate plane (i, i+1) pairing, length floor(size/2).
        """
        self._need_matrix()
        rates = [Fraction(r) for r in rates]
        i = root_of_unity(4, 1)
        if self.family == "a":
            assert len(rates) == self.size and sum(rates) == 0
            M = CycloMatrix.diag([i * r for r in rates])
            eig = sorted(set(rates))
            return SemisimpleElement(self, M, eig)
        if self.family == "c":
            assert len(rates) == self.param
            full = rates + [-r for r in rates]
            M = CycloMatrix.diag([i * r for r in full])
            eig = sorted(set(full))
            return SemisimpleElement(self, M, eig)
        half = self.size // 2
        assert len(rates) == half
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for k, r in enumerate(rates):
            rows[2 * k][2 * k + 1] = r
            rows[2 * k + 1][2 * k] = -r
        M = CycloMatrix.from_scalars(rows)
        eig = set()
        for r in rates:
            eig.update((r, -r))
        if self.size % 2:
            eig.add(Fraction(0))
        return SemisimpleElement(self, M, sorted(eig))

    def plane_rotation(self, i, j, rate=Fraction(1)):
        """Rotation generator in the (i, j) coordinate plane; semisimple."""
        self._need_matrix()
        rate = Fraction(rate)
        m = self.size
        M = (_unit(i, j, m) - _unit(j, i, m)) * rate
        if self.family == "c":
            n = self.param
            M = M + (_unit(n + i, n + j, m) - _unit(n + j, n + i, m)) * rate
        eig = sorted({rate, -rate} | ({Fraction(0)} if m > 2 else set()))
        return SemisimpleElement(self, M, eig)


@lru_cache(maxsize=_KEYS_CACHED)
def make_algebra(family, param=None, mode="compact"):
    """Construct (and cache) an algebra descriptor."""
    return SimpleAlgebra(family, param, mode)


class AlgebraElement:
    """An element of the (complexified) algebra in its defining representation."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra, matrix, validate=True):
        if validate and not algebra.contains_matrix(matrix):
            raise MembershipError("matrix is not in %r" % algebra)
        self.algebra = algebra
        self.matrix = matrix

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra == other.algebra and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.algebra, self.matrix))

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.matrix + other.matrix, validate=False)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.matrix - other.matrix, validate=False)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.matrix, validate=False)

    def __mul__(self, scalar):
        return AlgebraElement(self.algebra, self.matrix * scalar, validate=False)

    __rmul__ = __mul__

    def is_zero(self):
        return self.matrix.is_zero()

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise AlgebraMismatch("operands live in different algebras")

    def __repr__(self):
        return "AlgebraElement(%r)" % (self.algebra,)


class SemisimpleElement(AlgebraElement):
    """Element whose defining matrix is i * (rational diagonalizable).

    eigenrates lists the distinct rational r with eigenvalue i*r; the list is
    validated exactly via the product of (X - i*r) over all rates.
    """

    __slots__ = ("eigenrates", "_projs")

    def __init__(self, algebra, matrix, eigenrates, validate=True):
        super().__init__(algebra, matrix, validate=validate)
        self.eigenrates = tuple(Fraction(r) for r in eigenrates)
        self._projs = None
        if validate:
            i = root_of_unity(4, 1)
            acc = CycloMatrix.identity(matrix.n)
            for r in self.eigenrates:
                acc = acc * (matrix - CycloMatrix.identity(matrix.n) * (i * r))
            if not acc.is_zero():
                raise OrderMismatch("stated eigenvalue rates are wrong")

    def projectors(self):
        """[(rate, projector onto the i*rate eigenspace)], nonzero only."""
        if self._projs is None:
            i = root_of_unity(4, 1)
            E = CycloMatrix.identity(self.matrix.n)
            out = []
            for a in self.eigenrates:
                P = E
                for b in self.eigenrates:
                    if b != a:
                        P = P * (self.matrix - E * (i * b)) * (i * (a - b)).inverse()
                if not P.is_zero():
                    out.append((a, P))
            self._projs = tuple(out)
        return self._projs

    def exp_2pi(self, t=Fraction(1)):
        """The group element e^(2*pi*t*X), exact for rational t."""
        t = Fraction(t)
        acc = CycloMatrix.zeros(self.matrix.n)
        for rate, P in self.projectors():
            phase = t * rate
            acc = acc + P * root_of_unity(phase.denominator,
                                          phase.numerator % phase.denominator)
        return acc

    def scaled(self, c):
        """c * X; for c != 0 the projector of rate c*r is that of rate r."""
        c = Fraction(c)
        if c == 0:
            return zero_semisimple(self.algebra)
        out = SemisimpleElement(self.algebra, self.matrix * c,
                                sorted({c * r for r in self.eigenrates}),
                                validate=False)
        out._projs = tuple(sorted((c * r, P) for r, P in self.projectors()))
        return out


def zero_semisimple(algebra):
    return SemisimpleElement(algebra, CycloMatrix.zeros(algebra.size),
                             [Fraction(0)], validate=False)


def combine_semisimple(parts):
    """Sum of commuting semisimple elements.  Commuting parts share their
    eigenspaces, so the projector of a rate t of the sum is the sum of the
    products of one projector per part whose rates add up to t."""
    assert parts
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            if not (p.matrix * q.matrix - q.matrix * p.matrix).is_zero():
                raise OrderMismatch("semisimple parts do not commute")
    acc, joint = parts[0].matrix, dict(parts[0].projectors())
    for p in parts[1:]:
        acc = acc + p.matrix
        nxt = {}
        for a, P in joint.items():
            for b, Q in p.projectors():
                R = P * Q
                if not R.is_zero():
                    nxt[a + b] = nxt[a + b] + R if a + b in nxt else R
        joint = nxt
    out = SemisimpleElement(parts[0].algebra, acc, sorted(joint), validate=False)
    if len(joint) > 1:
        # at the conductor of the Lagrange projectors of the sum; a lone
        # rate's projector is I, which the result rebuilds at conductor 1
        N = lcm(acc.N, 4)
        out._projs = tuple((r, joint[r].promote(N)) for r in out.eigenrates)
    return out


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------

def bracket(x, y):
    x._check(y)
    return AlgebraElement(x.algebra, x.algebra.bracket_matrix(x.matrix, y.matrix),
                          validate=False)


def killing_form(x, y):
    x._check(y)
    return x.algebra.killing_matrix(x.matrix, y.matrix)


def compact_conjugation(algebra):
    """The conjugate-linear involution fixing the compact form."""
    algebra._need_matrix()

    def omega(x):
        return AlgebraElement(algebra, algebra.omega_matrix(x.matrix), validate=False)

    return omega


def sigma_eigenspace(algebra, sigma, l, n):
    """Exact basis of the zeta_l^n eigenspace of sigma on the complexified algebra.

    sigma is a complex-linear automorphism of the algebra; its l-th power
    must be the identity (checked on its operator).
    """
    bases = _eigenspace_bases(algebra, sigma, l)
    return [AlgebraElement(algebra, M, validate=False) for M in bases[n % l]]


def _eigenspace_bases(algebra, sigma, l):
    hit = sigma.eigenbases.get(l)
    if hit is not None:
        return hit
    if sigma.conj:
        raise TwistMismatch("sigma is conjugate-linear; a twist is complex-linear")
    out = {n: () for n in range(l)}
    for val, P in finite_order_eigenprojectors(sigma.operator(), l):
        # the columns of P are the projections of the basis, in coordinates
        rows = P.transpose().packed_rows()
        piv, _ = linalg.eliminate(rows, P.n, P.N)
        out[root_index(val, l)] = tuple(algebra.from_coords(r, P.N)
                                        for r in rows[:len(piv)])
    sigma.eigenbases[l] = out
    return out
