"""Matrix realizations of the classical simple Lie algebras.

Classical families are realized inside their defining complex representation:
sl(n+1,C), so(m,C) as antisymmetric matrices, sp(2n,C); the compact mode tags
the same complexified model together with the conjugation fixing the compact
real form.  Each classical family is one record (`_FAMILIES`), and it is
the only place that tells the families apart for matrix work.  Exceptional
families carry no matrix model, only static data.
"""

from __future__ import annotations

from collections import namedtuple
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

def _unit(i, j, size):
    rows = [[0] * size for _ in range(size)]
    rows[i][j] = 1
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


def _sl_basis(n, m):
    return ([_unit(i, j, m) for i in range(m) for j in range(m) if i != j]
            + [_unit(k, k, m) - _unit(k + 1, k + 1, m) for k in range(m - 1)])


def _so_basis(n, m):
    return [_unit(i, j, m) - _unit(j, i, m)
            for i in range(m) for j in range(i + 1, m)]


def _sp_basis(n, m):
    out = [_unit(i, j, m) - _unit(n + j, n + i, m)
           for i in range(n) for j in range(n)]
    # the symmetric blocks above and below the diagonal
    for a, b in ((0, n), (n, 0)):
        out += [_unit(a + i, b + i, m) if i == j
                else _unit(a + i, b + j, m) + _unit(a + j, b + i, m)
                for i in range(n) for j in range(i, n)]
    return out


def _orthogonal_form(n, m):
    return tuple(range(m)), (1,) * m


def _symplectic_form(n, m):
    # j_matrix(n): J[i][i + n] = 1 and J[i + n][i] = -1
    return tuple(range(n, m)) + tuple(range(n)), (1,) * n + (-1,) * n


# The matrix model of a classical family: its least rank; n -> the matrix
# size m, the dimension and the order of the outer automorphism group;
# (n, m) -> the scale c of killing(x, y) = c tr(xy), the basis, and the
# form J as a signed permutation (pi, eps), J[i][pi(i)] = eps(i) (None on a,
# which keeps no form); and the outer slot: "mu" where a map is Ad(G) o mu^w
# (a), "det" where a reflection is read from det G (d), else None.
_Family = namedtuple("_Family", "lo size dim out_order killing basis form outer")

_FAMILIES = {
    "a": _Family(1, lambda n: n + 1, lambda n: n * (n + 2),
                 lambda n: 2 if n >= 2 else 1, lambda n, m: 2 * m,
                 _sl_basis, None, "mu"),
    "b": _Family(2, lambda n: 2 * n + 1, lambda n: n * (2 * n + 1),
                 lambda n: 1, lambda n, m: m - 2, _so_basis, _orthogonal_form,
                 None),
    "c": _Family(3, lambda n: 2 * n, lambda n: n * (2 * n + 1), lambda n: 1,
                 lambda n, m: 2 * n + 2, _sp_basis, _symplectic_form, None),
    "d": _Family(4, lambda n: 2 * n, lambda n: n * (2 * n - 1),
                 lambda n: 6 if n == 4 else 2, lambda n, m: m - 2, _so_basis,
                 _orthogonal_form, "det"),
}


class SimpleAlgebra:
    """Descriptor plus (for classical families) a defining matrix model."""

    def __init__(self, family, param, mode="compact"):
        if mode not in ("compact", "complex"):
            raise UnsupportedParam("mode must be compact or complex")
        self.family = family
        self.param = param
        self.mode = mode
        self.size = self.form = self.outer = self._model = None
        if family in EXCEPTIONAL:
            if param is not None:
                raise UnsupportedParam("family %s takes no rank, not %r"
                                       % (family, param))
            self.dim, self.rank, self.out_order, self.n_involutions = \
                _EXCEPTIONAL_DATA[family]
            self.has_triality = False
            self._hash = hash(self._key())
            return
        if family not in CLASSICAL:
            raise UnsupportedParam("unknown family %r" % (family,))
        n, model = param, _FAMILIES[family]
        if type(n) is not int or n < model.lo:  # a bool is no rank
            raise UnsupportedParam("family %s needs integer rank >= %d"
                                   % (family, model.lo))
        self._model = model
        self.rank = n
        self.size = model.size(n)
        self.dim = model.dim(n)
        self.out_order = model.out_order(n)
        self.form = model.form(n, self.size) if model.form else None
        self.outer = model.outer
        # so(8), whose outer group S3 holds the order-3 triality
        self.has_triality = (family, n) == ("d", 4)
        # formed once the key is known valid, as nothing rebinds it: every
        # lru_cache'd method looks the algebra up by it
        self._hash = hash(self._key())

    # -- identity ------------------------------------------------------------

    @property
    def is_exceptional(self):
        return self._model is None

    def _key(self):
        return (self.family, self.param, self.mode)

    def __eq__(self, other):
        return self is other or (isinstance(other, SimpleAlgebra)
                                 and self._key() == other._key())

    def __hash__(self):
        return self._hash

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
        """The algebra `make_algebra` keeps for the key, once the key is
        known hashable: a family or mode that is no string is refused as
        the constructor refuses it."""
        _json_object(obj, "an algebra")
        n = None if obj.get("n") is None else _json_int(obj, "n")
        family, mode = obj["family"], obj.get("mode", "compact")
        if type(mode) is not str:
            raise UnsupportedParam("mode must be compact or complex")
        if type(family) is not str:
            raise UnsupportedParam("unknown family %r" % (family,))
        return make_algebra(family, n, mode)

    # -- matrix model ----------------------------------------------------------

    def _need_matrix(self):
        if self.is_exceptional:
            raise UnsupportedExceptional(
                "%s has no matrix model; only static data" % self.family)

    @property
    def killing_scale(self):
        """c with killing(x, y) = c * tr(xy) in the defining representation."""
        self._need_matrix()
        return Fraction(self._model.killing(self.param, self.size))

    @lru_cache(maxsize=_KEYS_CACHED)
    def basis(self):
        """Defining-representation basis, closed under bracket."""
        self._need_matrix()
        out = tuple(self._model.basis(self.param, self.size))
        assert len(out) == self.dim
        return out

    def form_adjoint(self, M):
        """J^-1 M^T J for the form J of b, c or d (J = I on so(m)), read off
        its signed permutation: entry (i, j) is eps(pi i) eps(pi j) M[pi j][pi
        i].  X is in the algebra exactly when its adjoint is -X, and G in the
        conformal group exactly when its adjoint A has A G = s I, s != 0 the
        form scalar of G^T J G = s J."""
        pi, eps = self.form
        rows = tuple({} for _ in range(M.n))
        for r, row in enumerate(M.rows):
            for c, v in row.items():
                rows[pi[c]][pi[r]] = v if eps[r] == eps[c] else tuple(-x for x in v)
        return CycloMatrix(M.n, M.N, M.den, rows, _normalized=True)

    @lru_cache(maxsize=_KEYS_CACHED)
    def structure_constants(self):
        """The bracket and the Killing form on basis(), over one denominator:
        (C, K, den) with coords([b_i, b_j]) the packed rational row
        ({k: (c,) for k, c in C[i][j]}, den) and killing(b_i, b_j) =
        K[i][j] / den.  C[i][j] lists the nonzero (k, c) pairs in increasing
        k.  C is antisymmetric and K symmetric.  Both come in closed form
        from the +-1 entries of the basis (`_supports`): only entries that
        meet are multiplied, the entries of b_i b_j - b_j b_i are read as
        `coords` reads a matrix, and K is the killing scale times
        tr(b_i b_j)."""
        sup, n = self._supports(), self.dim
        in_row = {}
        for b, ents in enumerate(sup):
            for i, j, s in ents:
                in_row.setdefault(i, []).append((b, j, s))
        # every product of an entry (i, j) of b_a with an entry (j, j2) of
        # b_b, summed into the entries of [b_a, b_b] (a < b) and the traces
        # of b_a b_b (a <= b)
        comm, trace = {}, {}
        for a, ents in enumerate(sup):
            for i, j, s in ents:
                for b, j2, s2 in in_row.get(j, ()):
                    v = s * s2
                    if a <= b and i == j2:
                        trace[a, b] = trace.get((a, b), 0) + v
                    if a != b:
                        e = comm.setdefault((a, b) if a < b else (b, a), {})
                        e[i, j2] = e.get((i, j2), 0) + (v if a < b else -v)
        # read as coords reads: the a-family Cartan by diagonal prefix sums
        read = self._reads()
        cartan = len(read)
        C = [[()] * n for _ in range(n)]
        for (a, b), e in comm.items():
            row = {read[p]: v for p, v in e.items() if v and p in read}
            acc = 0
            for k in range(cartan, n):
                acc += e.get((k - cartan,) * 2, 0)
                if acc:
                    row[k] = acc
            C[a][b] = tuple(sorted(row.items()))
            C[b][a] = tuple((k, -c) for k, c in C[a][b])
        # the Killing value of each distinct trace is formed once
        value = {t: self.killing_scale * t for t in set(trace.values())}
        den = lcm(1, *(q.denominator for q in value.values()))
        if den != 1:
            C = [[tuple((k, c * den) for k, c in cs) for cs in row] for row in C]
        K = [[0] * n for _ in range(n)]
        for (i, j), t in trace.items():
            q = value[t]
            K[i][j] = K[j][i] = q.numerator * (den // q.denominator)
        return tuple(map(tuple, C)), tuple(map(tuple, K)), den

    def contains_matrix(self, M):
        """Exact membership in the complexified algebra: trace zero on a,
        else M^T J + J M = 0, that is form_adjoint(M) = -M."""
        self._need_matrix()
        if M.n != self.size:
            return False
        if self.form is None:
            return M.trace().is_zero()
        return (self.form_adjoint(M) + M).is_zero()

    @lru_cache(maxsize=_KEYS_CACHED)
    def _supports(self):
        """Per basis element, its entries (i, j, +-1) in row order."""
        return tuple(tuple((i, j, v[0]) for i, row in enumerate(b.rows)
                           for j, v in sorted(row.items()))
                     for b in self.basis())

    @lru_cache(maxsize=_KEYS_CACHED)
    def _reads(self):
        """{(i, j): k}, (i, j) the first +1 of basis element k off the a-family
        Cartan: the entry that holds its coordinate."""
        sup = self._supports()
        cartan = self.dim - self.size + 1 if self.family == "a" else self.dim
        return {sup[k][0][:2]: k for k in range(cartan)}

    def coords(self, M):
        """Coordinates of M w.r.t. basis(), as a packed row (entries, den)
        over M's conductor; no linear solve: M's stored entries are read
        through `_reads`, and the a-family Cartan summed over the diagonal."""
        self._need_matrix()
        reads = self._reads()
        out = {}
        for i, row in enumerate(M.rows):
            for j, v in row.items():
                k = reads.get((i, j))
                if k is not None:
                    out[k] = v
        if self.family == "a":
            # the k-th Cartan coordinate is the sum of the first k + 1
            # diagonal entries
            acc = zero = (0,) * _context(M.N).phi
            for i, k in enumerate(range(self.dim - self.size + 1, self.dim)):
                acc = tuple(x + y for x, y in zip(acc, M.rows[i].get(i, zero)))
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

    def coords_operator(self, mats):
        """The operator on coordinates whose k-th column is coords(mats[k]),
        the image of the k-th basis element, over the lcm of the conductors."""
        N = lcm(*(M.N for M in mats))
        cols = [self.coords(M.promote(N)) for M in mats]
        return CycloMatrix.from_packed(len(cols), N, cols).transpose()

    # -- operations -------------------------------------------------------------

    def bracket_matrix(self, X, Y):
        return X * Y - Y * X

    def killing_matrix(self, X, Y):
        return X.trace_mul(Y) * self.killing_scale

    def omega_matrix(self, X):
        """Conjugation fixing the compact form: X -> -conj(X)^T, written here
        only; `Automorphism.apply_matrix` applies it for omega^conj."""
        return -X.conj_transpose()

    def element(self, matrix):
        return AlgebraElement(self, matrix)

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
        if self.family in ("a", "c"):
            full = rates + ([-r for r in rates] if self.family == "c" else [])
            assert len(full) == self.size and sum(full) == 0
            M = CycloMatrix.diag([root_of_unity(4, 1) * r for r in full])
            return SemisimpleElement(self, M, sorted(set(full)))
        assert len(rates) == self.size // 2
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for k, r in enumerate(rates):
            rows[2 * k][2 * k + 1] = r
            rows[2 * k + 1][2 * k] = -r
        eig = {x for r in rates for x in (r, -r)}
        if self.size % 2:
            eig.add(Fraction(0))
        return SemisimpleElement(self, CycloMatrix.from_scalars(rows), sorted(eig))

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


@lru_cache(maxsize=_KEYS_CACHED, typed=True)
def make_algebra(family, param=None, mode="compact"):
    """Construct (and cache) an algebra descriptor; the key is typed, so a
    rank True reaches the constructor, which refuses it."""
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
        """[(rate, projector onto the i*rate eigenspace)], nonzero only: the
        product over b != a of (X - i b E) / (i (a - b)), started at its
        first factor, so no product has the identity E as an operand; a
        single rate has the projector E, at conductor 1."""
        if self._projs is None:
            i = root_of_unity(4, 1)
            n = self.matrix.n
            iE = CycloMatrix.diag([i] * n)
            out = []
            for a in self.eigenrates:
                P = None
                for b in self.eigenrates:
                    if b != a:
                        F = self.matrix - iE * b
                        P = (F if P is None else P * F) * (i * (a - b)).inverse()
                if P is None:
                    P = CycloMatrix.identity(n)
                if not P.is_zero():
                    out.append((a, P))
            self._projs = tuple(out)
        return self._projs

    def exp_2pi(self, t=Fraction(1)):
        """The group element e^(2*pi*t*X), exact for rational t; I at
        conductor 1, with no projector, for X = 0."""
        if self.matrix.is_zero():
            return CycloMatrix.identity(self.matrix.n)
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


@lru_cache(maxsize=_KEYS_CACHED)
def zero_semisimple(algebra):
    """The zero curve of the algebra, one per algebra: every map with a
    constant curve holds it, and nothing changes an element once made."""
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
    """Exact basis of the zeta_l^n eigenspace of sigma on the complexified
    algebra: a new list of the elements that sigma keeps for each n.

    sigma is a complex-linear automorphism of the algebra; its l-th power
    must be the identity (checked on its operator).
    """
    bases = sigma.eigenbases.get(l)
    if bases is None:
        if sigma.conj:
            raise TwistMismatch("sigma is conjugate-linear; a twist is "
                                "complex-linear")
        bases = {k: () for k in range(l)}
        for val, P in finite_order_eigenprojectors(sigma.operator(), l):
            # the columns of P are the projections of the basis, in coordinates
            rows = P.transpose().packed_rows()
            piv, _ = linalg.rref(rows, P.n, P.N)
            bases[root_index(val, l)] = tuple(
                AlgebraElement(algebra, algebra.from_coords(r, P.N),
                               validate=False) for r in rows[:len(piv)])
        sigma.eigenbases[l] = bases
    return list(bases[n % l])
