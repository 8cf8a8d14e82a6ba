"""Finite-order automorphisms of a simple algebra: construction, composition,
order, inner/outer position, involution classes and component signatures.

An automorphism is stored either in defining form Ad(G) o mu^w o omega^c
(mu: the outer generator X -> -X^T of the a-family, omega: the compact
conjugation X -> -conj(X)^T) or, for so(8) words that involve the order-3
outer generator, as a linear operator on basis coordinates together with its
position in the component group.  Involution classes and component signatures
are decided by frame-free exact data: eigenvalue multiplicities, central
scalars of group commutators, eigenblock determinants and pfaffian signs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from . import kernel
from .algebra import (
    _KEYS_CACHED,
    AlgebraElement,
    SemisimpleElement,
    make_algebra,
    j_matrix,
    tau_matrix,
)
from .cyclo import (ONE, CycloMatrix, _context, _json_int,
                    _json_object, _rational_root, pfaffian, root_of_unity)
from .errors import (
    InvalidLabel,
    MalformedData,
    NotInvolution,
    OrderMismatch,
    OrderExceedsBound,
    Unclassifiable,
)


# permutation encoding of the outer group (subgroup of S3 on {0,1,2});
# X_PERM is the image of a determinant -1 conjugation / of mu, Y_PERM the
# image of the so(8) order-3 generator.
ID_PERM = (0, 1, 2)
X_PERM = (0, 2, 1)
Y_PERM = (1, 2, 0)


def _pcomp(p, q):
    """p o q: apply q first."""
    return (p[q[0]], p[q[1]], p[q[2]])


def _pinv(p):
    out = [0, 0, 0]
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _porder(p):
    k, cur = 1, p
    while cur != ID_PERM:
        cur = _pcomp(p, cur)
        k += 1
    return k


def _ypow(e):
    """The word of theta^e, e in 0..2."""
    return ID_PERM if e == 0 else Y_PERM if e == 1 else _pcomp(Y_PERM, Y_PERM)


def _theta_power_of(word):
    """Decompose word = x^delta o y^e; return (delta, e)."""
    delta = 0 if word in (ID_PERM, Y_PERM, _pcomp(Y_PERM, Y_PERM)) else 1
    img = word[0]
    if delta == 0:
        e = {0: 0, 1: 1, 2: 2}[img]
    else:
        e = {0: 0, 2: 1, 1: 2}[img]
    return delta, e


def _first_entry(M):
    """(i, j) of the first stored entry of M, or None when M is zero."""
    for i, row in enumerate(M.rows):
        for j in row:
            return i, j
    return None


def _scalar_ratio(M1, M2):
    """The scalar c with M1 == c * M2, or None; read at the first stored
    entry of M2."""
    ij = _first_entry(M2)
    if ij is None:
        return None
    c = M1.entry(*ij) * M2.entry(*ij).inverse()
    return c if M1 == M2 * c else None


def _image_rates(M, rates):
    """The rates of M in so(8), the image of a semisimple element with the
    given rates.  Automorphisms keep the adjoint spectrum, so a rate t of M is
    (a + b) / 2 for differences a = t + t', b = t - t' of the source rates;
    the spectrum is symmetric, so t >= 0 is tested, and nullities adding up
    to 8 prove that M is diagonalizable with the rates found."""
    den = lcm(*(r.denominator for r in rates))  # integer sums are fast
    diffs = {int((r - s) * den) for r in rates for s in rates}
    iE = CycloMatrix.identity(M.n) * root_of_unity(4, 1)
    found, total = set(), 0
    for ab in sorted({a + b for a in diffs for b in diffs if a + b >= 0}):
        t = Fraction(ab, 2 * den)
        nullity = M.n - (M - iE * t).rank()
        if nullity:
            found.update((t, -t))
            total += nullity if t == 0 else 2 * nullity
            if total == M.n:
                return sorted(found)
    raise OrderMismatch("image is not i * (rational diagonalizable)")


class Automorphism:
    """A (possibly conjugate-linear) automorphism of a classical simple algebra."""

    __slots__ = ("algebra", "conj", "_G", "_inv", "_s", "_w", "_op", "_word",
                 "label", "eigenbases")

    def __init__(self, algebra, G=None, w=0, conj=False, operator=None,
                 word=None, label=None):
        algebra._need_matrix()
        self.algebra = algebra
        self.conj = bool(conj)
        self.label = label
        # {l: {n: the zeta_l^n eigenspace basis}}, filled by sigma_eigenspace
        self.eigenbases = {}
        # the inverse of the stored matrix, _G or else _op: None while
        # unknown, else made or the zero-argument function that makes it
        self._inv = None
        # the form scalar of _G (see _form_scalar), None until it is read
        self._s = None
        if operator is not None:
            assert algebra.has_triality
            self._G = None
            self._w = 0
            self._op = operator
            self._word = word if word is not None else ID_PERM
        else:
            self._G = G if G is not None else CycloMatrix.identity(algebra.size)
            self._w = w % 2 if algebra.outer == "mu" else 0
            self._op = None
            self._word = None

    # -- basic structure -----------------------------------------------------

    @property
    def has_parts(self):
        return self._G is not None

    def parts(self):
        """(G, w) of the defining form; computed from the operator if needed."""
        if self._G is None:
            delta, e = _theta_power_of(self._word)
            if e:
                raise Unclassifiable("automorphism involves the order-3 outer "
                                     "generator; no defining form")
            self._G, self._inv = _descend_to_group(self), None
        return self._G, self._w

    def _ginv(self):
        """The inverse of the stored matrix, made by the function in _inv,
        else by group_inverse (which also finds the form scalar), else (an
        operator) by elimination."""
        inv = self._inv
        if inv is None:
            if self._G is None:
                inv = self._op.inverse()
            else:
                inv, self._s = _inverse_and_scalar(self.algebra, self._G)
        elif callable(inv):
            inv = inv()
        self._inv = inv
        return inv

    def _is_plain_identity(self):
        """Complex-linear with w = 0 and the unit matrix as its G: a product
        with it is the other factor, byte for byte."""
        return (not self.conj and not self._w and self._G is not None
                and _is_unit(self._G))

    def _unlabeled(self):
        """The same map with no label: its matrix or operator, word and kept
        inverse, shared."""
        out = object.__new__(Automorphism)
        out.algebra, out.conj, out._G, out._inv = (self.algebra, self.conj,
                                                   self._G, self._inv)
        out._s = self._s
        out._w, out._op, out._word = self._w, self._op, self._word
        out.label, out.eigenbases = None, {}
        return out

    def word(self):
        """Position in the outer group as a permutation of {0,1,2}."""
        if self._word is None:
            # kept: a group-form map never changes its G or w
            self._word = ID_PERM
            if self._w:
                self._word = X_PERM
            elif self.algebra.outer == "det":
                # G^T G = c I gives det(G) = +-c^l; -c^l is a reflection,
                # whatever the scale of G
                c = _form_scalar(self)
                if self._G.det() != c ** self.algebra.param:
                    self._word = X_PERM
        return self._word

    def is_inner(self):
        return self.word() == ID_PERM and not self.conj

    def out_order(self):
        """Order of the image in the outer group (1, 2 or 3)."""
        return _porder(self.word())

    # -- action ----------------------------------------------------------------

    def apply_matrix(self, M):
        if self.conj:
            M = -M.conj_transpose()
        return self._apply_linear(M)

    def _apply_linear(self, M):
        if self._G is None:
            # zero at conductor 1, else over the lcm of the two conductors
            alg, op = self.algebra, self._op
            return alg.from_coords(op.matvec(alg.coords(M), M.N), lcm(op.N, M.N))
        if self._w:
            M = -M.transpose()
        return M if _is_unit(self._G) else self._G * M * self._ginv()

    def apply(self, x):
        return AlgebraElement(x.algebra, self.apply_matrix(x.matrix), validate=False)

    def apply_semisimple(self, x):
        """Image of a semisimple element, with transported eigenvalue data."""
        M = self.apply_matrix(x.matrix)
        rates = x.eigenrates
        if self._G is None:
            rates = _image_rates(M, rates)
        elif self._w:
            rates = tuple(sorted(-r for r in rates))
        return SemisimpleElement(self.algebra, M, rates, validate=False)

    def operator(self):
        """Linear-part operator on basis coordinates (dim x dim), kept once
        built; a group-form map then holds both forms, as a descended one."""
        if self._op is None:
            self._op = self.algebra.coords_operator(
                [self._apply_linear(b) for b in self.algebra.basis()])
        return self._op

    # -- group structure ---------------------------------------------------------

    def compose(self, other):
        """self o other (other acts first), stored as M1 K for K = T(M2), T
        the mu^w omega^c of self; K^-1 M1^-1, K^-1 = T(M2^-1), is carried
        (made on first use) when both factors' inverses are made once K is."""
        assert self.algebra == other.algebra
        # a plain identity leaves the other factor as it is, in its form
        if other._is_plain_identity():
            return self._unlabeled()
        if self._is_plain_identity():
            return other._unlabeled()
        conj, c, w = self.conj ^ other.conj, self.conj, self._w
        if self._G is not None and other._G is not None:
            M2 = other._G
            out = Automorphism(self.algebra,
                               _product(self._G,
                                        _transport(c, w, M2, other._ginv)),
                               w=w + other._w, conj=conj)
            inv1, inv2 = self._inv, other._inv
            if isinstance(inv1, CycloMatrix) and isinstance(inv2, CycloMatrix):
                out._inv = lambda: _product(_transport(c, w, inv2, M2), inv1)
            return out
        # on basis coordinates (w = 0) omega is conjugation: T(L) = conj(L)
        L1, L2 = self.operator(), other.operator()
        out = Automorphism(self.algebra, operator=L1 * (L2.conj() if c else L2),
                           word=_pcomp(self.word(), other.word()), conj=conj)
        # _inv of a map with parts inverts G, not its operator
        inv1, inv2 = (f._inv if f._G is None else None for f in (self, other))
        if isinstance(inv1, CycloMatrix) and isinstance(inv2, CycloMatrix):
            out._inv = lambda: (inv2.conj() if c else inv2) * inv1
        return out

    def inverse(self):
        """Ad(K) mu^w omega^c for K = T(G^-1), whose K^-1 = T(G) is made if
        T needs no inverse, else carried if G^-1 was made before."""
        c, w = self.conj, self._w
        if self._G is not None:
            G, Ginv = self._G, self._inv
            out = Automorphism(self.algebra, _transport(c, w, self._ginv, G),
                               w=w, conj=c)
            if c == w:
                out._inv = _transport(c, w, G, None)
            elif isinstance(Ginv, CycloMatrix):
                out._inv = lambda: _transport(c, w, G, Ginv)
            return out
        L, Li = self._op, self._ginv()
        if c:
            L, Li = L.conj(), Li.conj()
        out = Automorphism(self.algebra, operator=Li,
                           word=_pinv(self.word()), conj=c)
        out._inv = L
        return out

    def power(self, k):
        """self^k by binary expansion: bit_length(k) - 1 squarings and
        popcount(k) - 1 products; power(1) is self itself."""
        if k < 0:
            return self.inverse().power(-k)
        if k == 0:
            return identity_automorphism(self.algebra)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out.compose(base)
            k >>= 1
            if not k:
                return out
            base = base.compose(base)

    def is_identity(self):
        if self.conj:
            return False
        if self._G is not None:
            if self._w:
                return False
            return self._G.is_scalar() is not None
        return self._word == ID_PERM and self._op.is_identity()

    def order(self, bound=64):
        cur = self
        for q in range(1, bound + 1):
            if cur.is_identity():
                return q
            cur = cur.compose(self)
        raise OrderExceedsBound("no order <= %d" % bound)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Automorphism):
            return NotImplemented
        if self.algebra != other.algebra or self.conj != other.conj:
            return False
        if self._G is not None and other._G is not None:
            # Ad(G) = Ad(c G): one map for every nonzero multiple of G
            return (self._w == other._w
                    and _scalar_ratio(self._G, other._G) is not None)
        if self.word() != other.word():
            return False
        return self.operator() == other.operator()

    def __hash__(self):
        return hash((self.algebra, self.conj, self.word()))

    def __repr__(self):
        tag = self.label or ("parts(w=%d)" % self._w if self._G is not None
                             else "operator")
        return "Automorphism(%s, %s%s)" % (self.algebra.label(), tag,
                                           ", conj" if self.conj else "")

    # -- io ------------------------------------------------------------------------

    def to_json(self):
        out = {"algebra": self.algebra.to_json(), "conj_linear": self.conj}
        if self.label:
            out["label"] = self.label
        if self._G is not None:
            out["rep"] = "group"
            out["outer_power"] = self._w
            out["matrix"] = self._G.to_json()
        else:
            out["rep"] = "operator"
            out["outer_power"] = list(self._word)
            out["matrix"] = self._op.to_json()
        return out

    @staticmethod
    def from_json(obj):
        from .algebra import SimpleAlgebra
        _json_object(obj, "an automorphism")
        algebra = make_algebra(*SimpleAlgebra.from_json(obj["algebra"])._key())
        algebra._need_matrix()
        M = CycloMatrix.from_json(obj["matrix"])
        group = obj.get("rep", "group") == "group"
        if not group and not algebra.has_triality:
            raise MalformedData("only so(8) takes an operator matrix")
        size = algebra.size if group else algebra.dim
        if M.n != size:
            raise MalformedData("%s takes a %dx%d matrix, not %dx%d"
                                % (algebra.label(), size, size, M.n, M.n))
        # the matrix keeps its inverse: most parsed maps are composed or
        # inverted, which needs it; a group matrix outside its group fails here
        Minv, s = (_inverse_and_scalar(algebra, M) if group
                   else (_eliminated_inverse(M), None))
        if group:
            # mu exists on the a family only; elsewhere w = 1 would be lost
            w = _json_int(obj, "outer_power", 0,
                          (0, 1) if algebra.outer == "mu" else (0,))
            out = Automorphism(algebra, M, w=w,
                               conj=bool(obj.get("conj_linear", False)),
                               label=obj.get("label"))
        else:
            w = obj.get("outer_power")
            if not (isinstance(w, list) and all(type(x) is int for x in w)
                    and sorted(w) == [0, 1, 2]):
                raise MalformedData("an operator's outer_power permutes "
                                    "[0, 1, 2]")
            _check_keeps_bracket(algebra, M)
            out = Automorphism(algebra, operator=M, word=tuple(w),
                               conj=bool(obj.get("conj_linear", False)),
                               label=obj.get("label"))
        out._inv, out._s = Minv, s
        return out


def _transport(conj, w, M, Minv):
    """T(M) with T o Ad(M) = Ad(T(M)) o T for T = mu^w omega^conj: M,
    conj(M), (M^-1)^T or (M^-1)^*.  M and Minv = M^-1 are each made or a
    zero-argument function that makes it, called only if T needs it."""
    if bool(conj) == bool(w):
        M = M() if callable(M) else M
        return M.conj() if conj else M
    Minv = Minv() if callable(Minv) else Minv
    return Minv.conj_transpose() if conj else Minv.transpose()


def _is_unit(G):
    """G is I at conductor 1: a product with it is the other factor at that
    factor's own conductor, so it is skipped."""
    return G.N == 1 and G.is_identity()


def _product(A, B):
    """A B, formed only when neither factor is the unit matrix."""
    return B if _is_unit(A) else A if _is_unit(B) else A * B


def _check_keeps_bracket(algebra, L):
    """MalformedData unless the operator L, whose column k holds the
    coordinates of the image of b_k, keeps every bracket of the basis:
    L [b_i, b_j] = [L b_i, L b_j], both sides through the structure
    constants C over den(L)^2 den(C)."""
    from .loop import _convolve
    C = algebra.structure_constants()[0]
    ctx, cols = _context(L.N), L.transpose().rows
    for i, j in combinations(range(algebra.dim), 2):
        lhs = {}
        for k, c in C[i][j]:
            lhs = kernel.add_rows(lhs, 1, cols[k], c * L.den)
        rhs = {}
        _convolve(rhs, cols[i], cols[j], C, ctx.red, ctx.phi)
        if lhs != {a: tuple(w) for a, w in rhs.items() if any(w)}:
            raise MalformedData("the operator matrix is not an automorphism "
                                "of %s: it does not keep the bracket of basis "
                                "elements %d and %d" % (algebra.label(), i, j))


def _eliminated_inverse(M):
    try:
        return M.inverse()
    except ZeroDivisionError:
        raise MalformedData("the matrix of an automorphism must be "
                            "invertible; this one is singular") from None


def _form_scalar(phi):
    """The scalar s of G^T J G = s J on b, c and d (J = I on so(m)) for the
    matrix G of phi, kept on phi once known.  group_inverse finds it when it
    makes G^-1; otherwise it is read at the first stored entry (i, j) of the
    inverse the map keeps, G^-1 = A / s for the adjoint A = J^-1 G^T J, as
    s = A[i][j] / G^-1[i][j]: A[i][j] is the entry G[pi j][pi i] of the
    form's signed permutation, signed by eps(pi i) eps(pi j)."""
    G, Ginv = phi._G, phi._ginv()
    if phi._s is None:
        i, j = _first_entry(Ginv)
        pi, eps = phi.algebra.form
        r, c = pi[j], pi[i]
        a = G.entry(r, c)
        phi._s = (a if eps[r] == eps[c] else -a) * Ginv.entry(i, j).inverse()
    return phi._s


def _unit_trace(S, s):
    """|m - 2p| for an m x m matrix S with S^2 = s E, whose eigenvalues
    +-sqrt(s) have multiplicities p and m - p: the rational root of
    tr(S)^2 / s."""
    d = _rational_root((S.trace() ** 2 * s.inverse()).as_fraction(), 2)
    assert d is not None and d.denominator == 1
    return int(d)


def group_inverse(algebra, G):
    """G^-1 for the matrix G of a group-form automorphism.  Where the
    algebra keeps a form J it is A / s for the adjoint A = J^-1 G^T J
    (`SimpleAlgebra.form_adjoint`): Ad(G) keeps the algebra exactly when
    G^T J G = s J, that is A G = s I, for some s != 0, so this is also the
    check that G is in the group; on a, where every invertible G is, it is
    eliminated.  Either way a G that is not in the group, a singular one
    included, is MalformedData.  The unit matrix is its own inverse."""
    return _inverse_and_scalar(algebra, G)[0]


def _inverse_and_scalar(algebra, G):
    """(G^-1, s) as group_inverse makes G^-1, with the form scalar s it
    finds on the way (1 for the unit matrix, None on a)."""
    if _is_unit(G):
        return G, (None if algebra.form is None else ONE)
    if algebra.form is None:
        return _eliminated_inverse(G), None
    A = algebra.form_adjoint(G)
    s = (A * G).is_scalar()
    if s is None or s.is_zero():
        raise MalformedData("the matrix of a %s automorphism must satisfy "
                            "G^T J G = c J with c != 0 for its form J; this "
                            "one does not" % algebra.label())
    return (A if s == 1 else A * s.inverse()), s


def identity_automorphism(algebra):
    return Automorphism(algebra, CycloMatrix.identity(algebra.size), label="id")


def mu_automorphism(algebra):
    """X -> -X^T; outer for su(m), m >= 3; equals Ad(J) on su(2)."""
    assert algebra.outer == "mu"
    if algebra.size == 2:
        return Automorphism(algebra, j_matrix(1), label="mu")
    return Automorphism(algebra, CycloMatrix.identity(algebra.size), w=1,
                        label="mu")


def omega_automorphism(algebra):
    """The compact conjugation as a conjugate-linear automorphism."""
    return Automorphism(algebra, CycloMatrix.identity(algebra.size), conj=True,
                        label="omega")


# ---------------------------------------------------------------------------
# so(8): order-3 outer generator from the octonion product
# ---------------------------------------------------------------------------

_OCT_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
              (5, 6, 1), (6, 7, 2), (7, 1, 3))


def _octonion_table():
    mult = {}
    for i in range(8):
        mult[(0, i)] = (i, 1)
        mult[(i, 0)] = (i, 1)
    for i in range(1, 8):
        mult[(i, i)] = (0, -1)
    mult[(0, 0)] = (0, 1)
    for line in _OCT_LINES:
        a, b, c = line
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            mult[(x, y)] = (z, 1)
            mult[(y, x)] = (z, -1)
    return mult


def _local_triality():
    """(T1, T2), the 28x28 rational operators a -> a' and a -> a'' on basis
    coordinates of so(8), in closed form from the octonion product.

    Local triality: each a in so(8) has unique a', a'' in so(8) with
    a(xy) = a'(x) y + x a''(y) for all octonions x, y, and a -> a', a -> a''
    are Lie homomorphisms.  With L_q, R_q left and right multiplication by
    e_q (q > 0), the alternative law gives u(xy) = (L_u + R_u)(x) y +
    x (-L_u)(y) and (xy)u = (-R_u)(x) y + x (L_u + R_u)(y) for imaginary u.
    The basis element A_0q = E_0q - E_q0 is -(L_q + R_q) / 2, so
    A_0q' = -L_q / 2 and A_0q'' = -R_q / 2; and A_pq = -[A_0p, A_0q] gives
    A_pq' = -[L_p, L_q] / 4 and A_pq'' = -[R_p, R_q] / 4.
    """
    # left[q][j] = (k, s) for e_q e_j = s e_k, right[q][j] for e_j e_q
    left, right = [{} for _ in range(8)], [{} for _ in range(8)]
    for (i, j), (k, s) in _octonion_table().items():
        left[i][j] = right[j][i] = (k, s)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    index = {pair: c for c, pair in enumerate(pairs)}

    def coordinate_operator(mul):
        # column (p, q) holds the entries (i < j) of 4 A_pq': -2 M_q M_0 for
        # p = 0 (M_0 = I), else -[M_p, M_q], summed as sign M_a M_b e_j
        rows = tuple({} for _ in pairs)
        for c, (p, q) in enumerate(pairs):
            img = {}
            terms = ((q, 0, -2),) if p == 0 else ((p, q, -1), (q, p, 1))
            for j in range(8):
                for a, b, sign in terms:
                    k, s = mul[b][j]
                    k, t = mul[a][k]
                    img[k, j] = img.get((k, j), 0) + sign * s * t
            for (i, j), v in img.items():
                if i < j and v:
                    rows[index[i, j]][c] = (v,)
        return CycloMatrix(len(pairs), 1, 4, rows)

    return coordinate_operator(left), coordinate_operator(right)


@lru_cache(maxsize=1)
def _triality_operator():
    """The 28x28 rational operator of the order-3 outer automorphism of so(8),
    a -> (a'')' = T1 T2 a for the local triality pair (T1, T2): it has order
    3, keeps the bracket and fixes a 14-dimensional subalgebra."""
    T1, T2 = _local_triality()
    return T1 * T2


@lru_cache(maxsize=2)
def _d4_frame(alg):
    """Exact companions of the so(8) outer generator, for so(8) in either
    mode.

    Returns (P, JP): P = exp(pi*W) for a fixed-by-theta torus element W with
    integer rotation rates; P is a diagonal +-1 involution of tau_4 type that
    commutes with the order-3 generator exactly, and JP is an antisymmetric
    orthogonal pairing of its eigenspaces.
    """
    plane = {(2, 4): Fraction(-2), (3, 7): Fraction(1), (5, 6): Fraction(1)}
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for (i, j), rate in plane.items():
        rows[i][j] = rate
        rows[j][i] = -rate
    W = SemisimpleElement(alg, CycloMatrix.from_scalars(rows),
                          sorted({Fraction(0), 1, -1, 2, -2}))
    theta = triality_automorphism(alg)
    assert theta.apply_matrix(W.matrix) == W.matrix
    P = W.exp_2pi(Fraction(1, 2))
    minus = [i for i in range(8) if P.entry(i, i) == -1]
    plus = [i for i in range(8) if P.entry(i, i) == 1]
    assert len(minus) == 4 and len(plus) == 4
    jrows = [[Fraction(0)] * 8 for _ in range(8)]
    for a, b in zip(minus, plus):
        jrows[b][a] = Fraction(1)
        jrows[a][b] = Fraction(-1)
    JP = CycloMatrix.from_scalars(jrows)
    return P, JP


def triality_automorphism(algebra, power=1):
    """The order-3 outer automorphism of so(8) (or its square)."""
    if not algebra.has_triality:
        raise InvalidLabel("triality exists only for so(8)")
    op = _triality_operator()
    power %= 3
    if power == 0:
        return identity_automorphism(algebra)
    out = Automorphism(algebra, operator=op if power == 1 else op * op,
                       word=_ypow(power),
                       label="theta" if power == 1 else "theta2")
    out._inv = op if power == 2 else lambda: op * op  # theta^-1 = theta^2
    return out


def _descend_to_group(aut):
    """Recover G with Ad(G) == aut, an so(8) operator-form automorphism whose
    word has no triality part, from products of images of basis elements.

    Write L = aut, A_ij = E_ij - E_ji and g_i for column i of G.  Since
    Ad(G) keeps so(8), G^T G = s I, so L(X) L(Y) = G X Y G^T / s; and as
    A_ki A_k0 = -E_i0 and A_10^2 + A_20^2 - A_12^2 = -2 E_00,
      g_i g_0^T / s = -L(A_ki) L(A_k0) for any k not in {0, i},
      g_0 g_0^T / s = -(L(A_10)^2 + L(A_20)^2 - L(A_12)^2) / 2.
    Column r of these, for an r where the latter has a nonzero diagonal
    entry, is G times (g_0)_r / s.  G is returned scaled so that its first
    stored entry is 1.  G X = L(X) G is then checked on A_01 ... A_07, which
    generate so(8); Unclassifiable if it fails, as when aut is not inner."""
    alg, op = aut.algebra, aut.operator()
    basis, reads, images = alg.basis(), alg._reads(), op.transpose().rows
    # L(A_0q) and L(A_1q), read off the operator's columns
    L = {(i, j): alg.from_coords((images[k], op.den), op.N)
         for (i, j), k in reads.items() if i < 2}
    S = L[0, 1] * L[0, 1] + L[0, 2] * L[0, 2] - L[1, 2] * L[1, 2]
    r = next((r for r in range(8) if r in S.rows[r]), None)
    if r is not None:
        def times(A, B):  # A B e_r, packed
            col = {j: row[r] for j, row in enumerate(B.rows) if r in row}
            return A.matvec((col, B.den), B.N)

        # column r of -g_i g_0^T / s, that is G times one scalar: S e_r / 2,
        # L(A_12) L(A_02) e_r (k = 2) and -L(A_1i) L(A_01) e_r (k = 1)
        minus = -L[0, 1]
        cols = [({i: row[r] for i, row in enumerate(S.rows) if r in row},
                 2 * S.den), times(L[1, 2], L[0, 2])]
        cols += [times(L[1, i], minus) for i in range(2, 8)]
        G = CycloMatrix.from_packed(8, S.N, cols).transpose()
        G = G * G.entry(*_first_entry(G)).inverse()
        if all(G * basis[reads[0, q]] == L[0, q] * G for q in range(1, 8)):
            return G
    raise Unclassifiable("operator is not inner for the defining representation")


# ---------------------------------------------------------------------------
# standard involutions and their classes
# ---------------------------------------------------------------------------

class InvLabel:
    """Class label of an involution (or the identity, p = 0) up to inner
    conjugation: index p plus a prime level for the so(4m)/so(8) splits."""

    __slots__ = ("p", "prime")

    def __init__(self, p, prime=0):
        self.p = p
        self.prime = prime

    def __eq__(self, other):
        return (isinstance(other, InvLabel) and self.p == other.p
                and self.prime == other.prime)

    def __hash__(self):
        return hash((self.p, self.prime))

    def __lt__(self, other):
        return (self.p, self.prime) < (other.p, other.prime)

    def __repr__(self):
        return "rho%d%s" % (self.p, "'" * self.prime)


@lru_cache(maxsize=_KEYS_CACHED)
def _classes(algebra):
    """The involution classes up to inner conjugation (identity excluded), in
    label order: {InvLabel: (alias, outer word, builder)}.

    The alias names a class in the matrix notation: mu (X -> -X^T), muadj
    (mu o Ad J), adj (Ad J) or adie (Ad iE), else None.  The builder returns a
    new standard involution of the class; it is None on exceptional
    algebras, which have no matrix model.  The so(8) classes rho_p^(e) are
    theta^e rho_p theta^-e."""
    fam, m = algebra.family, algebra.size
    if algebra.is_exceptional:
        outer = (1, 4) if fam == "e6" else ()
        return {InvLabel(p): (None, X_PERM if p in outer else ID_PERM, None)
                for p in range(1, algebra.n_involutions + 1)}

    def ad(matrix, *args, w=0):
        return lambda: Automorphism(algebra, matrix(*args), w=w)

    def theta_conj(e, base):
        # two 28x28 operator products, made once; each call gets a fresh
        # Automorphism, whose parts fill lazily
        @lru_cache(maxsize=1)
        def conj():
            return triality_automorphism(algebra, e).compose(
                base()).compose(triality_automorphism(algebra, -e))

        def fresh():  # an involution: its operator is its own inverse
            out = Automorphism(algebra, operator=conj()._op, word=conj()._word)
            out._inv = out._op
            return out
        return fresh

    n = algebra.param
    if fam == "a":
        out = {InvLabel(p): (None, ID_PERM, ad(tau_matrix, p, m))
               for p in range(1, m // 2 + 1)}
        if m >= 3:
            out[InvLabel(m // 2 + 1)] = ("mu", X_PERM,
                                         lambda: mu_automorphism(algebra))
            if m % 2 == 0:
                out[InvLabel(m // 2 + 2)] = ("muadj", X_PERM,
                                             ad(j_matrix, m // 2, w=1))
    elif fam == "b":
        out = {InvLabel(p): (None, ID_PERM, ad(tau_matrix, p, m))
               for p in range(1, n + 1)}
    elif fam == "c":
        # the quaternionic tau_p acts as diag(tau_p, tau_p) on C^2n
        out = {InvLabel(p): (None, ID_PERM, ad(
            CycloMatrix.diag, ([-1] * p + [1] * (n - p)) * 2))
            for p in range(1, n // 2 + 1)}
        i = root_of_unity(4, 1)
        out[InvLabel(n // 2 + 1)] = ("adie", ID_PERM,
                                     ad(CycloMatrix.diag, [i] * n + [-i] * n))
    else:
        out = {InvLabel(p): (None, X_PERM if p % 2 else ID_PERM,
                             ad(tau_matrix, p, m)) for p in range(1, n + 1)}
        if algebra.has_triality:
            for p in (1, 2, 3):
                _, w, base = out[InvLabel(p)]
                for e in (1, 2):
                    y = _ypow(e)
                    out[InvLabel(p, e)] = (None, _pcomp(_pcomp(y, w), _pinv(y)),
                                           theta_conj(e, base))
        else:
            out[InvLabel(n + 1)] = ("adj", ID_PERM, ad(j_matrix, n))
            if n % 2 == 0:
                out[InvLabel(n + 1, 1)] = ("adj", ID_PERM, ad(
                    lambda: tau_matrix(1, m) * j_matrix(n) * tau_matrix(1, m)))
    return dict(sorted(out.items()))


def _named(algebra, alias):
    """The first class label of the algebra with the given alias."""
    return next(lab for lab, cls in _classes(algebra).items() if cls[0] == alias)


def _class(algebra, label):
    cls = _classes(algebra).get(label)
    if cls is None:
        raise InvalidLabel("label %r not valid for %s" % (label, algebra.label()))
    return cls


_ALIAS_SPELLINGS = {"mu*adj": "muadj", "adje": "adie"}
# the printed form of rho<p> only: ASCII digits, no sign, space or leading 0
_RHO_INDEX = re.compile(r"rho([1-9][0-9]*)")


def parse_label(algebra, text):
    """Parse 'rho2', "rho2'", 'id', 'mu', 'muAdJ', 'AdJ', "AdJ'", 'AdjE'."""
    if not isinstance(text, str):
        raise InvalidLabel("a label is a string, not %r" % (text,))
    t = text.strip()
    prime = len(t) - len(t.rstrip("'"))
    t = t.rstrip("'")
    low = t.lower()
    if low in ("id", "rho0"):
        if prime:
            raise InvalidLabel("the identity class has no primed variants")
        return InvLabel(0)
    low = _ALIAS_SPELLINGS.get(low, low)
    if low == "mu" and not prime and algebra.outer == "mu" and algebra.size == 2:
        return InvLabel(1)  # on su(2), mu is Ad J
    for lab, (alias, _, _) in _classes(algebra).items():
        if alias == low and lab.prime == prime:
            return lab
    index = _RHO_INDEX.fullmatch(low)
    if index and InvLabel(int(index[1]), prime) in _classes(algebra):
        return InvLabel(int(index[1]), prime)
    raise InvalidLabel("label %r not valid for %s" % (text, algebra.label()))


def standard_labels(algebra):
    """The involution classes up to inner conjugation (identity excluded)."""
    return list(_classes(algebra))


def standard_list(algebra):
    """The standard involution list: unprimed classes only (one per
    conjugacy class under the full automorphism group)."""
    return [lab for lab in _classes(algebra) if lab.prime == 0]


def standard_involution(algebra, label):
    """Concrete involution for a class label (classical families)."""
    if isinstance(label, str):
        label = parse_label(algebra, label)
    algebra._need_matrix()
    if label.p == 0:
        return identity_automorphism(algebra)
    out = _class(algebra, label)[2]()
    out.label = repr(label)
    return out


def order(phi, bound=64):
    return phi.order(bound)


def is_inner(phi):
    return phi.is_inner()


def out_class(phi):
    """Image of phi in the outer group, as a permutation word."""
    return phi.word()


@lru_cache(maxsize=_KEYS_CACHED)
def _adj_prime_anchor(algebra):
    """For so(4m): the pfaffian value of the unprimed Ad(J) class; for so(8)
    the pfaffian value of the class defined as theta rho_2 theta^(-1)."""
    if algebra.has_triality:
        val = _unit_pfaffian(standard_involution(algebra, InvLabel(2, 1)))
        assert val == 1 or val == -1
        return val
    return pfaffian(j_matrix(algebra.param))


def _unit_pfaffian(phi):
    """pf(G) / s^(m/4) for the matrix G of phi on so(m), m = 4k, and its form
    scalar s: the pfaffian of G / sqrt(s), whatever the scale of G."""
    return (pfaffian(phi.parts()[0])
            * _form_scalar(phi).inverse() ** (phi.algebra.param // 2))


def involution_int_class(phi):
    """Class of an involution up to conjugation with inner automorphisms."""
    algebra = phi.algebra
    if phi.conj:
        raise NotInvolution("conjugate-linear input; use conj_linear_int_class")
    if phi.is_identity():
        return InvLabel(0)
    fam = algebra.family
    m = algebra.size
    if algebra.has_triality and not phi.has_parts:
        delta, e = _theta_power_of(phi.word())
        if e:
            if not phi.compose(phi).is_identity():
                raise NotInvolution("automorphism does not square to the identity")
            fixdim = _fixed_dim(phi.operator())
            p = {21: 1, 16: 2, 13: 3}.get(fixdim)
            if p is None:
                raise NotInvolution("unexpected fixed dimension %d" % fixdim)
            return InvLabel(p, e)
        # inner-or-reflection word: fall through with the descended matrix
    G, w = phi.parts()
    if w:  # (Ad(G) o mu)^2 = Ad(G G^-T): an involution when G = +-G^T
        ratio = _scalar_ratio(G, G.transpose())
        if ratio == 1:
            return _named(algebra, "mu")
        if ratio == -1:
            return _named(algebra, "muadj")
        raise NotInvolution("automorphism does not square to the identity")
    c = (G * G).is_scalar()
    if c is None:
        raise NotInvolution("automorphism does not square to the identity")
    s = c
    if algebra.form is not None:
        # Ad(G) is Ad(G / sqrt(s)) for the form scalar s, so G^2 = +-s, and
        # the pfaffian is read as pf(G) / s^(m/4): the class does not depend
        # on G's scale
        s = _form_scalar(phi)
    if c == s:
        # tr(G)^2 / c = (m - 2p)^2 for the smaller multiplicity p of the
        # eigenvalues +-sqrt(c) of G; in Sp(n) they come in pairs, and p/2
        # is the quaternionic index
        p = (m - _unit_trace(G, c)) // 2
        return InvLabel(p // 2 if fam == "c" else p)
    if c != -s:
        raise NotInvolution("G^2 is not +-1")
    if fam == "c":
        return _named(algebra, "adie")
    if fam == "b":
        raise NotInvolution("S^2 = -1 impossible here")
    if algebra.param % 2:
        return _named(algebra, "adj")
    level = 0 if _unit_pfaffian(phi) == _adj_prime_anchor(algebra) else 1
    if algebra.has_triality:
        return InvLabel(2, level + 1)
    return InvLabel(_named(algebra, "adj").p, level)


def _fixed_dim(op):
    return op.n - (op - CycloMatrix.identity(op.n)).rank()


def conj_linear_int_class(phi):
    """Class of a conjugate-linear involution, as the label of the commuting
    compact involution: phi must satisfy phi^2 = id and (phi o omega)^2 = id."""
    if not phi.conj:
        raise NotInvolution("expected a conjugate-linear automorphism")
    if not phi.compose(phi).is_identity():
        raise NotInvolution("not an involution")
    om = omega_automorphism(phi.algebra)
    lin = phi.compose(om)
    if lin.is_identity():
        return InvLabel(0)
    if not lin.compose(lin).is_identity():
        raise Unclassifiable("input is outside the normalized classifiable set")
    return involution_int_class(lin)


# ---------------------------------------------------------------------------
# outer-group data at the label level
# ---------------------------------------------------------------------------

def label_out_word(algebra, label):
    """Outer-group position of a class label."""
    return ID_PERM if label.p == 0 else _class(algebra, label)[1]


def label_outer_action(algebra):
    """Maps label -> label for each generator of the outer group.  Only the
    split classes move: on so(8), x swaps and y cycles the prime levels of
    rho1..rho3; on so(4m), x swaps the two Ad J classes."""
    if algebra.outer != "det" or algebra.param % 2:
        return []
    if algebra.has_triality:
        def xmap(lab):
            return InvLabel(lab.p, -lab.prime % 3) if lab.p in (1, 2, 3) else lab

        def ymap(lab):
            return (InvLabel(lab.p, (lab.prime + 1) % 3) if lab.p in (1, 2, 3)
                    else lab)
        return [xmap, ymap]
    adj = _named(algebra, "adj").p
    return [lambda lab: InvLabel(adj, 1 - lab.prime) if lab.p == adj else lab]
