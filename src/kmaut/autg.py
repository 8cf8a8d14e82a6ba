"""Finite-order automorphisms of a simple algebra: construction, composition,
order, inner/outer position, involution classes and component signatures.

Every automorphism of a classical algebra is stored in the one form
Ad(G) o T^w o omega^c: G a matrix of the defining representation, omega the
compact conjugation X -> -conj(X)^T, and T the outer generator that no
matrix gives: mu: X -> -X^T on the a family (w = 0, 1) and the order-3
triality theta on so(8) (w = 0, 1, 2), since Aut so(8) = PSO(8) x| S3.
Elsewhere w = 0.  The operator on basis coordinates is a view, formed when
asked for.  Involution classes and component signatures are decided by
frame-free exact data: eigenvalue multiplicities, central scalars of group
commutators, eigenblock determinants and pfaffian signs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import isqrt, lcm
from operator import mul

from .algebra import (
    _KEYS_CACHED,
    SemisimpleElement,
    SimpleAlgebra,
    j_matrix,
    tau_matrix,
)
from .cyclo import (ONE, CycloMatrix, _json_int, _json_object, pfaffian,
                    root_of_unity)
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


@lru_cache(maxsize=256)
def outer_order(*terms):
    """The order in the outer group of w1^e1 ... wr^er for the terms (w, e):
    outer words (`Automorphism.word`, `label_out_word`, `_entry_word`) with
    integer exponents, negative ones for inverses.  Kept per terms, as a
    table sweep asks for the same few products again and again."""
    word = ID_PERM
    for w, e in terms:
        for _ in range(e % _porder(w)):
            word = _pcomp(word, w)
    return _porder(word)


def _entry_word(entry):
    """Outer word of a component class: the representative of outer order k
    has the word of that order."""
    return {1: ID_PERM, 2: X_PERM, 3: Y_PERM}[entry.k]


def _ypow(e):
    """The word of theta^e, e in 0..2."""
    return ID_PERM if e == 0 else Y_PERM if e == 1 else _pcomp(Y_PERM, Y_PERM)


def _theta_power_of(word):
    """(d, e) with word = x^d o y^e: word[0] is e, or x's image of e."""
    d = int(word not in (ID_PERM, Y_PERM, _ypow(2)))
    return d, X_PERM[word[0]] if d else word[0]


def _first_entry(M):
    """(i, j) of the first stored entry of M, the lowest column of its first
    nonzero row; None when M is zero."""
    for i, row in enumerate(M.rows):
        if row:
            return i, min(row)
    return None


def _at_unit_scale(G):
    """G divided by its first stored entry: the scale at which a matrix
    that a map fixes only up to a scalar is written or descended."""
    a = G.entry(*_first_entry(G))
    return G if a == 1 else G * a.inverse()


def _scalar_ratio(M1, M2):
    """The scalar c with M1 == c * M2, or None; read at the first stored
    entry of M2, over the lcm of the two conductors.  Where the two entries
    there are equal, c is 1 and M1 is compared with M2 itself."""
    ij = _first_entry(M2)
    if ij is None:
        return None
    a, b = M1.entry(*ij), M2.entry(*ij)
    if a == b:
        return ONE.promote(lcm(M1.N, M2.N)) if M1 == M2 else None
    c = a * b.inverse()
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
    """A (possibly conjugate-linear) automorphism Ad(G) o T^w o omega^conj of
    a classical simple algebra, T the outer generator that no matrix gives:
    mu on a (w in {0, 1}), theta on so(8) (w in {0, 1, 2}), none elsewhere."""

    __slots__ = ("algebra", "conj", "_G", "_inv", "_s", "_w", "_op", "_word",
                 "_by_theta", "_sq", "label", "eigenbases")

    def __init__(self, algebra, G=None, w=0, conj=False, label=None):
        algebra._need_matrix()
        self.algebra = algebra
        self.conj = bool(conj)
        self.label = label
        # {l: {n: the zeta_l^n eigenspace basis}}, filled by sigma_eigenspace
        self.eigenbases = {}
        self._G = G if G is not None else CycloMatrix.identity(algebra.size)
        self._w = (w % 2 if algebra.outer == "mu"
                   else w % 3 if algebra.has_triality else 0)
        # G^-1 and the form scalar of G (see _form_scalar): None while
        # unknown, else made or the zero-argument function that makes it
        self._inv = self._s = None
        self._op = self._word = None  # the operator and the outer word
        self._sq = [None]  # [self o self], kept by compose
        # made with theta: written in JSON as an operator, as every map of
        # so(8) built with the triality is, whatever its outer class
        self._by_theta = self._w != 0 and algebra.has_triality

    # -- basic structure -----------------------------------------------------

    def parts(self):
        """(G, w) of the defining form."""
        return self._G, self._w

    def _ginv(self):
        """G^-1, made by the function in _inv, else by group_inverse (which
        also finds the form scalar)."""
        inv = self._inv
        if inv is None:
            inv, self._s = _inverse_and_scalar(self.algebra, self._G)
        self._inv = inv = _made(inv)
        return inv

    def _unlabeled(self, by_theta=False):
        """The same map with no label, sharing all it has made, its kept
        square too unless by_theta changes it; made with theta if it was or
        by_theta is set."""
        out = object.__new__(Automorphism)
        out.algebra, out.conj, out._G, out._inv = (self.algebra, self.conj,
                                                   self._G, self._inv)
        out._s, out._w, out._op, out._word = (self._s, self._w, self._op,
                                              self._word)
        out._by_theta, out.label, out.eigenbases = (self._by_theta or by_theta,
                                                    None, {})
        out._sq = self._sq if out._by_theta == self._by_theta else [None]
        return out

    def word(self):
        """Position in the outer group as a permutation of {0,1,2}."""
        if self._word is None:
            alg, G = self.algebra, self._G
            # G^T G = c I gives det(G) = +-c^l; -c^l is a reflection,
            # whatever the scale of G
            x = self._w if alg.outer == "mu" else alg.outer == "det" and (
                G.det() != _form_scalar(self) ** alg.param)
            self._word = X_PERM if x else ID_PERM
            if alg.has_triality:
                self._word = _pcomp(self._word, _ypow(self._w))
        return self._word

    def is_inner(self):
        return self.word() == ID_PERM and not self.conj

    def out_order(self):
        """Order of the image in the outer group (1, 2 or 3)."""
        return _porder(self.word())

    # -- action ----------------------------------------------------------------

    def apply_matrix(self, M):
        if self.conj:
            M = self.algebra.omega_matrix(M)
        return self._apply_linear(M)

    def _apply_linear(self, M):
        if self._w:
            M = (_theta_image(self.algebra, M, self._w)
                 if self.algebra.has_triality else -M.transpose())
        return self._ad(M)

    def _ad(self, M):
        return M if _is_unit(self._G) else self._G * M * self._ginv()

    def apply_semisimple(self, x):
        """Image of a semisimple element, with transported eigenvalue data."""
        M = self.apply_matrix(x.matrix)
        rates = x.eigenrates
        if self._w:
            rates = (_image_rates(M, rates) if self.algebra.has_triality
                     else tuple(sorted(-r for r in rates)))
        return SemisimpleElement(self.algebra, M, rates, validate=False)

    def operator(self):
        """The linear part's operator on basis coordinates, kept once built."""
        if self._op is None:
            self._op = self.algebra.coords_operator(
                [self._ad(y) for y in _outer_basis(self.algebra, self._w)])
        return self._op

    # -- group structure ---------------------------------------------------------

    def compose(self, other):
        """self o other (other acts first), stored as M1 K for K = T(M2), T
        the T^w omega^c of self (`_transport`).  Off theta, K^-1 M1^-1 is
        carried (made on first use) when both factors' inverses are made,
        and s1 s2 where T is trivial and both form scalars are kept.  The
        square is formed once and kept in self's slot, which `_unlabeled`
        copies at the same `_by_theta` share: other is self, or a copy with
        the same matrix, w, conj and `_by_theta` (which decides how the JSON
        is written)."""
        assert self.algebra == other.algebra
        # each factor's matrix is tested for the unit once.  A plain identity
        # (complex-linear, w = 0, the unit as its G) leaves the other factor
        # as it is, byte for byte, made with theta if either factor was
        unit1, unit2 = _is_unit(self._G), _is_unit(other._G)
        if unit2 and not (other.conj or other._w):
            return self._unlabeled(other._by_theta)
        if unit1 and not (self.conj or self._w):
            return other._unlabeled(self._by_theta)
        square = other._G is self._G and (other._w, other.conj, other._by_theta
                                          ) == (self._w, self.conj, self._by_theta)
        if square and self._sq[0] is not None:
            return self._sq[0]
        alg, conj, c, w = self.algebra, self.conj ^ other.conj, self.conj, self._w
        M2, theta = other._G, w if alg.has_triality else 0
        flip = theta and not unit2 and _theta_power_of(other.word())[0]
        K = _transport(alg, c, w, M2, other._ginv, flip)
        # M1 K as _product forms it; K is M2 where T is trivial
        if unit1:
            G = K
        elif unit2 if K is M2 else _is_unit(K):
            G = self._G
        else:
            G = self._G * K
        out = Automorphism(alg, G, w=(-w if flip else w) + other._w, conj=conj)
        out._by_theta = self._by_theta or other._by_theta
        if self._word and other._word:
            out._word = _pcomp(self._word, other._word)
        s1, s2 = self._s, other._s
        if not (c or w) and s1 is not None and s2 is not None:
            # K = M2: the scalars multiply (omega would invert s2)
            out._s = lambda: _made(s1) * _made(s2)
        inv1, inv2 = self._inv, other._inv
        if (not theta and isinstance(inv1, CycloMatrix)
                and isinstance(inv2, CycloMatrix)):
            out._inv = lambda: _product(_transport(alg, c, w, inv2, M2), inv1)
        if square:
            self._sq[0] = out
        return out

    def inverse(self):
        """Ad(K) T^v omega^c for K = T(G^-1), T = T^-w omega^c: v = w on a,
        and -w on so(8) unless G is a reflection.  Off theta, K^-1 = T(G) is
        made if T needs no inverse, else carried if G^-1 was made before."""
        alg, c, w = self.algebra, self.conj, self._w
        G, Ginv = self._G, self._inv
        theta = w if alg.has_triality else 0
        flip = theta and _theta_power_of(self.word())[0]
        out = Automorphism(alg, _transport(alg, c, -w, self._ginv, G, flip),
                           w=w if flip else -w, conj=c)
        out._by_theta = self._by_theta
        if self._word:
            out._word = _pinv(self._word)
        if not theta and c == w:
            out._inv = _transport(alg, c, w, G, None)
        elif not theta and isinstance(Ginv, CycloMatrix):
            out._inv = lambda: _transport(alg, c, w, G, Ginv)
        return out

    def power(self, k):
        """self^k by binary expansion: bit_length(k) - 1 squarings, each the
        square kept on its base (see compose), and popcount(k) - 1 products;
        power(1) is self itself."""
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
        return not (self.conj or self._w) and self._G.is_scalar() is not None

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
        # Ad(G) = Ad(c G): one map for every nonzero multiple of G
        return (self.algebra == other.algebra and self.conj == other.conj
                and self._w == other._w
                and _scalar_ratio(self._G, other._G) is not None)

    def __hash__(self):
        return hash((self.algebra, self.conj, self.word()))

    def __repr__(self):
        return "Automorphism(%s, %s%s)" % (
            self.algebra.label(), self.label or "parts(w=%d)" % self._w,
            ", conj" if self.conj else "")

    # -- io ------------------------------------------------------------------------

    def to_json(self):
        """The parts (G, w, conj), the same for equal maps however they were
        multiplied or scaled: G, which the map fixes only up to a scalar, is
        divided by its first stored entry and written at its least
        conductor.  A map made with theta is written as the operator of its
        linear part, which the map fixes exactly, at its least conductor,
        with its word."""
        out = {"algebra": self.algebra.to_json(), "conj_linear": self.conj}
        if self.label:
            out["label"] = self.label
        if self._by_theta:
            out.update(rep="operator", outer_power=list(self.word()),
                       matrix=self.operator().min_conductor().to_json())
        else:
            out.update(rep="group", outer_power=self._w,
                       matrix=_at_unit_scale(self._G).min_conductor().to_json())
        return out

    @staticmethod
    def from_json(obj):
        """A group matrix G, at any scale and conductor, with its outer
        power, or an so(8) operator L with its word x^d y^e: L o theta^-e
        descends to a G, and L must be Ad(G) o theta^e, with that word."""
        _json_object(obj, "an automorphism")
        algebra = SimpleAlgebra.from_json(obj["algebra"])
        algebra._need_matrix()
        group = obj.get("rep", "group") == "group"
        if not group and not algebra.has_triality:
            raise MalformedData("only so(8) takes an operator matrix")
        M = CycloMatrix.from_json(obj.get("matrix"),
                                  algebra.size if group else algebra.dim)
        conj, label = obj.get("conj_linear", False), obj.get("label")
        if type(conj) is not bool:
            raise MalformedData("conj_linear must be true or false, not %.40r"
                                % (conj,))
        if "label" in obj and type(label) is not str:
            raise MalformedData("label must be a string, not %.40r" % (label,))
        if group:
            # mu exists on the a family only; elsewhere w = 1 would be lost
            w, G = _json_int(obj, "outer_power", 0,
                             (0, 1) if algebra.outer == "mu" else (0,)), M
        else:
            word = obj.get("outer_power")
            if not (isinstance(word, list) and all(type(x) is int for x in word)
                    and sorted(word) == [0, 1, 2]):
                raise MalformedData("an operator's outer_power permutes "
                                    "[0, 1, 2]")
            w = _theta_power_of(tuple(word))[1]
            # P = L o theta^-w, whose column k is the image of b_k
            P = M * _triality_power(-w % 3) if w else M
            cols = P.transpose().rows
            image = lambda k: algebra.from_coords((cols[k], P.den), P.N)
            G = _descend(algebra, image)
            # P(b) G = G b on the whole basis makes G invertible (C^8 is
            # irreducible), G^T G scalar (Schur) and L = Ad(G) o theta^w
            if G is not None and any(image(k) * G != G * b
                                     for k, b in enumerate(algebra.basis())):
                G = None
        out = Automorphism(algebra, G, w=w, conj=conj, label=label)
        # the matrix keeps its inverse: most parsed maps are composed or
        # inverted, which needs it; a group matrix outside its group fails here
        out._inv, out._s = _inverse_and_scalar(algebra, out._G)
        if not group:
            if G is None or out.word() != tuple(word):
                raise MalformedData("the operator matrix is not an automorphism"
                                    " of %s with the outer_power %s"
                                    % (algebra.label(), word))
            out._op, out._by_theta = M, True
        return out


def _transport(algebra, conj, w, M, Minv, flip=False):
    """T(M) with T o Ad(M) = Ad(T(M)) o T' for T = T^w o omega^conj.  On a,
    T' = T and T(M) is M, conj(M), (M^-1)^T or (M^-1)^*.  On so(8), omega^c
    moves M as on w = 0, then `_past_theta` moves it past theta^w; T' = T,
    or theta^-w o omega^conj where M is a reflection (flip: x y x = y^-1).
    M and Minv = M^-1 are each made or a function that makes it."""
    if w and algebra.has_triality:
        K = _transport(algebra, conj, 0, M, Minv)
        return K if _is_unit(K) else _past_theta(
            algebra, w % 3, flip, K.N, K.den,
            tuple(tuple(sorted(row.items())) for row in K.rows))
    if bool(conj) == bool(w):
        M = _made(M)
        return M.conj() if conj else M
    Minv = _made(Minv)
    return Minv.conj_transpose() if conj else Minv.transpose()


@lru_cache(maxsize=256)
def _past_theta(algebra, w, flip, N, den, rows):
    """K' with theta^w Ad(K) = Ad(K') theta^v, v = -w for a reflection K
    (flip), else w, for K with the given stored rows: the descent of
    theta^w Ad(K) theta^-v.  Kept per K, since the same K recurs: within
    one computation, where order, power and the target twist move the same
    matrix past the same theta^w, and across computations in one process,
    as the matrices of the table involutions and their products."""
    K = CycloMatrix(8, N, den, tuple(map(dict, rows)), _normalized=True)
    Kinv = group_inverse(algebra, K)
    src = _outer_basis(algebra, (w if flip else -w) % 3)
    return _descend(algebra, lambda k: _theta_image(algebra, K * src[k] * Kinv, w))


def _made(x):
    """x, or what x makes where it is a zero-argument function."""
    return x() if callable(x) else x


def _is_unit(G):
    """G is I at conductor 1: a product with it is the other factor at that
    factor's own conductor, so it is skipped."""
    return G.N == 1 and G.is_identity()


def _product(A, B):
    """A B, formed only when neither factor is the unit matrix."""
    return B if _is_unit(A) else A if _is_unit(B) else A * B


def _eliminated_inverse(M):
    try:
        return M.inverse()
    except ZeroDivisionError:
        raise MalformedData("the matrix of an automorphism must be "
                            "invertible; this one is singular") from None


def _form_scalar(phi):
    """The scalar s of G^T J G = s J on b, c and d (J = I on so(m)) for the
    matrix G of phi, kept on phi once known, or made by the function a
    product keeps.  group_inverse finds it when it makes G^-1; otherwise it
    is read at the first stored entry (i, j) of the inverse the map keeps,
    G^-1 = A / s for the adjoint A = J^-1 G^T J, as s = A[i][j] /
    G^-1[i][j]: A[i][j] is the entry G[pi j][pi i] of the form's signed
    permutation, signed by eps(pi i) eps(pi j)."""
    phi._s = _made(phi._s)
    if phi._s is None:
        G, Ginv = phi._G, phi._ginv()  # group_inverse finds s on the way
    if phi._s is None:
        i, j = _first_entry(Ginv)
        pi, eps = phi.algebra.form
        r, c = pi[j], pi[i]
        a = G.entry(r, c)
        phi._s = (a if eps[r] == eps[c] else -a) * Ginv.entry(i, j).inverse()
    return phi._s


def _unit_trace(S, s):
    """|m - 2p| for an m x m matrix S with S^2 = s E, whose eigenvalues
    +-sqrt(s) have multiplicities p and m - p: the integer root of
    q = tr(S)^2 / s."""
    t = S.trace()
    q = (t * t * s.inverse()).as_fraction()
    assert q.denominator == 1 and q >= 0
    d = isqrt(q.numerator)
    assert d * d == q
    return d


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

    Returns (P, JP, R1): P = exp(pi*W) for a fixed-by-theta torus element W
    with integer rotation rates; P is a diagonal +-1 involution of tau_4 type
    that commutes with the order-3 generator exactly, JP is an antisymmetric
    orthogonal pairing of its eigenspaces, and R1 the reflection in P's
    first -1 axis.
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
    r1rows = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    r1rows[minus[0]][minus[0]] = Fraction(-1)
    return P, JP, CycloMatrix.from_scalars(r1rows)


@lru_cache(maxsize=2)
def _triality_power(e):
    """The operator of theta^e, e = 1 or 2."""
    op = _triality_operator()
    return op if e == 1 else op * op


@lru_cache(maxsize=2)
def _triality_columns(e):
    """The columns of theta^e's operator: rational, four entries each."""
    return _triality_power(e).transpose().rows


def _theta_image(algebra, M, e):
    """theta^e(M) for M in so(8), e = 1 or 2: each coordinate of M times a
    column of the operator; zero at conductor 1."""
    cols, (ents, den), out = _triality_columns(e), algebra.coords(M), {}
    for k, v in ents.items():
        for i, (c,) in cols[k].items():
            w = out.get(i)
            out[i] = tuple(c * x for x in v) if w is None else tuple(
                y + c * x for x, y in zip(v, w))
    return algebra.from_coords(({i: w for i, w in out.items() if any(w)},
                                den * _triality_power(e).den), M.N)


@lru_cache(maxsize=_KEYS_CACHED)
def _outer_basis(algebra, w):
    """T^w(b_k) for the basis b_k: theta^w on so(8), read off the columns of
    its operator, and mu^w on a."""
    if not w:
        return algebra.basis()
    if algebra.has_triality:
        den = _triality_power(w).den
        return tuple(algebra.from_coords((col, den))
                     for col in _triality_columns(w))
    return tuple(-b.transpose() for b in algebra.basis())


def triality_automorphism(algebra, power=1):
    """The order-3 outer automorphism of so(8) (or its square)."""
    if not algebra.has_triality:
        raise InvalidLabel("triality exists only for so(8)")
    power %= 3
    if power == 0:
        return identity_automorphism(algebra)
    return Automorphism(algebra, w=power,
                        label="theta" if power == 1 else "theta2")


def _descend(algebra, image):
    """G with Ad(G) = L for a map L of so(8) with no triality part, from
    image(k) = L(b_k), read at A_01, A_02 and A_1q only.

    Write A_ij = E_ij - E_ji and g_i for column i of G.  Since Ad(G) keeps
    so(8), G^T G = s I, so L(X) L(Y) = G X Y G^T / s; and as A_ki A_k0 =
    -E_i0 and A_10^2 + A_20^2 - A_12^2 = -2 E_00,
      g_i g_0^T / s = -L(A_ki) L(A_k0) for any k not in {0, i},
      g_0 g_0^T / s = -(L(A_10)^2 + L(A_20)^2 - L(A_12)^2) / 2.
    Column r of these, for an r where the latter has a nonzero diagonal
    entry, is G times (g_0)_r / s.  G is returned scaled so that its first
    stored entry is 1; None where g_0 g_0^T has no nonzero diagonal entry.
    L is not checked to be Ad(G)."""
    reads = algebra._reads()
    L = {(i, j): image(reads[i, j]) for i in range(2) for j in range(i + 1, 8)
         if i or j < 3}
    S = L[0, 1] * L[0, 1] + L[0, 2] * L[0, 2] - L[1, 2] * L[1, 2]
    r = next((r for r in range(8) if r in S.rows[r]), None)
    if r is None:
        return None

    def times(A, B):  # A B e_r, packed
        col = {j: row[r] for j, row in enumerate(B.rows) if r in row}
        return A.matvec((col, B.den), B.N)

    # column r of -g_i g_0^T / s, that is G times one scalar: S e_r / 2,
    # L(A_12) L(A_02) e_r (k = 2) and -L(A_1i) L(A_01) e_r (k = 1)
    minus = -L[0, 1]
    cols = [({i: row[r] for i, row in enumerate(S.rows) if r in row},
             2 * S.den), times(L[1, 2], L[0, 2])]
    cols += [times(L[1, i], minus) for i in range(2, 8)]
    return _at_unit_scale(CycloMatrix.from_packed(8, S.N, cols).transpose())


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
    label order: {InvLabel: (alias, outer word, builder, row, frame)}.

    The alias names a class in the matrix notation: mu (X -> -X^T), muadj
    (mu o Ad J), adj (Ad J) or adie (Ad iE), else None.  The builder returns a
    new standard involution of the class; it is None on exceptional
    algebras, which have no matrix model.  The so(8) classes rho_p^(e) are
    theta^e rho_p theta^-e.  The row lists the components of the centralizer
    of an unprimed class after the identity component, as (rep, k, builder,
    signatures): the representative's name, its outer order, a function that
    returns it (None where only static data exist) and signatures it carries
    besides the one read off its map.  The frame builds the involution that
    the row's signatures are read against where it is not the standard one;
    else it is None."""
    fam, m = algebra.family, algebra.size
    if algebra.is_exceptional:
        # static rows: the outer component of e6, two inner ones of e7
        labels, outer, rows = range(1, algebra.n_involutions + 1), (), {}
        if fam == "e6":
            outer = (1, 4)
            rows = dict.fromkeys(labels, (("rho1", 2, None, ()),))
        elif fam == "e7":
            rows = {p: (("sigma%d" % p, 1, None, ()),) for p in (1, 3)}
        return {InvLabel(p): (None, X_PERM if p in outer else ID_PERM, None,
                              rows.get(p, ()), None) for p in labels}

    def ad(matrix, *args, w=0):
        return lambda: Automorphism(algebra, matrix(*args), w=w)

    def std(p):
        return lambda: standard_involution(algebra, InvLabel(p))

    def entry(rep, k, *factors, w=0, sigs=()):
        # Ad(M) o mu^w named rep, M the product of the factors' matrices,
        # formed on first use and shared by every map built after
        M = lru_cache(maxsize=1)(lambda: reduce(mul, [f() for f in factors]))
        return rep, k, lambda: Automorphism(algebra, M(), w=w, label=rep), sigs

    def tau(p):
        return lambda: tau_matrix(p, m)

    def theta_conj(e, base):
        # theta^e base theta^-e, made once; each call gets its own copy
        made = lru_cache(maxsize=1)(
            lambda: triality_automorphism(algebra, e).compose(base()).compose(
                triality_automorphism(algebra, -e)))
        return lambda: made()._unlabeled()

    n, frames = algebra.param, {}
    if fam == "a":
        out = {InvLabel(p): (None, ID_PERM, ad(tau_matrix, p, m))
               for p in range(1, m // 2 + 1)}
        if m < 3:  # on su(2) mu is Ad J, an inner automorphism
            rows = {InvLabel(1): [("mu", 1, lambda: mu_automorphism(algebra),
                                   ())]}
        else:
            mu, muadj = m // 2 + 1, m // 2 + 2
            out[InvLabel(mu)] = ("mu", X_PERM, lambda: mu_automorphism(algebra))
            by_mu = ("mu", 2, std(mu), ())
            rows = {lab: [by_mu] for lab in out}
            if m % 2 == 0:
                out[InvLabel(muadj)] = ("muadj", X_PERM,
                                        ad(j_matrix, m // 2, w=1))
                by_muadj = ("muAdJ", 2, std(muadj), ())
                rows[InvLabel(m // 2)] = [
                    entry("AdJ", 1, partial(j_matrix, m // 2)), by_mu, by_muadj]
                rows[InvLabel(mu)] = [entry("rho1", 1, tau(1)), by_mu,
                                      entry("rho1*mu", 2, tau(1), w=1)]
                rows[InvLabel(muadj)] = [by_muadj]
    elif fam == "b":
        out = {InvLabel(p): (None, ID_PERM, ad(tau_matrix, p, m))
               for p in range(1, n + 1)}
        rows = {InvLabel(p): [entry("rho1*tau%d" % (p + 1), 1, tau(1),
                                    tau(p + 1))] for p in range(1, n + 1)}
    elif fam == "c":
        # the quaternionic tau_p acts as diag(tau_p, tau_p) on C^2n
        out = {InvLabel(p): (None, ID_PERM, ad(
            CycloMatrix.diag, ([-1] * p + [1] * (n - p)) * 2))
            for p in range(1, n // 2 + 1)}
        i = root_of_unity(4, 1)
        out[InvLabel(n // 2 + 1)] = ("adie", ID_PERM,
                                     ad(CycloMatrix.diag, [i] * n + [-i] * n))

        def quaternionic_j():
            # block-antidiagonal in quaternionic indices, hence diag(Jq, Jq)
            # in the complex 2n model
            Jq = j_matrix(n // 2)
            Jq = [[Jq.entry(r, c) for c in range(n)] for r in range(n)]
            return CycloMatrix.from_scalars([r + [0] * n for r in Jq]
                                            + [[0] * n + r for r in Jq])
        rows = {InvLabel(n // 2 + 1): [entry("AdjE", 1, partial(j_matrix, n))]}
        if n % 2 == 0:
            rows[InvLabel(n // 2)] = [entry("AdJ", 1, quaternionic_j)]
    else:
        out = {InvLabel(p): (None, X_PERM if p % 2 else ID_PERM,
                             ad(tau_matrix, p, m)) for p in range(1, n + 1)}
        rows = {}
        for p in range(1, n):
            if p % 2:
                rows[InvLabel(p)] = [("rho%d" % p, 2, std(p), ())]
            else:
                rows[InvLabel(p)] = [
                    entry("rho1*tau%d" % (p + 1), 1, tau(1), tau(p + 1)),
                    entry("rho1", 2, tau(1)),
                    entry("rho%d" % (p + 1), 2, tau(p + 1))]
        if algebra.has_triality:
            for p in (1, 2, 3):
                _, w, base = out[InvLabel(p)]
                for e in (1, 2):
                    y = _ypow(e)
                    out[InvLabel(p, e)] = (None, _pcomp(_pcomp(y, w), _pinv(y)),
                                           theta_conj(e, base))
            # so(8) names the inner component of rho2 by its classes
            rows[InvLabel(2)][0] = entry("rho1*rho3", 1, tau(1), tau(3))
            # rho4 has a 5-class component group.  Its frame is the diagonal
            # tau_4-type involution P that commutes with the order-3 outer
            # generator exactly.  The inner (-,-) block type and the J type
            # lie in the same component here (unlike so(4n), n >= 3), so the
            # AdJ entry carries both signatures.
            def d4(i):
                return lambda: _d4_frame(algebra)[i]
            JP, R1 = d4(1), d4(2)
            frames[InvLabel(4)] = lambda: Automorphism(
                algebra, _d4_frame(algebra)[0], label="rho4")
            rows[InvLabel(4)] = [
                entry("AdJ", 1, JP, sigs=((1, (-1, -1)),)),
                entry("rho1", 2, R1), entry("rho1*AdJ", 2, R1, JP),
                ("theta", 3, lambda: triality_automorphism(algebra),
                 (("theta",),))]
        else:
            out[InvLabel(n + 1)] = ("adj", ID_PERM, ad(j_matrix, n))
            J = partial(j_matrix, n)
            if n % 2 == 0:
                out[InvLabel(n + 1, 1)] = ("adj", ID_PERM, ad(
                    lambda: tau_matrix(1, m) * j_matrix(n) * tau_matrix(1, m)))
                rows[InvLabel(n)] = [
                    entry("rho1*tau%d" % (n + 1), 1, tau(1), tau(n + 1)),
                    entry("AdJ", 1, J), entry("rho1", 2, tau(1)),
                    entry("rho1*AdJ", 2, tau(1), J)]
            else:
                rows[InvLabel(n)] = [entry("AdJ", 1, J),
                                     ("rho%d" % n, 2, std(n), ()),
                                     entry("rho%d*AdJ" % n, 2, tau(n), J)]
            # the Ad J row (rows are indexed by the standard list, so
            # unprimed only)
            rows[InvLabel(n + 1)] = [entry("rho%d" % n, 1 + n % 2, tau(n))]
    return {lab: cls + (tuple(rows.get(lab, ())), frames.get(lab))
            for lab, cls in sorted(out.items())}


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
    for lab, (alias, *_) in _classes(algebra).items():
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
    """Class of an involution up to conjugation with inner automorphisms;
    G^2 is read from the square that phi keeps (see Automorphism.compose)."""
    algebra = phi.algebra
    if phi.conj:
        raise NotInvolution("conjugate-linear input; use conj_linear_int_class")
    if phi.is_identity():
        return InvLabel(0)
    G, w = phi.parts()
    if w and algebra.has_triality:
        # phi in theta^w rho_p theta^-w has the word x y^w; theta^-w phi
        # theta^w then has the word x and lies in rho_p itself
        base = triality_automorphism(algebra, -w).compose(phi).compose(
            triality_automorphism(algebra, w))
        if base.parts()[1]:
            raise NotInvolution("automorphism does not square to the identity")
        return InvLabel(involution_int_class(base).p, w)
    if w:  # (Ad(G) o mu)^2 = Ad(G G^-T): an involution when G = +-G^T
        ratio = _scalar_ratio(G, G.transpose())
        if ratio == 1:
            return _named(algebra, "mu")
        if ratio == -1:
            return _named(algebra, "muadj")
        raise NotInvolution("automorphism does not square to the identity")
    c = phi.compose(phi).parts()[0].is_scalar()
    if c is None:
        raise NotInvolution("automorphism does not square to the identity")
    m, s = algebra.size, c
    # a symplectic form (eps -1 on half the axes) pairs the eigenvalues
    symplectic = algebra.form is not None and -1 in algebra.form[1]
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
        return InvLabel(p // 2 if symplectic else p)
    if c != -s:
        raise NotInvolution("G^2 is not +-1")
    if symplectic:
        return _named(algebra, "adie")
    if m % 2:
        # det(G)^2 = (-s)^m from G^2, but s^m from G^T G = s I
        raise NotInvolution("G^2 = -s is impossible for odd m")
    if m % 4:
        return _named(algebra, "adj")
    level = 0 if _unit_pfaffian(phi) == _adj_prime_anchor(algebra) else 1
    if algebra.has_triality:
        return InvLabel(2, level + 1)
    return InvLabel(_named(algebra, "adj").p, level)


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
