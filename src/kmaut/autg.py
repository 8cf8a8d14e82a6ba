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

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .algebra import (
    AlgebraElement,
    SemisimpleElement,
    make_algebra,
    j_matrix,
    tau_matrix,
)
from .cyclo import (CycloMatrix, CycloScalar, _json_int, _json_object,
                    _rational_root, pfaffian, root_of_unity)
from .errors import (
    InvalidLabel,
    MalformedData,
    NotInvolution,
    OrderMismatch,
    OrderExceedsBound,
    Unclassifiable,
    UnsupportedExceptional,
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


def _theta_power_of(word):
    """Decompose word = x^delta o y^e; return (delta, e)."""
    delta = 0 if word in (ID_PERM, Y_PERM, _pcomp(Y_PERM, Y_PERM)) else 1
    img = word[0]
    if delta == 0:
        e = {0: 0, 1: 1, 2: 2}[img]
    else:
        e = {0: 0, 2: 1, 1: 2}[img]
    return delta, e


def _scalar_ratio(M1, M2):
    """The scalar c with M1 == c * M2, or None."""
    for i in range(M2.n):
        for j in range(M2.n):
            s = M2.entry(i, j)
            if s:
                c = M1.entry(i, j) * s.inverse()
                if M1 == M2 * c:
                    return c
                return None
    return None


def _canonical_scale(G):
    for i in range(G.n):
        for j in range(G.n):
            s = G.entry(i, j)
            if s:
                return G * s.inverse()
    return G


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

    __slots__ = ("algebra", "conj", "_G", "_Ginv", "_w", "_op", "_word",
                 "label", "_canonG", "eigenbases")

    def __init__(self, algebra, G=None, w=0, conj=False, operator=None,
                 word=None, label=None):
        algebra._need_matrix()
        self.algebra = algebra
        self.conj = bool(conj)
        self.label = label
        # {l: bases of the zeta_l^n eigenspaces}, filled by sigma_eigenspace
        self.eigenbases = {}
        self._Ginv = None
        self._canonG = None
        if operator is not None:
            assert algebra.family == "d" and algebra.param == 4
            self._G = None
            self._w = 0
            self._op = operator
            self._word = word if word is not None else ID_PERM
        else:
            self._G = G if G is not None else CycloMatrix.identity(algebra.size)
            self._w = w % 2 if algebra.family == "a" else 0
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
            G = _descend_to_group(self)
            self._G = G
            self._w = 0
        return self._G, self._w

    def _ginv(self):
        G, _ = self.parts()
        if self._Ginv is None:
            self._Ginv = G.inverse()
        return self._Ginv

    def word(self):
        """Position in the outer group as a permutation of {0,1,2}."""
        if self._word is not None:
            return self._word
        fam = self.algebra.family
        if fam == "a" and self._w:
            return X_PERM
        if fam == "d":
            det = self._G.det()
            if det == -1:
                return X_PERM
        return ID_PERM

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
        return self._G * M * self._ginv()

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
        """Linear-part operator on basis coordinates (dim x dim)."""
        if self._op is not None:
            return self._op
        imgs = [self._apply_linear(b) for b in self.algebra.basis()]
        N = lcm(*(M.N for M in imgs))
        cols = [self.algebra.coords(M.promote(N)) for M in imgs]
        return CycloMatrix.from_packed(len(cols), N, cols).transpose()

    # -- group structure ---------------------------------------------------------

    def compose(self, other):
        """self o other (other acts first)."""
        assert self.algebra == other.algebra
        conj = self.conj ^ other.conj
        if self._G is not None and other._G is not None:
            # K = other's G passed through omega^c then mu^w of self, using
            # inv(K^T) = inv(K)^T and inv(K^*) = inv(K)^*
            if self.conj and self._w:
                K = other._G.conj()
            elif self.conj:
                K = other._ginv().conj_transpose()
            elif self._w:
                K = other._ginv().transpose()
            else:
                K = other._G
            return Automorphism(self.algebra, self._G * K,
                                w=self._w + other._w, conj=conj)
        L1 = self.operator()
        L2 = other.operator()
        if self.conj:
            L2 = L2.conj()
        return Automorphism(self.algebra, operator=L1 * L2,
                            word=_pcomp(self.word(), other.word()), conj=conj)

    def inverse(self):
        if self._G is not None:
            G = self._G
            # Kinv: the inverse of K, where it comes for free
            if self._w and self.conj:
                K, Kinv = self._ginv().conj(), G.conj()
            elif self._w:
                K, Kinv = G.transpose(), None
            elif self.conj:
                K, Kinv = G.conj_transpose(), None
            else:
                K, Kinv = self._ginv(), G
            out = Automorphism(self.algebra, K, w=self._w, conj=self.conj)
            out._Ginv = Kinv
            return out
        Li = self.operator().inverse()
        if self.conj:
            Li = Li.conj()
        return Automorphism(self.algebra, operator=Li,
                            word=_pinv(self.word()), conj=self.conj)

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        out = identity_automorphism(self.algebra)
        base = self
        while k:
            if k & 1:
                out = out.compose(base)
            base = base.compose(base)
            k >>= 1
        return out

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
            if self._w != other._w:
                return False
            if self._canonG is None:
                self._canonG = _canonical_scale(self._G)
            if other._canonG is None:
                other._canonG = _canonical_scale(other._G)
            return self._canonG == other._canonG
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
        algebra = SimpleAlgebra.from_json(obj["algebra"])
        algebra = make_algebra(algebra.family, algebra.param, algebra.mode)
        M = CycloMatrix.from_json(obj["matrix"])
        group = obj.get("rep", "group") == "group"
        if not group and (algebra.family, algebra.param) != ("d", 4):
            raise MalformedData("only so(8) takes an operator matrix")
        size = algebra.size if group else algebra.dim
        if M.n != size:
            raise MalformedData("%s takes a %dx%d matrix, not %dx%d"
                                % (algebra.label(), size, size, M.n, M.n))
        if group:
            return Automorphism(algebra, M,
                                w=_json_int(obj, "outer_power", 0, (0, 1)),
                                conj=bool(obj.get("conj_linear", False)),
                                label=obj.get("label"))
        w = obj.get("outer_power")
        if not (isinstance(w, list) and all(type(x) is int for x in w)
                and sorted(w) == [0, 1, 2]):
            raise MalformedData("an operator's outer_power permutes [0, 1, 2]")
        return Automorphism(algebra, operator=M, word=tuple(w),
                            conj=bool(obj.get("conj_linear", False)),
                            label=obj.get("label"))


def identity_automorphism(algebra):
    return Automorphism(algebra, CycloMatrix.identity(algebra.size), label="id")


def mu_automorphism(algebra):
    """X -> -X^T; outer for su(m), m >= 3; equals Ad(J) on su(2)."""
    assert algebra.family == "a"
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


@lru_cache(maxsize=1)
def _triality_operator():
    """The 28x28 rational operator of the order-3 outer automorphism of so(8).

    Solved from the octonion identity a(xy) = a'(x)y + x a''(y): the
    composition a -> (a')'' has order 3, preserves brackets and has a
    14-dimensional fixed algebra.
    """
    mult = _octonion_table()

    def omult(u, v):
        out = [0] * 8
        for i in range(8):
            if u[i]:
                for j in range(8):
                    if v[j]:
                        k, s = mult[(i, j)]
                        out[k] += s * u[i] * v[j]
        return out

    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    unit = [[int(r == i) for r in range(8)] for i in range(8)]
    basis = []
    for (i, j) in pairs:
        M = [[0] * 8 for _ in range(8)]
        M[i][j] = 1
        M[j][i] = -1
        basis.append(M)

    rows = []
    for p in range(8):
        for q in range(8):
            blocks = []
            for m in range(28):
                Mm = basis[m]
                blocks.append(omult([Mm[r][p] for r in range(8)], unit[q]))
            for m in range(28):
                Mm = basis[m]
                blocks.append(omult(unit[p], [Mm[r][q] for r in range(8)]))
            for coord in range(8):
                rows.append([blk[coord] for blk in blocks])
    rhss = []
    for m in range(28):
        rhs = []
        Mm = basis[m]
        for p in range(8):
            for q in range(8):
                w = omult(unit[p], unit[q])
                rhs.extend(sum(Mm[i][k] * w[k] for k in range(8)) for i in range(8))
        rhss.append(rhs)

    # the integer system [A | B] in packed rows over Q, unknowns a', a''
    naug = 56
    system = [({j: (x,) for j, x in enumerate(row + [rhs[i] for rhs in rhss])
                if x}, 1) for i, row in enumerate(rows)]
    pivots, _ = linalg.eliminate(system, naug + 28, 1)
    assert pivots[-1] < naug, "octonion system has no solution"
    # free unknowns are 0; row pc of sol holds unknown pc for each of the 28 a
    sol = [({}, 1)] * naug
    for i, pc in enumerate(pivots):
        sol[pc] = system[i]
    T1 = CycloMatrix.from_packed(28, 1, sol[:28], offset=naug)
    T2 = CycloMatrix.from_packed(28, 1, sol[28:], offset=naug)
    return T1 * T2


@lru_cache(maxsize=1)
def _d4_frame():
    """Exact companions of the so(8) outer generator.

    Returns (P, JP): P = exp(pi*W) for a fixed-by-theta torus element W with
    integer rotation rates; P is a diagonal +-1 involution of tau_4 type that
    commutes with the order-3 generator exactly, and JP is an antisymmetric
    orthogonal pairing of its eigenspaces.
    """
    alg = make_algebra("d", 4, "compact")
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
    if not (algebra.family == "d" and algebra.param == 4):
        raise InvalidLabel("triality exists only for so(8)")
    op = _triality_operator()
    power %= 3
    if power == 0:
        return identity_automorphism(algebra)
    word = Y_PERM if power == 1 else _pcomp(Y_PERM, Y_PERM)
    return Automorphism(algebra, operator=op ** power, word=word,
                        label="theta" if power == 1 else "theta2")


def _descend_to_group(aut):
    """Recover G with Ad(G) == aut, an operator-form automorphism with
    trivial outer part, by solving G X = aut(X) G on the defining matrices."""
    n = aut.algebra.size
    # candidates for G, cut down by G b - img G = 0 one basis element at a time
    kern = [CycloMatrix.from_scalars([[int(r == p and c == q) for c in range(n)]
                                      for r in range(n)])
            for p in range(n) for q in range(n)]
    for b in aut.algebra.basis():
        img = aut._apply_linear(b)
        cuts = [K * b - img * K for K in kern]
        # the relations sum_k c_k cut_k = 0, entry (i, j) of a cut at
        # column i * n + j
        N = lcm(*(C.N for C in cuts))
        vecs = [({i * n + j: v
                  for i, (ents, _) in enumerate(C.promote(N).packed_rows())
                  for j, v in ents.items()}, C.den) for C in cuts]
        rels = linalg.relations(vecs, N)
        if len(rels) < len(kern):  # else every cut is zero
            M = lcm(N, *(K.N for K in kern))
            kern = [sum((kern[k] * CycloScalar(N, v, den)
                         for k, v in ents.items()), CycloMatrix.zeros(n, M))
                    for ents, den in rels]
        if len(kern) <= 1:
            break
    if not kern:
        raise Unclassifiable("operator is not inner for the defining representation")
    G = kern[0]
    # normalize into the group: scale so that G G^T = I; the class rules
    # downstream (eigenvalue counts, pfaffian signs) assume a group matrix,
    # so an unnormalizable scaling must fail loudly rather than misclassify
    gg = G * G.transpose()
    c = gg.is_scalar()
    if c is None or c.is_zero():
        raise Unclassifiable("descended matrix is not conformal-orthogonal")
    s = _cyclo_sqrt(c)
    if s is None:
        raise Unclassifiable("descended matrix admits no group normalization")
    return G * s.inverse()


def _cyclo_sqrt(c):
    """A square root of c when c = q * (root of unity) with q rational > 0."""
    from .cyclo import root_index
    if c.is_rational():
        q = c.as_fraction()
        if q > 0:
            num = _rational_root(q, 2)
            if num is not None:
                return CycloScalar.from_rational(num)
        else:
            num = _rational_root(-q, 2)
            if num is not None:
                return CycloScalar.from_rational(num) * root_of_unity(4, 1)
        return None
    cm = c.min_conductor()
    k = root_index(cm, cm.N)
    if k is not None:
        return root_of_unity(2 * cm.N, k)
    return None


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

    def render(self):
        return repr(self)


def parse_label(algebra, text):
    """Parse 'rho2', "rho2'", 'id', 'mu', 'muAdJ', 'AdJ', "AdJ'", 'AdjE'."""
    if not isinstance(text, str):
        raise InvalidLabel("a label is a string, not %r" % (text,))
    t = text.strip()
    prime = 0
    while t.endswith("'"):
        prime += 1
        t = t[:-1]
    low = t.lower()
    if low in ("id", "rho0"):
        if prime:
            raise InvalidLabel("the identity class has no primed variants")
        return InvLabel(0)
    if algebra.is_exceptional:
        if low.startswith("rho"):
            lab = InvLabel(int(t[3:]), prime)
            if lab in standard_labels(algebra):
                return lab
        raise InvalidLabel("label %r not valid for %s" % (text, algebra.label()))
    info = family_labels(algebra)
    if low == "mu":
        if algebra.family != "a" or prime:
            raise InvalidLabel("mu label applies to the a family")
        return InvLabel(1) if algebra.size == 2 else InvLabel(info["mu"])
    if low in ("muadj", "mu*adj"):
        if algebra.family != "a" or algebra.size % 2 or prime:
            raise InvalidLabel("muAdJ needs su(2n)")
        return InvLabel(info["muadj"])
    if low == "adj":
        if algebra.family == "d":
            if algebra.param == 4:
                raise InvalidLabel("for so(8), AdJ is a primed rho2 class")
            lab = InvLabel(info["adj"], prime)
            if lab not in standard_labels(algebra):
                raise InvalidLabel("label %r not valid for %s"
                                   % (text, algebra.label()))
            return lab
        raise InvalidLabel("AdJ label applies to the d family")
    if low in ("adie", "adje"):
        if algebra.family != "c" or prime:
            raise InvalidLabel("Ad iE applies to the c family")
        return InvLabel(info["adie"])
    if low.startswith("rho"):
        try:
            p = int(t[3:])
        except ValueError:
            raise InvalidLabel("bad label %r" % text)
        lab = InvLabel(p, prime)
        if lab not in standard_labels(algebra) and p != 0:
            raise InvalidLabel("label %r not valid for %s" % (text, algebra.label()))
        return lab
    raise InvalidLabel("bad label %r" % text)


def family_labels(algebra):
    """Distinguished label indices for the family."""
    fam = algebra.family
    if fam == "a":
        m = algebra.size
        out = {"tau_max": m // 2, "mu": m // 2 + 1}
        if m % 2 == 0:
            out["muadj"] = m // 2 + 2
        return out
    if fam == "b":
        return {"tau_max": algebra.param}
    if fam == "c":
        return {"tau_max": algebra.param // 2, "adie": algebra.param // 2 + 1}
    if fam == "d":
        n = algebra.param
        if n == 4:
            return {"tau_max": 4}
        return {"tau_max": n, "adj": n + 1}
    raise UnsupportedExceptional(fam)


def standard_labels(algebra):
    """The involution classes up to inner conjugation (identity excluded)."""
    fam = algebra.family
    if fam in ("e6", "e7", "e8", "f4", "g2"):
        return [InvLabel(p) for p in range(1, algebra.n_involutions + 1)]
    info = family_labels(algebra)
    out = [InvLabel(p) for p in range(1, info["tau_max"] + 1)]
    if fam == "a":
        if algebra.size >= 3:
            out.append(InvLabel(info["mu"]))
            if "muadj" in info:
                out.append(InvLabel(info["muadj"]))
    elif fam == "c":
        out.append(InvLabel(info["adie"]))
    elif fam == "d":
        n = algebra.param
        if n == 4:
            out = [InvLabel(p, e) for p in (1, 2, 3) for e in (0, 1, 2)]
            out.append(InvLabel(4))
            out.sort()
        else:
            out.append(InvLabel(info["adj"]))
            if n % 2 == 0:
                out.append(InvLabel(info["adj"], 1))
    return out


def standard_list(algebra):
    """The standard involution list: unprimed classes only (one per
    conjugacy class under the full automorphism group)."""
    if algebra.is_exceptional:
        return standard_labels(algebra)
    return [lab for lab in standard_labels(algebra) if lab.prime == 0]


def standard_involution(algebra, label):
    """Concrete involution for a class label (classical families)."""
    if isinstance(label, str):
        label = parse_label(algebra, label)
    algebra._need_matrix()
    fam = algebra.family
    p, prime = label.p, label.prime
    if p == 0:
        return identity_automorphism(algebra)
    if label not in standard_labels(algebra):
        raise InvalidLabel("label %r not valid for %s" % (label, algebra.label()))
    info = family_labels(algebra)
    name = label.render()
    if fam == "a":
        if p <= info["tau_max"]:
            return Automorphism(algebra, tau_matrix(p, algebra.size), label=name)
        if p == info["mu"]:
            out = mu_automorphism(algebra)
            out.label = name
            return out
        # mu o Ad(J)
        half = algebra.size // 2
        return Automorphism(algebra, j_matrix(half), w=1, label=name)
    if fam in ("b", "d") and prime == 0 and p <= info["tau_max"]:
        return Automorphism(algebra, tau_matrix(p, algebra.size), label=name)
    if fam == "d" and algebra.param != 4 and p == info["adj"]:
        half = algebra.param
        J = j_matrix(half)
        if prime == 1:
            t1 = tau_matrix(1, algebra.size)
            J = t1 * J * t1
        return Automorphism(algebra, J, label=name)
    if fam == "d" and algebra.param == 4 and prime:
        base = standard_involution(algebra, InvLabel(p))
        th = triality_automorphism(algebra, prime)
        out = th.compose(base).compose(th.inverse())
        out.label = name
        return out
    if fam == "c":
        if p <= info["tau_max"]:
            n = algebra.param
            tq = tau_matrix(p, n)
            rows = [[tq.entry(i, j) for j in range(n)] + [0] * n for i in range(n)]
            rows += [[0] * n + [tq.entry(i, j) for j in range(n)] for i in range(n)]
            return Automorphism(algebra, CycloMatrix.from_scalars(rows), label=name)
        i = root_of_unity(4, 1)
        n = algebra.param
        D = CycloMatrix.diag([i] * n + [-i] * n)
        return Automorphism(algebra, D, label=name)
    raise InvalidLabel("label %r not valid for %s" % (label, algebra.label()))


def order(phi, bound=64):
    return phi.order(bound)


def is_inner(phi):
    return phi.is_inner()


def out_class(phi):
    """Image of phi in the outer group, as a permutation word."""
    return phi.word()


@lru_cache(maxsize=8)
def _adj_prime_anchor(param):
    """For so(4m): the pfaffian value of the unprimed Ad(J) class; for so(8)
    the pfaffian value of the class defined as theta rho_2 theta^(-1)."""
    if param == 4:
        alg = make_algebra("d", 4, "compact")
        th = triality_automorphism(alg)
        rho2 = standard_involution(alg, InvLabel(2))
        conj = th.compose(rho2).compose(th.inverse())
        K = conj.parts()[0]
        val = pfaffian(K)
        assert val == 1 or val == -1
        return val
    return pfaffian(j_matrix(param))


def involution_int_class(phi):
    """Class of an involution up to conjugation with inner automorphisms."""
    algebra = phi.algebra
    if algebra.is_exceptional:
        raise UnsupportedExceptional("no matrix rule for %s" % algebra.family)
    if phi.conj:
        raise NotInvolution("conjugate-linear input; use conj_linear_int_class")
    if phi.is_identity():
        return InvLabel(0)
    if not phi.compose(phi).is_identity():
        raise NotInvolution("automorphism does not square to the identity")
    fam = algebra.family
    m = algebra.size
    if fam == "d" and algebra.param == 4 and not phi.has_parts:
        delta, e = _theta_power_of(phi.word())
        if e:
            op = phi.operator()
            fixdim = _fixed_dim(op)
            p = {21: 1, 16: 2, 13: 3}.get(fixdim)
            if p is None:
                raise NotInvolution("unexpected fixed dimension %d" % fixdim)
            return InvLabel(p, e)
        # inner-or-reflection word: fall through with the descended matrix
    G, w = phi.parts()
    if fam == "a":
        if w:
            ratio = _scalar_ratio(G, G.transpose())
            if ratio == 1:
                return InvLabel(family_labels(algebra)["mu"])
            if ratio == -1:
                return InvLabel(family_labels(algebra)["muadj"])
            raise NotInvolution("outer part does not square to the identity")
        c = (G * G).is_scalar()
        if c is None:
            raise NotInvolution("G^2 is not scalar")
        tr2 = G.trace() ** 2 * c.inverse()
        d2 = tr2.as_fraction()
        d = _rational_root(d2, 2)
        assert d is not None and d.denominator == 1
        p = (m - int(d)) // 2
        if algebra.size == 2 and p == 1:
            return InvLabel(1)
        return InvLabel(p)
    if fam in ("b", "d"):
        c = (G * G).is_scalar()
        if c == 1:
            tr = G.trace().as_fraction()
            p = (m - abs(int(tr))) // 2
            return InvLabel(p)
        if c == -1:
            half = algebra.param if fam == "d" else None
            if half is None or m % 2:
                raise NotInvolution("S^2 = -1 impossible here")
            if half % 2 == 1:
                return InvLabel(family_labels(algebra)["adj"])
            pf = pfaffian(G)
            anchor = _adj_prime_anchor(algebra.param)
            if algebra.param == 4:
                return InvLabel(2, 1 if pf == anchor else 2)
            return InvLabel(family_labels(algebra)["adj"],
                            0 if pf == anchor else 1)
        raise NotInvolution("G^2 is not +-1")
    if fam == "c":
        c = (G * G).is_scalar()
        if c == 1:
            tr = G.trace().as_fraction()
            p = (m - abs(int(tr))) // 4
            # complex multiplicities are even; p is the quaternionic index
            mult = (m - abs(int(tr))) // 2
            assert mult % 2 == 0
            return InvLabel(mult // 2)
        if c == -1:
            return InvLabel(family_labels(algebra)["adie"])
        raise NotInvolution("G^2 is not +-1 in Sp")
    raise UnsupportedExceptional(fam)


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
    fam = algebra.family
    p = label.p
    if p == 0:
        return ID_PERM
    if fam == "a":
        info = family_labels(algebra)
        if algebra.size >= 3 and p > info["tau_max"]:
            return X_PERM
        return ID_PERM
    if fam in ("b", "c") or fam in ("e7", "e8", "f4", "g2"):
        return ID_PERM
    if fam == "e6":
        return X_PERM if p in (1, 4) else ID_PERM
    # family d
    n = algebra.param
    if n != 4:
        info = family_labels(algebra)
        if p == info["adj"]:
            return ID_PERM
        return X_PERM if p % 2 else ID_PERM
    base = X_PERM if p % 2 else ID_PERM
    if label.prime == 0:
        return base
    y = Y_PERM if label.prime == 1 else _pcomp(Y_PERM, Y_PERM)
    return _pcomp(_pcomp(y, base), _pinv(y))


def label_outer_action(algebra):
    """Maps label -> label for each generator of the outer group."""
    fam = algebra.family
    gens = []
    if fam == "d" and algebra.param == 4:
        def xmap(lab):
            if lab.p in (1, 2, 3) and lab.prime:
                return InvLabel(lab.p, 3 - lab.prime)
            return lab

        def ymap(lab):
            if lab.p in (1, 2, 3):
                return InvLabel(lab.p, (lab.prime + 1) % 3)
            return lab
        gens = [xmap, ymap]
    elif fam == "d" and algebra.param % 2 == 0:
        info = family_labels(algebra)

        def xmap(lab):
            if lab.p == info["adj"]:
                return InvLabel(lab.p, 1 - lab.prime)
            return lab
        gens = [xmap]
    return gens
