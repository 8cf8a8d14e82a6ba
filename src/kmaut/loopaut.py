"""Standard automorphisms of algebraic twisted loop algebras.

An automorphism is stored as (epsilon, t0, X, phi0, scale): it maps
u(t) to e^(ad tX) phi0 (u(eps t + 2 pi t0)) after multiplying the n-th
coefficient by scale^(n/l).  X is a rational-semisimple torus element whose
exponential has finite order, so every operation below stays inside exact
cyclotomic arithmetic.  `apply` acts on coordinate rows: matrices are met
only at the JSON and public boundary.

Invariants: the first-kind triple (p, rho, [beta]) and the second-kind pair
[phi+, phi-], canonicalized at the label level for classes of order <= 2 and
as exact joint-eigenvalue certificates otherwise, and the invariant of a
conjugate-linear involution; `invariant` picks the one that applies.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import (
    SemisimpleElement,
    combine_semisimple,
    tau_matrix,
    zero_semisimple,
)
from .autg import (
    Automorphism,
    InvLabel,
    conj_linear_int_class,
    identity_automorphism,
    involution_int_class,
    label_out_word,
    label_outer_action,
    omega_automorphism,
    outer_order,
    triality_automorphism,
)
from .cyclo import (CycloMatrix, CycloScalar, _conjugation, _json_int,
                    _json_object, _json_rational, _rational_root,
                    root_of_unity)
from .errors import (
    InfiniteOrderScaling,
    InvalidLoopData,
    MalformedData,
    NotCompactMode,
    NotFiniteOrder,
    NotInvolution,
    OrderExceedsBound,
    PeriodicityViolation,
    ScalingNotExtendable,
    ScalingNotRational,
    TwistMismatch,
    Unclassifiable,
    UnsupportedOrder,
    WrongKind,
)
from .loop import AffineElement, LoopElement, _combine, _scale, loop_form
from .pi0 import component_signature, id_row_class

_ONE = Fraction(1)


class StandardLoopAutomorphism:
    """phi u(t) = e^(ad tX) phi0(u(eps t + 2 pi t0)) o (scale factor)."""

    __slots__ = ("algebra", "twist", "l", "epsilon", "t0", "X", "phi0",
                 "scale", "_target", "_order", "_step", "_ops")

    def __init__(self, twist, l, epsilon, t0, X, phi0, scale=_ONE,
                 validate=True):
        self.algebra = phi0.algebra
        self.twist = twist
        self.l = l
        self.epsilon = 1 if epsilon >= 0 else -1
        t0 = Fraction(t0)
        shift = t0.numerator // t0.denominator  # the floor of t0
        self.t0 = t0 - shift if shift else t0
        self.phi0 = phi0
        if shift:
            # (phi_t, lambda) and (phi_t sigma^k, lambda - 2 pi k) agree
            self.phi0 = phi0.compose(twist.power(shift))
        self.X = X if X is not None else zero_semisimple(self.algebra)
        self.scale = Fraction(scale)
        self._target = None
        self._order = None
        self._step = None
        self._ops = {}
        if validate:
            if self.scale <= 0 or l < 1:
                raise InvalidLoopData("need scale > 0 and l >= 1, got %s and %s"
                                      % (self.scale, l))
            if twist.algebra != self.algebra:
                raise TwistMismatch("twist and phi0 live on different algebras")
            if twist.conj:
                raise TwistMismatch("the twist is conjugate-linear; a twist "
                                    "is complex-linear")
            if not twist.power(l).is_identity():
                raise TwistMismatch("twist^l is not the identity")
            tgt, X = self.target_twist(), self.X.matrix
            if not X.is_zero() and tgt.apply_matrix(X) != X:
                raise PeriodicityViolation("target twist does not fix X")

    # -- derived data -----------------------------------------------------------

    def target_twist(self):
        """sigma~ = e^(ad 2 pi X) phi0 sigma^eps phi0^(-1); the source twist
        itself when the two are equal, so that an endomorphism's images
        share its twist object and compare to its elements by identity."""
        if self._target is None:
            tgt = self.phi0.compose(self.twist.power(self.epsilon)) \
                           .compose(self.phi0.inverse())
            if not self.X.matrix.is_zero():
                tgt = Automorphism(self.algebra, self.X.exp_2pi(1)).compose(tgt)
            self._target = self.twist if tgt == self.twist else tgt
        return self._target

    def _image_conductor(self, l):
        """Conductor of the image of an element of conductor l: a multiple
        of l, of the target twist's order and of every difference of
        X-rates, so that the X-shifts stay integral; all but l is kept."""
        if self._step is None:
            self._step = lcm(self.target_twist().order(bound=256),
                             *(d.denominator for d, _ in self._operators(1)))
        return lcm(l, self._step)

    def _operators(self, N):
        """[(r_a - r_b, coordinate operator of v -> Q_a phi0(v) Q_b)] over the
        pairs of projectors of X (X = 0 has the one projector I), from the
        images of the real basis (a conjugate-linear phi0 gets conj(v));
        kept promoted to each row conductor N met, not by matvec per call."""
        ops = self._ops.get(N)
        if ops is None:
            if not self._ops:
                alg, projs = self.algebra, self.X.projectors()
                imgs = [self.phi0.apply_matrix(b) for b in alg.basis()]
                self._ops[1] = [(ra - rb, alg.coords_operator(
                    imgs if len(projs) == 1 else [Qa * M * Qb for M in imgs]))
                    for ra, Qa in projs for rb, Qb in projs]
            ops = self._ops[N] = [(d, op.promote(lcm(N, op.N)))
                                  for d, op in self._ops[1]]
        return ops

    def is_endomorphism(self):
        return self.target_twist() == self.twist

    def has_constant_curve(self):
        return self.X.matrix.is_zero()

    # -- action -------------------------------------------------------------------

    def apply(self, u):
        """Image of a loop element over the target twist, built on its rows,
        unchecked (an image is an element by construction); each image row
        carries the conductor of the row, the phase and the operator."""
        if u.twist != self.twist:
            raise TwistMismatch("element does not live over the source twist")
        lu = u.l
        a, b = self.t0.numerator, self.t0.denominator
        lnew = self._image_conductor(lu)
        sign = -self.epsilon if self.phi0.conj else self.epsilon
        out = {}
        for n, row in u.rows.items():
            if self.scale != 1:
                # the factor is scale^n on the automorphism's own conductor
                fr = _rat_pow(self.scale, Fraction(n * self.l, lu))
                if fr is None:
                    raise ScalingNotRational("scale factor is irrational")
                row = _scale(row, fr)
            # substitution t -> eps t + 2 pi a/b : phase and sign flip
            row = _scale(row, root_of_unity(b * lu, (n * a) % (b * lu)))
            N, ents, den = row
            if self.phi0.conj:
                conj = _conjugation(N)
                ents = {k: conj(v) for k, v in ents.items()}
            # e^(ad tX): the eigencomponents of rate d shift the exponent
            for d, op in self._operators(N):
                img = (op.N,) + op.matvec((ents, den), N)
                if img[1]:
                    key = sign * n * (lnew // lu) + int(d * lnew)
                    out[key] = _combine(out[key], img) if key in out else img
        return LoopElement.from_rows(self.algebra, self.target_twist(), lnew,
                                     out)

    # -- normal form and composition -----------------------------------------------

    def compose(self, other):
        """self o other; other's target twist must match self's source.  The
        curve factor, its transport and the scale root are formed only where
        a curve is not constant or a scale is not 1: two constant curves at
        scale 1 compose as (eps1 eps2, eps2 t0 + t0', phi0 o phi0')."""
        if other.target_twist() != self.twist:
            raise TwistMismatch("twists do not compose")
        eps1, eps2 = self.epsilon, other.epsilon
        if (self.phi0.conj or other.phi0.conj) and (self.scale != 1
                                                    or other.scale != 1):
            raise ScalingNotRational("conjugate-linear parts compose at scale 1")
        # move self's scale across other's standard part
        r1 = self.scale ** self.l
        othe = other
        if r1 != 1:
            othe = other._scale_conjugated(r1)
        # standard parts: curve e^(ad tX1) phi01 e^(ad lam1(t) X2) phi02
        phi0, newX, snew = self.phi0, None, _ONE
        if not (self.X.matrix.is_zero() and othe.X.matrix.is_zero()):
            X2t = self.phi0.apply_semisimple(othe.X)
            newX = combine_semisimple([self.X, X2t.scaled(eps1)])
            phi0 = Automorphism(self.algebra, X2t.exp_2pi(self.t0)).compose(phi0)
        phi0 = phi0.compose(othe.phi0)
        t0 = eps2 * self.t0 + othe.t0
        if r1 != 1 or othe.scale != 1:
            # tau_{r1} passed across gives tau_{r1^eps2}; then times other's
            rnew = (r1 ** eps2) * (othe.scale ** othe.l)
            snew = _rational_root(rnew, othe.l)
            if snew is None:
                raise ScalingNotRational("composed scale is irrational")
        # both factors are valid and self o other lands where self lands
        out = StandardLoopAutomorphism(othe.twist, othe.l, eps1 * eps2, t0,
                                       newX, phi0, snew, validate=False)
        out._target = self.target_twist()
        return out

    def _scale_conjugated(self, r):
        """The automorphism with the same data but curve modes multiplied by
        r^(mode); representable when r^rate is rational for all X-rates."""
        if self.X.matrix.is_zero():
            return self
        acc = CycloMatrix.zeros(self.algebra.size)
        for rate, Q in self.X.projectors():
            f = _rat_pow(Fraction(r), Fraction(rate))
            if f is None:
                raise ScalingNotRational("curve-mode scaling leaves Q")
            acc = acc + Q * f
        D = Automorphism(self.algebra, acc)
        return StandardLoopAutomorphism(self.twist, self.l, self.epsilon,
                                        self.t0, self.X, D.compose(self.phi0),
                                        self.scale, validate=False)

    def inverse(self):
        """The curve factor and the scale root as in compose: formed only
        where the curve is not constant or the scale is not 1."""
        phi0n, Xn, sn = self.phi0.inverse(), None, _ONE
        if not self.X.matrix.is_zero():
            Y = phi0n.apply_semisimple(self.X)
            Xn = Y.scaled(-self.epsilon)
            phi0n = Automorphism(self.algebra, Y.exp_2pi(
                self.epsilon * self.t0)).compose(phi0n)
        r = self.scale ** self.l
        tgt = self.target_twist()
        ltgt = lcm(self.l, tgt.order(bound=256))
        if r != 1:
            sn = _rational_root(Fraction(1) / (r ** self.epsilon), ltgt)
            if sn is None:
                raise ScalingNotRational("inverse scale is irrational")
        out = StandardLoopAutomorphism(tgt, ltgt, self.epsilon,
                                       -self.epsilon * self.t0, Xn, phi0n, sn,
                                       validate=False)
        if self.scale != 1 and not self.X.matrix.is_zero():
            out = out._scale_conjugated(Fraction(1) / r)
        return out

    def is_identity(self):
        return (self.epsilon == 1 and self.t0 == 0 and self.scale == 1
                and self.X.matrix.is_zero() and self.phi0.is_identity())

    def order(self, bound=64):
        """The least q <= bound with self^q = id; found once, then kept."""
        if self._order is None:
            if not self.is_endomorphism():
                raise TwistMismatch("order needs source twist == target twist")
            if self.epsilon == 1 and self.scale != 1:
                raise InfiniteOrderScaling("first kind with nontrivial scale")
            cur = self
            for q in range(1, bound + 1):
                if cur.is_identity():
                    self._order = q
                    break
                cur = self.compose(cur)
        if self._order is None or self._order > bound:
            raise OrderExceedsBound("no order <= %d" % bound)
        return self._order

    def __eq__(self, other):
        if not isinstance(other, StandardLoopAutomorphism):
            return NotImplemented
        return (self.twist == other.twist and self.epsilon == other.epsilon
                and self.t0 == other.t0 and self.scale == other.scale
                and self.X.matrix == other.X.matrix and self.phi0 == other.phi0)

    def __repr__(self):
        return ("StandardLoopAutomorphism(%s, eps=%d, t0=%s, X%s, scale=%s)"
                % (self.algebra.label(), self.epsilon, self.t0,
                   "=0" if self.X.matrix.is_zero() else "!=0", self.scale))

    # -- io ---------------------------------------------------------------------

    def to_json(self):
        out = {"twist": self.twist.to_json(), "l": self.l,
               "epsilon": self.epsilon, "t0": str(self.t0),
               "phi0": self.phi0.to_json(), "scale": str(self.scale)}
        if self.X.matrix.is_zero():
            out["X"] = None
        else:
            out["X"] = {"matrix": self.X.matrix.to_json(),
                        "rates": [str(r) for r in self.X.eigenrates]}
        return out

    @staticmethod
    def from_json(obj):
        _json_object(obj, "a loop automorphism")
        twist = Automorphism.from_json(obj["twist"])
        phi0 = Automorphism.from_json(obj["phi0"])
        X = obj.get("X")
        if X is not None:
            _json_object(X, "X")
            if not isinstance(X.get("rates"), list):
                raise MalformedData("X.rates must be a list of exact rates")
            X = SemisimpleElement(phi0.algebra,
                                  CycloMatrix.from_json(X.get("matrix"),
                                                        phi0.algebra.size),
                                  [_json_rational(r, "a rate")
                                   for r in X["rates"]])
        return StandardLoopAutomorphism(twist, _json_int(obj, "l"),
                                        _json_int(obj, "epsilon", None, (1, -1)),
                                        _json_rational(obj["t0"], "t0"), X, phi0,
                                        _json_rational(obj.get("scale", "1"),
                                                       "scale"))


def _rat_pow(r, e):
    """r^e for rational r > 0 and rational e, exact or None."""
    e = Fraction(e)
    powed = r ** e.numerator
    return _rational_root(powed, e.denominator)


# ---------------------------------------------------------------------------
# conjugations that stay inside the standard family
# ---------------------------------------------------------------------------

def conjugate_constant(phi, psi0):
    """Quasiconjugation by the constant automorphism psi0, built unchecked:
    conjugation keeps twist^l = id and a target twist that fixes X."""
    tw = psi0.compose(phi.twist).compose(psi0.inverse())
    return StandardLoopAutomorphism(
        tw, phi.l, phi.epsilon, phi.t0,
        psi0.apply_semisimple(phi.X) if not phi.X.matrix.is_zero() else None,
        psi0.compose(phi.phi0).compose(psi0.inverse()), phi.scale,
        validate=False)


def conjugate_shift(phi, c):
    """Conjugation by u(t) -> u(t + 2 pi c)."""
    c = Fraction(c)
    t0 = phi.t0 + (phi.epsilon - 1) * c
    # a constant curve has no shift factor
    phi0 = phi.phi0._unlabeled() if phi.X.matrix.is_zero() else Automorphism(
        phi.algebra, phi.X.exp_2pi(c)).compose(phi.phi0)
    # the target twist fixes X, so it commutes with the shift and is kept;
    # a conjugate has the order of phi
    out = StandardLoopAutomorphism(phi.twist, phi.l, phi.epsilon, t0, phi.X,
                                   phi0, phi.scale, validate=False)
    out._target = phi.target_twist()
    out._order = phi._order
    return out


def conjugate_exp(phi, Y):
    """Quasiconjugation by u(t) -> e^(ad tY) u(t); Y must be fixed by the
    source twist and commute with the X-orbit."""
    if phi.twist.apply_matrix(Y.matrix) != Y.matrix:
        raise PeriodicityViolation("twist does not fix Y")
    phiY = phi.phi0.apply_semisimple(Y)
    newX = combine_semisimple([Y, phi.X, phiY.scaled(-phi.epsilon)])
    shift = Automorphism(phi.algebra, phiY.exp_2pi(-phi.t0))
    tw = Automorphism(phi.algebra, Y.exp_2pi(1)).compose(phi.twist)
    lnew = lcm(phi.l, tw.order(bound=256))
    return StandardLoopAutomorphism(tw, lnew, phi.epsilon, phi.t0, newX,
                                    shift.compose(phi.phi0), phi.scale)


def conjugate_reflection(phi):
    """Quasiconjugation by u(t) -> u(-t) (maps the twist to its inverse),
    built unchecked: inverses keep twist^l = id and a target that fixes X."""
    if phi.scale != 1:
        raise ScalingNotExtendable("reflection conjugation needs scale 1")
    tw = phi.twist.inverse()
    return StandardLoopAutomorphism(tw, phi.l, phi.epsilon, -phi.t0,
                                    phi.X.scaled(-1) if not phi.X.matrix.is_zero() else None,
                                    phi.phi0, Fraction(1), validate=False)


def conjugate_scale(phi, s):
    """Conjugation by the scaling with per-coefficient factor s^n."""
    tau = tau_scaling(phi.algebra, phi.twist, phi.l, s)
    tau_inv = tau_scaling(phi.algebra, phi.twist, phi.l, Fraction(1) / Fraction(s))
    return tau.compose(phi).compose(tau_inv)


def normalizing_scale(phi):
    """The unique scaling parameter whose conjugation makes a second-kind
    automorphism standard (scale 1); the factor on the n-th coefficient is
    s^n with s^(2l) equal to the stored total scale."""
    if phi.epsilon != -1:
        raise WrongKind("only second-kind automorphisms absorb a scale")
    r_total = phi.scale ** phi.l
    s_par = _rational_root(r_total, 2 * phi.l)
    if s_par is None:
        raise ScalingNotRational("normalizing scale is irrational")
    return s_par


def tau_scaling(algebra, twist, l, s):
    """tau_(s^l): the scaling automorphism u_n -> s^n u_n."""
    return StandardLoopAutomorphism(twist, l, 1, 0, None,
                                    identity_automorphism(algebra), Fraction(s))


# ---------------------------------------------------------------------------
# normalization and invariants
# ---------------------------------------------------------------------------

def normalize_to_constant(phi):
    """Quasiconjugate a finite-order automorphism to one with constant curve.

    Returns (Y, new_twist, phi_const) with Y - eps phi0 Y + X = 0 exactly.
    """
    if phi.scale != 1:
        raise NotFiniteOrder("normalize needs scale 1")
    q = phi.order()
    if phi.X.matrix.is_zero():
        return (zero_semisimple(phi.algebra), phi.twist, phi)
    parts = []
    cur = phi.X
    for j in range(1, q):
        cur = phi.phi0.apply_semisimple(cur) if j > 1 else phi.phi0.apply_semisimple(phi.X)
        parts.append(cur.scaled(Fraction(j * (phi.epsilon ** j), q)))
    Y = combine_semisimple(parts) if parts else zero_semisimple(phi.algebra)
    # exact check of the defining identity
    lhs = Y.matrix - phi.phi0.apply_matrix(Y.matrix) * phi.epsilon + phi.X.matrix
    if not lhs.is_zero():
        raise NotFiniteOrder("normalization identity failed")
    out = conjugate_exp(phi, Y)
    assert out.X.matrix.is_zero(), "curve did not become constant"
    return (Y, out.twist, out)


class _Invariant:
    """An invariant is its key(): equal to one of its own class with an equal
    key.  raw marks one that holds certificates in place of labels, on which
    equality is necessary for conjugacy but not sufficient."""

    __slots__ = ()
    raw = False

    def __eq__(self, other):
        return type(other) is type(self) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class FirstKindInvariant(_Invariant):
    """(p, rho, [beta]) at order q; rho and beta are labels for classes of
    order <= 2, else rho is an exact certificate and beta "unclassified"."""

    __slots__ = ("algebra", "q", "p", "rho", "beta")

    def __init__(self, algebra, q, p, rho, beta):
        self.algebra = algebra
        self.q = q
        self.p = p
        self.rho = rho
        self.beta = beta

    raw = property(lambda self: isinstance(self.rho, tuple))

    def key(self):
        return (self.algebra.label(), self.q, self.p, repr(self.rho),
                repr(self.beta))

    def __repr__(self):
        return "FirstKind(q=%d, p=%d, rho=%s, beta=%s)" % (
            self.q, self.p, self.rho, self.beta)

    def to_json(self):
        if self.raw:
            return {"kind": 1, "q": self.q, "p": self.p,
                    "rho": {"certificate": repr(self.rho)},
                    "beta": {"certificate": repr(self.beta)}}
        rho = "id" if self.rho.p == 0 else repr(self.rho)
        return {"kind": 1, "q": self.q, "p": self.p, "rho": rho,
                "beta": {"rep": self.beta.rep, "k": self.beta.k}}


class SecondKindInvariant(_Invariant):
    """[phi+, phi-] at order 2q, canonical under swap and simultaneous outer
    action, with k the outer order of phi-^(-1) phi+; a pair of labels for
    involutions, else of certificates."""

    __slots__ = ("algebra", "order", "pair", "k")

    def __init__(self, algebra, order_, pair, k):
        self.algebra = algebra
        self.order = order_
        self.pair = pair
        self.k = k

    raw = property(lambda self: isinstance(self.pair[0], tuple))

    def key(self):
        return (self.algebra.label(), self.order,
                tuple(repr(x) for x in self.pair), self.k)

    def __repr__(self):
        return "SecondKind(order=%d, pair=[%s, %s], k=%d)" % (
            self.order, self.pair[0], self.pair[1], self.k)

    def to_json(self):
        return {"kind": 2, "order": self.order,
                "pair": [repr(x) for x in self.pair], "k": self.k}


class ConjLinearInvariant(_Invariant):
    """Invariant of a conjugate-linear involution: type 1 carries a
    first-kind style triple over the enlarged class set, type 2 a pair of
    real-form labels."""

    __slots__ = ("algebra", "type", "p", "rho", "beta", "beta_bar", "pair", "k")

    def __init__(self, algebra, type_, p=None, rho=None, beta=None,
                 beta_bar=False, pair=None, k=None):
        self.algebra = algebra
        self.type = type_
        self.p = p
        self.rho = rho
        self.beta = beta
        self.beta_bar = beta_bar
        self.pair = pair
        self.k = k

    def key(self):
        if self.type == 1:
            return (self.algebra.label(), 1, self.p, repr(self.rho),
                    self.beta.rep if self.beta else None, self.beta_bar)
        return (self.algebra.label(), 2, tuple(repr(x) for x in self.pair),
                self.k)

    def __repr__(self):
        if self.type == 1:
            if self.p == 0:
                return "ConjLinear1(p=0, rho=%s*omega, beta=%s)" % (
                    self.rho, self.beta.rep if self.beta else "?")
            return "ConjLinear1(p=1, beta=%s*omega)" % (
                self.beta.rep if self.beta else "?")
        return "ConjLinear2(pair=[%s*omega, %s*omega], k=%d)" % (
            self.pair[0], self.pair[1], self.k)

    def to_json(self):
        if self.type == 1:
            return {"kind": 1, "conj_linear": True, "p": self.p,
                    "rho": repr(self.rho) if self.rho is not None else None,
                    "beta": self.beta.rep if self.beta else None,
                    "beta_conj": self.beta_bar}
        return {"kind": 2, "conj_linear": True,
                "pair": [repr(x) for x in self.pair], "k": self.k}


def _certificate(aut):
    """Exact conjugation-invariant certificate of a complex-linear
    finite-order automorphism: its outer order plus the eigenvalue multiset
    of its action.  The multiplicity of zeta_o^k is
    (1/o) sum_j zeta_o^(-jk) tr(A^j) for the operator A, whose eigenvalues
    are o-th roots of unity, so that tr(A^(o-j)) is the conjugate of
    tr(A^j)."""
    o = aut.order(bound=64)
    A = aut.operator()
    tr, P = [CycloScalar.from_rational(A.n)], CycloMatrix.identity(A.n)
    for j in range(1, o // 2 + 1):  # P = A^(j-1)
        tr.append(P.trace_mul(A))
        if j < o // 2:
            P = P * A
    tr += [tr[j].conj() for j in range(o - len(tr), 0, -1)]
    ms = [sum(t * root_of_unity(o, -j * k) for j, t in enumerate(tr))
          * Fraction(1, o) for k in range(o)]
    dims = tuple((k, int(m.as_fraction())) for k, m in enumerate(ms) if m)
    return ("cert", o, aut.out_order(), dims)


def _unprime(lab, rho, beta):
    """(lab, rho, beta) moved by an outer conjugator that maps the primed
    class lab of the involution rho to its standard-list class; unchanged
    when lab is not primed."""
    if lab.prime == 0:
        return lab, rho, beta
    algebra = rho.algebra
    if algebra.has_triality:
        gamma = triality_automorphism(algebra, 3 - lab.prime)
    else:
        gamma = Automorphism(algebra, tau_matrix(1, algebra.size))
    gi = gamma.inverse()
    rho = gamma.compose(rho).compose(gi)
    lab = involution_int_class(rho)
    assert lab.prime == 0
    return lab, rho, gamma.compose(beta).compose(gi)


def invariant_first_kind(phi):
    """The first-kind invariant of a finite-order orientation-preserving
    complex-linear automorphism."""
    if phi.epsilon != 1:
        raise WrongKind("automorphism is of the second kind")
    if phi.phi0.conj:
        raise WrongKind("automorphism is conjugate-linear")
    if phi.scale != 1:
        raise InfiniteOrderScaling("first kind with scale != 1 has infinite order")
    q = phi.order()
    _, tw, const = normalize_to_constant(phi)
    p_frac = const.t0 * q
    assert p_frac.denominator == 1
    p = int(p_frac) % q
    r = gcd(p, q) if p else q
    pprime, qprime = p // r, q // r
    l = pow(pprime, -1, qprime)
    m = (1 - l * pprime) // qprime
    P = const.phi0.power(qprime).compose(tw.power(pprime))
    beta = const.phi0.power(-l).compose(tw.power(m))
    algebra = phi.algebra
    if P.compose(P).is_identity():
        lab, P, beta = _unprime(involution_int_class(P), P, beta)
        cc = component_signature(P, beta, lab)
        return FirstKindInvariant(algebra, q, p, lab, cc)
    # order of the class exceeds two: the class certificate (the outer order
    # and the eigenvalue multiset) is necessary for conjugacy of the rho
    # part, not sufficient; two classes may share it (see the homometric
    # rulers in the tests), and the component of beta stays unclassified, so
    # conjugacy tests on such invariants return "undecided"
    cert_rho = _certificate(P)
    return FirstKindInvariant(algebra, q, p, cert_rho, "unclassified")


def canonical_pair(algebra, la, lb):
    """Canonical form of an unordered involution-label pair under swap and
    the simultaneous outer action: the least pair of its orbit under the
    generators of the outer group."""
    gens = label_outer_action(algebra)
    orbit, new = set(), {(la, lb)}
    while new:
        orbit |= new
        new = {(g(a), g(b)) for a, b in new for g in gens} - orbit
    return min(tuple(sorted(pair)) for pair in orbit)


def invariant_second_kind(phi):
    """The second-kind invariant [phi+, phi-] of a finite even-order
    orientation-reversing complex-linear automorphism."""
    if phi.epsilon != -1:
        raise WrongKind("automorphism is of the first kind")
    if phi.phi0.conj:
        raise WrongKind("automorphism is conjugate-linear")
    work = phi
    if phi.scale != 1:
        s_par = normalizing_scale(phi)
        work = conjugate_scale(phi, s_par)
        assert work.scale == 1
    ord2q = work.order()
    if ord2q % 2:
        raise WrongKind("second-kind automorphisms have even order")
    work = conjugate_shift(work, work.t0 / 2)
    assert work.t0 == 0
    _, tw, const = normalize_to_constant(work)
    phi_plus = const.phi0
    phi_minus = const.phi0.compose(tw.inverse())
    sq = phi_plus.compose(phi_plus)
    assert sq == phi_minus.compose(phi_minus)
    algebra = phi.algebra
    k = outer_order((phi_minus.word(), -1), (phi_plus.word(), 1))
    if sq.is_identity():
        lp = involution_int_class(phi_plus)
        lm = involution_int_class(phi_minus)
        pair = canonical_pair(algebra, lp, lm)
        return SecondKindInvariant(algebra, ord2q, pair, k)
    certp = _certificate(phi_plus)
    certm = _certificate(phi_minus)
    pair = tuple(sorted((certp, certm)))
    return SecondKindInvariant(algebra, ord2q, pair, k)


def conj_linear_extend(phi):
    """The conjugate-linear extension: compose the constant part with the
    compact conjugation.  Kind is preserved; the order doubles or not
    according to divisibility by four."""
    if phi.algebra.mode != "compact":
        raise NotCompactMode("extension starts from a compact-mode automorphism")
    om = omega_automorphism(phi.algebra)
    return StandardLoopAutomorphism(phi.twist, phi.l, phi.epsilon, phi.t0,
                                    phi.X, phi.phi0.compose(om), phi.scale)


def invariant_conj_linear(phi):
    """Invariant of a conjugate-linear involution of a complex loop algebra."""
    if not phi.phi0.conj:
        raise NotInvolution("expected a conjugate-linear automorphism")
    if phi.order() != 2:
        raise UnsupportedOrder("only conjugate-linear involutions are classified")
    _, tw, const = normalize_to_constant(phi)
    algebra, w0 = phi.algebra, const.phi0.word()
    if phi.epsilon == -1:
        phi_minus = const.phi0.compose(tw.inverse())
        lp = conj_linear_int_class(const.phi0)
        lm = conj_linear_int_class(phi_minus)
        pair = canonical_pair(algebra, lp, lm)
        k = outer_order((phi_minus.word(), -1), (w0, 1))
        return ConjLinearInvariant(algebra, 2, pair=pair, k=k)
    p_frac = const.t0 * 2
    assert p_frac.denominator == 1
    if int(p_frac) % 2:
        # (1, id, [beta * omega]) with beta the inverse constant part; the
        # outer word of omega is the identity
        k = outer_order((w0, -1))
        return ConjLinearInvariant(algebra, 1, p=1, rho=InvLabel(0),
                                   beta=id_row_class(algebra, k),
                                   beta_bar=True)
    lab, lin, beta = _unprime(conj_linear_int_class(const.phi0),
                              const.phi0.compose(omega_automorphism(algebra)),
                              tw)
    if lin.is_identity():
        lin = identity_automorphism(algebra)
    return ConjLinearInvariant(algebra, 1, p=0, rho=lab,
                               beta=component_signature(lin, beta, lab))


def invariant(phi):
    """The invariant of a finite-order standard automorphism, chosen by
    linearity and kind: conjugate-linear involutions, then the first and
    the second kind."""
    if phi.phi0.conj:
        return invariant_conj_linear(phi)
    if phi.epsilon == 1:
        return invariant_first_kind(phi)
    return invariant_second_kind(phi)


def opposite(inv):
    """The image of a first-kind invariant under the orientation-reversal
    involution: (0, rho, [b]) -> (0, rho, [b^(-1)]) and
    (p, rho, [b]) -> (q - p, rho, [b^(-1) rho])."""
    # label level: every component class is conjugate to its inverse in the
    # groups that occur here, and [b^(-1) rho] has the rho-multiplied label;
    # for q = 2 (p = 1 = q - p) the map is the identity.
    newp = 0 if inv.p == 0 else inv.q - inv.p
    return FirstKindInvariant(inv.algebra, inv.q, newp, inv.rho, inv.beta)


def conjugacy_test(phi, psi):
    """conjugate / not_conjugate / undecided, via linearity, kind, order and
    invariant."""
    if (phi.phi0.conj, phi.epsilon) != (psi.phi0.conj, psi.epsilon):
        return "not_conjugate"
    if phi.order() != psi.order():
        return "not_conjugate"
    i1 = invariant(phi)
    if i1 != invariant(psi):
        return "not_conjugate"
    return "undecided" if i1.raw else "conjugate"


def square_map(inv):
    """Second-kind pair to the first-kind invariant of the square (pairs of
    involutions only): [p+, p-] -> (0, id, [p-^(-1) p+])."""
    algebra = inv.algebra
    la, lb = inv.pair
    if isinstance(la, tuple):
        raise Unclassifiable("square map needs label-level pairs")
    k = outer_order((label_out_word(algebra, lb), -1),
                    (label_out_word(algebra, la), 1))
    return FirstKindInvariant(algebra, 1, 0, InvLabel(0),
                              id_row_class(algebra, k))


# ---------------------------------------------------------------------------
# affine extension
# ---------------------------------------------------------------------------

class AffineExtension:
    """Form-preserving extension of a standard loop automorphism to the
    two-dimensional extension: fixes gamma by 2 gamma = -eps (x, x).  A
    conjugate-linear phi conjugates the coefficients of c and d."""

    __slots__ = ("phi", "x_loop", "gamma", "_l")

    def __init__(self, phi):
        if phi.scale != 1:
            raise ScalingNotExtendable(
                "scalings extend separately (as exponentials of the derivation)")
        self.phi = phi
        self._l = phi._image_conductor(phi.l)
        x = phi.X
        # X was checked where it entered, as a SemisimpleElement fixed by
        # the target twist
        self.x_loop = LoopElement(phi.algebra, phi.target_twist(), self._l,
                                  {0: x.matrix}, validate=False)
        kxx = phi.algebra.killing_matrix(x.matrix, x.matrix)
        self.gamma = kxx * Fraction(-phi.epsilon, 2)

    def apply(self, elt):
        eps = self.phi.epsilon
        u, c, d = elt.loop, elt.c, elt.d
        if self.phi.phi0.conj:
            c, d = c.conj(), d.conj()
        phiu = self.phi.apply(u)
        L = lcm(phiu.l, self._l)
        phiu = phiu.re_conductor(L)
        xl = self.x_loop.re_conductor(L)
        cpart = c * eps + loop_form(xl, phiu) + d * self.gamma
        out_loop = phiu - xl * (d * eps) if d else phiu
        return AffineElement(out_loop, cpart, d * eps)

    def image_c(self):
        return AffineElement(self.x_loop * 0, self.phi.epsilon)

    def image_d(self):
        eps = self.phi.epsilon
        return AffineElement(self.x_loop * -eps, self.gamma, eps)


def affine_extend(phi):
    return AffineExtension(phi)
