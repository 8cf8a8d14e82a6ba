import json
import random
from fractions import Fraction

import pytest

from kmaut.algebra import make_algebra
from kmaut.autg import (
    identity_automorphism,
    mu_automorphism,
    standard_involution,
    triality_automorphism,
)
from kmaut.algebra import sigma_eigenspace
from kmaut.cyclo import CycloMatrix, CycloScalar, root_of_unity
from kmaut.errors import (MalformedData, MembershipError, TwistMismatch,
                          WindowTooSmall)
from kmaut import loop as kloop
from kmaut.loop import (
    AffineElement,
    LoopElement,
    _affine_row,
    _convolution,
    _packed,
    _parts_bracket,
    affine_bracket,
    affine_form,
    central_element,
    derivation_element,
    derivative,
    derived_algebra_witness,
    loop_bracket,
    loop_form,
    window_basis,
)
from kmaut.selftest import (default_twist, loop_test_algebras,
                            random_affine_element, random_loop_element)


def sl2_setup():
    alg = make_algebra("a", 1, "complex")
    iden = identity_automorphism(alg)
    e = CycloMatrix.from_scalars([[0, 1], [0, 0]])
    f = CycloMatrix.from_scalars([[0, 0], [1, 0]])
    h = CycloMatrix.from_scalars([[1, 0], [0, -1]])
    return alg, iden, e, f, h


def test_eigenspace_membership_enforced():
    alg = make_algebra("a", 1, "complex")
    tau = standard_involution(alg, "rho1")
    e = CycloMatrix.from_scalars([[0, 1], [0, 0]])
    with pytest.raises(TwistMismatch):
        LoopElement(alg, tau, 2, {0: e})  # e is in the odd eigenspace
    LoopElement(alg, tau, 2, {1: e})  # fine


def test_loop_bracket_convolution():
    alg, iden, e, f, h = sl2_setup()
    u = LoopElement(alg, iden, 1, {1: e})
    v = LoopElement(alg, iden, 1, {-1: f})
    w = loop_bracket(u, v)
    assert w.support() == [0]
    assert w.coefficient(0) == h
    assert loop_bracket(u, u).is_zero()
    # support bound
    x = LoopElement(alg, iden, 1, {1: e, 2: e})
    y = LoopElement(alg, iden, 1, {-1: f, 3: f})
    assert set(loop_bracket(x, y).support()) <= {a + b for a in (1, 2)
                                                 for b in (-1, 3)}


def test_loop_form_values():
    alg, iden, e, f, h = sl2_setup()
    u = LoopElement(alg, iden, 1, {1: e})
    v = LoopElement(alg, iden, 1, {-1: f})
    assert loop_form(u, v) == 4
    assert loop_form(u, LoopElement(alg, iden, 1, {1: f})) == 0


def test_loop_form_eigenspace_orthogonality():
    alg = make_algebra("a", 2, "complex")
    mu = mu_automorphism(alg)
    from kmaut.algebra import sigma_eigenspace
    g0 = sigma_eigenspace(alg, mu, 2, 0)
    g1 = sigma_eigenspace(alg, mu, 2, 1)
    # constant-coefficient test vectors with l not dividing n + m
    u = LoopElement(alg, mu, 2, {0: g0[0].matrix})
    v = LoopElement(alg, mu, 2, {1: g1[0].matrix})
    assert loop_form(u, v) == 0  # pairing exponent 1, not multiple of 2


def test_derivative():
    alg, iden, e, f, h = sl2_setup()
    const = LoopElement(alg, iden, 1, {0: h})
    assert derivative(const).is_zero()
    u = LoopElement(alg, iden, 1, {1: e})
    i = root_of_unity(4, 1)
    assert derivative(u).coefficient(1) == e * i
    # l = 2 halves the rate
    tau = standard_involution(alg, "rho1")
    u2 = LoopElement(alg, tau, 2, {1: e})
    assert derivative(u2).coefficient(1) == e * (i * Fraction(1, 2))


def test_affine_bracket_center_and_derivation():
    alg, iden, e, f, h = sl2_setup()
    c = central_element(alg, iden, 1)
    d = derivation_element(alg, iden, 1)
    x = AffineElement(LoopElement(alg, iden, 1, {1: e}))
    assert affine_bracket(c, x).is_zero()
    assert affine_bracket(c, d).is_zero()
    i = root_of_unity(4, 1)
    assert affine_bracket(d, x).loop.coefficient(1) == e * i
    y = AffineElement(LoopElement(alg, iden, 1, {-1: f}))
    z = affine_bracket(x, y)
    assert z.loop.coefficient(0) == h
    assert z.c == i * 4
    assert z.d.is_zero()


def reference_bracket(x, y):
    """The bracket formed term by term from the public derivative:
    [u,v]_0 + b v' - e u' + (u', v) c."""
    u, v = x.loop, y.loop
    out = loop_bracket(u, v)
    du = derivative(u)
    if not x.d.is_zero():
        out = out + derivative(v) * x.d
    if not y.d.is_zero():
        out = out - du * y.d
    return AffineElement(out, loop_form(du, v), 0)


def test_affine_bracket_matches_reference_formula():
    """affine_bracket applies i once per degree and once to the cocycle; its
    output, conductor tags included, is the term-by-term formula's."""
    i = root_of_unity(4, 1)
    alg = make_algebra("a", 2, "complex")
    mu = mu_automorphism(alg)
    from kmaut.algebra import sigma_eigenspace
    g0 = [b.matrix for b in sigma_eigenspace(alg, mu, 2, 0)]
    g1 = [b.matrix for b in sigma_eigenspace(alg, mu, 2, 1)]
    u = LoopElement(alg, mu, 2, {0: g0[0], 1: g1[0], -2: g0[1]})
    v = LoopElement(alg, mu, 2, {2: g0[2], -1: g1[1]})
    w = LoopElement(alg, mu, 2, {0: g0[1], 1: g1[0] * 2})
    cases = [
        # b w'_1 - e u'_1 cancels next to a nonzero bracket in degree 1,
        # which still carries the conductor of i
        (AffineElement(LoopElement(alg, mu, 2, {0: g0[0], 1: g1[0]}), 1, 1),
         AffineElement(w, 0, 2)),
        # cancels in every degree, where the loop bracket is zero
        (AffineElement(u, 1, 2), AffineElement(u * 2, 0, 4)),
        # no degree of u pairs with -n in v: the cocycle stays rational
        (AffineElement(LoopElement(alg, mu, 2, {1: g1[0]}), 0, 1),
         AffineElement(LoopElement(alg, mu, 2, {1: g1[1], 2: g0[0]}), 0, -1)),
        # b = e = 0: no derivative terms
        (AffineElement(u, 3, 0), AffineElement(v, -1, 0)),
        # d of conductor 4 and a coefficient of conductor 4
        (AffineElement(u, 0, i), AffineElement(v * i, 0, Fraction(1, 2))),
    ]
    rng = random.Random(12)
    tw = standard_involution(make_algebra("d", 4, "complex"), "rho1")
    for _ in range(10):
        x, y = (random_affine_element(tw.algebra, tw, 2, rng) for _ in range(2))
        cases += [(x, y), (x, x), (x, y * i)]
    for x, y in cases:
        assert affine_bracket(x, y).to_json() == reference_bracket(x, y).to_json()
    x, y = cases[0]
    top = affine_bracket(x, y).loop.coefficient(1)
    assert top == loop_bracket(x.loop, y.loop).coefficient(1) and top.N == 4
    assert affine_bracket(*cases[1]).loop.is_zero()
    assert affine_bracket(*cases[2]).c.N == 1


def test_affine_bracket_drops_the_conductor_of_a_cancelled_degree():
    """In degree 1 the pairs [h, z3 e] and [e, z3 h] cancel, so that degree's
    conductor 3 is dropped, and the derivative term -e u'_1 alone gives it
    the conductor 4 of i."""
    alg, iden, e, f, h = sl2_setup()
    z3 = root_of_unity(3, 1)
    x = AffineElement(LoopElement(alg, iden, 1, {0: h, 1: e}))
    y = AffineElement(LoopElement(alg, iden, 1, {0: h * z3, 1: e * z3}), 0, 1)
    got = affine_bracket(x, y)
    assert got.loop.coefficient(1).N == 4
    assert got.to_json() == reference_bracket(x, y).to_json() \
        == reference_affine_bracket(x, y).to_json()


def test_affine_form_values():
    alg, iden, e, f, h = sl2_setup()
    c = central_element(alg, iden, 1)
    d = derivation_element(alg, iden, 1)
    x = AffineElement(LoopElement(alg, iden, 1, {1: e}))
    assert affine_form(c, d) == 1
    assert affine_form(c, c) == 0
    assert affine_form(d + x, c) == 1


@pytest.mark.parametrize("fam,n,lab,l", [("a", 1, None, 1), ("a", 2, "mu", 2),
                                         ("d", 4, "rho1", 2)])
def test_jacobi_and_biinvariance_random(fam, n, lab, l):
    rng = random.Random(10)
    alg = make_algebra(fam, n, "complex")
    tw = identity_automorphism(alg) if lab is None \
        else standard_involution(alg, lab)
    for _ in range(20):
        x = random_affine_element(alg, tw, l, rng)
        y = random_affine_element(alg, tw, l, rng)
        z = random_affine_element(alg, tw, l, rng)
        j = affine_bracket(x, affine_bracket(y, z)) \
            + affine_bracket(y, affine_bracket(z, x)) \
            + affine_bracket(z, affine_bracket(x, y))
        assert j.is_zero()
        assert affine_form(affine_bracket(x, y), z) \
            == affine_form(x, affine_bracket(y, z))


def test_compact_mode_closure():
    rng = random.Random(11)
    alg = make_algebra("a", 2, "complex")
    iden = identity_automorphism(alg)
    om = alg.omega_matrix
    basis = alg.basis()
    for _ in range(10):
        b1 = basis[rng.randrange(len(basis))]
        b2 = basis[rng.randrange(len(basis))]
        u = LoopElement(alg, iden, 1, {1: b1, -1: om(b1)})
        v = LoopElement(alg, iden, 1, {2: b2, -2: om(b2)})
        assert u.is_compact() and v.is_compact()
        assert loop_bracket(u, v).is_compact()


def test_derived_algebra_witness():
    alg = make_algebra("a", 1, "complex")
    iden = identity_automorphism(alg)
    rep = derived_algebra_witness(alg, iden, 1, 2)
    assert rep == {"window": 2, "c_in_span": True, "d_in_span": False,
                   "checked": 9, "ok": True}
    with pytest.raises(WindowTooSmall):
        derived_algebra_witness(alg, iden, 1, 1)


def test_derived_algebra_witness_twisted():
    alg = make_algebra("a", 2, "complex")
    mu = mu_automorphism(alg)
    rep = derived_algebra_witness(alg, mu, 2, 4)
    assert rep == {"window": 4, "c_in_span": True, "d_in_span": False,
                   "checked": 19, "ok": True}


def _row_sum(rows):
    """The sum of packed rows as {column: coordinates as Fractions}, with
    the zero entries left out."""
    out = {}
    for ents, den in rows:
        for j, v in ents.items():
            acc = out.get(j, (0,) * len(v))
            out[j] = tuple(a + Fraction(c, den) for a, c in zip(acc, v))
    return {j: v for j, v in out.items() if any(v)}


def _lowest(row, N, dim):
    """The packed row (`_packed`) of a window row in lowest terms, None for
    None."""
    from kmaut.linalg import _strip
    return row if row is None else _strip(*_packed(row, N, dim))


def _bracket_twists():
    a3 = make_algebra("a", 3, "complex")
    b2 = make_algebra("b", 2, "complex")
    d4 = make_algebra("d", 4, "complex")
    a1 = make_algebra("a", 1, "complex")
    return [pytest.param(identity_automorphism(a1), 1, id="a1"),
            pytest.param(mu_automorphism(a3), 2, id="a3-mu"),
            pytest.param(standard_involution(b2, "rho1"), 2, id="b2-rho1"),
            pytest.param(triality_automorphism(d4), 3, id="d4-triality")]


@pytest.mark.parametrize("twist,l", _bracket_twists())
def test_parts_bracket_property(twist, l):
    """On window rows over Q(zeta_12), the bracket through the structure
    constants is affine_bracket's: on a window that holds every degree sum
    it is, in lowest terms, the row of affine_bracket, on a smaller one it
    is None exactly when affine_bracket leaves the window, and it is
    antisymmetric and satisfies Jacobi on rows.  The elements have nonzero
    c and d, coefficients over Q(zeta_12) and support in [-2, 2]."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    alg, M, N = twist.algebra, 12, 2
    nonzero = st.fractions(min_value=-3, max_value=3,
                           max_denominator=4).filter(bool)

    def element(rng, k, c, d):
        loop = random_loop_element(alg, twist, l, rng, N, terms=3)
        return AffineElement(loop * root_of_unity(M, k), c, d * root_of_unity(4, k))

    @hyp.settings(max_examples=12, deadline=None)
    @hyp.given(st.integers(0, 2**32 - 1), st.lists(
        st.tuples(st.integers(0, M - 1), nonzero, nonzero),
        min_size=3, max_size=3))
    def check(seed, draws):
        rng = random.Random(seed)
        x, y, z = (element(rng, *t) for t in draws)

        def br(a, b, W):
            return _parts_bracket(alg, l, a, b, W, M)

        for a, b in [(x, y), (y, z), (x, x)]:
            want = affine_bracket(a, b)
            W = 2 * N
            got = br(_affine_row(a, W, M), _affine_row(b, W, M), W)
            assert _lowest(got, W, alg.dim) == _lowest(
                _affine_row(want, W, M), W, alg.dim)
            small = br(_affine_row(a, N, M), _affine_row(b, N, M), N)
            if any(abs(n) > N for n in want.loop.support()):
                assert small is None
            else:
                assert _lowest(small, N, alg.dim) == _lowest(
                    _affine_row(want, N, M), N, alg.dim)
        W = 3 * N
        rx, ry, rz = (_affine_row(a, W, M) for a in (x, y, z))
        assert not _row_sum([_packed(r, W, alg.dim)
                             for r in (br(rx, ry, W), br(ry, rx, W))])
        assert not _row_sum([_packed(br(a, br(b, c, W), W), W, alg.dim)
                             for a, b, c in ((rx, ry, rz), (ry, rz, rx),
                                             (rz, rx, ry))])

    check()


@pytest.mark.parametrize("fam,n,twist_of,l", [
    pytest.param("a", 1, identity_automorphism, 1, id="a1"),
    pytest.param("a", 2, mu_automorphism, 2, id="a2-mu"),
    pytest.param("b", 2, lambda alg: standard_involution(alg, "rho1"), 2,
                 id="b2-rho1")])
def test_parts_bracket_gives_the_span_verdicts_of_affine_bracket(
        fam, n, twist_of, l):
    """The bracket core on window rows gives the value of affine_bracket's
    row, not necessarily in lowest terms, and the same verdict on
    membership in a fixed span: that of the window elements of degree at
    most 1 and c, on the window [-2, 2] over Q(zeta_12).  The second factor
    is drawn from degrees up to w, so that both verdicts occur."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from kmaut.linalg import Span

    alg = make_algebra(fam, n, "complex")
    twist, M, N = twist_of(alg), 12, 2
    span = Span([_packed(_affine_row(x, N, M), N, alg.dim)
                 for x in [AffineElement(u)
                           for u in window_basis(alg, twist, l, 1)]
                 + [central_element(alg, twist, l)]], M)

    def verdict(seed, k, w):
        """Whether [x, y] lies in the span, None if it leaves the window."""
        rng = random.Random(seed)
        x = random_affine_element(alg, twist, l, rng, 1) * root_of_unity(M, k)
        y = random_affine_element(alg, twist, l, rng, w)
        z = affine_bracket(x, y)
        got = _parts_bracket(alg, l, _affine_row(x, N, M),
                             _affine_row(y, N, M), N, M)
        if any(abs(n) > N for n in z.loop.support()):
            assert got is None
            return None
        got, want = (_packed(r, N, alg.dim)
                     for r in (got, _affine_row(z, N, M)))
        assert _row_sum([got]) == _row_sum([want])
        assert span.contains(got) == span.contains(want)
        return span.contains(want)

    @hyp.settings(max_examples=15, deadline=None)
    @hyp.given(st.integers(0, 2**32 - 1), st.integers(0, M - 1),
               st.integers(0, 2))
    def check(seed, k, w):
        verdict(seed, k, w)

    check()
    assert {verdict(s, s % M, s % 3) for s in range(24)} >= {True, False}


def test_parts_bracket_reads_the_table_denominator(monkeypatch):
    """The same structure constants over the denominator 3 give the same
    rows in lowest terms: _parts_bracket takes no constant to be
    integral."""
    rng = random.Random(5)
    alg = make_algebra("a", 3, "complex")
    mu = mu_automorphism(alg)
    xs = [_affine_row(random_affine_element(alg, mu, 2, rng), 4, 4)
          for _ in range(6)]

    def brackets():
        return [_lowest(_parts_bracket(alg, 2, x, y, 4, 4), 4, alg.dim)
                for x in xs for y in xs]
    want = brackets()
    C, K, den = alg.structure_constants()
    thirds = (tuple(tuple(tuple((k, 3 * c) for k, c in cs) for cs in row)
                    for row in C),
              tuple(tuple(3 * v for v in row) for row in K), 3 * den)
    monkeypatch.setattr(alg, "structure_constants", lambda: thirds)
    assert brackets() == want
    assert any(w and w[0] for w in want)


def test_re_conductor_and_json():
    alg, iden, e, f, h = sl2_setup()
    u = LoopElement(alg, iden, 1, {1: e, -2: f})
    v = u.re_conductor(3)
    assert v.support() == [-6, 3]
    x = AffineElement(u, Fraction(1, 2), Fraction(-2))
    back = AffineElement.from_json(x.to_json())
    assert back == x


@pytest.mark.parametrize("l", [True, "2", 1.5, None])
def test_loop_json_rejects_a_non_integer_conductor(l):
    alg, iden, e, f, h = sl2_setup()
    obj = LoopElement(alg, iden, 1, {1: e}).to_json()
    obj["l"] = l
    with pytest.raises(MalformedData):
        LoopElement.from_json(obj)


_MALFORMED_ELEMENTS = {
    "a list": lambda obj: [],
    "coeffs a list": lambda obj: dict(obj, coeffs=[]),
    "degree x": lambda obj: dict(obj, coeffs={"x": obj["coeffs"]["1"]}),
    "degree 1/2": lambda obj: dict(obj, coeffs={"1/2": obj["coeffs"]["1"]}),
    "l zero": lambda obj: dict(obj, l=0),
    "no twist": lambda obj: {k: v for k, v in obj.items() if k != "twist"},
}


@pytest.mark.parametrize("cls", [LoopElement, AffineElement],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("shape", sorted(_MALFORMED_ELEMENTS))
def test_element_json_of_another_shape_is_malformed_data(cls, shape):
    """The readers of the elements that `kmaut realform` writes refuse any
    other shape with MalformedData, not with a TypeError, AttributeError,
    ValueError or KeyError; so does an affine element without c."""
    alg, iden, e, f, h = sl2_setup()
    obj = AffineElement(LoopElement(alg, iden, 1, {1: e}), 1, 0).to_json()
    with pytest.raises(MalformedData):
        cls.from_json(_MALFORMED_ELEMENTS[shape](obj))
    with pytest.raises(MalformedData):
        AffineElement.from_json({k: v for k, v in obj.items() if k != "c"})


def test_membership_is_checked_where_a_coefficient_enters():
    """A coefficient is stored as its coordinates, so a matrix outside the
    algebra is refused by the checked constructor and by from_json; the
    unchecked constructor keeps the element its coordinates write back."""
    alg = make_algebra("a", 2, "complex")
    iden = identity_automorphism(alg)
    one = CycloMatrix.identity(3)
    for bad in (one, CycloMatrix.identity(2)):
        with pytest.raises(MembershipError):
            LoopElement(alg, iden, 1, {0: bad})
    obj = LoopElement(alg, iden, 1, {}).to_json()
    obj["coeffs"] = {"0": one.to_json()}
    with pytest.raises(MembershipError):
        LoopElement.from_json(obj)
    obj["c"] = obj["d"] = CycloScalar.from_rational(0).to_json()
    with pytest.raises(MembershipError):
        AffineElement.from_json(obj)
    u = LoopElement(alg, iden, 1, {0: one}, validate=False)
    assert u.coefficient(0) == CycloMatrix.diag([1, 1, -2])


def reference_loop_bracket(alg, U, V):
    """The convolution of two coefficient maps {n: matrix} through the
    matrix commutator; degrees that cancel are dropped."""
    out = {}
    for a, Ma in U.items():
        for b, Mb in V.items():
            B = alg.bracket_matrix(Ma, Mb)
            if not B.is_zero():
                n = a + b
                out[n] = out[n] + B if n in out else B
    return {n: M for n, M in out.items() if not M.is_zero()}


def reference_loop_form(alg, l, U, V):
    """The averaged form of two coefficient maps through the matrix trace."""
    total = CycloScalar.from_rational(0)
    for a, Ma in U.items():
        for b, Mb in V.items():
            if a + b == 0:
                total = total + alg.killing_matrix(Ma, Mb)
            elif (a + b) % l:
                assert alg.killing_matrix(Ma, Mb).is_zero()
    return total


def reference_affine_bracket(x, y):
    """The affine bracket on coefficient matrices: the convolution, the
    derivative terms i (n/l) (b v_n - e u_n) summed per degree and
    multiplied by i once, and the cocycle i (r(u), v) with r(u)_n =
    (n/l) u_n, multiplied by i only where some degree pairs.  Each matrix
    carries the conductor its arithmetic gives it."""
    u, v = x.loop, y.loop
    alg, l = u.algebra, u.l
    U, V = u.coeffs, v.coeffs
    b, e = x.d, y.d
    ru = {n: M * Fraction(n, l) for n, M in U.items() if n}
    terms = {n: M * (b * Fraction(n, l)) for n, M in V.items() if n} if b else {}
    if e:
        for n, M in ru.items():
            terms[n] = terms[n] - M * e if n in terms else M * -e
    i = root_of_unity(4, 1)
    out = reference_loop_bracket(alg, U, V)
    for n, D in terms.items():
        D = D * i
        out[n] = out[n] + D if n in out else D
    cocycle = reference_loop_form(alg, l, ru, V)
    if any(-n in V for n in ru):
        cocycle = cocycle * i
    return AffineElement(LoopElement(alg, u.twist, l, out, validate=False),
                         cocycle, 0)


def reference_derivative(u):
    """u' on coefficient matrices: u_n times i n / l."""
    i = root_of_unity(4, 1)
    return LoopElement(u.algebra, u.twist, u.l,
                       {n: M * (i * Fraction(n, u.l))
                        for n, M in u.coeffs.items() if n}, validate=False)


def _zeta3_scaled(x, rng):
    """x with one coefficient times zeta_3 and its d made nonzero."""
    u = x.loop
    coeffs = u.coeffs
    if coeffs:
        n = rng.choice(sorted(coeffs))
        coeffs[n] = coeffs[n] * root_of_unity(3, 1)
    return AffineElement(LoopElement(u.algebra, u.twist, u.l, coeffs,
                                     validate=False), x.c, x.d or 1)


@pytest.mark.parametrize("alg", loop_test_algebras(), ids=lambda a: a.label())
def test_affine_bracket_matches_the_matrix_path(alg):
    """On every algebra of the identity checks, with its default twist, the
    JSON of affine_bracket, loop_form and derivative is that of the matrix
    computation, every coefficient's conductor and that of c included.  d
    is nonzero on both sides, and one coefficient of x is scaled by
    zeta_3, so that rows of conductors 1, 3, 4 and 12 (2, 6, 4 and 12
    under mu) meet, and the lifts take the embedding tables as well as the
    rational lift."""
    twist, l = default_twist(alg)
    rng = random.Random(alg.dim)
    met = set()
    for _ in range(4):
        x, y, z = (random_affine_element(alg, twist, l, rng) for _ in range(3))
        x = _zeta3_scaled(x, rng)
        y = AffineElement(y.loop, y.c, y.d or Fraction(-1, 2))
        xy = affine_bracket(x, y)
        for a, b in ((x, y), (y, x), (x, x), (xy, z), (z, xy), (xy, x)):
            got = affine_bracket(a, b)
            assert got.to_json() == reference_affine_bracket(a, b).to_json()
            u, v = a.loop, b.loop
            met |= {(r[0], t[0]) for r in u.rows.values()
                    for t in v.rows.values()}
            assert loop_form(u, v).to_json() == reference_loop_form(
                alg, l, u.coeffs, v.coeffs).to_json()
            assert derivative(u).to_json() == reference_derivative(u).to_json()
    # conductor 2 stands in for 1 and 6 for 3 where the twist's eigenspaces
    # carry zeta_2; two irrational conductors meet through a lift table
    conductors = {N for pair in met for N in pair}
    assert {4, 12} <= conductors and {1, 2} & conductors \
        and {3, 6} & conductors
    assert any(a != b and min(a, b) > 2 for a, b in met)


def _affine_twists():
    a1 = make_algebra("a", 1, "complex")
    a2 = make_algebra("a", 2, "complex")
    b2 = make_algebra("b", 2, "complex")
    d4 = make_algebra("d", 4, "complex")
    return [pytest.param(identity_automorphism(a1), 1, id="a1"),
            pytest.param(mu_automorphism(a2), 2, id="a2-mu"),
            pytest.param(standard_involution(b2, "rho1"), 2, id="b2-rho1"),
            pytest.param(standard_involution(d4, "rho1"), 2, id="d4-rho1")]


def _affine_strategy(twist, l):
    """Affine elements with up to three terms of degree in [-2, 2], each an
    eigenbasis vector times q zeta_N^k, and c, d of the same form (zero
    included), so that coefficients and c, d carry conductors 1 to 12."""
    st = pytest.importorskip("hypothesis.strategies")
    alg = twist.algebra
    bases = {n: [b.matrix for b in sigma_eigenspace(alg, twist, l, n % l)]
             for n in range(-2, 3)}

    def scalars(zero):
        q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        return st.builds(lambda q, N, k: root_of_unity(N, k % N) * q,
                         q if zero else q.filter(bool),
                         st.sampled_from((1, 2, 3, 4, 6, 12)),
                         st.integers(0, 11))

    @st.composite
    def element(draw):
        coeffs = {}
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(-2, 2))
            if bases[n]:
                M = draw(st.sampled_from(bases[n])) * draw(scalars(False))
                coeffs[n] = coeffs[n] + M if n in coeffs else M
        return AffineElement(LoopElement(alg, twist, l, coeffs, validate=False),
                             draw(scalars(True)), draw(scalars(True)))

    return element()


def _no_shrink(hyp):
    # a failing draw is small already, and shrinking it through the matrix
    # reference on d4 takes minutes
    return [hyp.Phase.explicit, hyp.Phase.reuse, hyp.Phase.generate]


def _dumps(x):
    return json.dumps(x.to_json(), sort_keys=True)


@pytest.mark.parametrize("twist,l", _affine_twists())
def test_affine_bracket_laws_property(twist, l):
    """On random affine elements: the bracket is antisymmetric and satisfies
    Jacobi, affine_form is invariant, coefficients whose degrees do not sum
    to a multiple of l are Killing-orthogonal (which loop_form takes for
    granted), and the bracket's JSON is that of the matrix computation,
    every coefficient's conductor and that of c included."""
    hyp = pytest.importorskip("hypothesis")
    elements = _affine_strategy(twist, l)
    alg = twist.algebra

    @hyp.settings(max_examples=15, deadline=None, phases=_no_shrink(hyp))
    @hyp.given(elements, elements, elements)
    def check(x, y, z):
        xy, yz, zx = affine_bracket(x, y), affine_bracket(y, z), affine_bracket(z, x)
        assert (xy + affine_bracket(y, x)).is_zero()
        assert (affine_bracket(x, yz) + affine_bracket(y, zx)
                + affine_bracket(z, xy)).is_zero()
        assert affine_form(xy, z) == affine_form(x, yz)
        for u, v in ((x.loop, y.loop), (xy.loop, z.loop)):
            for a in u.support():
                for b in v.support():
                    if (a + b) % l:
                        assert alg.killing_matrix(u.coefficient(a),
                                                  v.coefficient(b)).is_zero()
        for a, b in ((x, y), (y, x), (x, x), (xy, z)):
            assert _dumps(affine_bracket(a, b)) \
                == _dumps(reference_affine_bracket(a, b))

    check()


@pytest.mark.parametrize("twist,l", _affine_twists())
def test_affine_json_round_trip_property(twist, l):
    """An affine element and a bracket read back from their JSON write the
    same bytes again."""
    hyp = pytest.importorskip("hypothesis")
    elements = _affine_strategy(twist, l)

    @hyp.settings(max_examples=15, deadline=None, phases=_no_shrink(hyp))
    @hyp.given(elements, elements)
    def check(x, y):
        for a in (x, affine_bracket(x, y)):
            back = AffineElement.from_json(json.loads(_dumps(a)))
            assert back == a and _dumps(back) == _dumps(a)

    check()


def test_convolution_lifts_each_row_once_per_conductor(monkeypatch):
    """Rows of conductor 1 meet three rows of conductor 4 and one of
    conductor 3: `_convolution` lifts each (row, conductor) once, where
    lifting per pair made eight lifts, and its rows are those the pairs
    give one by one."""
    alg, iden, e, f, h = sl2_setup()
    i, z3 = root_of_unity(4, 1), root_of_unity(3, 1)
    u = LoopElement(alg, iden, 1, {0: h, 1: e})
    v = LoopElement(alg, iden, 1, {0: f * i, 1: h * i, 2: e * i, -1: f * z3})
    lifts, lift_row = [], kloop._lift_row

    def counted(row, M):
        if row[0] != M:
            lifts.append((id(row), M))
        return lift_row(row, M)

    monkeypatch.setattr(kloop, "_lift_row", counted)
    for a, b in ((u, v), (v, u), (u, u)):
        lifts.clear()
        got = a._like(_convolution(a, b))
        inputs = {id(r) for r in list(a.rows.values()) + list(b.rows.values())}
        lifted = [key for key in lifts if key[0] in inputs]
        assert len(lifted) == len(set(lifted))
        if a is u and b is v:
            assert sorted(M for _, M in lifted) == [3, 3, 4, 4]
        want = LoopElement.zero(alg, iden, 1)
        for n, r in a.rows.items():
            for m, t in b.rows.items():
                want = want + loop_bracket(a._like({n: r}), b._like({m: t}))
        assert got.to_json() == want.to_json()


def test_rational_d_and_c_form_no_scalar_product(monkeypatch):
    """With rational c and d, affine_bracket and affine_form multiply no
    CycloScalars: i b and i e are formed as coordinates, and a e + b g as
    rows."""
    alg, iden, e, f, h = sl2_setup()
    x = AffineElement(LoopElement(alg, iden, 1, {1: e, -1: f, 0: h}),
                      Fraction(1, 2), 3)
    y = AffineElement(LoopElement(alg, iden, 1, {-1: f * 2, 1: e, 2: h}),
                      -1, Fraction(-5, 3))
    want = [reference_affine_bracket(x, y).to_json(),
            reference_affine_bracket(y, x).to_json()]
    products = []
    mul = CycloScalar.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(CycloScalar, "__mul__", counted)
    monkeypatch.setattr(CycloScalar, "__rmul__", counted)
    got = [affine_bracket(x, y), affine_bracket(y, x)]
    form = affine_form(got[0], x)
    assert not products
    monkeypatch.undo()
    assert [z.to_json() for z in got] == want
    assert form == loop_form(got[0].loop, x.loop) + got[0].c * 3
    assert got[0].c.N == 4 and got[0].loop.coefficient(1).N == 4


@pytest.mark.parametrize("twist,l", _affine_twists())
def test_rational_c_and_d_paths_property(twist, l):
    """An int or Fraction c or d is the CycloScalar from_rational makes, and
    the bracket, sums and form of elements holding them write the bytes of
    the same elements given CycloScalar c and d, conductors included; at
    conductor 4 the same values give equal (==) results."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    alg = twist.algebra
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    loops = _affine_strategy(twist, l).map(lambda x: x.loop)

    @hyp.settings(max_examples=15, deadline=None, phases=_no_shrink(hyp))
    @hyp.given(loops, loops, st.lists(rationals, min_size=4, max_size=4),
               st.booleans())
    def check(u, v, qs, as_int):
        qs = [int(q) if as_int else q for q in qs]
        a, b, g, e = qs
        x, y = AffineElement(u, a, b), AffineElement(v, g, e)
        for N, same in ((1, _dumps), (4, lambda z: z)):
            xs, ys = (AffineElement(w.loop, *(CycloScalar.from_rational(q, N)
                                              for q in pair))
                      for w, pair in ((x, (a, b)), (y, (g, e))))
            assert same(x) == same(xs) and same(y) == same(ys)
            assert same(affine_bracket(x, y)) == same(affine_bracket(xs, ys))
            assert same(x + y) == same(xs + ys)
            assert same(x - y) == same(xs - ys)
            f, fs = affine_form(x, y), affine_form(xs, ys)
            assert f == fs and (N == 4 or f.to_json() == fs.to_json())
        assert affine_form(x, y) == loop_form(u, v) + a * e + b * g

    check()
    assert AffineElement(LoopElement.zero(alg, twist, l)).to_json() == \
        AffineElement(LoopElement.zero(alg, twist, l), 0, 0).to_json()
