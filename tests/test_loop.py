import random
from fractions import Fraction

import pytest

from kmaut.algebra import make_algebra
from kmaut.autg import identity_automorphism, mu_automorphism, standard_involution
from kmaut.cyclo import CycloMatrix, root_of_unity
from kmaut.errors import TwistMismatch, WindowTooSmall
from kmaut.loop import (
    AffineElement,
    LoopElement,
    affine_bracket,
    affine_form,
    central_element,
    derivation_element,
    derivative,
    derived_algebra_witness,
    loop_bracket,
    loop_form,
)
from kmaut.selftest import random_affine_element


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
    assert rep["ok"] and rep["c_in_span"] and not rep["d_in_span"]
    with pytest.raises(WindowTooSmall):
        derived_algebra_witness(alg, iden, 1, 1)


def test_derived_algebra_witness_twisted():
    alg = make_algebra("a", 2, "complex")
    mu = mu_automorphism(alg)
    rep = derived_algebra_witness(alg, mu, 2, 4)
    assert rep["ok"]


def test_re_conductor_and_json():
    alg, iden, e, f, h = sl2_setup()
    u = LoopElement(alg, iden, 1, {1: e, -2: f})
    v = u.re_conductor(3)
    assert v.support() == [-6, 3]
    x = AffineElement(u, Fraction(1, 2), Fraction(-2))
    back = AffineElement.from_json(x.to_json())
    assert back == x
