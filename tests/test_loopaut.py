import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from kmaut.algebra import SemisimpleElement, make_algebra, tau_matrix
from kmaut.autg import (
    Automorphism,
    InvLabel,
    identity_automorphism,
    involution_int_class,
    mu_automorphism,
    omega_automorphism,
    standard_involution,
    triality_automorphism,
)
from kmaut.cyclo import (CycloMatrix, finite_order_eigenprojectors,
                         root_index, root_of_unity)
from kmaut.errors import (
    InfiniteOrderScaling,
    OrderExceedsBound,
    PeriodicityViolation,
    ScalingNotRational,
    TwistMismatch,
    UnsupportedOrder,
    WrongKind,
)
from kmaut.loop import AffineElement, LoopElement, affine_bracket, affine_form
from kmaut.loopaut import (
    StandardLoopAutomorphism,
    _certificate,
    _rat_pow,
    affine_extend,
    conjugacy_test,
    conjugate_constant,
    conjugate_exp,
    conjugate_reflection,
    conjugate_scale,
    conjugate_shift,
    invariant,
    invariant_first_kind,
    invariant_second_kind,
    normalize_to_constant,
    normalizing_scale,
    opposite,
    square_map,
    tau_scaling,
)
from kmaut.realforms import conj_linear_extend
from kmaut.selftest import (
    antifixed_direction,
    random_conjugation,
    random_inner_automorphism,
    random_loop_element,
    stability_fixtures,
)


def sl2_pieces():
    alg = make_algebra("a", 1, "complex")
    return (alg, identity_automorphism(alg),
            standard_involution(alg, "rho1"),
            CycloMatrix.from_scalars([[0, 1], [0, 0]]))


def test_target_twist_cases():
    alg, iden, tau, e = sl2_pieces()
    # X = 0, commuting constant: target == source
    phi = StandardLoopAutomorphism(tau, 2, 1, 0, None, tau)
    assert phi.target_twist() == tau
    # eps = -1, X = 0: sigma~ = phi0 sigma^(-1) phi0^(-1); here that is tau
    phi = StandardLoopAutomorphism(tau, 2, -1, 0, None, tau)
    assert phi.target_twist() == tau
    assert phi.is_endomorphism()
    # eps = -1 with phi0 = id: sigma~ = sigma^(-1)
    phi = StandardLoopAutomorphism(tau, 2, -1, 0, None,
                                   identity_automorphism(alg))
    assert phi.target_twist() == tau.inverse()


def test_periodicity_violation():
    alg, iden, tau, e = sl2_pieces()
    X = alg.plane_rotation(0, 1, Fraction(1, 2))
    # target twist = e^(2 pi ad X) does not fix a generic X? it does; build a
    # case where it does not by picking phi0 that moves X
    su3 = make_algebra("a", 2, "complex")
    i3 = identity_automorphism(su3)
    Y = su3.plane_rotation(0, 1, Fraction(1, 2))
    w = root_of_unity(3, 1)
    rot = Automorphism(su3, CycloMatrix.diag([w, 1, 1 / w]))
    with pytest.raises(PeriodicityViolation):
        StandardLoopAutomorphism(rot, 3, 1, 0, Y, i3)


def test_rotation_orders():
    alg, iden, tau, e = sl2_pieces()
    rot2 = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None,
                                    identity_automorphism(alg))
    assert rot2.order() == 2
    rot3 = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 3), None,
                                    identity_automorphism(alg))
    assert rot3.order() == 3
    inv = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    assert inv.order() == 2


def test_apply_examples():
    alg, iden, tau, e = sl2_pieces()
    u = LoopElement(alg, iden, 1, {1: e})
    # identity automorphism fixes u
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(alg))
    assert one.apply(u) == u
    # u(t + pi): e z -> -e z
    rot = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None,
                                   identity_automorphism(alg))
    img = rot.apply(u)
    assert img.coefficient(img.l) == -e
    # scaling with l = 2: u_2 z^2 -> 4 u_2 z^2 under factor 2^n
    tau2 = standard_involution(alg, "rho1")
    h = CycloMatrix.from_scalars([[1, 0], [0, -1]])
    u2 = LoopElement(alg, tau2, 2, {2: h})
    sc = tau_scaling(alg, tau2, 2, Fraction(2))
    assert sc.apply(u2).coefficient(2) == h * 4


def test_infinite_order_scaling():
    alg, iden, tau, e = sl2_pieces()
    sc = tau_scaling(alg, iden, 1, Fraction(2))
    with pytest.raises(InfiniteOrderScaling):
        sc.order()


def test_twist_mismatch():
    alg, iden, tau, e = sl2_pieces()
    phi = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    u = LoopElement(alg, tau, 2, {1: e})
    with pytest.raises(TwistMismatch):
        phi.apply(u)
    # a twist is complex-linear
    su2 = make_algebra("a", 1, "compact")
    with pytest.raises(TwistMismatch):
        StandardLoopAutomorphism(omega_automorphism(su2), 2, 1, 0, None,
                                 identity_automorphism(su2))


def test_compose_against_apply():
    rng = random.Random(12)
    alg, iden, tau, e = sl2_pieces()
    phi = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None, tau)
    psi = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 3), None,
                                   identity_automorphism(alg))
    comp = phi.compose(psi)
    for _ in range(5):
        u = random_loop_element(alg, iden, 1, rng)
        a = comp.apply(u)
        b = phi.apply(psi.apply(u))
        L = a.l * b.l
        assert a.re_conductor(L) == b.re_conductor(L)
    # inverse
    assert phi.compose(phi.inverse()).is_identity()


def test_conjugations_preserve_action():
    """psi phi psi^(-1) computed by data matches apply-level conjugation."""
    rng = random.Random(13)
    su3 = make_algebra("a", 2, "complex")
    i3 = identity_automorphism(su3)
    mu3 = mu_automorphism(su3)
    phi = StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)
    # shift conjugation
    c = Fraction(1, 3)
    conj = conjugate_shift(phi, c)
    shift = StandardLoopAutomorphism(i3, 1, 1, c, None, i3)
    for _ in range(3):
        u = random_loop_element(su3, i3, 1, rng)
        lhs = conj.apply(u)
        rhs = shift.apply(phi.apply(shift.inverse().apply(u)))
        L = lhs.l * rhs.l
        assert lhs.re_conductor(L) == rhs.re_conductor(L)
    # constant conjugation (quasiconjugation; here psi0 commutes with nothing
    # special, so the twist may move -- compare on the common twist)
    psi0 = standard_involution(su3, "rho1")
    conj = conjugate_constant(phi, psi0)
    const = StandardLoopAutomorphism(i3, 1, 1, 0, None, psi0)
    for _ in range(3):
        u = random_loop_element(su3, i3, 1, rng)
        lhs = conj.apply(const.apply(u))
        rhs = const.apply(phi.apply(u))
        L = lhs.l * rhs.l
        assert lhs.re_conductor(L) == rhs.re_conductor(L)


def test_invariant_first_kind_examples():
    alg, iden, tau, e = sl2_pieces()
    # phi u(t) = rho(u(t)) -> (0, rho, [sigma])
    phi = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    inv = invariant_first_kind(phi)
    assert (inv.p, repr(inv.rho), inv.beta.rep) == (0, "rho1", "id")
    # phi u(t) = phi0(u(t + pi)) -> (1, id, [phi0^(-1)]); beta is inner here
    phi = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None, tau)
    inv = invariant_first_kind(phi)
    assert (inv.p, inv.rho.p, inv.beta.rep) == (1, 0, "id")
    # on su(3) with an outer translation part the beta class is visible
    su3 = make_algebra("a", 2, "compact")
    mu3 = mu_automorphism(su3)
    phi = StandardLoopAutomorphism(mu3.compose(mu3), 1, 1, Fraction(1, 2),
                                   None, mu3)
    inv = invariant_first_kind(phi)
    assert (inv.p, inv.rho.p, inv.beta.rep) == (1, 0, "mu")
    # identity -> (0, id, [sigma]), q = 1
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(alg))
    inv = invariant_first_kind(one)
    assert inv.q == 1 and inv.p == 0 and inv.rho.p == 0


def test_invariant_second_kind_examples():
    alg, iden, tau, e = sl2_pieces()
    refl = StandardLoopAutomorphism(iden, 1, -1, 0, None,
                                    identity_automorphism(alg))
    inv = invariant_second_kind(refl)
    assert inv.pair == (InvLabel(0), InvLabel(0)) and inv.k == 1
    phi = StandardLoopAutomorphism(tau, 2, -1, 0, None, tau)
    inv = invariant_second_kind(phi)
    assert inv.pair == (InvLabel(0), InvLabel(1))
    with pytest.raises(WrongKind):
        invariant_second_kind(StandardLoopAutomorphism(
            iden, 1, 1, 0, None, tau))


def test_swap_symmetry_second_kind():
    su3 = make_algebra("a", 2, "compact")
    mu = mu_automorphism(su3)
    i3 = identity_automorphism(su3)
    # [mu, id]: sigma = mu, phi+ = mu;  [id, mu]: sigma = mu^{-1}, phi+ = id
    a = StandardLoopAutomorphism(mu, 2, -1, 0, None, mu)
    b = StandardLoopAutomorphism(mu.inverse(), 2, -1, 0, None, i3)
    assert invariant_second_kind(a) == invariant_second_kind(b)


def test_invariant_stability_random():
    rng = random.Random(14)
    for name, phi in stability_fixtures()[:3]:
        base = invariant_first_kind(phi) if phi.epsilon == 1 \
            else invariant_second_kind(phi)
        for _ in range(5):
            conj = random_conjugation(phi, rng)
            inv = invariant_first_kind(conj) if phi.epsilon == 1 \
                else invariant_second_kind(conj)
            assert inv == base, name


def test_normalize_to_constant_identities():
    su3 = make_algebra("a", 2, "compact")
    i3 = identity_automorphism(su3)
    mu3 = mu_automorphism(su3)
    phi_c = StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)
    Y = antifixed_direction(mu3, random.Random(15))
    phi = conjugate_exp(phi_c, Y)
    assert not phi.has_constant_curve()
    Yn, tw, const = normalize_to_constant(phi)
    lhs = Yn.matrix - phi.phi0.apply_matrix(Yn.matrix) * phi.epsilon \
        + phi.X.matrix
    assert lhs.is_zero()
    assert const.has_constant_curve()
    assert const.order() == phi.order()
    assert invariant_first_kind(const) == invariant_first_kind(phi)
    # X = 0 keeps everything unchanged
    Y0, tw0, const0 = normalize_to_constant(phi_c)
    assert Y0.matrix.is_zero() and const0 is phi_c


def test_opposite_involution_property():
    for name, phi in stability_fixtures():
        if phi.epsilon != 1:
            continue
        inv = invariant_first_kind(phi)
        assert opposite(opposite(inv)) == inv


def test_conjugacy_test_results():
    alg, iden, tau, e = sl2_pieces()
    phi = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    rng = random.Random(16)
    conj = random_conjugation(phi, rng)
    assert conjugacy_test(phi, conj) == "conjugate"
    one = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None, tau)
    assert conjugacy_test(phi, one) == "not_conjugate"
    refl = StandardLoopAutomorphism(iden, 1, -1, 0, None,
                                    identity_automorphism(alg))
    assert conjugacy_test(phi, refl) == "not_conjugate"
    # order >= 3 classes compare as certificates: equal -> undecided
    su3 = make_algebra("a", 2, "complex")
    i3 = identity_automorphism(su3)
    w = root_of_unity(3, 1)
    rot = Automorphism(su3, CycloMatrix.diag([w, 1, w.inverse()]))
    f1 = StandardLoopAutomorphism(rot, 3, 1, 0, None, rot)
    assert conjugacy_test(f1, f1) == "undecided"


@pytest.mark.parametrize("n", [1, 2])
def test_conjugacy_test_conj_linear_second_kind(n):
    from kmaut.tables import realize_entry
    alg = make_algebra("a", n, "compact")
    lin = realize_entry(alg, ("2", InvLabel(1), InvLabel(0)))
    c = conj_linear_extend(lin)
    assert conjugacy_test(c, conjugate_shift(c, Fraction(1, 4))) == "conjugate"
    other = conj_linear_extend(
        realize_entry(alg, ("2", InvLabel(0), InvLabel(0))))
    assert conjugacy_test(c, other) == "not_conjugate"
    assert conjugacy_test(c, lin) == "not_conjugate"


def test_conjugacy_test_conj_linear_first_kind():
    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    om = omega_automorphism(su2)
    tau = standard_involution(su2, "rho1")
    a = StandardLoopAutomorphism(iden, 1, 1, 0, None, om)
    b = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau.compose(om))
    assert conjugacy_test(a, a) == "conjugate"
    assert conjugacy_test(a, b) == "not_conjugate"
    assert invariant(a) == invariant(conjugate_shift(a, Fraction(1, 3)))


def test_conj_linear_beyond_involutions_is_a_typed_error():
    """A conjugate-linear map of order 6 is not classified: a typed error,
    not an "undecided" verdict from the linear certificate."""
    su3 = make_algebra("a", 2, "compact")
    w = root_of_unity(3, 1)
    A = Automorphism(su3, CycloMatrix.diag([w, w ** 2, 1]))
    f = StandardLoopAutomorphism(identity_automorphism(su3), 1, 1, 0, None,
                                 A.compose(omega_automorphism(su3)))
    assert f.order() == 6
    with pytest.raises(UnsupportedOrder):
        conjugacy_test(f, f)
    with pytest.raises(WrongKind):
        invariant_first_kind(f)
    with pytest.raises(WrongKind):
        invariant_second_kind(conj_linear_extend(StandardLoopAutomorphism(
            identity_automorphism(su3), 1, -1, 0, None, A)))


def test_order_loop_runs_once(monkeypatch):
    """The order of a map is found once: repeated order() calls and the
    invariants inside conjugacy_test reuse it, as does a rotated copy."""
    calls = {}
    # every counted map stays alive, so no later object can reuse its id
    counted = []
    compose = StandardLoopAutomorphism.compose

    def counting(self, other):
        calls[id(self)] = calls.get(id(self), 0) + 1
        counted.append(self)
        return compose(self, other)

    monkeypatch.setattr(StandardLoopAutomorphism, "compose", counting)
    for name, q in (("q4", 4), ("2nd", 2)):
        a, b = (dict(stability_fixtures())[name] for _ in range(2))
        assert a.order() == a.order() == q
        assert calls[id(a)] == q - 1
        assert conjugacy_test(a, b) == "conjugate"
        assert calls[id(a)] == calls[id(b)] == q - 1
        shifted = conjugate_shift(a, Fraction(1, 3))
        assert shifted.order() == q and id(shifted) not in calls
        with pytest.raises(OrderExceedsBound):
            a.order(bound=q - 1)


def test_square_map_examples():
    su3 = make_algebra("a", 2, "compact")
    mu = mu_automorphism(su3)
    i3 = identity_automorphism(su3)
    # [id, id] -> (0, id, [id])
    refl = StandardLoopAutomorphism(i3, 1, -1, 0, None, i3)
    inv = invariant_second_kind(refl)
    sq = square_map(inv)
    assert sq.p == 0 and sq.rho.p == 0 and sq.beta.rep == "id"
    # [mu, id] -> (0, id, [mu])
    phi = StandardLoopAutomorphism(mu, 2, -1, 0, None, mu)
    sq = square_map(invariant_second_kind(phi))
    assert sq.beta.rep == "mu" and sq.beta.k == 2
    # [rho, rho] -> (0, id, [id])
    tau1 = standard_involution(su3, "rho1")
    phi = StandardLoopAutomorphism(i3, 1, -1, 0, None, tau1)
    sq = square_map(invariant_second_kind(phi))
    assert sq.beta.rep == "id"
    # consistency with the square's own invariant
    sq_phi = phi.compose(phi)
    assert sq_phi.is_identity()  # square of an involution


def test_d4_triality_pair_stability():
    """Second-kind invariants on so(8) with a primed class stay canonical
    under random conjugations (the outer-orbit rewriting at work)."""
    rng = random.Random(21)
    from kmaut.tables import realize_entry
    so8 = make_algebra("d", 4, "compact")
    phi = realize_entry(so8, ("2", InvLabel(1), InvLabel(1, 1)))
    base = invariant_second_kind(phi)
    assert base.k == 3
    assert base.pair == (InvLabel(1), InvLabel(1, 1))
    for _ in range(6):
        conj = random_conjugation(phi, rng)
        assert invariant_second_kind(conj) == base


def test_tau_interchange_law():
    rng = random.Random(17)
    alg, iden, tau1, e = sl2_pieces()
    for eps in (1, -1):
        phi = StandardLoopAutomorphism(iden, 1, eps, 0, None, tau1)
        for s in (Fraction(2), Fraction(5, 3)):
            ts = tau_scaling(alg, iden, 1, s)
            tse = tau_scaling(alg, iden, 1, s if eps == 1 else 1 / s)
            lhs = ts.compose(phi)
            rhs = phi.compose(tse)
            for _ in range(3):
                u = random_loop_element(alg, iden, 1, rng)
                assert lhs.apply(u) == rhs.apply(u)


def test_tau_interchange_with_curve():
    """The interchange law with a nonconstant curve: the mode-scaled
    automorphism differs from phi and the law still holds exactly."""
    rng = random.Random(20)
    su3 = make_algebra("a", 2, "complex")
    i3 = identity_automorphism(su3)
    mu3 = mu_automorphism(su3)
    i = root_of_unity(4, 1)
    M = CycloMatrix.from_scalars([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) * i
    Y = SemisimpleElement(su3, M, [Fraction(-1), Fraction(0), Fraction(1)])
    phi_c = StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)
    phi = conjugate_exp(phi_c, Y)
    assert not phi.has_constant_curve()
    s = Fraction(2)
    tw = phi.twist
    ts = tau_scaling(su3, tw, phi.l, s)
    lhs = ts.compose(phi)
    scaled = phi._scale_conjugated(s ** phi.l)
    assert scaled.phi0 != phi.phi0  # the mode scaling is visible
    rhs = scaled.compose(tau_scaling(su3, tw, phi.l, s))
    for _ in range(3):
        u = random_loop_element(su3, tw, phi.l, rng)
        a, b = lhs.apply(u), rhs.apply(u)
        L = a.l * b.l
        assert a.re_conductor(L) == b.re_conductor(L)


def test_normalizing_scale_recovery():
    alg, iden, tau1, e = sl2_pieces()
    phi = StandardLoopAutomorphism(iden, 1, -1, 0, None, tau1, Fraction(9))
    assert normalizing_scale(phi) == 3
    assert conjugate_scale(phi, 3).scale == 1
    phi = StandardLoopAutomorphism(iden, 1, -1, 0, None, tau1, Fraction(1, 4))
    s = normalizing_scale(phi)
    assert conjugate_scale(phi, s).scale == 1
    # invariant of the scaled automorphism matches the unscaled one
    base = StandardLoopAutomorphism(iden, 1, -1, 0, None, tau1)
    assert invariant_second_kind(phi) == invariant_second_kind(base)


def test_affine_extend_identities():
    rng = random.Random(18)
    su3 = make_algebra("a", 2, "complex")
    i3 = identity_automorphism(su3)
    mu3 = mu_automorphism(su3)
    phi_c = StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)
    Y = antifixed_direction(mu3, rng)
    phi = conjugate_exp(phi_c, Y)
    ext = affine_extend(phi)
    # X = 0, eps = 1: hat c = c, hat d = d
    ext0 = affine_extend(phi_c)
    assert ext0.image_c().c == 1 and ext0.image_d().d == 1 \
        and ext0.image_d().loop.is_zero() and ext0.image_d().c == 0
    # eps = -1: hat c = -c, hat d = -d
    alg, iden, tau1, e = sl2_pieces()
    refl = StandardLoopAutomorphism(iden, 1, -1, 0, None,
                                    identity_automorphism(alg))
    er = affine_extend(refl)
    assert er.image_c().c == -1 and er.image_d().d == -1
    # bracket and form preservation with nonzero X, including d-action
    from kmaut.selftest import random_affine_element
    for _ in range(4):
        x = random_affine_element(su3, phi.twist, phi.l, rng)
        y = random_affine_element(su3, phi.twist, phi.l, rng)
        fx, fy = ext.apply(x), ext.apply(y)
        lhs = affine_bracket(fx, fy)
        rhs = ext.apply(affine_bracket(x, y))
        L = lhs.loop.l * rhs.loop.l
        assert lhs.loop.re_conductor(L) == rhs.loop.re_conductor(L)
        assert lhs.c == rhs.c and lhs.d == rhs.d
        assert affine_form(fx, fy) == affine_form(x, y)


def test_standard_automorphism_json_roundtrip():
    su3 = make_algebra("a", 2, "compact")
    i3 = identity_automorphism(su3)
    mu3 = mu_automorphism(su3)
    phi_c = StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)
    Y = antifixed_direction(mu3, random.Random(19))
    phi = conjugate_exp(phi_c, Y)
    back = StandardLoopAutomorphism.from_json(phi.to_json())
    assert back == phi


@pytest.mark.parametrize("fam,n", [("a", 2), ("b", 2), ("c", 3), ("d", 4)])
def test_standard_automorphism_json_round_trip_to_the_byte(fam, n):
    """to_json -> from_json -> to_json writes the same bytes for randomly
    conjugated table realizations (curves, shifts, operator twists on so(8))
    at scales 1 and 3/2."""
    from kmaut.tables import realize_entry
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebra = make_algebra(fam, n, "compact")
    entries = list(_table_entries(algebra))

    @hyp.settings(max_examples=15, deadline=None)
    @hyp.given(st.sampled_from(entries), st.sampled_from([1, Fraction(3, 2)]),
               st.integers(0, 2**32 - 1))
    def check(entry, scale, seed):
        phi = random_conjugation(realize_entry(algebra, entry),
                                 random.Random(seed))
        phi = StandardLoopAutomorphism(phi.twist, phi.l, phi.epsilon, phi.t0,
                                       phi.X, phi.phi0, scale)
        text = json.dumps(phi.to_json())
        back = StandardLoopAutomorphism.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text

    check()


@pytest.mark.parametrize("fam,n", [("a", 2), ("a", 3), ("b", 2), ("b", 3),
                                   ("c", 3), ("d", 4), ("d", 5)])
def test_invariant_of_a_conjugated_entry_is_the_entry_invariant(fam, n):
    """invariant(random_conjugation(realize(e))) is entry_invariant(e) for
    every table entry, three random conjugations each."""
    from kmaut.tables import entry_invariant, realize
    rng = random.Random(37)
    algebra = make_algebra(fam, n, "compact")
    for entry in _table_entries(algebra):
        want = entry_invariant(algebra, entry)
        phi = realize(want)
        for _ in range(3):
            assert invariant(random_conjugation(phi, rng)) == want, entry


def _table_entries(algebra):
    from kmaut.tables import (enumerate_first_kind, enumerate_second_kind,
                              valid_ks)
    for k in valid_ks(algebra):
        yield from enumerate_first_kind(algebra, k).entries
        yield from enumerate_second_kind(algebra, k).entries


@pytest.mark.parametrize("fam,n", [("a", 2), ("b", 2), ("c", 3), ("d", 4)])
def test_derived_automorphisms_inherit_target_twist(fam, n):
    """realize, compose, conjugate_shift, conjugate_constant and
    conjugate_reflection build their maps unchecked, compose and
    conjugate_shift with the target twist they inherit; each map must pass
    a fresh checked construction with the same fields, and have the target
    twist that one computes."""
    from kmaut.tables import realize_entry
    rng = random.Random(23)
    algebra = make_algebra(fam, n, "compact")
    for entry in _table_entries(algebra):
        phi = realize_entry(algebra, entry)
        # move lands on g sigma g^(-1): its composites are not endomorphisms
        g = random_inner_automorphism(algebra, rng)
        move = StandardLoopAutomorphism(phi.twist, phi.l, 1, 0, None, g)
        moved = move.compose(phi)
        outs = [phi, phi.compose(phi), moved, conjugate_constant(phi, g),
                conjugate_reflection(phi), conjugate_reflection(moved)]
        for c in (Fraction(1, 3), Fraction(-1, 4)):
            shifted = conjugate_shift(phi, c)
            outs += [shifted, phi.compose(shifted), conjugate_shift(moved, c)]
        for out in outs:
            fresh = StandardLoopAutomorphism(out.twist, out.l, out.epsilon,
                                             out.t0, out.X, out.phi0,
                                             out.scale)
            assert out.target_twist() == fresh.target_twist(), entry


def test_from_json_still_validates():
    su3 = make_algebra("a", 2, "compact")
    mu3 = mu_automorphism(su3)
    phi = StandardLoopAutomorphism(mu3, 2, 1, 0, None,
                                   identity_automorphism(su3))
    payload = phi.to_json()
    payload["l"] = 1  # mu^1 is not the identity
    with pytest.raises(TwistMismatch):
        StandardLoopAutomorphism.from_json(payload)
    payload = phi.to_json()
    X = su3.torus_element([1, -1, 0])  # mu(X) = -X
    payload["X"] = {"matrix": X.matrix.to_json(),
                    "rates": [str(r) for r in X.eigenrates]}
    with pytest.raises(PeriodicityViolation):
        StandardLoopAutomorphism.from_json(payload)


def _class_p(phi):
    """The class P that invariant_first_kind certifies for phi."""
    q = phi.order()
    _, tw, const = normalize_to_constant(phi)
    p = int(const.t0 * q) % q
    r = gcd(p, q) if p else q
    return const.phi0.power(q // r).compose(tw.power(p // r))


def test_certificate_matches_eigenprojector_ranks():
    d4 = make_algebra("d", 4, "compact")
    th = triality_automorphism(d4)
    cases = [th] + [th.compose(standard_involution(d4, lab))
                    for lab in ("rho1", "rho2", "rho3", "rho4")]
    cases.append(_class_p(dict(stability_fixtures())["q6"]))
    for n in (2, 3):
        alg = make_algebra("a", n, "compact")
        for o in (3, 4, 6):
            A = Automorphism(alg, CycloMatrix.diag(
                [root_of_unity(o, k) for k in [1, 2] + [0] * (n - 1)]))
            cases += [A, A.compose(mu_automorphism(alg))]
    orders = set()
    for aut in cases:
        o = aut.order()
        orders.add(o)
        ranks = tuple((root_index(val, o), P.rank()) for val, P
                      in finite_order_eigenprojectors(aut.operator(), o))
        assert _certificate(aut) == ("cert", o, aut.out_order(), ranks)
    assert orders == {2, 3, 4, 6}


def reference_apply(phi, u):
    """The image of u on coefficient matrices: each coefficient u_n is
    scaled, rotated by its phase, mapped by phi0 and split by the projector
    pairs Q_a (.) Q_b of X into degrees shifted by r_a - r_b; a constant
    curve keeps phi0(u_n) whole.  Each matrix carries the conductor its
    arithmetic gives it."""
    lu = u.l
    a, b = phi.t0.numerator, phi.t0.denominator
    rates = [r for r, _ in phi.X.projectors()]
    lnew = lcm(lu, phi.target_twist().order(bound=256),
               *(Fraction(r1 - r2).denominator for r1 in rates for r2 in rates))
    out = {}
    projs = None if phi.has_constant_curve() else phi.X.projectors()
    for n, M in u.coeffs.items():
        coeff = M
        if phi.scale != 1:
            fr = _rat_pow(phi.scale, Fraction(n * phi.l, lu))
            if fr is None:
                raise ScalingNotRational("scale factor is irrational")
            coeff = coeff * fr
        coeff = coeff * root_of_unity(b * lu, (n * a) % (b * lu))
        n2 = -phi.epsilon * n if phi.phi0.conj else phi.epsilon * n
        coeff = phi.phi0.apply_matrix(coeff)
        if projs is None:
            out[n2 * lnew // lu] = coeff
            continue
        for ra, Qa in projs:
            for rb, Qb in projs:
                piece = Qa * coeff * Qb
                if not piece.is_zero():
                    key = (Fraction(n2, lu) + (ra - rb)) * lnew
                    assert key.denominator == 1
                    key = int(key)
                    out[key] = out[key] + piece if key in out else piece
    return LoopElement(phi.algebra, phi.target_twist(), lnew, out,
                       validate=False)


def _image_json(phi, u, apply):
    """The image's JSON text, or the name of the error apply raised."""
    try:
        return json.dumps(apply(phi, u).to_json(), sort_keys=True)
    except ScalingNotRational as err:
        return type(err).__name__


def _apply_cases(algebra, rng):
    """The realized table entries of the algebra, of both kinds, three
    random conjugations of each in a row, the conjugate-linear extensions of
    all of these and the second-kind ones conjugated by the scaling of
    parameter 3/2, where those exist."""
    from kmaut.tables import realize_entry
    for entry in _table_entries(algebra):
        chain = [realize_entry(algebra, entry)]
        for _ in range(3):
            chain.append(random_conjugation(chain[-1], rng))
        for phi in chain:
            yield phi
            try:
                yield conj_linear_extend(phi)
            except PeriodicityViolation:
                pass
            if phi.epsilon == -1:
                try:
                    yield conjugate_scale(phi, Fraction(3, 2))
                except ScalingNotRational:
                    pass


@pytest.mark.parametrize("fam,n", [("a", 1), ("a", 2), ("a", 3), ("b", 2),
                                   ("c", 3), ("d", 4)])
def test_apply_on_rows_matches_the_matrix_path(fam, n):
    """StandardLoopAutomorphism.apply on coordinate rows writes the JSON of
    the matrix-path image to the byte, conductors included, and raises
    where it raises.  Every algebra reaches conjugate-linear and scaled
    maps, and all but c3, which has no anti-fixed direction to twist along,
    nonconstant curves."""
    rng = random.Random(26)
    seen = {"curve": 0, "conj": 0, "scale": 0}
    for phi in _apply_cases(make_algebra(fam, n, "compact"), rng):
        seen["curve"] += not phi.has_constant_curve()
        seen["conj"] += phi.phi0.conj
        seen["scale"] += phi.scale != 1
        u = random_loop_element(phi.algebra, phi.twist, phi.l, rng,
                                window=3, terms=3)
        assert _image_json(phi, u, StandardLoopAutomorphism.apply) \
            == _image_json(phi, u, reference_apply), phi
    assert seen["conj"] and seen["scale"] and (seen["curve"] or fam == "c"), \
        seen


def test_apply_crosses_no_matrix(monkeypatch):
    """After a warm-up call, apply reads and writes no coefficient matrix:
    no `coords` and no `from_coords` call, on a conjugate-linear map and on
    a map with a nonconstant curve."""
    from kmaut.algebra import SimpleAlgebra
    from kmaut.tables import realize_entry
    rng = random.Random(5)
    su3 = make_algebra("a", 2, "compact")
    mu3 = mu_automorphism(su3)
    phi = conjugate_exp(StandardLoopAutomorphism(
        identity_automorphism(su3), 1, 1, Fraction(1, 4), None, mu3),
        antifixed_direction(mu3, random.Random(15)))
    assert not phi.has_constant_curve()
    psi = conj_linear_extend(realize_entry(su3, next(
        e for e in _table_entries(su3) if e[0] == "2" and e[1] != e[2])))
    assert psi.phi0.conj
    calls = []
    for name in ("coords", "from_coords"):
        real = getattr(SimpleAlgebra, name)
        monkeypatch.setattr(SimpleAlgebra, name,
                            lambda self, *a, _f=real, _n=name:
                            calls.append(_n) or _f(self, *a))
    for m in (phi, psi):
        us = [random_loop_element(m.algebra, m.twist, m.l, rng, window=3,
                                  terms=3) for _ in range(3)]
        m.apply(us[0])
        del calls[:]
        for u in us:
            m.apply(u)
        assert calls == [], m


def test_homometric_rulers_are_undecided_never_conjugate():
    """On a5, Ad diag(zeta_36^a) for the homometric Golomb rulers
    {0,1,4,10,12,17} and {0,1,8,11,13,17}: equal difference multisets, so
    equal eigenvalue multisets on sl(6) and equal class certificates, yet
    neither a translation (the centre) nor a reflection (the outer class)
    relates them mod 36, so they are not conjugate in Aut sl(6).  The
    certificate is necessary, not sufficient: the verdict is undecided."""
    a5 = make_algebra("a", 5, "compact")
    iden = identity_automorphism(a5)
    rulers = ((0, 1, 4, 10, 12, 17), (0, 1, 8, 11, 13, 17))

    def differences(r):
        return sorted(x - y for x in r for y in r)

    assert differences(rulers[0]) == differences(rulers[1])
    for t in range(36):
        for s in (1, -1):
            assert sorted((s * x + t) % 36 for x in rulers[0]) != \
                sorted(x % 36 for x in rulers[1])
    x, y = (StandardLoopAutomorphism(iden, 1, 1, 0, None, Automorphism(
        a5, CycloMatrix.diag([root_of_unity(36, a) for a in r])))
        for r in rulers)
    assert invariant(x).raw and invariant(x) == invariant(y)
    assert conjugacy_test(x, y) == conjugacy_test(y, x) == "undecided"


@pytest.mark.parametrize("fam, n, label", [
    ("d", 4, InvLabel(p, prime)) for p in (1, 2, 3) for prime in (1, 2)]
    + [("d", 6, InvLabel(7, 1)), ("d", 8, InvLabel(9, 1))])
def test_primed_classes_read_back_as_their_unprimed_class(fam, n, label):
    """u(t) -> rho(u(t)) for rho in a primed class (the so(8) classes moved
    by triality, the second Ad J class of so(4m)) has the invariant of the
    map with the unprimed class: an outer conjugator moves rho to the
    standard list before its component is read."""
    algebra = make_algebra(fam, n, "compact")
    iden = identity_automorphism(algebra)
    primed, plain = (
        StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                 standard_involution(algebra, lab))
        for lab in (label, InvLabel(label.p)))
    assert invariant(primed) == invariant(plain)
    assert invariant(primed).rho == InvLabel(label.p)
    if label == InvLabel(2, 1):
        assert (invariant(conj_linear_extend(primed))
                == invariant(conj_linear_extend(plain)))


@pytest.mark.parametrize("n, total", [(4, 16), (6, 2)])
def test_table_entries_moved_to_primed_classes_keep_their_invariant(n, total):
    """A first-kind table entry on so(8) conjugated by theta or theta^2, and
    one on so(12) conjugated by Ad tau_1, lands on a primed class with a
    moved twist; its invariant is the entry's, component included."""
    from kmaut.tables import enumerate_first_kind, realize_entry, valid_ks
    algebra = make_algebra("d", n, "compact")
    if algebra.has_triality:
        primed, gammas = (1, 2, 3), [triality_automorphism(algebra, e)
                                     for e in (1, 2)]
    else:
        primed = (n + 1,)
        gammas = [Automorphism(algebra, tau_matrix(1, algebra.size))]
    count = 0
    for k in valid_ks(algebra):
        for e in enumerate_first_kind(algebra, k).entries:
            if e[0] != "1a" or e[1].p not in primed:
                continue
            phi = realize_entry(algebra, e)
            for gamma in gammas:
                psi = conjugate_constant(phi, gamma)
                assert involution_int_class(psi.phi0).prime, (k, e)
                assert invariant(psi) == invariant(phi), (k, e)
                count += 1
    assert count == total


def test_second_kind_certificates_leave_conjugacy_undecided():
    """u(t) -> Ad diag(i, -i, 1) u(-t) on untwisted sl(3) has order 4 and a
    constant part that is not an involution: its invariant holds class
    certificates, and it is undecided against an inner conjugate and a
    shift of itself, not conjugate."""
    su3 = make_algebra("a", 2, "compact")
    i = root_of_unity(4, 1)
    phi = StandardLoopAutomorphism(
        identity_automorphism(su3), 1, -1, 0, None,
        Automorphism(su3, CycloMatrix.diag([i, -i, 1])))
    inv = invariant(phi)
    assert inv.raw and inv.order == 4 and phi.order() == 4
    assert all(isinstance(x, tuple) for x in inv.pair)
    g = random_inner_automorphism(su3, random.Random(5))
    for psi in (conjugate_constant(phi, g),
                conjugate_shift(phi, Fraction(1, 3))):
        assert invariant(psi) == inv
        assert conjugacy_test(phi, psi) == "undecided"


@pytest.mark.parametrize("name", ["q4", "q4-p2"])
def test_inverse_with_curve_and_scale(name):
    """inverse with a curve (X != 0, from conjugate_exp of the fixture), with
    a scale != 1, and with both: phi o phi^-1 and phi^-1 o phi are the
    identity."""
    su3 = make_algebra("a", 2, "compact")
    fixture = dict(stability_fixtures())[name]
    curved = conjugate_exp(fixture, su3.torus_element([1, -1, 0]))
    assert not curved.X.matrix.is_zero()
    for base, scale in ((curved, 1), (fixture, 4), (curved, 4)):
        phi = StandardLoopAutomorphism(base.twist, base.l, base.epsilon,
                                       base.t0, base.X, base.phi0, scale)
        inv = phi.inverse()
        assert inv.scale == Fraction(1, scale)
        assert phi.compose(inv).is_identity(), (name, scale)
        assert inv.compose(phi).is_identity(), (name, scale)


def _realized_entries(fam, n):
    from kmaut.tables import (enumerate_first_kind, enumerate_second_kind,
                              realize_entry, valid_ks)
    alg = make_algebra(fam, n, "compact")
    for k in valid_ks(alg):
        for row in (enumerate_first_kind(alg, k), enumerate_second_kind(alg, k)):
            for e in row.entries:
                yield k, e, realize_entry(alg, e)


@pytest.mark.parametrize("fam, n", [("a", 2), ("b", 2), ("c", 3), ("d", 4)])
def test_realized_entries_keep_the_group_laws(fam, n):
    """Constant curves compose as their constant parts and squares are
    kept: on every realized entry (k = 1..3, triality included), and on its
    conjugate by a shift (t0 != 0 on the second kind), phi^-1 o phi is the
    identity, composition is associative, and order() is the least q with
    phi composed q times (from the right) the identity."""
    count = 0
    for k, e, phi in ((k, e, psi) for k, e, phi in _realized_entries(fam, n)
                      for psi in (phi, conjugate_shift(phi, Fraction(1, 3)))):
        assert phi.inverse().compose(phi).is_identity(), (k, e)
        sq = phi.compose(phi)
        assert sq.compose(phi) == phi.compose(sq), (k, e)
        cur, q = phi, 1
        while not cur.is_identity():
            cur, q = cur.compose(phi), q + 1
            assert q <= 64, (k, e)
        assert phi.order() == q, (k, e)
        count += 1
    assert count >= 10


def test_a_kept_square_writes_the_json_of_a_fresh_compose():
    """On the d4 entries at k = 3, the square of the twist and of phi0 read
    twice is one map, and it and the square of an `_unlabeled(by_theta=True)`
    copy write the JSON that a compose on a map with no kept square writes."""
    def fresh_square(g, by_theta):
        f = Automorphism(g.algebra, g.parts()[0], w=g.parts()[1], conj=g.conj)
        f._by_theta = by_theta
        return json.dumps(f.compose(f).to_json(), sort_keys=True)

    seen = set()
    for k, e, phi in _realized_entries("d", 4):
        if k != 3:
            continue
        for g in (phi.twist, phi.phi0):
            if g.is_identity():
                continue
            sq = g.compose(g)
            assert g.compose(g) is sq
            assert json.dumps(sq.to_json(), sort_keys=True) == fresh_square(
                g, g._by_theta)
            c = g._unlabeled(by_theta=True)
            assert json.dumps(c.compose(c).to_json(), sort_keys=True) \
                == fresh_square(g, True)
            seen.add(g._by_theta)
    assert seen == {False, True}
