import random
import pytest

from kmaut.algebra import j_matrix, make_algebra, tau_matrix
from kmaut.autg import (
    Automorphism,
    InvLabel,
    identity_automorphism,
    involution_int_class,
    label_out_word,
    mu_automorphism,
    parse_label,
    standard_involution,
    standard_labels,
    triality_automorphism,
)
from kmaut.cyclo import CycloMatrix, root_of_unity
from kmaut.errors import InvalidLabel, NotInvolution, OrderExceedsBound
from kmaut.pi0 import component_signature, pi0_table
from kmaut.selftest import random_inner_automorphism


def test_standard_involutions_square_to_identity():
    cases = [("a", 2), ("a", 3), ("b", 2), ("c", 3), ("d", 4), ("d", 5), ("d", 6)]
    for fam, n in cases:
        alg = make_algebra(fam, n, "compact")
        for lab in standard_labels(alg):
            phi = standard_involution(alg, lab)
            assert phi.compose(phi).is_identity(), (fam, n, lab)
            assert involution_int_class(phi) == lab


def test_orders():
    su3 = make_algebra("a", 2, "compact")
    assert identity_automorphism(su3).order() == 1
    assert mu_automorphism(su3).order() == 2
    su4 = make_algebra("a", 3, "compact")
    adj = Automorphism(su4, j_matrix(2))
    assert adj.order() == 2  # J^2 = -E acts trivially in Ad
    with pytest.raises(OrderExceedsBound):
        w = root_of_unity(7, 1)
        Automorphism(su3, CycloMatrix.diag([w, w.inverse(), 1])).order(bound=5)


def test_inner_outer():
    su3 = make_algebra("a", 2, "compact")
    assert not mu_automorphism(su3).is_inner()
    so8 = make_algebra("d", 4, "compact")
    assert not standard_involution(so8, "rho1").is_inner()
    assert standard_involution(so8, "rho2").is_inner()
    su4 = make_algebra("a", 3, "compact")
    assert not standard_involution(su4, "muAdJ").is_inner()
    sp3 = make_algebra("c", 3, "compact")
    assert standard_involution(sp3, "AdjE").is_inner()
    so10 = make_algebra("d", 5, "compact")
    assert not standard_involution(so10, "rho1").is_inner()
    assert standard_involution(so10, "AdJ").is_inner()


def test_out_multiplicativity():
    rng = random.Random(7)
    so8 = make_algebra("d", 4, "compact")
    from kmaut.autg import _pcomp
    auts = [standard_involution(so8, "rho1"), triality_automorphism(so8),
            standard_involution(so8, "rho2"),
            random_inner_automorphism(so8, rng)]
    for a in auts:
        for b in auts:
            assert a.compose(b).word() == _pcomp(a.word(), b.word())


def test_int_class_examples():
    su3 = make_algebra("a", 2, "compact")
    assert repr(involution_int_class(mu_automorphism(su3))) == "rho2"
    so8 = make_algebra("d", 4, "compact")
    r2 = standard_involution(so8, "rho2")
    adj = Automorphism(so8, j_matrix(4))
    assert involution_int_class(r2) != involution_int_class(adj)
    t1 = tau_matrix(1, 8)
    adj_c = Automorphism(so8, t1 * j_matrix(4) * t1)
    assert involution_int_class(adj) != involution_int_class(adj_c)
    assert involution_int_class(identity_automorphism(so8)) == InvLabel(0)


def test_int_class_not_involution():
    su3 = make_algebra("a", 2, "compact")
    w = root_of_unity(3, 1)
    rot = Automorphism(su3, CycloMatrix.diag([w, w ** 2, 1]))
    with pytest.raises(NotInvolution):
        involution_int_class(rot)


@pytest.mark.parametrize("fam,n,lab", [
    ("a", 3, "rho1"), ("a", 3, "rho2"), ("a", 3, "mu"), ("a", 3, "muAdJ"),
    ("b", 2, "rho1"), ("c", 3, "AdjE"), ("d", 4, "rho2"), ("d", 4, "rho4"),
    ("d", 5, "AdJ"), ("d", 6, "AdJ"), ("d", 6, "AdJ'"),
])
def test_int_class_stable_under_inner_conjugation(fam, n, lab):
    rng = random.Random(hash((fam, n, lab)) % 10 ** 6)
    alg = make_algebra(fam, n, "compact")
    phi = standard_involution(alg, lab)
    want = involution_int_class(phi)
    for _ in range(50):
        g = random_inner_automorphism(alg, rng)
        conj = g.compose(phi).compose(g.inverse())
        assert involution_int_class(conj) == want


def test_triality_properties():
    so8 = make_algebra("d", 4, "compact")
    th = triality_automorphism(so8)
    assert th.order() == 3
    assert not th.is_inner()
    assert th.out_order() == 3
    # fixed subalgebra has dimension 14
    from kmaut.autg import _fixed_dim
    assert _fixed_dim(th.operator()) == 14
    # bracket preservation on sampled pairs
    rng = random.Random(8)
    basis = so8.basis()
    for _ in range(10):
        x = basis[rng.randrange(28)]
        y = basis[rng.randrange(28)]
        lhs = th.apply_matrix(so8.bracket_matrix(x, y))
        rhs = so8.bracket_matrix(th.apply_matrix(x), th.apply_matrix(y))
        assert lhs == rhs


def test_primed_classes_d4():
    so8 = make_algebra("d", 4, "compact")
    for p in (1, 2, 3):
        base = standard_involution(so8, InvLabel(p))
        prime1 = standard_involution(so8, InvLabel(p, 1))
        prime2 = standard_involution(so8, InvLabel(p, 2))
        assert involution_int_class(prime1) == InvLabel(p, 1)
        assert involution_int_class(prime2) == InvLabel(p, 2)
        assert involution_int_class(base) == InvLabel(p)


def test_pi0_table_rows():
    su4 = make_algebra("a", 3, "compact")
    row = pi0_table(su4, "rho2")
    assert [(lab, k) for lab, k, _ in row] == [
        ("id", 1), ("AdJ", 1), ("mu", 2), ("muAdJ", 2)]
    e7 = make_algebra("e7", None, "compact")
    row = pi0_table(e7, "rho2")
    assert [(lab, k) for lab, k, _ in row] == [("id", 1)]
    so8 = make_algebra("d", 4, "compact")
    row = pi0_table(so8, "rho4")
    assert [(lab, k) for lab, k, _ in row] == [
        ("id", 1), ("AdJ", 1), ("rho1", 2), ("rho1*AdJ", 2), ("theta", 3)]
    so12 = make_algebra("d", 6, "compact")
    row = pi0_table(so12, InvLabel(6))
    assert [(lab, k) for lab, k, _ in row] == [
        ("id", 1), ("rho1*tau7", 1), ("AdJ", 1), ("rho1", 2), ("rho1*AdJ", 2)]


def test_pi0_invalid_label():
    su3 = make_algebra("a", 2, "compact")
    with pytest.raises(InvalidLabel):
        pi0_table(su3, "rho7")


def test_component_signature_examples():
    su4 = make_algebra("a", 3, "compact")
    mu = standard_involution(su4, "mu")
    t1 = Automorphism(su4, tau_matrix(1, 4))
    cc = component_signature(mu, t1)
    assert cc.rep == "rho1" and cc.k == 1
    cc = component_signature(mu, identity_automorphism(su4))
    assert cc.rep == "id"
    so12 = make_algebra("d", 6, "compact")
    adj = standard_involution(so12, "AdJ")
    t6 = Automorphism(so12, tau_matrix(6, 12))
    cc = component_signature(adj, t6)
    assert cc.rep == "rho6"


def test_component_signature_frame_free():
    rng = random.Random(9)
    su4 = make_algebra("a", 3, "compact")
    mu = standard_involution(su4, "mu")
    t1 = Automorphism(su4, tau_matrix(1, 4))
    want = component_signature(mu, t1).rep
    for _ in range(10):
        g = random_inner_automorphism(su4, rng)
        gi = g.inverse()
        cc = component_signature(g.compose(mu).compose(gi),
                                 g.compose(t1).compose(gi))
        assert cc.rep == want


def test_label_parsing():
    so8 = make_algebra("d", 4, "compact")
    assert parse_label(so8, "rho2'") == InvLabel(2, 1)
    assert parse_label(so8, "id") == InvLabel(0)
    su4 = make_algebra("a", 3, "compact")
    assert parse_label(su4, "mu") == InvLabel(3)
    assert parse_label(su4, "muAdJ") == InvLabel(4)
    with pytest.raises(InvalidLabel):
        parse_label(su4, "AdJ")


def test_label_out_words():
    e6 = make_algebra("e6", None, "compact")
    from kmaut.autg import ID_PERM
    assert label_out_word(e6, InvLabel(1)) != ID_PERM
    assert label_out_word(e6, InvLabel(2)) == ID_PERM
    so8 = make_algebra("d", 4, "compact")
    w = label_out_word(so8, InvLabel(1, 1))
    from kmaut.autg import _porder
    assert _porder(w) == 2


def test_automorphism_json_roundtrip():
    so8 = make_algebra("d", 4, "compact")
    for phi in [standard_involution(so8, "rho2"),
                triality_automorphism(so8),
                standard_involution(so8, InvLabel(1, 1))]:
        back = Automorphism.from_json(phi.to_json())
        assert back == phi
    su3 = make_algebra("a", 2, "compact")
    mu = mu_automorphism(su3)
    assert Automorphism.from_json(mu.to_json()) == mu


def _random_invertible(n, rng):
    """A random invertible matrix over Q(zeta_12), far from unitary."""
    while True:
        rows = [[root_of_unity(12, rng.randrange(12)) * rng.randint(-3, 3)
                 + rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        G = CycloMatrix.from_scalars(rows)
        if G.det():
            return G


@pytest.mark.parametrize("w,conj", [(0, False), (1, False), (0, True),
                                    (1, True)])
def test_inverse_and_compose_identities(w, conj):
    """inverse and compose take inverses from identities instead of
    inverting; the results must still be exact group inverses."""
    rng = random.Random(40 + 2 * w + conj)
    su3 = make_algebra("a", 2, "compact")
    eye = CycloMatrix.identity(3)
    for _ in range(4):
        A = Automorphism(su3, _random_invertible(3, rng), w=w, conj=conj)
        Ai = A.inverse()
        for out in (A.compose(Ai), Ai.compose(A)):
            assert out.is_identity()
        for aut in (A, Ai):
            if aut._Ginv is not None:
                assert aut._G * aut._Ginv == eye
        x = su3.basis()[rng.randrange(8)] * root_of_unity(12, rng.randrange(12))
        assert Ai.apply_matrix(A.apply_matrix(x)) == x


def test_d4_triality_descent(monkeypatch):
    """Every group matrix descended from a triality-realized so(8) table
    entry implements its operator and is orthogonal."""
    from kmaut import autg
    from kmaut.loopaut import invariant_first_kind, invariant_second_kind
    from kmaut.tables import (enumerate_first_kind, enumerate_second_kind,
                              realize_entry, valid_ks)
    so8 = make_algebra("d", 4, "compact")
    seen = []
    descend = autg._descend_to_group

    def recording(aut):
        G = descend(aut)
        seen.append((aut.operator(), G))
        return G

    monkeypatch.setattr(autg, "_descend_to_group", recording)
    for k in valid_ks(so8):
        for e in enumerate_first_kind(so8, k).entries:
            invariant_first_kind(realize_entry(so8, e))
        for e in enumerate_second_kind(so8, k).entries:
            invariant_second_kind(realize_entry(so8, e))
    assert seen
    for op, G in seen:
        assert G * G.transpose() == CycloMatrix.identity(8)
        Gi = G.inverse()
        for b in so8.basis():
            ents, den = op.matvec(so8.coords(b))
            assert ents and all(any(v) for v in ents.values())
            img = so8.from_coords((ents, den), op.N)
            assert G * b * Gi == img
