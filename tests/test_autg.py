import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kmaut.algebra import j_matrix, make_algebra, tau_matrix
from kmaut.autg import (
    Automorphism,
    InvLabel,
    _is_unit,
    group_inverse,
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
from kmaut.errors import (InvalidLabel, MalformedData,
                          NotInvolution, OrderExceedsBound)
from kmaut.pi0 import component_signature, pi0_table
from kmaut.selftest import random_inner_automorphism, random_inner_matrix


def test_standard_involutions_square_to_identity():
    """Every class label of the classical acceptance algebras parses back
    from its name, and its standard involution squares to the identity,
    sits at the label's outer word and is classified as the label."""
    from kmaut.selftest import acceptance_algebras
    for alg in acceptance_algebras():
        if alg.is_exceptional:
            continue
        for lab in standard_labels(alg):
            assert parse_label(alg, repr(lab)) == lab
            phi = standard_involution(alg, lab)
            assert phi.compose(phi).is_identity(), (alg, lab)
            assert phi.label == repr(lab)
            assert phi.word() == label_out_word(alg, lab)
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
    op = th.operator()
    assert op.n - (op - CycloMatrix.identity(op.n)).rank() == 14
    # bracket preservation on sampled pairs
    rng = random.Random(8)
    basis = so8.basis()
    for _ in range(10):
        x = basis[rng.randrange(28)]
        y = basis[rng.randrange(28)]
        lhs = th.apply_matrix(so8.bracket_matrix(x, y))
        rhs = so8.bracket_matrix(th.apply_matrix(x), th.apply_matrix(y))
        assert lhs == rhs


def test_triality_powers_take_at_most_one_product(monkeypatch):
    """theta^e is the unit matrix with w = e, built with no product; its
    operator is the cached operator, or that operator's square."""
    from kmaut.autg import _triality_operator
    so8 = make_algebra("d", 4, "compact")
    op = _triality_operator()
    calls = []
    mul = CycloMatrix.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycloMatrix, "__mul__", counting)
    for power in (1, 2):
        calls.clear()
        theta = triality_automorphism(so8, power)
        assert calls == [], power
        assert theta.parts() == (CycloMatrix.identity(8), power)
    monkeypatch.undo()
    for power, want in ((1, op), (2, op * op)):
        assert triality_automorphism(so8, power).operator() == want


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


def test_label_parse_fixes():
    """a1 has no mu o Ad J class (muAdJ used to parse to rho3), and a label
    that is no integer fails as an invalid label on exceptional algebras too
    (it was a bare ValueError)."""
    su2 = make_algebra("a", 1, "compact")
    assert parse_label(su2, "mu") == InvLabel(1)
    for text in ["muAdJ", "mu*adj", "rho3"]:
        with pytest.raises(InvalidLabel):
            parse_label(su2, text)
    for fam in ("e6", "e7", "e8", "f4", "g2"):
        alg = make_algebra(fam, None, "compact")
        for text in ["rho", "rhox", "rhox'", "rho1'", "mu"]:
            with pytest.raises(InvalidLabel):
                parse_label(alg, text)
        assert parse_label(alg, "rho1") == InvLabel(1)
    # only the printed form of rho<p> parses (int() took all four as rho1)
    su3 = make_algebra("a", 2, "compact")
    for text in ["rho 1", "rho+1", "rho01", "rho\u0661"]:
        with pytest.raises(InvalidLabel):
            parse_label(su3, text)
    for text in ["rho1", "RHO1", " Rho1 "]:
        assert parse_label(su3, text) == InvLabel(1)


def test_primed_so8_classes_are_fresh():
    """A primed so(8) class is built once per algebra, but every call returns
    a new Automorphism equal to theta^e rho_p theta^-e: each caller labels
    and fills its own map, which shares the one matrix made."""
    so8 = make_algebra("d", 4, "compact")
    for p in (1, 2, 3):
        base = standard_involution(so8, InvLabel(p))
        for e in (1, 2):
            lab = InvLabel(p, e)
            want = triality_automorphism(so8, e).compose(base).compose(
                triality_automorphism(so8, -e))
            a, b = standard_involution(so8, lab), standard_involution(so8, lab)
            assert a is not b and a == b == want
            assert a.label == b.label == repr(lab)
            assert a.parts()[0] is b.parts()[0]
            assert a.eigenbases is not b.eigenbases


_OLD_FORMAT = Path(__file__).parent / "golden" / "old-format-maps.json"


def _old_format():
    """[{"invariant", "changed", "map"}]: the JSON of realized classes as
    older files hold it, so(8) maps made with the triality as operators,
    some with a matrix rescaled or promoted ("changed" says how)."""
    return json.loads(_OLD_FORMAT.read_text())


def test_old_format_maps_read_back_as_the_realized_maps():
    """Each map of the old-format fixture reads back to a map == the
    realization of its invariant, with the same invariant, and is written
    again with the bytes of that realization; an so(8) map made with theta
    is written in the operator form of the fixture, its matrix, now sparse,
    reading back to the conductor, denominator and rows of the fixture's
    nested list."""
    from kmaut.loopaut import StandardLoopAutomorphism, invariant
    from kmaut.tables import invariant_from_json, realize
    ops = 0
    for case in _old_format():
        old = StandardLoopAutomorphism.from_json(case["map"])
        new = realize(invariant_from_json(case["invariant"]))
        assert old == new and invariant(old) == invariant(new), case["invariant"]
        assert json.dumps(old.to_json()) == json.dumps(new.to_json())
        for key in ("twist", "phi0"):
            want = case["map"][key]
            if want["rep"] == "operator":
                ops += 1
                got = getattr(new, key).to_json()
                assert dict(got, matrix=None) == dict(want, matrix=None)
                A, B = (CycloMatrix.from_json(x["matrix"], 28)
                        for x in (got, want))
                assert (A.N, A.den, A.rows) == (B.N, B.den, B.rows)
    assert ops == 4


def test_operator_inverse_is_carried():
    """An so(8) operator map read from JSON keeps the inverse of the matrix
    it descends to, and its inverse map has the inverse operator, for the
    complex-linear realized (rho1, rho1') twist at k = 3 and for its
    conjugate-linear variant."""
    from kmaut.loopaut import SecondKindInvariant
    from kmaut.tables import realize
    so8 = make_algebra("d", 4, "compact")
    inv = SecondKindInvariant(so8, 2, (InvLabel(1), InvLabel(1, 1)), 3)
    obj = realize(inv).twist.to_json()
    assert obj["rep"] == "operator"
    for conj in (False, True):
        A = Automorphism.from_json(dict(obj, conj_linear=conj))
        assert A.parts()[1] and isinstance(A._inv, CycloMatrix)
        assert A.parts()[0] * A._inv == CycloMatrix.identity(8)
        L = A.operator()
        B = A.inverse()
        assert B.operator() == (L.inverse().conj() if conj else L.inverse())
        assert A.compose(B).is_identity() and B.compose(A).is_identity()


def _k3_twist():
    """The operator twist of the realized so(8) pair (rho1, rho1') at k = 3."""
    from kmaut.loopaut import SecondKindInvariant
    from kmaut.tables import realize
    so8 = make_algebra("d", 4, "compact")
    return realize(SecondKindInvariant(so8, 2, (InvLabel(1), InvLabel(1, 1)),
                                       3)).twist


def test_operator_maps_parse():
    """theta, theta^2, the primed so(8) involutions and the k = 3 twist keep
    the bracket, so each reads back as itself."""
    so8 = make_algebra("d", 4, "compact")
    maps = [triality_automorphism(so8), triality_automorphism(so8, 2),
            _k3_twist()]
    maps += [standard_involution(so8, InvLabel(p, e))
             for p in (1, 2, 3) for e in (1, 2)]
    for phi in maps:
        obj = phi.to_json()
        assert obj["rep"] == "operator"
        assert Automorphism.from_json(obj) == phi


def test_operator_off_the_bracket_is_refused():
    """D L D^-1 for D = diag(2, 1, ..., 1) is invertible, of the same order
    and outer power as L, but not an automorphism: it fails at parse."""
    from kmaut.cyclo import CycloMatrix
    twist = _k3_twist()
    L = twist.operator()
    D = CycloMatrix.diag([2] + [1] * (L.n - 1))
    obj = dict(twist.to_json(), matrix=(D * L * D.inverse()).to_json())
    with pytest.raises(MalformedData, match="operator matrix is not an "
                                            "automorphism of d4"):
        Automorphism.from_json(obj)


def test_operator_is_checked_on_every_column():
    """The descent reads the images of eight basis elements only; a change
    to the image of any one basis element is still refused, in an operator
    with no triality part (where the descent reads the operator itself), in
    the k = 3 twist and in theta."""
    so8 = make_algebra("d", 4, "compact")
    th = triality_automorphism(so8)
    inner = standard_involution(so8, "rho1").compose(th.compose(th.inverse()))
    assert inner.parts()[1] == 0
    for phi in (inner, _k3_twist(), th):
        L = phi.operator()
        for k in range(L.n):
            rows = [[L.entry(i, j) * (2 if j == k else 1) for j in range(L.n)]
                    for i in range(L.n)]
            obj = dict(phi.to_json(),
                       matrix=CycloMatrix.from_scalars(rows).to_json())
            with pytest.raises(MalformedData, match="operator matrix is not"):
                Automorphism.from_json(obj)


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
            assert aut._G * aut._ginv() == eye
        x = su3.basis()[rng.randrange(8)] * root_of_unity(12, rng.randrange(12))
        assert Ai.apply_matrix(A.apply_matrix(x)) == x


def test_d4_triality_descent():
    """Every so(8) table entry realized through the triality holds, as
    realized and as read back from the operator it writes, a matrix G with
    G G^T = I and Ad(G) o theta^w equal to that operator on every basis
    element."""
    from kmaut.tables import (enumerate_first_kind, enumerate_second_kind,
                              realize_entry, valid_ks)
    so8 = make_algebra("d", 4, "compact")
    seen = 0
    for k in valid_ks(so8):
        for row in (enumerate_first_kind(so8, k), enumerate_second_kind(so8, k)):
            for e in row.entries:
                phi = realize_entry(so8, e)
                for key in ("phi0", "twist"):
                    obj = phi.to_json()[key]
                    if obj["rep"] != "operator":
                        continue
                    op = CycloMatrix.from_json(obj["matrix"], so8.dim)
                    for aut in (getattr(phi, key), Automorphism.from_json(obj)):
                        G, w = aut.parts()
                        assert G * G.transpose() == CycloMatrix.identity(8)
                        Gi, theta = G.inverse(), triality_automorphism(so8, w)
                        for b in so8.basis():
                            img = so8.from_coords(op.matvec(so8.coords(b)), op.N)
                            assert G * theta.apply_matrix(b) * Gi == img
                        seen += 1
    assert seen


def _octonion_product(x, y):
    """xy for octonions given as 8 rational coordinates."""
    from kmaut.autg import _octonion_table
    out = [Fraction(0)] * 8
    for (i, j), (k, s) in _octonion_table().items():
        if x[i] and y[j]:
            out[k] += s * x[i] * y[j]
    return out


def _apply_so8(coords, x):
    """A x for the so(8) element with the given coordinates at the pairs
    (i < j): A[i][j] = c, A[j][i] = -c."""
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    out = [Fraction(0)] * 8
    for (i, j), c in zip(pairs, coords):
        out[i] += c * x[j]
        out[j] -= c * x[i]
    return out


def test_local_triality_satisfies_the_octonion_identity():
    """a(xy) = a'(x) y + x a''(y) for every basis element a of so(8) and
    every pair of basis octonions x, y: the content of the local triality
    pair, checked by octonion products."""
    from kmaut.autg import _local_triality, _triality_operator
    T1, T2 = _local_triality()
    assert _triality_operator() == T1 * T2
    unit = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
    for m in range(28):
        a = [Fraction(int(k == m)) for k in range(28)]
        a1 = [T1.entry(k, m).as_fraction() for k in range(28)]
        a2 = [T2.entry(k, m).as_fraction() for k in range(28)]
        for x in unit:
            for y in unit:
                lhs = _apply_so8(a, _octonion_product(x, y))
                rhs = [s + t for s, t in
                       zip(_octonion_product(_apply_so8(a1, x), y),
                           _octonion_product(x, _apply_so8(a2, y)))]
                assert lhs == rhs, m


def _rotation(m, i, j):
    """The rational rotation by (3/5, 4/5) in the plane of axes i and j."""
    rows = [[Fraction(int(a == b)) for b in range(m)] for a in range(m)]
    rows[i][i] = rows[j][j] = Fraction(3, 5)
    rows[i][j], rows[j][i] = Fraction(4, 5), Fraction(-4, 5)
    return CycloMatrix.from_scalars(rows)


def test_dense_adj_classes_of_d12_read_at_once():
    """AdJ and AdJ' of d12, conjugated by a rotation that fills G, keep
    their classes, and each is read in under 0.3 s: the pfaffian of G is
    eliminated, where its expansion over index subsets took 3.1 s."""
    so24 = make_algebra("d", 12, "compact")
    m = so24.size
    O = CycloMatrix.identity(m)
    for i in range(m - 1):
        O = _rotation(m, i, i + 1) * O * _rotation(m, i, i + 1)
    for label in ("AdJ", "AdJ'"):
        phi = standard_involution(so24, label)
        G = O * phi.parts()[0] * O.transpose()
        assert sum(map(len, G.rows)) == m * m - m
        start = time.perf_counter()
        got = involution_int_class(Automorphism(so24, G))
        assert time.perf_counter() - start < 0.3
        assert got == involution_int_class(phi), label


def test_a_map_at_conductor_840_is_written_at_once():
    """An a5 map whose G carries a zeta_840 factor is written in under
    50 ms, its least conductor found by the Galois fixed-field test where
    one restriction per divisor of 840 took 0.5 s; the written matrix is G
    over its first entry, at conductor 840."""
    a5 = make_algebra("a", 5, "compact")
    G = random_inner_matrix(a5, random.Random(1)) * CycloMatrix.diag(
        [root_of_unity(840, 1)] + [1] * 5)
    phi = Automorphism(a5, G)
    start = time.perf_counter()
    obj = phi.to_json()
    assert time.perf_counter() - start < 0.05
    M = CycloMatrix.from_json(obj["matrix"], 6)
    i, j, _ = obj["matrix"]["entries"][0]
    assert M.N == 840 and M.entry(i, j) == 1 and M * G.entry(i, j) == G


def test_triality_operator_matches_its_golden_digest():
    """The triality operator equals its recorded copy: rows, denominator
    and conductor, through the sha256 of its JSON."""
    import hashlib
    from pathlib import Path
    from kmaut.autg import _triality_operator
    golden = json.loads((Path(__file__).parent / "golden"
                         / "triality-operator.json").read_text())
    op = _triality_operator()
    assert (op.den, op.N) == (golden["den"], golden["conductor"])
    digest = hashlib.sha256(json.dumps(op.to_json()).encode()).hexdigest()
    assert digest == golden["sha256"]


def _counting(monkeypatch, module, names):
    calls = {name: 0 for name in names}
    for name in names:
        fn = getattr(module, name)

        def wrapped(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
    return calls


def test_triality_operator_needs_no_elimination(monkeypatch):
    from kmaut import linalg
    from kmaut.autg import _triality_operator
    calls = _counting(monkeypatch, linalg, ["rref", "relations"])
    _triality_operator.cache_clear()
    _triality_operator()
    assert calls == {"rref": 0, "relations": 0}


def _conjugated_inner_maps(so8, rng, count):
    """The factors of g theta h theta^-1 g^-1, g a random inner automorphism
    and h Ad exp(2 pi i t W) of conductor above 1."""
    theta = triality_automorphism(so8)
    out = []
    for t in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 8))[:count]:
        g = random_inner_automorphism(so8, rng)
        W = so8.torus_element([rng.randint(-2, 2) for _ in range(4)])
        h = Automorphism(so8, W.exp_2pi(t))
        out.append([g, theta, h, theta.inverse(), g.inverse()])
    return out


def _product_of(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out.compose(f)
    return out


def test_descent_recovers_conjugated_maps_at_higher_conductor():
    """g theta h theta^-1 g^-1, h of conductor above 1, is a group matrix
    (w = 0) at that conductor, which moves all 28 basis elements as the
    factors do one after another."""
    so8 = make_algebra("d", 4, "compact")
    for factors in _conjugated_inner_maps(so8, random.Random(37), 3):
        L = _product_of(factors)
        G, w = L.parts()
        assert w == 0 and G.N > 1
        for b in so8.basis():
            x = b
            for f in reversed(factors):
                x = f.apply_matrix(x)
            assert L.apply_matrix(b) == x


def test_descent_needs_no_elimination(monkeypatch):
    """Moving a group matrix past theta, as that product does, runs no
    elimination once the factors' outer words, which it reads, are known."""
    from kmaut import linalg
    so8 = make_algebra("d", 4, "compact")
    factors, = _conjugated_inner_maps(so8, random.Random(3), 1)
    for f in factors:
        f.word()
    calls = _counting(monkeypatch, linalg, ["rref", "relations"])
    _product_of(factors)
    assert calls == {"rref": 0, "relations": 0}


def test_triality_does_not_descend():
    """theta and theta^2 written with any word but their own, the word of
    an inner map among them, are refused at parse, naming the word."""
    from itertools import permutations
    so8 = make_algebra("d", 4, "compact")
    for power in (1, 2):
        theta = triality_automorphism(so8, power)
        obj = theta.to_json()
        for word in map(list, permutations(range(3))):
            bad = dict(obj, outer_power=word)
            if word == obj["outer_power"]:
                assert Automorphism.from_json(bad) == theta
                continue
            with pytest.raises(MalformedData, match="outer_power"):
                Automorphism.from_json(bad)


_FORM_ALGEBRAS = [("b", 2), ("b", 3), ("b", 4), ("c", 3), ("c", 4), ("d", 4),
                  ("d", 5)]


def _scale(index, q):
    """1, a rational q, zeta_4 or zeta_4 q."""
    return [1, q, root_of_unity(4, 1), root_of_unity(4, 1) * q][index]


def test_group_inverse_matches_elimination():
    """On b, c and d the inverse read from the defining form is the
    eliminated one, also for scaled group matrices."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from(_FORM_ALGEBRAS), st.integers(0, 3),
               st.fractions(min_value=-5, max_value=5, max_denominator=6)
               .filter(bool), st.integers(0, 2**32 - 1))
    def check(fam_n, scale, q, seed):
        alg = make_algebra(*fam_n, "compact")
        G = random_inner_matrix(alg, random.Random(seed)) * _scale(scale, q)
        assert group_inverse(alg, G) == G.inverse()

    check()


@pytest.mark.parametrize("fam,n", _FORM_ALGEBRAS[::2] + [("a", 2)])
def test_group_inverse_rejects_matrices_outside_the_group(fam, n):
    """A matrix off the group by one entry, or singular, is MalformedData
    naming the matrix, from group_inverse and from the JSON reader."""
    alg = make_algebra(fam, n, "compact")
    G = random_inner_matrix(alg, random.Random(3))
    rows = [[Fraction(int(i == j == 0)) for j in range(G.n)]
            for i in range(G.n)]
    singular = G - CycloMatrix.from_scalars(rows) * G
    # the zero matrix has A G = 0 I, a scalar but not a nonzero one
    bad = [singular, CycloMatrix.zeros(G.n)]
    if fam != "a":
        rows[0][0], rows[0][1] = Fraction(0), Fraction(1, 3)
        bad.append(G + CycloMatrix.from_scalars(rows))
    for M in bad:
        with pytest.raises(MalformedData, match="matrix"):
            group_inverse(alg, M)
        obj = Automorphism(alg, G).to_json()
        obj["matrix"] = M.to_json()
        with pytest.raises(MalformedData, match="matrix"):
            Automorphism.from_json(obj)


def _known_inverse(alg, rng, w, conj):
    A = Automorphism(alg, random_inner_matrix(alg, rng), w=w, conj=conj)
    A._ginv()
    return A


@pytest.mark.parametrize("fam,n,w,conj", [
    ("a", 3, 0, False), ("a", 3, 1, False), ("a", 3, 0, True),
    ("a", 3, 1, True), ("c", 3, 0, False), ("c", 3, 0, True)])
def test_carried_inverse_in_each_compose_branch(fam, n, w, conj):
    """self's w and conj pick the transport of the other factor; when both
    factors know their inverses, the product holds a function that makes its
    inverse from them on first use, which equals the eliminated inverse of
    the product and then takes its place (a random matrix may be the unit,
    and then the product is the other factor, with its inverse made)."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    alg = make_algebra(fam, n, "compact")

    @hyp.settings(max_examples=15, deadline=None)
    @hyp.given(st.integers(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
    def check(w2, conj2, seed):
        rng = random.Random(seed)
        A = _known_inverse(alg, rng, w, conj)
        B = _known_inverse(alg, rng, w2 if fam == "a" else 0, conj2)
        P = A.compose(B)
        # a plain identity factor (complex-linear, w = 0, the unit as its G)
        # hands over the other one's made inverse
        assert callable(P._inv) != any(not (f.conj or f._w) and _is_unit(f._G)
                                       for f in (A, B))
        assert P._ginv() == P._G.inverse()
        assert isinstance(P._inv, CycloMatrix)

    check()


def test_no_carried_inverse_without_both_factors():
    rng = random.Random(2)
    a3 = make_algebra("a", 3, "compact")
    A = _known_inverse(a3, rng, 0, False)
    B = Automorphism(a3, random_inner_matrix(a3, rng))
    assert A.compose(B)._inv is None
    assert B.compose(A)._inv is None
    P = A.compose(B)
    assert P._ginv() == P._G.inverse()


def test_operator_product_carries_its_inverse(monkeypatch):
    """A product of so(8) maps with a triality part (theta, a primed class,
    a conjugate-linear one and a complex rotation) inverts with no
    elimination, and the inverse has the inverse operator."""
    so8 = make_algebra("d", 4, "compact")
    theta = triality_automorphism(so8)
    theta._ginv()
    rho = standard_involution(so8, InvLabel(1, 1))
    rho_bar = Automorphism.from_json(dict(rho.to_json(), conj_linear=True))
    # Ad of a complex rotation in the (0, 1) plane: (5/4)^2 + (3i/4)^2 = 1
    a, b = Fraction(5, 4), root_of_unity(4, 1) * Fraction(3, 4)
    rows = [[int(i == j) for j in range(8)] for i in range(8)]
    rows[0][:2], rows[1][:2] = [a, b], [-b, a]
    g = Automorphism(so8, CycloMatrix.from_scalars(rows))
    assert g.operator() != g.operator().conj()
    g._ginv()
    products = [theta.compose(rho), rho.compose(theta),
                theta.compose(rho_bar), rho_bar.compose(theta),
                rho_bar.compose(g), g.compose(rho_bar)]
    # the operator of (L o omega)^-1 is conj(L^-1)
    want = [P.operator().inverse().conj() if P.conj
            else P.operator().inverse() for P in products]
    calls = []
    eliminate = CycloMatrix.inverse

    def counting(M):
        calls.append(M.n)
        return eliminate(M)

    monkeypatch.setattr(CycloMatrix, "inverse", counting)
    for P, Li in zip(products, want):
        Q = P.inverse()
        assert Q.operator() == Li
        assert P.compose(Q).is_identity() and Q.compose(P).is_identity()
    assert calls == []


def test_operator_of_a_group_map_is_kept(monkeypatch):
    """operator() builds the basis images of a group-form map once."""
    so8 = make_algebra("d", 4, "compact")
    phi = standard_involution(so8, "rho2")
    calls = []
    build = type(so8).coords_operator

    def counting(alg, mats):
        calls.append(len(mats))
        return build(alg, mats)

    monkeypatch.setattr(type(so8), "coords_operator", counting)
    assert phi.operator() is phi.operator()
    assert calls == [28]
    assert phi.to_json()["rep"] == "group"


def _maps_for_power():
    rng = random.Random(11)
    a3 = make_algebra("a", 3, "compact")
    c3 = make_algebra("c", 3, "compact")
    so8 = make_algebra("d", 4, "compact")
    return [Automorphism(a3, random_inner_matrix(a3, rng), w=1, conj=True),
            Automorphism(a3, random_inner_matrix(a3, rng), w=1),
            random_inner_automorphism(c3, rng),
            standard_involution(so8, "rho1"),
            triality_automorphism(so8)]


@pytest.mark.parametrize("index", range(5))
def test_power_is_repeated_compose(index):
    phi = _maps_for_power()[index]
    step = phi
    for k in range(-4, 10):
        if k < 0:
            step = phi.inverse()
        ref = identity_automorphism(phi.algebra)
        for _ in range(abs(k)):
            ref = ref.compose(step if k < 0 else phi)
        assert phi.power(k) == ref, k
    assert phi.power(1) is phi


def test_power_follows_the_binary_expansion(monkeypatch):
    """power(k) makes bit_length(k) - 1 squarings and popcount(k) - 1
    products, no more."""
    phi = _maps_for_power()[0]
    calls = []
    compose = Automorphism.compose

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Automorphism, "compose", counting)
    for k in range(1, 40):
        calls.clear()
        phi.power(k)
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k


@pytest.mark.parametrize("n", [4, 5])
def test_d_word_ignores_the_scale(n):
    """G, 2G and zeta_4 G are one map of so(2n): one word, one outer
    order, one hash, also read back from JSON."""
    rng = random.Random(n)
    alg = make_algebra("d", n, "compact")
    labels = ["rho1", "rho2", "rho3"] + (["AdJ"] if n == 5 else ["rho4"])
    Gs = [standard_involution(alg, lab).parts()[0] for lab in labels]
    Gs.append(random_inner_matrix(alg, rng))
    Gs.append(Gs[0] * random_inner_matrix(alg, rng))
    for G in Gs:
        maps = [Automorphism(alg, G * s)
                for s in (1, 2, root_of_unity(4, 1), Fraction(-1, 3))]
        obj = maps[0].to_json()
        obj["matrix"] = (G * 2).to_json()
        maps.append(Automorphism.from_json(obj))
        for phi in maps[1:]:
            assert phi == maps[0]
            assert phi.word() == maps[0].word()
            assert phi.out_order() == maps[0].out_order()
            assert hash(phi) == hash(maps[0])
    assert Automorphism(alg, Gs[0] * 2).word() != Automorphism(alg, Gs[1]).word()


@pytest.mark.parametrize("fam,n", [("b", 2), ("c", 3), ("d", 4), ("d", 5)])
def test_involution_class_ignores_the_scale(fam, n):
    """G, 2G, -G/3 and zeta_4 G are one involution: every class, the so(8)
    ones with a triality part included, reads as itself at each scale."""
    alg = make_algebra(fam, n, "compact")
    for lab in standard_labels(alg):
        G, w = standard_involution(alg, lab).parts()
        for s in (1, 2, Fraction(-1, 3), root_of_unity(4, 1)):
            phi = Automorphism(alg, G * s, w=w)
            assert involution_int_class(phi) == lab, (lab, s)


# sqrt 2 = zeta_8 + zeta_8^-1
_SQRT2 = root_of_unity(8, 1) + root_of_unity(8, 7)


@pytest.mark.parametrize("fam,n", [("a", 3), ("b", 2), ("c", 3), ("d", 4),
                                   ("d", 5)])
def test_scaled_first_kind_entry_reads_back(fam, n):
    """Every realized first-kind entry with its phi0 matrix, or its twist's,
    scaled in JSON by 2, i, -1, 1/3, 3 zeta_3, 1 + i or sqrt 2 has the
    invariant of the entry: every rule reads ratios, with no square root of
    a scalar that Q(zeta) may not hold."""
    from kmaut.loopaut import StandardLoopAutomorphism, invariant
    from kmaut.tables import (enumerate_first_kind, realize_entry,
                              valid_ks)

    alg = make_algebra(fam, n, "compact")
    scales = (2, root_of_unity(4, 1), -1, Fraction(1, 3),
              root_of_unity(3, 1) * 3, 1 + root_of_unity(4, 1), _SQRT2)
    for k in valid_ks(alg):
        for entry in enumerate_first_kind(alg, k).entries:
            phi = realize_entry(alg, entry)
            want = invariant(phi)
            for key in ("phi0", "twist"):
                if phi.to_json()[key]["rep"] != "group":
                    continue
                for s in scales:
                    obj = phi.to_json()
                    G = CycloMatrix.from_json(obj[key]["matrix"], alg.size)
                    obj[key]["matrix"] = (G * s).to_json()
                    got = invariant(StandardLoopAutomorphism.from_json(obj))
                    assert got == want, (entry, key, s)


def test_scale_without_a_known_root_is_never_misread():
    """A phi0 scaled by 1 + i has the scalar 2i, which is not a rational
    square times a root of unity.  No rule takes a root, so every family's
    entry reads back as itself."""
    from kmaut.loopaut import StandardLoopAutomorphism, invariant
    from kmaut.tables import realize_entry

    for fam, n, entry in (("a", 3, ("1a", InvLabel(2), "mu")),
                          ("b", 2, ("1a", InvLabel(1), "id")),
                          ("c", 3, ("1a", InvLabel(1), "id")),
                          ("d", 5, ("1a", InvLabel(2), "id"))):
        phi = realize_entry(make_algebra(fam, n, "compact"), entry)
        obj = phi.to_json()
        G = CycloMatrix.from_json(obj["phi0"]["matrix"], phi.algebra.size)
        obj["phi0"]["matrix"] = (G * (1 + root_of_unity(4, 1))).to_json()
        got = invariant(StandardLoopAutomorphism.from_json(obj))
        assert got == invariant(phi), entry


def _hadamard_case(n):
    """(so(2n), H x E_n, E_2 x D) for H = [[1, 1], [1, -1]], whose form
    scalar 2 has no square root in Q, and D = diag(-1, 1, ..., 1)."""
    def kron(X, Y):
        return CycloMatrix.from_scalars([[x * y for x in xrow for y in yrow]
                                         for xrow in X for yrow in Y])
    E = [[int(i == j) for j in range(n)] for i in range(n)]
    D = [[-x if i == 0 else x for x in row] for i, row in enumerate(E)]
    return (make_algebra("d", n, "compact"), kron([[1, 1], [1, -1]], E),
            kron([[1, 0], [0, 1]], D))


@pytest.mark.parametrize("n,flip", [(4, "AdJ"), (6, "rho1*tau7")])
def test_unit_matrix_outside_the_field_reads_its_component(n, flip):
    """rho = Ad(H x E) is traceless with S^2 = 2 E, so its unit involution
    S / sqrt 2 is not over Q.  beta = Ad(E x E) and Ad(H x E) lie in the id
    component, Ad(E x D) and Ad(H x D) in the one whose eigenblock
    determinants are both -1."""
    alg, HE, ED = _hadamard_case(n)
    rho = Automorphism(alg, HE)
    lab = InvLabel(n)
    for B, want in ((CycloMatrix.identity(2 * n), "id"), (HE, "id"),
                    (ED, flip), (HE * ED, flip)):
        cls = component_signature(rho, Automorphism(alg, B))
        assert (cls.rho, cls.rep) == (lab, want), (B, cls)


def test_descended_unit_matrix_outside_the_field_reads_its_component():
    """The same rho on so(8) read from JSON as an operator descends to a
    matrix at the scale the solve gives it, which no rule normalizes; the
    signature rule reads it too when no class was read first."""
    from kmaut.pi0 import raw_signature
    alg, HE, ED = _hadamard_case(4)
    rho = Automorphism(alg, HE)

    def op():
        return Automorphism.from_json(dict(
            rho.to_json(), rep="operator", outer_power=[0, 1, 2],
            matrix=rho.operator().to_json()))
    cls = component_signature(op(), Automorphism(alg, ED))
    assert (cls.rho, cls.rep) == (InvLabel(4), "AdJ")
    assert raw_signature(op(), Automorphism(alg, ED)) == (1, (-1, -1))


@pytest.mark.parametrize("fam,n", [("b", 2), ("c", 3), ("d", 5)])
def test_parsed_involution_class_forms_no_form_product(fam, n, monkeypatch):
    """A b, c or d involution read from JSON keeps its inverse, which holds
    its form scalar: its class takes one matrix product, G G, which is also
    the involution test, at any scale."""
    from kmaut import kernel
    alg = make_algebra(fam, n, "compact")
    calls = []
    matmul = kernel.matmul

    def counting(*args):
        calls.append(1)
        return matmul(*args)

    for lab in standard_labels(alg):
        G = standard_involution(alg, lab).parts()[0]
        for s in (1, 1 + root_of_unity(4, 1)):
            phi = Automorphism.from_json(Automorphism(alg, G * s).to_json())
            monkeypatch.setattr(kernel, "matmul", counting)
            calls.clear()
            assert involution_int_class(phi) == lab, (lab, s)
            assert len(calls) == 1, (lab, s)
            monkeypatch.setattr(kernel, "matmul", matmul)


@pytest.mark.parametrize("fam,n", _FORM_ALGEBRAS)
def test_form_scalar_is_read_off_the_kept_inverse(fam, n, monkeypatch):
    """_form_scalar gives the s of G^T J G = s J (J = I on so(m)) with no
    matrix product, on random group matrices at several scales."""
    from kmaut import kernel
    from kmaut.autg import _form_scalar
    alg = make_algebra(fam, n, "compact")
    J = j_matrix(n) if fam == "c" else CycloMatrix.identity(alg.size)
    rng = random.Random(n)
    cases = []
    for _ in range(3):
        G0 = random_inner_matrix(alg, rng)
        for scale in (1, 2, 1 + root_of_unity(4, 1), _SQRT2,
                      root_of_unity(3, 1) * Fraction(-1, 3)):
            phi = Automorphism(alg, G0 * scale)
            phi._ginv()
            # read s off the inverse, not the value group_inverse kept
            phi._s = None
            G = phi._G
            cases.append((phi, (G.transpose() * J * G * J.transpose()).is_scalar()))

    def no_product(*args):
        raise AssertionError("a matrix product")

    monkeypatch.setattr(kernel, "matmul", no_product)
    for phi, want in cases:
        assert want is not None and _form_scalar(phi) == want


@pytest.mark.parametrize("fam,n", _FORM_ALGEBRAS)
def test_form_scalar_is_found_once_per_automorphism(fam, n, monkeypatch):
    """A parsed map keeps the s that group_inverse found (A G = s I), and a
    product of two such maps, complex-linear on the left, the product of
    theirs: neither pays a scalar inverse for it.  Any other map, such as
    the product with a conjugate-linear map on the left, pays one on the
    first read and none after."""
    from kmaut.autg import _form_scalar
    from kmaut.cyclo import CycloScalar
    alg = make_algebra(fam, n, "compact")
    rng = random.Random(7 * n)
    G = random_inner_matrix(alg, rng) * (1 + root_of_unity(4, 1))
    # a file may hold G at any scale
    obj = dict(Automorphism(alg, G).to_json(), matrix=G.to_json())
    parsed = Automorphism.from_json(obj)
    product = parsed.compose(parsed)
    made = Automorphism.from_json(dict(obj, conj_linear=True)).compose(parsed)
    made._ginv()
    want = [_form_scalar(Automorphism(alg, G)),
            _form_scalar(Automorphism(alg, product._G)),
            _form_scalar(Automorphism(alg, made._G))]
    inverses = []

    def counting(self, _inverse=CycloScalar.inverse):
        inverses.append(self)
        return _inverse(self)

    monkeypatch.setattr(CycloScalar, "inverse", counting)
    for phi, paid, s in ((parsed, 0, want[0]), (product, 0, want[1]),
                         (made, 1, want[2])):
        inverses.clear()
        assert _form_scalar(phi) == s and _form_scalar(phi) == s
        assert len(inverses) == paid, (fam, n, phi, inverses)


@pytest.mark.parametrize("fam,n", [("b", 2), ("c", 3), ("d", 5)])
def test_compose_carries_the_form_scalar(fam, n):
    """On random b, c and d products, conjugate-linear factors included,
    the form scalar a product carries equals the one its matrix has: the
    scalar of A G = s I read off a fresh inverse.  It is carried wherever
    the left factor is complex-linear."""
    from kmaut.autg import _form_scalar, _inverse_and_scalar
    alg = make_algebra(fam, n, "compact")
    rng = random.Random(n)
    maps = []
    for conj in (False, True, False, True):
        G = random_inner_matrix(alg, rng) * _scale(rng.randrange(4), 2)
        maps.append(Automorphism.from_json(
            Automorphism(alg, G, conj=conj).to_json()))
    for A in maps:
        for B in maps:
            for P in (A.compose(B), A.compose(B).compose(A)):
                if P._s is not None:
                    assert _form_scalar(P) == _inverse_and_scalar(alg, P._G)[1]
            assert (A.compose(B)._s is not None) == (not A.conj)


def _json_text(x):
    return json.dumps(x.to_json())


def test_automorphism_json_round_trip_to_the_byte():
    """to_json -> from_json -> to_json writes the same bytes for group maps
    of every family at any scale, outer on a and conjugate-linear."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.sampled_from(_FORM_ALGEBRAS + [("a", 2), ("a", 3)]),
               st.integers(0, 3),
               st.fractions(min_value=-5, max_value=5, max_denominator=6)
               .filter(bool), st.integers(0, 1), st.booleans(),
               st.integers(0, 2**32 - 1))
    def check(fam_n, scale, q, w, conj, seed):
        alg = make_algebra(*fam_n, "compact")
        G = random_inner_matrix(alg, random.Random(seed)) * _scale(scale, q)
        text = _json_text(Automorphism(alg, G, w=w, conj=conj))
        assert _json_text(Automorphism.from_json(json.loads(text))) == text

    check()


def test_so8_operator_json_round_trip_to_the_byte():
    """The same for so(8) operators: triality, its square, and its
    composites with a group map, conjugate-linear included."""
    so8 = make_algebra("d", 4, "compact")
    th = triality_automorphism(so8)
    g = random_inner_automorphism(so8, random.Random(8))
    cg = Automorphism(so8, g.parts()[0], conj=True)
    for phi in (th, th.compose(th), th.compose(g), g.compose(th),
                th.compose(cg)):
        assert phi.to_json()["rep"] == "operator"
        text = _json_text(phi)
        assert _json_text(Automorphism.from_json(json.loads(text))) == text


def test_product_with_a_theta_identity_is_written_as_an_operator():
    """theta o theta^-1 is the plain identity, made with theta: a product
    with it, on either side, is written as an operator like the identity
    itself, and reads back to the same bytes."""
    so8 = make_algebra("d", 4, "compact")
    th = triality_automorphism(so8)
    one = th.compose(th.inverse())
    g = standard_involution(so8, "rho1")
    for phi in (one, g.compose(one), one.compose(g),
                identity_automorphism(so8).compose(one)):
        assert phi.to_json()["rep"] == "operator"
        text = _json_text(phi)
        assert _json_text(Automorphism.from_json(json.loads(text))) == text


def test_equal_maps_write_equal_json():
    """Equal unlabeled maps write the same bytes however they were
    multiplied or scaled: both bracketings of a product; G times 2, -1,
    1 + i or zeta_8; psi and phi0 o phi0^-1 o psi for a phi0 stored at
    conductor 4; and, on so(8), theta^e o g o theta^-e with g's matrix
    scaled or not.  That map, made with theta, is written as an operator;
    it reads back == the map made from the matrix that its images descend
    to."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from kmaut.autg import _descend
    scalars = [2, -1, 1 + root_of_unity(4, 1), root_of_unity(8, 1)]

    def same(x, y):
        assert x == y
        assert _json_text(x._unlabeled()) == _json_text(y._unlabeled())

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.sampled_from(_FORM_ALGEBRAS + [("a", 2), ("a", 3)]),
               st.sampled_from(scalars), st.integers(0, 1), st.booleans(),
               st.integers(0, 2**32 - 1))
    def check(fam_n, c, w, conj, seed):
        alg = make_algebra(*fam_n, "compact")
        rng = random.Random(seed)
        w = w if alg.outer == "mu" else 0

        def made(G=None, w=0, conj=False):
            G = random_inner_matrix(alg, rng) if G is None else G
            return Automorphism(alg, G, w=w, conj=conj)

        a, b, psi = made(w=w), made(conj=conj), made(w=w, conj=conj)
        same(a.compose(b).compose(psi), a.compose(b.compose(psi)))
        same(made(psi.parts()[0] * c, w, conj), psi)
        phi0 = made(random_inner_matrix(alg, rng).promote(4) * c)
        same(phi0.compose(phi0.inverse()).compose(psi), psi)
        if alg.has_triality:
            e = 1 + w + conj
            g = made(conj=conj)
            built, rebuilt = (triality_automorphism(alg, e).compose(h).compose(
                triality_automorphism(alg, -e))
                for h in (g, made(g.parts()[0] * c, conj=conj)))
            same(built, rebuilt)
            basis = alg.basis()
            G = _descend(alg, lambda k: built._apply_linear(basis[k]))
            plain = made(G * c, conj=conj)
            assert built == plain
            assert Automorphism.from_json(json.loads(_json_text(built))) == plain

    check()


def _identity_factors():
    """Factors of every kind, each with its inverse made: an a2 map with
    w = 1, labeled c3 and d5 group maps, a conjugate-linear a2 map and the
    so(8) triality operator."""
    rng = random.Random(30)
    a2 = make_algebra("a", 2, "compact")
    out = [Automorphism(a2, random_inner_matrix(a2, rng), w=1),
           standard_involution(make_algebra("c", 3, "compact"), "rho1"),
           standard_involution(make_algebra("d", 5, "compact"), "rho1"),
           Automorphism(a2, random_inner_matrix(a2, rng), conj=True),
           triality_automorphism(make_algebra("d", 4, "compact"))]
    for phi in out:
        phi._ginv()
    return out


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("side", ["left", "right"])
def test_identity_factor_forms_no_product(index, side, monkeypatch):
    """Composing with the identity on either side makes no matrix product
    and builds no coordinate operator; the result is the other factor, with
    no label, and it and its matrix invert with no elimination."""
    from kmaut import kernel
    phi = _identity_factors()[index]
    one = identity_automorphism(phi.algebra)
    calls = []
    matmul, build, eliminate = (kernel.matmul, type(phi.algebra).coords_operator,
                                CycloMatrix.inverse)
    monkeypatch.setattr(kernel, "matmul",
                        lambda *a: calls.append("matmul") or matmul(*a))
    monkeypatch.setattr(type(phi.algebra), "coords_operator",
                        lambda alg, mats: calls.append("operator")
                        or build(alg, mats))
    monkeypatch.setattr(CycloMatrix, "inverse",
                        lambda M: calls.append("inverse") or eliminate(M))
    P = one.compose(phi) if side == "left" else phi.compose(one)
    composed = calls.count("matmul"), calls.count("operator")
    Q, _ = P.inverse(), P._ginv()
    monkeypatch.undo()
    assert (composed, calls.count("inverse")) == ((0, 0), 0)
    assert P == phi and P.label is None
    assert Q == phi.inverse()


def test_target_twist_of_a_constant_curve_forms_only_the_twist_conjugate(
        monkeypatch):
    """A constant curve's e^(2 pi X) is the identity: target_twist() makes
    the products of phi0 sigma phi0^-1 and no other."""
    from kmaut import kernel
    from kmaut.loopaut import StandardLoopAutomorphism
    from kmaut.tables import enumerate_second_kind, realize_entry
    b2 = make_algebra("b", 2, "compact")
    entry = enumerate_second_kind(b2, 1).entries[-1]
    text = json.dumps(realize_entry(b2, entry).to_json())
    calls = []
    matmul = kernel.matmul
    counts = []
    for conjugate_only in (True, False):
        phi = StandardLoopAutomorphism.from_json(json.loads(text))
        assert phi.has_constant_curve() and not phi.phi0.is_identity()
        phi._target = None
        monkeypatch.setattr(kernel, "matmul",
                            lambda *a: calls.append(1) or matmul(*a))
        calls.clear()
        if conjugate_only:
            phi.phi0.compose(phi.twist.power(phi.epsilon)) \
                .compose(phi.phi0.inverse())
        else:
            phi.target_twist()
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] > 0 and counts[1] == counts[0]


def test_class_table_makes_no_so8_frame():
    """Listing the classes of so(8), their component rows included, makes
    none of the matrices of the rho4 row: they wait for its first use."""
    from kmaut.autg import _classes, _d4_frame, standard_list
    _classes.cache_clear()
    _d4_frame.cache_clear()
    d4 = make_algebra("d", 4, "complex")
    _classes(d4)
    standard_list(d4)
    assert _d4_frame.cache_info().currsize == 0


def _unit_test_pairs():
    """(left, right) factors of group form: plain maps, mu and conjugate-
    linear ones, the unit on either side and an identity at conductor 4."""
    rng = random.Random(11)
    a2, d5 = make_algebra("a", 2, "compact"), make_algebra("d", 5, "compact")
    plain = [Automorphism(a2, random_inner_matrix(a2, rng)) for _ in range(2)]
    mu = Automorphism(a2, random_inner_matrix(a2, rng), w=1)
    bar = Automorphism(a2, random_inner_matrix(a2, rng), conj=True)
    one, one4 = (Automorphism(a2, CycloMatrix.identity(3, N)) for N in (1, 4))
    return [(standard_involution(d5, "rho1"), standard_involution(d5, "rho2")),
            tuple(plain), (mu, plain[0]), (plain[0], mu), (bar, mu),
            (mu, bar), (mu, one), (one, bar), (plain[0], one4), (one4, mu)]


@pytest.mark.parametrize("index", range(10))
def test_compose_tests_each_factor_for_the_unit_once(index, monkeypatch):
    """A product of two group-form maps tests no matrix for the unit twice
    (the transported right factor is tested where it is another matrix),
    and stores the matrix that `_product` forms, at its conductor."""
    from kmaut import autg
    left, right = _unit_test_pairs()[index]
    T = autg._transport(left.algebra, left.conj, left._w, right._G,
                        right._ginv)
    want = autg._product(left._G, T).to_json()
    tested, is_unit = [], autg._is_unit
    monkeypatch.setattr(autg, "_is_unit",
                        lambda G: tested.append(id(G)) or is_unit(G))
    got = left.compose(right)
    assert len(tested) == len(set(tested)) <= 3
    assert got._G.to_json() == want
