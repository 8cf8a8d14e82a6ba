import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kmaut.algebra import SimpleAlgebra, make_algebra, sigma_eigenspace
from kmaut.autg import (
    InvLabel,
    identity_automorphism,
    omega_automorphism,
    standard_involution,
)
from kmaut.errors import NotCompactMode, UnsupportedOrder
from kmaut.loopaut import StandardLoopAutomorphism, invariant_conj_linear
from kmaut.realforms import (
    cartan_decomposition,
    check_extension_bijection,
    conj_linear_extend,
    enumerate_conj_linear,
    real_form,
    real_form_basis,
    sl2_catalogue,
)
from kmaut.tables import enumerate_second_kind, realize_entry, valid_ks


def test_conj_linear_extension_order():
    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(su2))
    ext = conj_linear_extend(one)
    assert ext.phi0.conj
    assert ext.order() == 2  # pointwise conjugation
    tau = standard_involution(su2, "rho1")
    phi = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    ext = conj_linear_extend(phi)
    assert ext.order() == 2
    refl = StandardLoopAutomorphism(iden, 1, -1, 0, None,
                                    identity_automorphism(su2))
    ext = conj_linear_extend(refl)
    assert ext.epsilon == -1  # kind preserved


def test_conj_linear_extension_needs_compact():
    sl2 = make_algebra("a", 1, "complex")
    iden = identity_automorphism(sl2)
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(sl2))
    with pytest.raises(NotCompactMode):
        conj_linear_extend(one)


def test_invariant_conj_linear_cases():
    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    om = omega_automorphism(su2)
    tau = standard_involution(su2, "rho1")
    # compact conjugation itself
    inv = invariant_conj_linear(StandardLoopAutomorphism(iden, 1, 1, 0,
                                                         None, om))
    assert inv.type == 1 and inv.base.p == 0 and inv.base.rho == InvLabel(0)
    # a type-1a noncompact form
    inv = invariant_conj_linear(StandardLoopAutomorphism(
        iden, 1, 1, 0, None, tau.compose(om)))
    assert inv.base.p == 0 and inv.base.rho == InvLabel(1)
    # translation type
    inv = invariant_conj_linear(StandardLoopAutomorphism(
        iden, 1, 1, Fraction(1, 2), None, om))
    assert inv.base.p == 1 and inv.to_json()["beta_conj"]
    # type 2
    inv = invariant_conj_linear(StandardLoopAutomorphism(
        iden, 1, -1, 0, None, om))
    assert inv.type == 2 and inv.base.pair == (InvLabel(0), InvLabel(0))


def test_extension_map_and_bijection():
    for fam, n in [("a", 1), ("a", 2), ("a", 3), ("b", 2), ("c", 3),
                   ("d", 4), ("d", 5)]:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            rep = check_extension_bijection(alg, k)
            assert rep["ok"], (fam, n, k)


def test_extension_map_values():
    su3 = make_algebra("a", 2, "compact")
    t1 = enumerate_conj_linear(su3, 1)[1]
    # contains the compact form and the real forms of each involution class
    rhos = sorted(repr(i.base.rho) for i in t1 if i.base.p == 0)
    assert "rho0" in rhos and "rho1" in rhos and "rho2" in rhos
    t2 = enumerate_conj_linear(su3, 2)[2]
    assert len(t2) == 2  # [rho_p, mu] for p = 0, 1
    # the extension map takes classes of order at most two only
    from kmaut.loopaut import ConjLinearInvariant, SecondKindInvariant
    pair = (InvLabel(0), InvLabel(1))
    with pytest.raises(UnsupportedOrder):
        ConjLinearInvariant(SecondKindInvariant(su3, 4, pair, 1))


_CONJ_LINEAR_GOLDEN = Path(__file__).parent / "golden" / "conj-linear-digests.json"


def _conj_linear_cases():
    """(key, image under the extension map, invariant of the realized
    class's extension) for every compact class of order at most two on
    a1-a5, b2-b3, c3-c4 and d4-d5 at each valid k."""
    from kmaut.loopaut import ConjLinearInvariant, invariant
    from kmaut.realforms import _classes
    from kmaut.tables import realize

    for label in ("a1", "a2", "a3", "a4", "a5", "b2", "b3", "c3", "c4",
                  "d4", "d5"):
        alg = SimpleAlgebra.from_label(label)
        for k in valid_ks(alg):
            for invs in _classes(alg, k).values():
                for inv in invs:
                    yield (" ".join([label, str(k), repr(inv)]),
                           ConjLinearInvariant(inv),
                           invariant(conj_linear_extend(realize(inv))))


def test_conj_linear_invariants_are_byte_identical_to_the_golden_digests():
    """The repr and JSON of a conjugate-linear class, built from its compact
    class by the extension map and read off the extension of its
    realization, hash to the committed digest, and the two are equal with
    equal hashes."""
    want = json.loads(_CONJ_LINEAR_GOLDEN.read_text())
    got = {}
    for key, mapped, read in _conj_linear_cases():
        assert mapped == read and hash(mapped) == hash(read), key
        text = json.dumps([repr(mapped), mapped.to_json(),
                           repr(read), read.to_json()])
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert len(want) == 259
    assert got.keys() == want.keys()
    assert [a for a in want if got[a] != want[a]] == []


def test_real_form_basis_sl2():
    sl2c = make_algebra("a", 1, "compact")
    # [id, id]: untwisted, every coefficient space 3-dimensional over R
    rb = real_form_basis(sl2c, (InvLabel(0), InvLabel(0)), N=2)
    assert set(rb.coefficient_dims().values()) == {3}
    assert rb.l == 1
    # [mu, mu] ~ [rho1, rho1]
    rb = real_form_basis(sl2c, (InvLabel(1), InvLabel(1)), N=2)
    assert set(rb.coefficient_dims().values()) == {3}
    # [mu, id]: conductor 2, dims alternate 1 (even n) and 2 (odd n)
    rb = real_form_basis(sl2c, (InvLabel(1), InvLabel(0)), N=4)
    dims = rb.coefficient_dims()
    assert rb.l == 2
    assert all(dims[n] == (1 if n % 2 == 0 else 2) for n in dims)
    assert rb.closed_under_bracket()


def test_affine_extension_conjugates_c_and_d():
    """A conjugate-linear extension sends z c to eps conj(z) c: i c goes to
    i c on the second kind and to -i c on the first."""
    from kmaut.cyclo import root_of_unity
    from kmaut.loop import AffineElement, LoopElement
    from kmaut.loopaut import affine_extend

    a1 = make_algebra("a", 1, "compact")
    i = root_of_unity(4, 1)
    for entry, image in [(("2", InvLabel(0), InvLabel(0)), i),
                         (("1a", InvLabel(1), "id"), -i)]:
        psi = conj_linear_extend(realize_entry(a1, entry))
        ext = affine_extend(psi)
        zero = LoopElement.zero(a1, psi.twist, psi.l)
        assert ext.apply(AffineElement(zero, c=i)).c == image, entry
        assert ext.apply(AffineElement(zero, d=i)).d == image, entry


@pytest.mark.parametrize("kind", [1, 2])
def test_real_form_is_fixed_by_the_extension(kind):
    """The real form of every a1 table entry of either kind, c and d
    included, is fixed by the affine extension of its conjugate-linear
    extension and closed under brackets; on the first kind each element
    pairs degrees -n and n, so its dimensions are counted at -n <= 0."""
    from kmaut.loopaut import affine_extend
    from kmaut.tables import enumerate_first_kind

    a1 = make_algebra("a", 1, "compact")
    table = enumerate_first_kind if kind == 1 else enumerate_second_kind
    for e in table(a1, 1).entries:
        phi = realize_entry(a1, e)
        rb = real_form(phi, N=2)
        ext = affine_extend(conj_linear_extend(phi))
        assert all(ext.apply(x) == x for x in rb.basis), e
        assert rb.closed_under_bracket(), e
        dims = rb.coefficient_dims()
        assert (min(dims), max(dims)) == (-2, 0 if kind == 1 else 2), e


def test_real_form_typed_errors():
    """A nonconstant curve, an automorphism of order four and an
    exceptional algebra are refused with typed errors."""
    from kmaut.errors import NotInvolution, StaticOnlyAlgebra
    from kmaut.loopaut import conjugate_exp
    from kmaut.selftest import antifixed_direction

    a1 = make_algebra("a", 1, "compact")
    phi = realize_entry(a1, ("1a", InvLabel(1), "id"))
    psi = conjugate_exp(phi, antifixed_direction(phi.phi0, random.Random(1)))
    with pytest.raises(NotCompactMode, match="curve"):
        real_form(psi)
    iden = identity_automorphism(a1)
    quarter = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 4), None, iden)
    with pytest.raises(NotInvolution):
        real_form(quarter)
    e6 = make_algebra("e6")
    with pytest.raises(StaticOnlyAlgebra, match="matrix model"):
        real_form_basis(e6, (InvLabel(1), InvLabel(0)))


def second_kind_pairs(algebras):
    """One case per second-kind table entry of the given algebras."""
    cases = []
    for family, n in algebras:
        alg = make_algebra(family, n, "compact")
        for k in valid_ks(alg):
            for e in enumerate_second_kind(alg, k).entries:
                name = "%s%d-%r-%r" % (family, n, e[1], e[2])
                cases.append(pytest.param(alg, (e[1], e[2]), id=name))
    return cases


@pytest.mark.parametrize("alg,pair", second_kind_pairs(
    [("a", 2), ("a", 3), ("b", 2), ("c", 3), ("d", 4)]))
def test_real_form_basis_second_kind_tables(alg, pair):
    """At window 1 each degree's dimension over the real field F is the
    complex dimension of the twist's eigenspace there, and the basis is
    closed under brackets; for a3 (rho1, rho4) and five d4 pairs, whose
    window field Q(zeta_8) or Q(zeta_12) has [F : Q] = 2, this needs F c
    and F d in the span."""
    rb = real_form_basis(alg, pair, N=1)
    sigma = (standard_involution(alg, pair[1]).inverse()
             .compose(standard_involution(alg, pair[0])))
    want = {n: len(sigma_eigenspace(alg, sigma, rb.l, n % rb.l))
            for n in (-1, 0, 1)}
    assert rb.coefficient_dims() == {n: d for n, d in want.items() if d}
    assert rb.closed_under_bracket()


def _pair_cases():
    """Every a1 second-kind pair, and one pair each of a3, c3 and d4 whose
    window fields are Q(zeta_8), Q(zeta_4) and Q(zeta_12)."""
    from kmaut.autg import parse_label

    cases = second_kind_pairs([("a", 1)])
    for family, n, pair in [("a", 3, "rho1,rho4"), ("c", 3, "rho1,rho2"),
                            ("d", 4, "rho1,rho2'")]:
        alg = make_algebra(family, n, "compact")
        cases.append(pytest.param(
            alg, tuple(parse_label(alg, s) for s in pair.split(",")),
            id="%s%d-%s" % (family, n, pair.replace(",", "-"))))
    return cases


@pytest.mark.parametrize("alg,pair", _pair_cases())
def test_fixed_parts_satisfy_reality_constraints(alg, pair):
    """The fixed-part bases at window 1 against the constraints that defined
    real forms before: each degree-n coefficient v of a real form basis
    element has rho+ omega(v) = v and rho- omega(zeta_(2l)^n v) =
    zeta_(2l)^n v; each compact window element is compact; and the
    extension of the realized involution fixes K and negates P."""
    from kmaut.cyclo import root_of_unity
    from kmaut.loopaut import affine_extend
    from kmaut.realforms import compact_window_basis

    om = omega_automorphism(alg)
    tplus = standard_involution(alg, pair[0]).compose(om)
    tminus = standard_involution(alg, pair[1]).compose(om)
    rb = real_form_basis(alg, pair, N=1)
    assert rb.loop_elements()
    for x in rb.loop_elements():
        for n, v in x.loop.coeffs.items():
            zv = v * root_of_unity(2 * rb.l, n % (2 * rb.l))
            assert tplus.apply_matrix(v) == v
            assert tminus.apply_matrix(zv) == zv
    phi = realize_entry(alg, ("2", *pair))
    assert all(u.is_compact()
               for u in compact_window_basis(alg, phi.twist, phi.l, 1))
    rep = cartan_decomposition(phi, N=1)
    ext = affine_extend(phi)
    assert all(ext.apply(x) == x for x in rep["K"])
    assert all(ext.apply(x) == -x for x in rep["P"])


def test_cartan_decomposition_cases():
    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(su2))
    rep = cartan_decomposition(one, N=2)
    assert len(rep["P"]) == 0 and len(rep["K"]) == 17
    assert all(rep["inclusions"].values())
    tau = standard_involution(su2, "rho1")
    phi = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    rep = cartan_decomposition(phi, N=2)
    assert len(rep["K"]) == 7 and len(rep["P"]) == 10
    assert all(rep["inclusions"].values())
    refl = StandardLoopAutomorphism(iden, 1, -1, 0, None,
                                    identity_automorphism(su2))
    rep = cartan_decomposition(refl, N=2)
    assert all(rep["inclusions"].values())
    # c and d flip sign under the second kind: they sit in P
    cd = [e for e in rep["P"] if not e.c.is_zero() or not e.d.is_zero()]
    assert len(cd) == 2
    assert len(real_form(refl, N=2).basis) == len(rep["K"]) + len(rep["P"])


def test_negative_window_is_refused():
    """A window [-N, N] with N < 0 is WindowTooSmall from real_form and
    cartan_decomposition alike, not an empty K whose inclusions all hold;
    N = 0 is the constant window."""
    from kmaut.errors import WindowTooSmall
    su2 = make_algebra("a", 1, "compact")
    phi = StandardLoopAutomorphism(identity_automorphism(su2), 1, 1, 0, None,
                                   standard_involution(su2, "rho1"))
    for build in (real_form, cartan_decomposition):
        for N in (-1, -2):
            with pytest.raises(WindowTooSmall):
                build(phi, N=N)
    rep = cartan_decomposition(phi, N=0)
    assert rep["window"] == 0 and rep["K"] and all(rep["inclusions"].values())


def test_oversized_window_is_refused_before_any_work(monkeypatch):
    """A window whose dimension over Q, (2N + 1) dim phi(M), is above
    MAX_WINDOW_DIM is WindowTooLarge from real_form and cartan_decomposition
    alike, before the extension that starts their work; the largest N
    within the bound passes the guard."""
    from kmaut import realforms
    from kmaut.errors import WindowTooLarge
    su2 = make_algebra("a", 1, "compact")
    phi = StandardLoopAutomorphism(identity_automorphism(su2), 1, 1, 0, None,
                                   standard_involution(su2, "rho1"))

    def no_work(phi):
        raise AssertionError("work began on an oversized window")
    for name in ("affine_extend", "conj_linear_extend"):
        monkeypatch.setattr(realforms, name, no_work)
    # M = 4 and dim 3: six rows over Q per degree
    top = (realforms.MAX_WINDOW_DIM // 6 - 1) // 2
    assert realforms._window_involution(phi, top) == (4, top)
    for build in (real_form, cartan_decomposition):
        for N in (top + 1, 10**8):
            with pytest.raises(WindowTooLarge):
                build(phi, N=N)


def test_cartan_decomposition_twisted():
    su2 = make_algebra("a", 1, "compact")
    tau = standard_involution(su2, "rho1")
    # second kind on the twisted algebra
    phi = StandardLoopAutomorphism(tau, 2, -1, 0, None, tau)
    rep = cartan_decomposition(phi, N=4)
    assert all(rep["inclusions"].values())
    assert len(rep["K"]) + len(rep["P"]) > 0
    cd = [e for e in rep["P"] if not e.c.is_zero() or not e.d.is_zero()]
    assert len(cd) == 2  # c and d flip sign
    # first kind on the twisted algebra
    phi = StandardLoopAutomorphism(tau, 2, 1, 0, None, tau)
    rep = cartan_decomposition(phi, N=4)
    assert all(rep["inclusions"].values())
    kc = [e for e in rep["K"] if not e.c.is_zero() or not e.d.is_zero()]
    assert len(kc) == 2  # c and d are fixed


def test_cartan_triality_entry_over_real_field():
    """The d4 triality entry (rho3, rho3') at k = 3 has l = 3 and window
    field Q(zeta_12): K and P have Q-dims 26 and 34 at window 1, F-dims 13
    and 17 over F = Q(sqrt 3), and every bracket inclusion holds."""
    d4 = make_algebra("d", 4, "compact")
    entry = next(e for e in enumerate_second_kind(d4, 3).entries
                 if (repr(e[1]), repr(e[2])) == ("rho3", "rho3'"))
    rep = cartan_decomposition(realize_entry(d4, entry), N=1)
    assert (len(rep["K"]), len(rep["P"])) == (26, 34)
    assert rep["inclusions"] == {"KK_in_K": True, "KP_in_P": True,
                                 "PP_in_K": True}


def test_cartan_needs_compact_mode():
    sl2 = make_algebra("a", 1, "complex")
    iden = identity_automorphism(sl2)
    one = StandardLoopAutomorphism(iden, 1, 1, 0, None,
                                   identity_automorphism(sl2))
    with pytest.raises(NotCompactMode):
        cartan_decomposition(one)


def test_cartan_conjugated_involutions():
    """Conjugates of the a1 table involutions: every inclusion holds, or
    NotCompactMode comes before any work; never a report reading False."""
    from kmaut.autg import Automorphism
    from kmaut.cyclo import CycloMatrix
    from kmaut.loopaut import conjugate_constant, conjugate_exp
    from kmaut.selftest import antifixed_direction, random_inner_automorphism

    su2 = make_algebra("a", 1, "compact")
    rho0, rho1 = InvLabel(0), InvLabel(1)
    # a non-unitary inner conjugation and a unitary one
    g = random_inner_automorphism(su2, random.Random(0))
    u = Automorphism(su2, CycloMatrix.from_scalars([[0, 1], [-1, 0]]))
    for entry in [("1a", rho1, "id"), ("2", rho1, rho1), ("1a", rho1, "mu"),
                  ("2", rho0, rho1)]:
        phi = realize_entry(su2, entry)
        rep = cartan_decomposition(conjugate_constant(phi, u), N=2)
        assert all(rep["inclusions"].values()), entry
        base = cartan_decomposition(phi, N=2)
        assert (len(rep["K"]), len(rep["P"])) == (len(base["K"]),
                                                   len(base["P"]))
        with pytest.raises(NotCompactMode):
            cartan_decomposition(conjugate_constant(phi, g), N=2)
    # exponential twists: the first kind gets a nonconstant curve, which
    # moves degrees out of the window; the second kind keeps a constant one
    for entry in [("1a", rho1, "id"), ("1a", rho1, "mu"), ("2", rho1, rho1)]:
        phi = realize_entry(su2, entry)
        Y = antifixed_direction(phi.phi0, random.Random(1))
        psi = conjugate_exp(phi, Y)
        if entry[0] == "2":
            rep = cartan_decomposition(psi, N=2)
            assert all(rep["inclusions"].values())
            assert len(rep["K"]) + len(rep["P"]) == 17
        else:
            with pytest.raises(NotCompactMode):
                cartan_decomposition(psi, N=2)


@pytest.mark.parametrize("c", [Fraction(1, 16), Fraction(1, 5)])
@pytest.mark.parametrize("la,lb", [(0, 0), (0, 1), (1, 1)])
def test_cartan_rotation_outside_window_field(la, lb, c):
    """A rotation whose phases leave the window's field is refused with a
    typed error before any work."""
    from kmaut.loopaut import conjugate_shift

    su2 = make_algebra("a", 1, "compact")
    phi = realize_entry(su2, ("2", InvLabel(la), InvLabel(lb)))
    with pytest.raises(NotCompactMode, match="rotation"):
        cartan_decomposition(conjugate_shift(phi, c), N=2)


def _window_vector(x, M, N):
    """The rational packed row that the realforms spans take of an affine
    element over Q(zeta_M) on the window [-N, N]: its window row laid out
    by `loop._packed` and flattened over Q."""
    from kmaut.linalg import flatten
    from kmaut.loop import _affine_row, _packed

    return flatten(_packed(_affine_row(x, N, M), N, x.loop.algebra.dim), M)


def test_cartan_uniqueness_surrogate():
    """Two involutions with equal invariants: the conjugator maps the K/P
    window spans onto each other."""
    from fractions import Fraction as F
    from kmaut.autg import Automorphism
    from kmaut.cyclo import CycloMatrix
    from kmaut.loopaut import conjugate_constant, invariant_first_kind
    from kmaut.linalg import Span

    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    tau = standard_involution(su2, "rho1")
    phi1 = StandardLoopAutomorphism(iden, 1, 1, 0, None, tau)
    # conjugate by a compact-form-preserving constant automorphism
    g = Automorphism(su2, CycloMatrix.from_scalars([[0, 1], [-1, 0]]))
    phi2 = conjugate_constant(phi1, g)
    assert invariant_first_kind(phi1) == invariant_first_kind(phi2)
    N = 2
    rep1 = cartan_decomposition(phi1, N=N)
    rep2 = cartan_decomposition(phi2, N=N)
    M = 4  # the window field Q(zeta_lcm(4, 2l)) at l = 1
    k2 = Span(_window_vector(e, M, N) for e in rep2["K"])
    p2 = Span(_window_vector(e, M, N) for e in rep2["P"])
    from kmaut.loop import AffineElement, LoopElement

    def push(e):
        loop = LoopElement(su2, iden, 1,
                           {n: g.apply_matrix(M) for n, M in e.loop.coeffs.items()},
                           validate=False)
        return AffineElement(loop, e.c, e.d)

    for e in rep1["K"]:
        assert k2.contains(_window_vector(push(e), M, N))
    for e in rep1["P"]:
        assert p2.contains(_window_vector(push(e), M, N))


def test_packed_window_row_coordinates():
    """Coefficients, c and d over different denominators land in one window
    row, which `loop._packed` lays out as one packed row: algebra
    coordinate k of the degree-n coefficient at column (n + N) * dim + k,
    then c and d, and over Q coordinate t of column j at j * phi + t;
    degrees outside the window are ignored."""
    from kmaut.cyclo import CycloMatrix, root_of_unity
    from kmaut.loop import AffineElement, LoopElement, _affine_row, _packed

    su2 = make_algebra("a", 1, "compact")
    i = root_of_unity(4, 1)
    A = CycloMatrix.from_scalars([[i * Fraction(1, 2), 0],
                                  [Fraction(2, 3), i * Fraction(-1, 2)]])
    loop = LoopElement(su2, identity_automorphism(su2), 1, {0: A, 2: A},
                       validate=False)
    x = AffineElement(loop, Fraction(1, 5), i * Fraction(3, 7))
    ents, den = _packed(_affine_row(x, 1, 4), 1, 3)
    # dim = 3 and phi(4) = 2: A has coordinates 2/3 at E_10 and i/2 at H,
    # degree 0 starts at coordinate 3, and c and d are coordinates 9 and 10
    assert {j: tuple(Fraction(v, den) for v in w) for j, w in ents.items()} \
        == {4: (Fraction(2, 3), 0), 5: (0, Fraction(1, 2)),
            9: (Fraction(1, 5), 0), 10: (0, Fraction(3, 7))}
    ents, den = _window_vector(x, 4, 1)
    assert {j: Fraction(v, den) for j, (v,) in ents.items()} == {
        8: Fraction(2, 3), 11: Fraction(1, 2), 18: Fraction(1, 5),
        21: Fraction(3, 7)}


def _entry_row(elt, M, N):
    """The matrix-entry layout that the window rows replaced, kept as a
    reference: coordinate t of entry (i, j) of the degree-n coefficient at
    column ((n + N) * size^2 + i * size + j) * phi + t, then c and d, one
    block of size^2 * phi columns each; degrees outside the window are
    ignored."""
    from math import lcm
    from kmaut.cyclo import CycloMatrix, _context

    size = elt.loop.algebra.size
    phi = _context(M).phi
    block = size * size * phi
    top = (2 * N + 1) * block
    mats = [((n + N) * block, A) for n, A in elt.loop.coeffs.items()
            if abs(n) <= N]
    mats += [(top + k * block, CycloMatrix.from_scalars([[s]]))
             for k, s in enumerate((elt.c, elt.d))]
    mats = [(off, x.promote(M)) for off, x in mats]
    den = lcm(1, *(x.den for _, x in mats))
    out = {}
    for off, x in mats:
        for i, row in enumerate(x.rows):
            for j, v in row.items():
                for t, c in enumerate(v):
                    if c:
                        out[off + (i * x.n + j) * phi + t] = (den // x.den * c,)
    return out, den


def _cartan_bases(alg, entry):
    phi = realize_entry(alg, entry)
    rep = cartan_decomposition(phi, N=1)
    return [rep["K"], rep["P"]], phi.l


def _real_form_bases(alg, pair):
    rb = real_form_basis(alg, pair, N=1)
    return [rb.basis], rb.l


@pytest.mark.parametrize("bases,alg,arg", [
    (_cartan_bases, make_algebra("a", 2, "compact"),
     ("1a", InvLabel(1), "id")),
    (_cartan_bases, make_algebra("c", 3, "compact"),
     ("2", InvLabel(1), InvLabel(2))),
    (_real_form_bases, make_algebra("b", 2, "compact"),
     (InvLabel(0), InvLabel(2))),
    (_real_form_bases, make_algebra("c", 3, "compact"),
     (InvLabel(1), InvLabel(2))),
], ids=["cartan-a2", "cartan-c3", "realform-b2", "realform-c3"])
def test_window_rows_match_matrix_entries(bases, alg, arg):
    """Algebra coordinates and matrix entries are two injective layouts of
    one window: on the K and P bases of a Cartan decomposition, and on a
    real form basis, both at window 1, they give every basis the same rank
    and put every in-window bracket in the same spans."""
    from itertools import combinations
    from math import lcm
    from kmaut.linalg import Span
    from kmaut.loop import affine_bracket

    N = 1
    groups, l = bases(alg, arg)
    M = lcm(4, 2 * l)
    brackets = [z for x, y in combinations([x for g in groups for x in g], 2)
                for z in [affine_bracket(x, y)]
                if all(abs(n) <= N for n in z.loop.support())]
    verdicts = []
    for row in (_window_vector, _entry_row):
        spans = [Span() for _ in groups]
        ranks = [sum(s.add(row(x, M, N)) for x in g)
                 for s, g in zip(spans, groups)]
        members = [tuple(s.contains(row(z, M, N)) for s in spans)
                   for z in brackets]
        verdicts.append((ranks, members))
    assert verdicts[0] == verdicts[1]
    ranks, members = verdicts[0]
    assert ranks == [len(g) for g in groups]
    # K and P meet only in 0, so some bracket lies in one and not the other
    assert len(groups) == 1 or {(True, False), (False, True)} <= set(members)


def test_sl2_catalogue():
    cat = sl2_catalogue()
    assert cat["ok"]
    assert cat["almost_split_count"] == 3
    assert cat["almost_compact_count"] == 4
    assert cat["noncompact_almost_compact_count"] == 3
    assert all(v["closed"] for v in cat["almost_split_bases"].values())
    assert len(cat["almost_compact_bases"]) == 4
    assert all(v["closed"] for v in cat["almost_compact_bases"].values())


_SL2_GOLDEN = Path(__file__).parent / "golden" / "sl2-catalogue.json"


def test_sl2_catalogue_report_is_byte_identical_to_its_golden_copy():
    """The whole report, written with sorted keys, equals the copy taken
    before the catalogue read its classes through `enumerate_conj_linear`
    and realized them through `realize`."""
    assert json.dumps(sl2_catalogue(), sort_keys=True) == \
        _SL2_GOLDEN.read_text().rstrip("\n")


def reference_brackets_in(xs, ys, span, M, N):
    """The closure check as it was: each pair bracketed as affine elements
    by `affine_bracket`, then written as a row."""
    from itertools import combinations, product
    from kmaut.loop import affine_bracket

    for x, y in combinations(xs, 2) if xs is ys else product(xs, ys):
        z = affine_bracket(x, y)
        if z.is_zero() or any(abs(n) > N for n in z.loop.support()):
            continue
        if not span.contains(_window_vector(z, M, N)):
            return False
    return True


def _closure_cases():
    """(algebra, l, xs, ys, gens, M, N, P): the bases of the a1 pairs at
    windows 2 and 3 and of three a2 pairs at window 1, each against its own
    span, and the K and P of every a1 table entry against the spans of the
    three inclusions, at windows 2 and 3; P is the period the rows were
    tiled with."""
    from itertools import product
    from math import lcm
    from kmaut.realforms import _map_period
    from kmaut.tables import enumerate_first_kind, valid_ks

    a1 = make_algebra("a", 1, "compact")
    a2 = make_algebra("a", 2, "compact")
    cases = []
    pairs = [(a1, e[1:], N) for k in valid_ks(a1)
             for e in enumerate_second_kind(a1, k).entries for N in (2, 3)]
    pairs += [(a2, (InvLabel(p), InvLabel(q)), 1)
              for p, q in [(0, 1), (0, 2), (1, 2)]]
    for alg, pair, N in pairs:
        rb = real_form_basis(alg, pair, N=N)
        cases.append((alg, rb.l, rb.basis, rb.basis, rb.basis,
                      lcm(4, 2 * rb.l), N, rb.period))
    for k in valid_ks(a1):
        for table in (enumerate_first_kind, enumerate_second_kind):
            for e, N in product(table(a1, k).entries, (2, 3)):
                phi = realize_entry(a1, e)
                rep = cartan_decomposition(phi, N=N)
                K, P = rep["K"], rep["P"]
                M = lcm(4, 2 * phi.l)
                T = _map_period(phi.apply, a1, phi.twist, phi.l, M)
                cases += [(a1, phi.l) + c + (M, N, T) for c in [
                    (K, K, K), (K, P, P), (P, P, K)]]
    return cases


def test_brackets_in_matches_the_reference():
    """The closure check on window rows gives the verdict of the pairwise
    object check, on each case's span, checked with its period, and on
    spans with one to three random basis vectors dropped, checked by the
    full sweep, so that False verdicts are compared too."""
    from kmaut.linalg import Span
    from kmaut.loop import _affine_row
    from kmaut.realforms import _brackets_in

    rng = random.Random(22)
    verdicts = []
    for alg, l, xs, ys, gens, M, N, P in _closure_cases():
        px = [_affine_row(x, N, M) for x in xs]
        py = px if ys is xs else [_affine_row(y, N, M) for y in ys]
        drops = [()] + [rng.sample(range(len(gens)), min(len(gens), k))
                        for k in (1, 2, 3)]
        for drop in drops if gens else [()]:
            span = Span(_window_vector(g, M, N) for i, g in enumerate(gens)
                        if i not in drop)
            got = _brackets_in(alg, l, px, py, span, M, N, None if drop else P)
            assert got == reference_brackets_in(xs, ys, span, M, N), drop
            verdicts.append(got)
    # 180 spans: 49 True, 131 False
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 100


@pytest.mark.parametrize("m,order", [(6, 3), (10, 5), (24, 12)])
def test_window_involution_refuses_any_order_above_two(monkeypatch, m, order):
    """Ad diag(zeta_m, zeta_m^-1) on a1 has order m/2; each order above two
    is NotInvolution from real_form and cartan_decomposition alike, found
    with at most two compositions."""
    from kmaut.autg import Automorphism
    from kmaut.cyclo import CycloMatrix, root_of_unity
    from kmaut.errors import NotInvolution

    a1 = make_algebra("a", 1, "compact")
    D = CycloMatrix.diag([root_of_unity(m, 1), root_of_unity(m, -1)])
    calls = []
    compose = StandardLoopAutomorphism.compose

    def counting(self, other):
        calls.append(self)
        return compose(self, other)

    monkeypatch.setattr(StandardLoopAutomorphism, "compose", counting)
    for build in (real_form, cartan_decomposition):
        phi = StandardLoopAutomorphism(identity_automorphism(a1), 1, 1, 0,
                                       None, Automorphism(a1, D))
        del calls[:]
        with pytest.raises(NotInvolution):
            build(phi, N=1)
        assert len(calls) <= 2
    monkeypatch.undo()
    assert phi.order() == order


def _mutation_entries():
    a1 = make_algebra("a", 1, "compact")
    c3 = make_algebra("c", 3, "compact")
    return [pytest.param(a1, ("1a", InvLabel(1), "id"), id="a1-1a-rho1-id"),
            pytest.param(c3, ("2", InvLabel(0), InvLabel(1)),
                         id="c3-rho0-rho1")]


@pytest.mark.parametrize("alg,entry", _mutation_entries())
def test_closure_checks_fail_on_the_wrong_span(alg, entry):
    """The closure checks still say False when they should: [K, K] checked
    against P's span, and a real form basis with one element left out of
    the span it is checked against: the span and rows that `real_form`
    formed, less those of the first element."""
    from math import lcm

    from kmaut.linalg import Span, flatten
    from kmaut.loop import _affine_row, _packed
    from kmaut.realforms import RealFormBasis, _brackets_in

    phi = realize_entry(alg, entry)
    N, M = 1, lcm(4, 2 * phi.l)
    rep = cartan_decomposition(phi, N=N)
    assert all(rep["inclusions"].values())
    ks = [_affine_row(x, N, M) for x in rep["K"]]
    pspan = Span(_window_vector(x, M, N) for x in rep["P"])
    assert _brackets_in(alg, phi.l, ks, ks, pspan, M, N, None) is False
    rb = real_form(phi, N=N)
    assert rb.closed_under_bracket()
    rows = rb._rows[1:]
    span = Span(flatten(_packed(r, N, alg.dim), M) for r in rows)
    cut = RealFormBasis(alg, phi, N, rb.l, rb.basis[1:], span, rows, None)
    assert cut.closed_under_bracket() is False


def test_target_twist_is_the_source_object_for_an_endomorphism():
    """An endomorphism's target twist is its twist object itself, and so is
    the twist of each image; a map whose target differs keeps its own."""
    from kmaut.autg import Automorphism
    from kmaut.cyclo import CycloMatrix, root_of_unity
    from kmaut.loop import window_basis
    from kmaut.loopaut import SecondKindInvariant
    from kmaut.tables import realize

    a2 = make_algebra("a", 2, "compact")
    inv = SecondKindInvariant(a2, 2, (InvLabel(0), InvLabel(1)), 1)
    phi = realize(inv)
    assert phi.is_endomorphism() and phi.target_twist() is phi.twist
    u = window_basis(a2, phi.twist, phi.l, 1)[0]
    assert phi.apply(u).twist is phi.twist
    a1 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(a1)
    # eps = -1 with phi0 = id over tau of order 4: the target is tau^-1
    tau = Automorphism(a1, CycloMatrix.diag([root_of_unity(8, 1),
                                             root_of_unity(8, -1)]))
    psi = StandardLoopAutomorphism(tau, 4, -1, 0, None, iden)
    assert psi.target_twist() is not psi.twist
    assert psi.target_twist() != psi.twist
    assert psi.target_twist() == tau.inverse()


def _realform_batch():
    """The inputs of the benchmark's `realform` batch: real form bases of
    the a1 second-kind pairs at windows 2 and 3, of a1 (rho0, rho0) and
    (rho0, rho1) at window 4 and of three a2 pairs at window 1, and Cartan
    decompositions of the a1 table entries at windows 2 and 3."""
    a1 = make_algebra("a", 1, "compact")
    a2 = make_algebra("a", 2, "compact")
    bases = [(a1, e[1:], N) for k in valid_ks(a1)
             for e in enumerate_second_kind(a1, k).entries for N in (2, 3)]
    bases += [(a1, (InvLabel(0), InvLabel(q)), 4) for q in (0, 1)]
    bases += [(a2, (InvLabel(p), InvLabel(q)), 1)
              for p, q in [(0, 1), (0, 2), (1, 2)]]
    from kmaut.tables import enumerate_first_kind
    cartans = [(realize_entry(a1, e), N) for k in valid_ks(a1)
               for table in (enumerate_first_kind, enumerate_second_kind)
               for e in table(a1, k).entries for N in (2, 3)]
    return bases, cartans


def test_realform_batch_compares_twists_and_splits_rows_once(monkeypatch):
    """On the realform batch, twists are compared by matrix ratio at most
    100 times (1,020 when images carried a composite twist); window rows are
    formed only for the elements of degree 0 and of one period P that a real
    form or a Cartan decomposition pairs with their images, each exactly
    once, and for each c and d element of a real form, and the closure
    checks form none, however many brackets a row enters; window rows are
    formed at most 900 times (1,588 when each check formed its own) and
    brackets at most 1,672 times (2,826 when every pair of rows in the
    window was bracketed, 3,488 before pairs that leave the window were
    skipped)."""
    from collections import Counter
    from math import lcm

    from kmaut import autg, realforms
    from kmaut.loop import window_basis

    log = []

    def counting(module, name):
        f = getattr(module, name)

        def wrapped(*a):
            log.append((name, a))
            return f(*a)
        monkeypatch.setattr(module, name, wrapped)

    counting(autg, "_scalar_ratio")
    for name in ("_affine_row", "_parts_bracket"):
        counting(realforms, name)

    def rows_at(calls, N):
        return sum(name == "_affine_row" and a[1] == N for name, a in calls)

    bases, cartans = _realform_batch()
    made = []
    for alg, pair, N in bases:
        start = len(log)
        rb = real_form_basis(alg, pair, N=N)
        formed = rows_at(log[start:], N)
        assert rb.closed_under_bracket()
        assert rows_at(log[start:], N) == formed
        made.append((rb.phi, N, formed, len(rb.basis) - len(rb.loop_elements())))
    for phi, N in cartans:
        start = len(log)
        rep = cartan_decomposition(phi, N=N)
        assert all(rep["inclusions"].values())
        names = [name for name, _ in log[start:]]
        assert "_affine_row" not in names[names.index("_parts_bracket"):]
        made.append((phi, N, rows_at(log[start:], N), rep["K"] + rep["P"]))
    counts = Counter(name for name, _ in log)
    assert counts["_scalar_ratio"] <= 100
    assert counts["_affine_row"] <= 900
    assert counts["_parts_bracket"] <= 1672
    # the counts of one period, P from the probe that the constructions make
    for phi, N, formed, rest in made:
        M = lcm(4, 2 * phi.l)
        if isinstance(rest, int):  # a real form: 2 rows a unit, c and d
            P = realforms._map_period(conj_linear_extend(phi).apply,
                                      phi.algebra, phi.twist, phi.l, M)
            units = window_basis(phi.algebra, phi.twist, phi.l, min(N, P))
            assert formed == 2 * len(units) + rest
        else:  # K and P: 2 rows a pair, one pair an element of degree <= P
            P = realforms._map_period(phi.apply, phi.algebra, phi.twist,
                                      phi.l, M)
            assert formed == 2 * sum(max(map(abs, x.loop.support()), default=0)
                                     <= P for x in rest)


def test_pairs_the_degree_rule_skips_have_no_bracket_in_the_window():
    """A pair where neither factor has a d coordinate and every degree sum
    |p + q| exceeds the window, which the closure check skips, brackets to
    None or to the empty row, over the a1 and a2 second-kind pairs at
    windows 1-3; the rule skips some pair at each window."""
    from itertools import product
    from math import lcm

    from kmaut.loop import _parts_bracket

    def skipped(x, y, N):
        return x[2] is None and y[2] is None and all(
            abs(p + q) > N for p in x[0] for q in y[0])

    for alg in (make_algebra("a", r, "compact") for r in (1, 2)):
        for k in valid_ks(alg):
            for e, N in product(enumerate_second_kind(alg, k).entries,
                                (1, 2, 3)):
                rb = real_form_basis(alg, e[1:], N=N)
                M = lcm(4, 2 * rb.l)
                pairs = [(x, y) for x, y in product(rb._rows, repeat=2)
                         if skipped(x, y, N)]
                assert pairs, (alg, e, N)
                for x, y in pairs:
                    z = _parts_bracket(alg, rb.l, x, y, N, M)
                    assert z is None or not z[0] and z[1] is None, (alg, e, N)


_CARTAN_GOLDEN = Path(__file__).parent / "golden" / "cartan-digests.json"


def _cartan_digests():
    """{algebra, k and entry joined by spaces: sha256 of the sorted JSON of
    the K and P of the entry's Cartan decomposition and of its real form
    basis, at window 1} over every first- and second-kind entry of a2, a3,
    b2 and c3."""
    from kmaut.tables import enumerate_first_kind

    out = {}
    for alg in map(SimpleAlgebra.from_label, ("a2", "a3", "b2", "c3")):
        for k in valid_ks(alg):
            for row in (enumerate_first_kind(alg, k),
                        enumerate_second_kind(alg, k)):
                for e in row.entries:
                    phi = realize_entry(alg, e)
                    rep = cartan_decomposition(phi, N=1)
                    obj = {"K": [x.to_json() for x in rep["K"]],
                           "P": [x.to_json() for x in rep["P"]],
                           "real_form": [x.to_json()
                                         for x in real_form(phi, N=1).basis]}
                    text = json.dumps(obj, sort_keys=True)
                    key = " ".join([alg.label(), str(k)] + list(map(str, e)))
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_cartan_and_real_form_bases_are_byte_identical_to_the_golden_digests():
    """K, P and the real form basis of every a2, a3, b2 and c3 table entry,
    both kinds, at window 1, hash to their committed digests."""
    want = json.loads(_CARTAN_GOLDEN.read_text())
    got = _cartan_digests()
    assert len(want) == 62
    assert got.keys() == want.keys()
    assert [a for a in want if got[a] != want[a]] == []


def _direct_real_form(phi, N):
    """`real_form` formed degree by degree, the reference for the shifted
    construction: the rows and elements of every unit of the window [-N, N],
    then c and d; returns (elements, span, rows)."""
    from kmaut.cyclo import root_of_unity
    from kmaut.linalg import flatten
    from kmaut.loop import (AffineElement, LoopElement, _affine_row, _packed,
                            _scale, window_basis)
    from kmaut.realforms import (_field_basis, _fixed_part, _real_field_basis,
                                 _window_involution)

    M, N = _window_involution(phi, N)
    alg, tw, l, dim = phi.algebra, phi.twist, phi.l, phi.algebra.dim
    psi = conj_linear_extend(phi)
    scalars = [(z, z.conj()) for z in _field_basis(M)]
    units = [(u, psi.apply(u)) for u in window_basis(alg, tw, l, N)]
    rows = []
    for pair in units:
        ru, rp = (_affine_row(AffineElement(v), N, M) for v in pair)
        rows += [[({n: _scale((M, blk, r[3]), z)[1] for n, blk in r[0].items()},
                   None, None, r[3] * z.den) for r, z in zip((ru, rp), zs)]
                 for zs in scalars]

    def build(j):
        (u, pu), (z, zc) = units[j // len(scalars)], scalars[j % len(scalars)]
        return AffineElement(u * z), AffineElement(pu * zc)

    [(out, span, kept)] = _fixed_part(rows, build, M, N, dim)
    zero = LoopElement.zero(alg, tw, l)
    for f in _real_field_basis(M):
        f = f if phi.epsilon == 1 else root_of_unity(4, 1) * f
        for x in (AffineElement(zero, c=f), AffineElement(zero, d=f)):
            kept.append(_affine_row(x, N, M))
            span.add(flatten(_packed(kept[-1], N, dim), M))
            out.append(x)
    return out, span, kept


def _cartan_parts(phi, N, units):
    """The (elements, span, rows) of K and of P on the window [-N, N] from
    the compact window units of degrees |n| <= units, c and d, as
    `cartan_decomposition` forms them; units = N is the direct
    construction."""
    from math import lcm

    from kmaut.loop import AffineElement, LoopElement, _affine_row
    from kmaut.loopaut import affine_extend
    from kmaut.realforms import (_fixed_part, _real_field_basis,
                                 compact_window_basis)

    alg, tw, l, M = phi.algebra, phi.twist, phi.l, lcm(4, 2 * phi.l)
    ext = affine_extend(phi)
    zero = LoopElement.zero(alg, tw, l)
    elts = [AffineElement(b) for b in compact_window_basis(alg, tw, l, units)]
    for f in _real_field_basis(M):
        elts += [AffineElement(zero, c=f), AffineElement(zero, d=f)]
    pairs = [(e, ext.apply(e)) for e in elts]
    return _fixed_part([tuple(_affine_row(x, N, M) for x in p) for p in pairs],
                       pairs.__getitem__, M, N, alg.dim, (1, -1))


def _json(xs):
    """The JSON of affine elements, each on its twist object (whose own JSON,
    so(8) operators included, is written once)."""
    twists = {id(x.loop.twist): x.loop.twist for x in xs}
    return [json.dumps(t.to_json()) for t in twists.values()], [
        (id(x.loop.twist), x.loop.l, {str(n): M.to_json()
                                      for n, M in x.loop.coeffs.items()},
         x.c.to_json(), x.d.to_json()) for x in xs]


def _same_parts(got, want):
    """Whether two (elements, span, rows) agree: the rows, the span's stored
    rows and each element's JSON."""
    return (got[2] == want[2] and dict(got[1].rows()) == dict(want[1].rows())
            and _json(got[0]) == _json(want[0]))


@pytest.mark.parametrize("label", ["a1", "a2", "a3", "b2", "c3", "d4"])
def test_shifted_windows_match_the_direct_construction(label):
    """At window 3P, P the period found for each first- and second-kind
    entry, the rows, span and elements of the real form and of K and P,
    written from one period by shifting, equal those formed degree by
    degree, and so do the K and P that `cartan_decomposition` returns; its
    three inclusions hold, and K and P together are as many as the real
    form basis."""
    from math import lcm

    from kmaut.cyclo import _context
    from kmaut.realforms import _map_period, _tiled
    from kmaut.tables import enumerate_first_kind

    alg = SimpleAlgebra.from_label(label)
    for k in valid_ks(alg):
        for table in (enumerate_first_kind, enumerate_second_kind):
            for e in table(alg, k).entries:
                phi = realize_entry(alg, e)
                M = lcm(4, 2 * phi.l)
                P = _map_period(phi.apply, alg, phi.twist, phi.l, M)
                N, width = 3 * P, alg.dim * _context(M).phi
                rb = real_form(phi, N)
                assert _same_parts((rb.basis, rb._span, rb._rows),
                                   _direct_real_form(phi, N)), e
                order = [*range(-1, -N - 1, -1), 0]
                direct = _cartan_parts(phi, N, N)
                assert all(_same_parts(_tiled(part, order, P, N, width), want)
                           for part, want in zip(_cartan_parts(phi, N, P),
                                                 direct)), e
                rep = cartan_decomposition(phi, N)
                assert [_json(rep[s]) for s in "KP"] == [
                    _json(part[0]) for part in direct], e
                assert len(rep["inclusions"]) == 3, e
                assert all(rep["inclusions"].values()), e
                assert len(rb.basis) == len(rep["K"]) + len(rep["P"]), e


def _mutation_case(label, entry, times):
    """(algebra, l, M, N, P, basis, class) of the real form of a table
    entry at window N = times * P, P its period, and class(x), a basis
    element's degree class mod P (None at degree 0 and for c and d)."""
    from math import lcm

    from kmaut.realforms import _map_period

    alg = SimpleAlgebra.from_label(label)
    phi = realize_entry(alg, entry)
    M = lcm(4, 2 * phi.l)
    P = _map_period(phi.apply, alg, phi.twist, phi.l, M)

    def cls(x):
        n = max(map(abs, x.loop.support()), default=0)
        return n % P if n else None
    N = times * P
    return alg, phi.l, M, N, P, real_form(phi, N).basis, cls


def _closure(alg, l, M, N, P, basis, span_basis):
    """(verdict, reference verdict) of the closure check of basis against
    the span of span_basis, on the window [-N, N], with period P."""
    from kmaut.linalg import Span
    from kmaut.loop import _affine_row
    from kmaut.realforms import _brackets_in

    rows = [_affine_row(x, N, M) for x in basis]
    span = Span(_window_vector(x, M, N) for x in span_basis)
    return (_brackets_in(alg, l, rows, rows, span, M, N, P),
            reference_brackets_in(basis, basis, span, M, N))


@pytest.mark.parametrize("label,entry", [
    ("a1", ("2", InvLabel(0), InvLabel(0))), ("a1", ("1a", InvLabel(1), "id")),
    ("a1", ("1b", "id")), ("a3", ("2", InvLabel(1), InvLabel(4)))])
def test_a_mutated_residue_class_fails_the_key_loop(label, entry):
    """At window 3P, and 5P on a1, where only the groups up to 2P are
    paired: with the period passed and one pair bracketed per key, the
    check says False when the basis elements of the degrees = 1 mod P are
    multiplied by i, rows and span alike (P = 1 and 4 here; at P = 2 that
    makes a graded rescaling, closed again, and the check agrees with the
    reference there too), and when one residue class is left out of the
    span; and a span cut off its period, checked by the full sweep, gets
    the reference verdict."""
    from kmaut.cyclo import root_of_unity

    i = root_of_unity(4, 1)
    for times in (3, 5) if label == "a1" else (3,):
        alg, l, M, N, P, basis, cls = _mutation_case(label, entry, times)
        phased = [x * i if cls(x) == 1 % P else x for x in basis]
        got = _closure(alg, l, M, N, P, phased, phased)
        assert got[0] == got[1] and got[0] is (P == 2), times
        kept = [x for x in basis if cls(x) != 1 % P]
        assert _closure(alg, l, M, N, P, basis, kept) == (False, False), times
        cut = basis[:]
        del cut[next(j for j, x in enumerate(cut) if x.loop.support() == [1]
                     or x.loop.support() == [-1, 1])]
        got = _closure(alg, l, M, N, None, basis, cut)
        assert got[0] == got[1], times


def test_a_wide_window_brackets_a_pair_of_every_key(monkeypatch):
    """At window 5P, where the key loop pairs only the groups up to 2P, the
    real form's closure check of every a1 and c3 table entry still brackets
    a pair of each key that two groups of loop rows with m + n <= N hold:
    the classes mod P of m <= n, degree 0 apart, and the sign of m - n."""
    from collections import Counter
    from itertools import combinations_with_replacement

    from kmaut import realforms
    from kmaut.tables import enumerate_first_kind

    seen, bracket = [], realforms._parts_bracket

    def recording(algebra, l, x, y, N, M):
        seen.append((x, y))
        return bracket(algebra, l, x, y, N, M)
    monkeypatch.setattr(realforms, "_parts_bracket", recording)

    def group(r):  # the degree group {n, -n} of a loop row, else None
        ns = {abs(n) for n in r[0]}
        return ns.pop() if len(ns) == 1 and not (r[1] or r[2]) else None
    for label in ("a1", "c3"):
        alg = SimpleAlgebra.from_label(label)
        for k in valid_ks(alg):
            for table in (enumerate_first_kind, enumerate_second_kind):
                for e in table(alg, k).entries:
                    phi = realize_entry(alg, e)
                    P = real_form(phi, 1).period
                    rb = real_form(phi, 5 * P)
                    assert rb.period == P and 2 * P < rb.window

                    def key(m, n):
                        return (m % P if m else None, n % P if n else None,
                                (m > n) - (m < n))
                    sizes = Counter(g for g in map(group, rb._rows)
                                    if g is not None)
                    want = {key(m, n) for m, n in combinations_with_replacement(
                        sorted(sizes), 2) if m + n <= rb.window
                        and (m < n or sizes[m] > 1)}
                    del seen[:]
                    assert rb.closed_under_bracket(), e
                    got = {key(group(x), group(y)) for x, y in seen
                           if None not in (group(x), group(y))}
                    assert want <= got, (e, want - got)
