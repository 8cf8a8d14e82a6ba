import random
import sys
from fractions import Fraction

import pytest

from kmaut.algebra import (
    SemisimpleElement,
    bracket,
    combine_semisimple,
    compact_conjugation,
    killing_form,
    make_algebra,
    sigma_eigenspace,
    zero_semisimple,
)
from kmaut import linalg
from kmaut.autg import (
    Automorphism,
    identity_automorphism,
    mu_automorphism,
    omega_automorphism,
    standard_involution,
    triality_automorphism,
)
from kmaut.cyclo import CycloMatrix, CycloScalar, _context, root_of_unity
from kmaut.selftest import random_inner_automorphism
from kmaut.errors import (
    MembershipError,
    OrderMismatch,
    TwistMismatch,
    UnsupportedExceptional,
    UnsupportedParam,
)


def sl2():
    return make_algebra("a", 1, "complex")


def efh(alg):
    e = alg.element(CycloMatrix.from_scalars([[0, 1], [0, 0]]))
    f = alg.element(CycloMatrix.from_scalars([[0, 0], [1, 0]]))
    h = alg.element(CycloMatrix.from_scalars([[1, 0], [0, -1]]))
    return e, f, h


def test_dimensions():
    assert make_algebra("a", 1, "complex").dim == 3
    assert make_algebra("d", 4, "compact").dim == 28
    assert make_algebra("b", 3, "compact").dim == 21
    assert make_algebra("c", 3, "compact").dim == 21
    assert make_algebra("e8", None, "compact").dim == 248
    assert make_algebra("e8", None, "compact").out_order == 1


def test_param_ranges():
    with pytest.raises(UnsupportedParam):
        make_algebra("b", 1, "compact")
    with pytest.raises(UnsupportedParam):
        make_algebra("c", 2, "compact")
    with pytest.raises(UnsupportedParam):
        make_algebra("d", 3, "compact")


def test_exceptional_static_only():
    e8 = make_algebra("e8", None, "compact")
    with pytest.raises(UnsupportedExceptional):
        e8.basis()


def test_sl2_relations():
    alg = sl2()
    e, f, h = efh(alg)
    assert bracket(e, f) == h
    assert bracket(e, e).is_zero()
    assert killing_form(e, f) == 4
    assert killing_form(h, h) == 8


def test_so4_bracket_example():
    alg = make_algebra("d", 4, "complex")  # contains the so(4) computation
    # use so(8) units: [E12 - E21, E23 - E32] = E13 - E31
    def F(i, j):
        rows = [[0] * 8 for _ in range(8)]
        rows[i][j] = 1
        rows[j][i] = -1
        return alg.element(CycloMatrix.from_scalars(rows))
    assert bracket(F(0, 1), F(1, 2)) == F(0, 2)


def test_membership_checks():
    alg = sl2()
    with pytest.raises(MembershipError):
        alg.element(CycloMatrix.identity(2))  # nonzero trace
    b3 = make_algebra("b", 2, "complex")
    with pytest.raises(MembershipError):
        b3.element(CycloMatrix.identity(5))


def test_coords_roundtrip():
    rng = random.Random(0)
    for alg in [sl2(), make_algebra("b", 2, "complex"),
                make_algebra("c", 3, "complex"), make_algebra("d", 4, "complex")]:
        den = rng.randint(1, 6)
        vec = ({k: (rng.randint(-3, 3) or 1,) for k in range(alg.dim)
                if rng.random() < 0.7}, den)
        M = alg.from_coords(vec)
        assert alg.contains_matrix(M)
        ents, d = alg.coords(M)
        assert {k: Fraction(v[0], d) for k, v in ents.items()} \
            == {k: Fraction(v[0], den) for k, v in vec[0].items()}


def _coords_scalars(alg, M):
    """coords(M) read back as one CycloScalar per basis element."""
    ents, den = alg.coords(M)
    zero = (0,) * _context(M.N).phi
    return [CycloScalar(M.N, ents.get(k, zero), den) for k in range(alg.dim)]


@pytest.mark.parametrize("N", [1, 4, 12])
@pytest.mark.parametrize("family,n", [("a", 1), ("a", 3), ("b", 2),
                                      ("c", 3), ("d", 4)])
def test_packed_coords_roundtrip(family, n, N):
    """from_coords and coords are inverse on packed rows over Q(zeta_N):
    zero coordinates stay unstored, the a-family Cartan coordinates are
    partial sums of the diagonal, and the zero vector gives the zero
    matrix of conductor 1."""
    rng = random.Random(N * 100 + n)
    alg = make_algebra(family, n, "complex")
    phi = _context(N).phi
    for _ in range(4):
        den = rng.randint(1, 5)
        coef = {k: tuple(rng.randint(-2, 2) for _ in range(phi))
                for k in range(alg.dim) if rng.random() < 0.5}
        coef = {k: v for k, v in coef.items() if any(v)}
        M = alg.from_coords((coef, den), N)
        want = CycloMatrix.zeros(alg.size)
        for k, v in coef.items():
            want = want + alg.basis()[k] * CycloScalar(N, v, den)
        assert M.to_json() == want.to_json() and M.N == want.N
        assert alg.contains_matrix(M)
        assert all(any(v) for v in alg.coords(M)[0].values())
        got = _coords_scalars(alg, M)
        assert got == [CycloScalar(N, coef.get(k, (0,) * phi), den)
                       for k in range(alg.dim)]
        if family == "a":
            # the k-th Cartan coordinate is the sum of the first k + 1
            # diagonal entries
            base = alg.dim - alg.size + 1
            for k in range(alg.size - 1):
                total = sum((M.entry(t, t) for t in range(k + 1)),
                            CycloScalar.from_rational(0, N))
                assert got[base + k] == total
    Z = alg.from_coords(({}, 3), N)
    assert Z.is_zero() and Z.N == 1
    assert alg.coords(CycloMatrix.zeros(alg.size, N)) == ({}, 1)


@pytest.mark.parametrize("family,n", [("a", 1), ("a", 2), ("b", 2)])
def test_jacobi_all_basis_triples_small(family, n):
    alg = make_algebra(family, n, "complex")
    basis = alg.basis()
    for x in basis:
        for y in basis:
            for z in basis:
                j = alg.bracket_matrix(x, alg.bracket_matrix(y, z)) \
                    + alg.bracket_matrix(y, alg.bracket_matrix(z, x)) \
                    + alg.bracket_matrix(z, alg.bracket_matrix(x, y))
                assert j.is_zero()


@pytest.mark.parametrize("family,n", [("c", 3), ("d", 4), ("d", 5), ("d", 6)])
def test_jacobi_sampled_triples_large(family, n):
    rng = random.Random(4)
    alg = make_algebra(family, n, "complex")
    basis = alg.basis()
    for _ in range(300):
        x, y, z = (basis[rng.randrange(len(basis))] for _ in range(3))
        j = alg.bracket_matrix(x, alg.bracket_matrix(y, z)) \
            + alg.bracket_matrix(y, alg.bracket_matrix(z, x)) \
            + alg.bracket_matrix(z, alg.bracket_matrix(x, y))
        assert j.is_zero()


def _ad_matrix(alg, M):
    cols = [alg.coords(alg.bracket_matrix(M, b)) for b in alg.basis()]
    return CycloMatrix.from_packed(alg.dim, M.N, cols).transpose()


@pytest.mark.parametrize("family,n", [("a", 1), ("a", 2), ("b", 2),
                                      ("c", 3), ("d", 4)])
def test_killing_scale_against_trace_form(family, n):
    # once per family: kappa(x, y) = tr(ad x ad y) on a couple of pairs
    alg = make_algebra(family, n, "complex")
    basis = alg.basis()
    pairs = [(basis[0], basis[1]), (basis[0], basis[0]),
             (basis[2], basis[-1])]
    for x, y in pairs:
        lhs = alg.killing_matrix(x, y)
        rhs = (_ad_matrix(alg, x) * _ad_matrix(alg, y)).trace()
        assert lhs == rhs


def test_ad_invariance_random():
    rng = random.Random(5)
    for alg in [sl2(), make_algebra("c", 3, "complex")]:
        basis = alg.basis()
        for _ in range(10):
            x, y, z = (basis[rng.randrange(len(basis))] for _ in range(3))
            assert alg.killing_matrix(alg.bracket_matrix(x, y), z) \
                == alg.killing_matrix(x, alg.bracket_matrix(y, z))


def test_compact_conjugation_properties():
    rng = random.Random(6)
    alg = make_algebra("a", 1, "complex")
    omega = compact_conjugation(alg)
    e, f, h = efh(alg)
    # omega(h) = -conj(h)^T = -h, so i*h is fixed
    ih = alg.element(h.matrix * root_of_unity(4, 1))
    assert omega(ih) == ih
    for _ in range(10):
        basis = alg.basis_elements()
        x = basis[rng.randrange(len(basis))]
        y = basis[rng.randrange(len(basis))]
        assert omega(bracket(x, y)) == bracket(omega(x), omega(y))
    assert omega(omega(e)) == e


def test_su3_compact_gram_negative_definite():
    alg = make_algebra("a", 2, "complex")
    i = root_of_unity(4, 1)
    compact = []
    # antihermitian basis of su(3)
    for a in range(3):
        for b in range(a + 1, 3):
            rows = [[0] * 3 for _ in range(3)]
            rows[a][b] = 1
            rows[b][a] = -1
            compact.append(CycloMatrix.from_scalars(rows))
            rows = [[0] * 3 for _ in range(3)]
            rows[a][b] = 1
            rows[b][a] = 1
            compact.append(CycloMatrix.from_scalars(rows) * i)
    for a in range(2):
        rows = [[0] * 3 for _ in range(3)]
        rows[a][a] = 1
        rows[a + 1][a + 1] = -1
        compact.append(CycloMatrix.from_scalars(rows) * i)
    assert len(compact) == 8
    gram = [[alg.killing_matrix(x, y).as_fraction() for y in compact]
            for x in compact]
    # negative definiteness via pivots of symmetric elimination
    n = 8
    work = [row[:] for row in gram]
    for kidx in range(n):
        piv = work[kidx][kidx]
        assert piv < 0
        for r in range(kidx + 1, n):
            f = work[r][kidx] / piv
            for c2 in range(kidx, n):
                work[r][c2] -= f * work[kidx][c2]


def test_sigma_eigenspace_sl2():
    alg = sl2()
    tau = standard_involution(alg, "rho1")
    g0 = sigma_eigenspace(alg, tau, 2, 0)
    g1 = sigma_eigenspace(alg, tau, 2, 1)
    assert len(g0) == 1 and len(g1) == 2
    e, f, h = efh(alg)
    # g0 = span h
    assert g0[0].matrix == h.matrix or g0[0].matrix == -h.matrix \
        or 1 not in alg.coords(g0[0].matrix)[0]
    # bracket compatibility [g1, g1] in g0
    br = alg.bracket_matrix(g1[0].matrix, g1[1].matrix)
    img = tau.apply_matrix(br)
    assert img == br


def test_sigma_eigenspace_identity():
    alg = sl2()
    iden = identity_automorphism(alg)
    g0 = sigma_eigenspace(alg, iden, 1, 0)
    assert len(g0) == alg.dim


def test_sigma_eigenspace_dimension_sum():
    for alg, lab, l in [(make_algebra("a", 2, "complex"), "mu", 2),
                        (make_algebra("d", 4, "complex"), "rho1", 2)]:
        sig = standard_involution(alg, lab)
        total = sum(len(sigma_eigenspace(alg, sig, l, n)) for n in range(l))
        assert total == alg.dim


def _averaged_eigenspace(alg, sigma, l, n):
    """Reference: the rows (1/l) sum_j zeta_l^(-n j) coords(sigma^j b) over
    the basis b, in reduced row echelon form."""
    rows = []
    for b in alg.basis():
        acc = CycloMatrix.zeros(alg.size)
        cur = b
        for j in range(l):
            acc = acc + cur * root_of_unity(l, (-n * j) % l)
            cur = sigma.apply_matrix(cur)
        assert cur == b
        acc = acc * Fraction(1, l)
        if not acc.is_zero():
            rows.append(_coords_scalars(alg, acc))
    piv, _ = linalg.rref(rows)
    out = []
    for r in rows[:len(piv)]:
        M = CycloMatrix.zeros(alg.size)
        for c, b in zip(r, alg.basis()):
            if c:
                M = M + b * c
        out.append(M)
    return out


def _finite_order_twists():
    a2 = make_algebra("a", 2, "complex")
    a3 = make_algebra("a", 3, "complex")
    d4 = make_algebra("d", 4, "compact")
    third = Automorphism(a2, a2.torus_element([1, 0, -1]).exp_2pi(Fraction(1, 3)))
    sixth = Automorphism(a3, a3.torus_element([1, 0, 0, -1]).exp_2pi(Fraction(1, 6)))
    # order 1, but its group matrix i*I lives in Q(i)
    scalar_i = Automorphism(a2, CycloMatrix.identity(3) * root_of_unity(4, 1))
    return [
        (a2, scalar_i),
        (a2, standard_involution(a2, "rho1")),
        (a2, mu_automorphism(a2)),
        (a2, third),
        (a2, mu_automorphism(a2).compose(third)),
        (a3, sixth),
        (a3, mu_automorphism(a3).compose(sixth)),
        (d4, standard_involution(d4, "rho1")),
        (d4, triality_automorphism(d4)),
        (d4, triality_automorphism(d4, 2)),
    ]


def test_sigma_eigenspace_matches_averaging():
    seen = set()
    for alg, sigma in _finite_order_twists():
        l = sigma.order(bound=64)
        seen.add(l)
        for n in range(l):
            got = [x.matrix.to_json() for x in sigma_eigenspace(alg, sigma, l, n)]
            want = [M.to_json() for M in _averaged_eigenspace(alg, sigma, l, n)]
            assert got == want
    assert {1, 2, 3, 6} <= seen


def _module_state():
    """Sizes of the containers and caches that kmaut modules hold at module
    level."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name == "kmaut" or name.startswith("kmaut."):
            for attr, val in vars(mod).items():
                if isinstance(val, (dict, list, set)):
                    sizes[name, attr] = len(val)
                elif hasattr(val, "cache_info"):
                    sizes[name, attr] = val.cache_info().currsize
    return sizes


def test_fresh_twists_leave_no_module_state():
    """Eigenspace bases live on the twist, so twists built afresh for each
    call (as conjugates are) leave nothing behind in the modules."""
    alg = make_algebra("a", 2, "complex")

    def fresh():
        return Automorphism(alg, alg.torus_element([1, 0, -1]).exp_2pi(Fraction(1, 3)))

    want = [len(sigma_eigenspace(alg, fresh(), 3, n)) for n in range(3)]
    before = _module_state()
    for _ in range(8):
        sigma = fresh()
        assert [len(sigma_eigenspace(alg, sigma, 3, n)) for n in range(3)] == want
        assert list(sigma.eigenbases) == [3]
    assert _module_state() == before


def test_algebra_tables_are_bounded():
    """User input keys the algebra, basis, tau and J tables, so a run over
    more keys than a table keeps must not keep them all."""
    from kmaut import algebra
    for size in range(1, 25):
        for p in range(size + 1):
            algebra.tau_matrix(p, size)
    for half in range(1, 81):
        algebra.j_matrix(half)
    for k in range(1, 301):
        algebra.make_algebra("a", k)
    for family, lo, hi in (("a", 1, 17), ("b", 2, 10), ("c", 3, 10), ("d", 4, 10)):
        for k in range(lo, hi):
            for mode in ("compact", "complex"):
                algebra.SimpleAlgebra(family, k, mode).basis()
    for cache in (algebra.tau_matrix, algebra.j_matrix, algebra.make_algebra,
                  algebra.SimpleAlgebra.basis):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.misses > info.maxsize
    tau = algebra.tau_matrix(1, 3)
    assert tau == CycloMatrix.diag([-1, 1, 1])


@pytest.mark.parametrize("fam,n,rates", [
    ("a", 3, [Fraction(1, 2), 1, -1, Fraction(-1, 2)]),
    ("c", 3, [1, Fraction(1, 2), 0]),
    ("d", 4, [1, 1, 0, Fraction(1, 3)])])
def test_scaled_keeps_projectors(fam, n, rates):
    """c X keeps the projectors of X, each at rate c r: the same as a fresh
    element built from c X and its rates."""
    alg = make_algebra(fam, n, "compact")
    X = alg.torus_element(rates)
    for c in (2, Fraction(-1, 3)):
        Y = X.scaled(c)
        fresh = SemisimpleElement(alg, X.matrix * c, Y.eigenrates)
        assert Y._projs is not None
        assert ([(r, P.to_json()) for r, P in Y._projs]
                == [(r, P.to_json()) for r, P in fresh.projectors()])


def test_pi0_rows_are_bounded():
    """User input keys the pi0 rows too: the row table keeps at most its
    bound."""
    from kmaut import pi0
    from kmaut.autg import InvLabel
    for k in range(1, pi0.pi0_row.cache_info().maxsize // 2 + 6):
        alg = make_algebra("a", k)
        pi0.pi0_row(alg, InvLabel(0))
        pi0.pi0_row(alg, InvLabel(1))
    info = pi0.pi0_row.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert info.misses > info.maxsize


def test_pi0_rows_hold_a_table_sweep():
    """Every row of a sweep over the classification tables stays cached: a
    second pass over the same rows builds none of them again."""
    from kmaut import pi0
    from kmaut.algebra import _KEYS_CACHED
    from kmaut.autg import standard_list
    algs = [make_algebra(fam, n) for fam, ns in
            (("a", range(2, 8)), ("b", range(2, 6)), ("c", range(3, 7)),
             ("d", range(4, 9))) for n in ns]
    keys = [(alg, lab) for alg in algs for lab in standard_list(alg)]
    assert len(keys) > _KEYS_CACHED
    pi0.pi0_row.cache_clear()
    for alg, lab in keys:
        pi0.pi0_row(alg, lab)
    misses = pi0.pi0_row.cache_info().misses
    assert misses == len(keys)
    for alg, lab in keys:
        pi0.pi0_row(alg, lab)
    info = pi0.pi0_row.cache_info()
    assert info.misses == misses and info.hits == len(keys)


def test_sigma_eigenspace_rejects_wrong_order_and_conjugate_linear():
    alg = make_algebra("a", 2, "complex")
    with pytest.raises(OrderMismatch):
        sigma_eigenspace(alg, mu_automorphism(alg), 3, 0)
    d4 = make_algebra("d", 4, "compact")
    with pytest.raises(OrderMismatch):
        sigma_eigenspace(d4, triality_automorphism(d4), 2, 1)
    with pytest.raises(TwistMismatch):
        sigma_eigenspace(alg, omega_automorphism(alg), 2, 0)


def test_semisimple_rates_and_exp():
    alg = make_algebra("d", 4, "complex")
    X = alg.torus_element([1, 1, 0, 0])
    g = X.exp_2pi(Fraction(1, 2))
    assert (g * g).is_identity()
    assert X.eigenrates == (Fraction(-1), Fraction(0), Fraction(1))
    # stated rates are checked exactly
    SemisimpleElement(alg, X.matrix, [-1, 0, 1])
    with pytest.raises(OrderMismatch):
        SemisimpleElement(alg, X.matrix, [-1, 1])
    Y = alg.plane_rotation(0, 1, Fraction(1, 2))
    Z = combine_semisimple([Y, Y])
    assert Z.matrix == Y.matrix * 2


def test_combine_semisimple_rejects_noncommuting_parts():
    alg = sl2()
    i = root_of_unity(4, 1)
    e, f, h = efh(alg)
    parts = [SemisimpleElement(alg, M * i, [-1, 1])
             for M in (h.matrix, e.matrix + f.matrix)]
    with pytest.raises(OrderMismatch, match="do not commute"):
        combine_semisimple(parts)


def _commuting_parts(fam, n):
    """Lists of commuting semisimple elements: torus elements and rotations
    in disjoint planes, with sums of one rate among them."""
    alg = make_algebra(fam, n, "compact")
    half = Fraction(1, 2)
    if fam == "a":
        T1 = alg.torus_element([1, 1, -1, -1])
        T2 = alg.torus_element([half, half, 0, -1])
    elif fam == "c":
        T1 = alg.torus_element([1, 1, 0])
        T2 = alg.torus_element([half, half, -1])
    else:
        T1 = alg.torus_element([1, -1, 0, 2])
        T2 = alg.torus_element([half, 0, 1, 0])
    R1 = alg.plane_rotation(0, 1, half)
    R2 = alg.torus_element([0, 0, 2]) if fam == "c" \
        else alg.plane_rotation(2, 3, 2)
    return alg, [
        [T1, T2], [T1, R1, R2], [R1, R2], [T2, T1, R1.scaled(3)],
        [T1, T1.scaled(-1)], [R1, R1.scaled(-1), zero_semisimple(alg)],
        [zero_semisimple(alg)], [R2],
        # a zero part at conductor 3 raises the conductor of the sum
        [R1, SemisimpleElement(alg, CycloMatrix.zeros(alg.size, 3), [0])],
    ]


@pytest.mark.parametrize("fam,n", [("a", 3), ("c", 3), ("d", 4)])
def test_combine_semisimple_projectors_match_lagrange(fam, n):
    alg, cases = _commuting_parts(fam, n)
    for parts in cases:
        out = combine_semisimple(parts)
        # the rates of the sum: the sums of part rates whose Lagrange
        # projectors do not vanish
        sums = {Fraction(0)}
        for p in parts:
            sums = {a + b for a in sums for b in p.eigenrates}
        wide = SemisimpleElement(alg, out.matrix, sorted(sums))
        rates = [r for r, _ in wide.projectors()]
        assert list(out.eigenrates) == rates
        ref = SemisimpleElement(alg, out.matrix, rates)
        # to_json also compares the conductor of each projector
        assert [(r, P.to_json()) for r, P in out.projectors()] \
            == [(r, P.to_json()) for r, P in ref.projectors()]


def test_triality_images_take_rates_from_the_adjoint_spectrum():
    d4 = make_algebra("d", 4, "compact")
    th = triality_automorphism(d4)
    rng = random.Random(17)
    auts = [th, triality_automorphism(d4, 2),
            th.compose(standard_involution(d4, "rho1")),
            th.compose(random_inner_automorphism(d4, rng))]
    i = root_of_unity(4, 1)
    E = CycloMatrix.identity(8)
    rates = [[1, 1, 0, 0], [1, 0, 0, 0], [2, 1, 1, 0]] \
        + [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
           for _ in range(3)]
    for r in rates:
        X = d4.torus_element(r)
        for aut in auts:
            Y = aut.apply_semisimple(X)
            assert Y.matrix == aut.apply_matrix(X.matrix)
            nullities = [8 - (Y.matrix - E * (i * t)).rank() for t in Y.eigenrates]
            assert all(nullities) and sum(nullities) == 8
