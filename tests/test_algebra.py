import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from kmaut.algebra import (
    EXCEPTIONAL,
    SemisimpleElement,
    SimpleAlgebra,
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


_MATRIX_WORK = {
    "basis": lambda alg: alg.basis(),
    "coords": lambda alg: alg.coords(CycloMatrix.zeros(2)),
    "contains_matrix": lambda alg: alg.contains_matrix(CycloMatrix.zeros(2)),
    "structure_constants": lambda alg: alg.structure_constants(),
    "compact_conjugation": compact_conjugation,
    "Automorphism": Automorphism,
    "standard_involution": lambda alg: standard_involution(alg, "rho1"),
}


@pytest.mark.parametrize("work", list(_MATRIX_WORK))
@pytest.mark.parametrize("fam", EXCEPTIONAL)
def test_exceptional_static_only(fam, work):
    """Every piece of matrix work on an exceptional algebra is refused at
    the one raise point, with its message."""
    alg = make_algebra(fam, None, "compact")
    with pytest.raises(UnsupportedExceptional) as err:
        _MATRIX_WORK[work](alg)
    assert str(err.value) == "%s has no matrix model; only static data" % fam


@pytest.mark.parametrize("fam", EXCEPTIONAL)
def test_exceptional_family_takes_no_rank(fam):
    """An exceptional algebra is named by its family alone: a rank, from
    the constructor or from JSON, is UnsupportedParam."""
    assert make_algebra(fam) == make_algebra(fam, None)
    assert SimpleAlgebra.from_json(make_algebra(fam).to_json()) == make_algebra(fam)
    for n in (3, -7, 0):
        with pytest.raises(UnsupportedParam, match="takes no rank"):
            make_algebra(fam, n)
        with pytest.raises(UnsupportedParam, match="takes no rank"):
            SimpleAlgebra.from_json({"family": fam, "n": n})


@pytest.mark.parametrize("a1_cached_first", [False, True])
def test_a_bool_is_not_a_rank(a1_cached_first):
    """True is refused as a rank by the constructor and by make_algebra,
    whether or not a1 is in make_algebra's cache."""
    make_algebra.cache_clear()
    if a1_cached_first:
        assert make_algebra("a", 1).param == 1
    for build in (make_algebra, SimpleAlgebra):
        for family, n in (("a", True), ("d", True), ("b", False)):
            with pytest.raises(UnsupportedParam, match="integer rank"):
                build(family, n)
    assert make_algebra("a", 1).to_json()["n"] == 1


def test_hash_is_formed_once(monkeypatch):
    """The hash is kept from construction, so a cache lookup forms no key;
    an unhashable family or rank is still refused as a parameter."""
    alg = SimpleAlgebra("b", 3)
    key, calls = SimpleAlgebra._key, []
    monkeypatch.setattr(SimpleAlgebra, "_key",
                        lambda self: calls.append(1) or key(self))
    assert hash(alg) == hash(("b", 3, "compact")) and calls == []
    monkeypatch.undo()
    for family, n in ((["a"], 1), ("a", [1]), ("e6", [1])):
        with pytest.raises(UnsupportedParam):
            SimpleAlgebra(family, n)


@pytest.mark.parametrize("fam", EXCEPTIONAL)
def test_exceptional_matrix_work_has_one_refusal(fam):
    """Realizing an invariant, a real form basis and a standard involution
    on an exceptional algebra raise one class with one message."""
    from kmaut.autg import InvLabel
    from kmaut.realforms import real_form_basis
    from kmaut.tables import enumerate_second_kind, realize_entry
    alg = make_algebra(fam)
    work = [lambda: realize_entry(alg, enumerate_second_kind(alg, 1).entries[0]),
            lambda: real_form_basis(alg, (InvLabel(1), InvLabel(0))),
            lambda: standard_involution(alg, "rho1")]
    for run in work:
        with pytest.raises(UnsupportedExceptional) as err:
            run()
        assert str(err.value) == "%s has no matrix model; only static data" % fam


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
@pytest.mark.parametrize("family,n", [("a", n) for n in range(1, 8)]
                         + [("b", n) for n in range(2, 6)]
                         + [("c", n) for n in range(3, 7)]
                         + [("d", n) for n in range(4, 9)])
def test_packed_coords_roundtrip(family, n, N):
    """from_coords and coords are inverse on packed rows over Q(zeta_N), on
    every algebra the benchmark and the selftest use: zero coordinates stay
    unstored, the a-family Cartan coordinates are partial sums of the
    diagonal, and the zero vector gives the zero matrix of conductor 1.
    coords walks M's stored entries through `_reads`, which needs that off
    the a-family Cartan the entry read for each basis element (its first
    +1) is a different entry for every basis element and lies in no other
    one."""
    rng = random.Random(N * 100 + n)
    alg = make_algebra(family, n, "complex")
    phi = _context(N).phi
    basis, sup = alg.basis(), alg._supports()
    cartan = alg.dim - alg.size + 1 if family == "a" else alg.dim
    reads = [sup[k][0] for k in range(cartan)]
    assert all(v == 1 for _, _, v in reads)
    assert len({(i, j) for i, j, _ in reads}) == cartan
    for k, (i, j, _) in enumerate(reads):
        assert [t for t, b in enumerate(basis) if j in b.rows[i]] == [k]
    assert alg._reads() == {(i, j): k for k, (i, j, _) in enumerate(reads)}
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


def test_sigma_eigenspace_elements_are_kept():
    """The twist keeps the eigenspace elements: each call returns a new
    list of the same elements, so a caller's edit to it changes nothing."""
    alg = make_algebra("a", 2, "complex")
    sigma = standard_involution(alg, "mu")
    for n in range(2):
        first = sigma_eigenspace(alg, sigma, 2, n)
        again = sigma_eigenspace(alg, sigma, 2, n)
        assert first is not again and len(first) == len(again) > 0
        assert all(x is y for x, y in zip(first, again))
        first.clear()
        assert len(sigma_eigenspace(alg, sigma, 2, n)) == len(again)


def _averaged_eigenspace(alg, sigma, l, n):
    """Reference: the rows (1/l) sum_j zeta_l^(-n j) coords(sigma^j b) over
    the basis b, in reduced row echelon form."""
    avgs = []
    for b in alg.basis():
        acc = CycloMatrix.zeros(alg.size)
        cur = b
        for j in range(l):
            acc = acc + cur * root_of_unity(l, (-n * j) % l)
            cur = sigma.apply_matrix(cur)
        assert cur == b
        acc = acc * Fraction(1, l)
        if not acc.is_zero():
            avgs.append(acc)
    N = lcm(1, *(acc.N for acc in avgs))
    rows = [alg.coords(acc.promote(N)) for acc in avgs]
    piv, _ = linalg.rref(rows, alg.dim, N)
    out = []
    for ents, den in rows[:len(piv)]:
        M = CycloMatrix.zeros(alg.size)
        for k, b in enumerate(alg.basis()):
            if k in ents:
                M = M + b * CycloScalar(N, ents[k], den)
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
                alg = algebra.SimpleAlgebra(family, k, mode)
                alg.coords(CycloMatrix.zeros(alg.size))
    for cache in (algebra.tau_matrix, algebra.j_matrix, algebra.make_algebra,
                  algebra.SimpleAlgebra.basis, algebra.SimpleAlgebra._reads):
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


@pytest.mark.parametrize("fam,n,rates", [
    ("a", 3, [Fraction(1, 2), 1, -1, Fraction(-1, 2)]),
    ("c", 3, [1, Fraction(1, 2), 0]),
    ("d", 4, [1, 1, 0, Fraction(1, 3)]),
    ("b", 2, [1, Fraction(1, 2)])])
def test_projectors_multiply_no_identity(monkeypatch, fam, n, rates):
    """The Lagrange projectors start at their first factor: no matrix
    product inside projectors() has an identity operand, and each
    projector is byte for byte the product started at I.  The zero element
    keeps its one projector I at conductor 1."""
    alg = make_algebra(fam, n, "compact")
    X = alg.torus_element(rates)
    i, E = root_of_unity(4, 1), CycloMatrix.identity(alg.size)
    want = []
    for a in X.eigenrates:
        P = E
        for b in X.eigenrates:
            if b != a:
                P = P * (X.matrix - E * (i * b)) * (i * (a - b)).inverse()
        if not P.is_zero():
            want.append((a, P.to_json()))
    operands = []
    mul = CycloMatrix.__mul__

    def counting(self, other):
        operands.extend(m for m in (self, other) if isinstance(m, CycloMatrix))
        return mul(self, other)

    monkeypatch.setattr(CycloMatrix, "__mul__", counting)
    got = [(r, P.to_json()) for r, P in X.projectors()]
    assert operands and not any(m.is_identity() for m in operands)
    assert got == want
    (rate, P), = zero_semisimple(alg).projectors()
    assert rate == 0 and P.is_identity() and P.N == 1


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


def reference_structure_constants(alg):
    """The tables as a commutator and `coords` per pair and a Killing value
    per pair give them: the build that the closed form replaces."""
    basis, n = alg.basis(), alg.dim
    rows = {(i, j): alg.coords(basis[i] * basis[j] - basis[j] * basis[i])
            for i in range(n) for j in range(i + 1, n)}
    gram = {(i, j): alg.killing_matrix(basis[i], basis[j])
            for i in range(n) for j in range(i, n)}
    den = lcm(*(d for _, d in rows.values()),
              *(s.den for s in gram.values()))
    C = [[()] * n for _ in range(n)]
    K = [[0] * n for _ in range(n)]
    for (i, j), (ents, d) in rows.items():
        C[i][j] = tuple((k, c * (den // d)) for k, (c,) in ents.items())
        C[j][i] = tuple((k, -c) for k, c in C[i][j])
    for (i, j), s in gram.items():
        K[i][j] = K[j][i] = s.nums[0] * (den // s.den)
    return tuple(map(tuple, C)), tuple(map(tuple, K)), den


@pytest.mark.parametrize("fam,n", [("a", n) for n in range(1, 8)]
                         + [("b", n) for n in range(2, 6)]
                         + [("c", n) for n in range(3, 7)]
                         + [("d", n) for n in range(4, 9)])
def test_structure_constants_match_the_commutator_build(fam, n):
    """The closed-form tables are those of the commutator build: the same
    C, K and den, each C[i][j] listing its (k, c) in the same order."""
    alg = make_algebra(fam, n, "complex")
    assert alg.structure_constants() == reference_structure_constants(alg)
