import json
import random
from fractions import Fraction
from math import gcd

import pytest

from kmaut import linalg
from kmaut.cyclo import (
    CycloMatrix,
    CycloScalar,
    _apply_table,
    _context,
    _embedding,
    _lift,
    _totient,
    cyclotomic_poly,
    finite_order_eigenprojectors,
    pfaffian,
    root_of_unity,
)
from kmaut.errors import (
    ConductorOverflow,
    MalformedData,
    NotAntisymmetric,
    OddDimension,
    OrderMismatch,
)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_polys_multiply_to_x_n_minus_1():
    """prod_(d | N) Phi_d = x^N - 1, and Phi_N has degree phi(N)."""
    from kmaut.cyclo import _totient
    for N in range(1, 301):
        prod = [1]
        for d in range(1, N + 1):
            if N % d == 0:
                prod = _times(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (N - 1) + [1]
        assert len(cyclotomic_poly(N)) - 1 == _totient(N)


def test_cyclotomic_poly_takes_no_divisor_polynomial():
    """Phi_N comes from the binomials x^e - 1 alone: one cache miss, for N
    itself, at a conductor with 48 divisors."""
    cyclotomic_poly.cache_clear()
    cyclotomic_poly(9240)
    assert cyclotomic_poly.cache_info().misses == 1


@pytest.mark.parametrize("N", [1, 2, 12, 60])
def test_power_table_matches_repeated_multiplication(N):
    """power(m) for -N <= m < 3N, asked in a shuffled order of one fresh
    context, against z^(m mod N) by shifts and long division by Phi_N."""
    from kmaut.cyclo import _Context
    poly = cyclotomic_poly(N)
    phi = len(poly) - 1
    want = [(1,) + (0,) * (phi - 1)]
    for _ in range(N - 1):
        v = [0] + list(want[-1])
        top = v.pop()
        want.append(tuple(c - top * p for c, p in zip(v, poly)))
    ctx = _Context(N)
    ms = list(range(-N, 3 * N))
    random.Random(N).shuffle(ms)
    for m in ms:
        assert ctx.power(m) == want[m % N]


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    i = root_of_unity(4, 1)
    assert i ** 4 == 1
    assert i * i == -1
    # zeta_6^2 * zeta_6^4 = 1
    assert root_of_unity(6, 2) * root_of_unity(6, 4) == 1


def test_multiplicative_order():
    z = root_of_unity(6, 2)
    k = 1
    cur = z
    while cur != 1:
        cur = cur * z
        k += 1
    assert k == 3  # 6 / gcd(6, 2)


def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(25):
        N = rng.choice([1, 2, 3, 4, 6, 8, 12])
        phi = len(cyclotomic_poly(N)) - 1
        a = CycloScalar(N, tuple(rng.randint(-4, 4) for _ in range(phi)),
                        rng.randint(1, 5))
        b = CycloScalar(N, tuple(rng.randint(-4, 4) for _ in range(phi)),
                        rng.randint(1, 5))
        assert a + (-a) == 0
        if a:
            assert a * a.inverse() == 1
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        # a rational factor takes the integer path; it must agree with the
        # product by the same value as a scalar of the field
        for q in (0, -3, Fraction(-2, 9), Fraction(6, 4)):
            want = a * CycloScalar.from_rational(q, N)
            for got in (a * q, q * a):
                assert (got.N, got.nums, got.den) == (want.N, want.nums, want.den)


def _inverse_by_solve(x):
    """Reference inverse: the coefficients y over Q with
    sum_i y_i x z^i = 1, in the coordinates of the power basis, by
    `linalg.solve_in_span` on those coordinates as packed rows over Q."""
    phi = len(cyclotomic_poly(x.N)) - 1
    cols = [x * root_of_unity(x.N, i) for i in range(phi)]
    ents, den = linalg.solve_in_span(
        [({r: (v,) for r, v in enumerate(c.nums) if v}, c.den) for c in cols],
        ({0: (1,)}, 1), 1)
    return CycloScalar(x.N, tuple(ents.get(i, (0,))[0] for i in range(phi)),
                       den)


def test_inverse_matches_linear_solve():
    rng = random.Random(11)
    for N in range(1, 31):
        phi = len(cyclotomic_poly(N)) - 1
        for _ in range(4):
            nums = [rng.randint(-7, 7) if rng.random() < 0.6 else 0
                    for _ in range(phi)]
            nums[rng.randrange(phi)] = rng.choice((-3, -1, 1, 2))
            # negative and non-reduced denominators go in as given
            den = rng.choice((1, -1, 2, -4, 6, 30))
            x = CycloScalar(N, [c * abs(den) for c in nums] if rng.random() < 0.5
                            else nums, den)
            inv = x.inverse()
            ref = _inverse_by_solve(x)
            assert (inv.N, inv.nums, inv.den) == (ref.N, ref.nums, ref.den)
            assert x * inv == 1
    for N in (1, 2, 7, 12):
        with pytest.raises(ZeroDivisionError):
            CycloScalar.from_rational(0, N).inverse()


def test_conductor_embedding_roundtrip():
    a = root_of_unity(12, 5) + CycloScalar.from_rational(Fraction(3, 7))
    assert a.promote(24).restrict(12) == a
    assert a.promote(24) == a  # equality across conductors


def test_mixed_conductor_promotion():
    a = root_of_unity(4, 1)
    b = root_of_unity(6, 1)
    c = a * b
    assert c.N == 12
    assert c == root_of_unity(12, 3) * root_of_unity(12, 2)


@pytest.mark.parametrize("N,M", [(N, M) for N in (1, 2)
                                 for M in (3, 4, 5, 8, 12, 420) if M % N == 0])
def test_rational_lift_pads_with_zeros(N, M):
    """A coordinate vector of length 1 (N in {1, 2}) lifts to the tuple of
    length phi(M) that the embedding table gives: its value, then zeros."""
    for a in (0, 1, -3, 7, 10 ** 30):
        got = _lift((a,), N, M)
        assert type(got) is tuple and len(got) == _totient(M)
        assert got == _apply_table((a,), _embedding(N, M), _context(M).phi)
        assert got == (a,) + (0,) * (_totient(M) - 1)


def test_conductor_cap():
    with pytest.raises(ConductorOverflow):
        root_of_unity(10 ** 6 + 1, 1)


def test_lift_past_the_cap_overflows():
    """Conductors 997 and 1009 are each allowed, but their lcm is over the
    cap: a product of scalars and a sum of matrices, zero or not, fail at
    the first lift, before any context of the three is built."""
    msg = "^conductor 1005973 exceeds cap$"

    def z(N):  # zeta_N without its context
        return (0, 1) + (0,) * (N - 3)

    a, b = (CycloScalar(N, z(N), 1, _normalized=True) for N in (997, 1009))
    with pytest.raises(ConductorOverflow, match=msg):
        a * b
    X, Y = (CycloMatrix(2, N, 1, ({0: z(N)}, {1: z(N)}), _normalized=True)
            for N in (997, 1009))
    with pytest.raises(ConductorOverflow, match=msg):
        X + Y
    with pytest.raises(ConductorOverflow, match=msg):
        CycloMatrix.zeros(2, 997) + CycloMatrix.zeros(2, 1009)


def test_scalar_json_roundtrip():
    a = root_of_unity(8, 3) * Fraction(5, 6) + 2
    assert CycloScalar.from_json(a.to_json()) == a


def test_both_zeros_write_conductor_1():
    """Equal zeros computed along different paths write the same JSON, at
    conductor 1, whatever conductor each was computed in."""
    computed = root_of_unity(4, 1) * 0
    rational = CycloScalar.from_rational(0)
    assert computed == rational and computed.N == 4
    assert computed.to_json() == rational.to_json() == {"conductor": 1,
                                                         "coeffs": ["0"]}


def test_matrix_min_conductor():
    """A matrix comes back equal, at the least conductor of its entries: 3
    from 12 and from 6 (Q(zeta_6) = Q(zeta_3)), 1 for a rational matrix at
    4, 4 for i I, 24 where zeta_3 and zeta_8 meet, and the lcm of the
    entries' own, not the largest."""
    i, z3, z8 = root_of_unity(4, 1), root_of_unity(3, 1), root_of_unity(8, 1)
    M = CycloMatrix.from_scalars([[z3, 2], [0, Fraction(1, 3)]])
    for X, N in ((M.promote(12), 3), (M.promote(6), 3), (M, 3),
                 (CycloMatrix.identity(3, 4), 1),
                 (CycloMatrix.identity(2) * i, 4), ((M * z8).promote(48), 24),
                 (CycloMatrix.from_scalars([[i, 0], [0, z3]]).promote(24), 12)):
        got = X.min_conductor()
        assert got == X and got.N == N, (X.N, N)
        assert json.dumps(got.to_json()) == json.dumps(
            CycloMatrix.from_json(X.to_json(), X.n).min_conductor().to_json())


def test_least_conductor_is_the_least_divisor_that_restricts():
    """The Galois fixed-field test finds, for sums of roots of unity of
    orders dividing d, promoted to conductors N that d divides, the least
    divisor of N to which the value restricts, as a walk over the divisors
    with one restriction each finds it."""
    from kmaut.cyclo import _least_conductor

    rng = random.Random(7)
    for N in (12, 15, 20, 24, 36, 40, 45, 60, 84, 120):
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        for d in divisors:
            for _ in range(2):
                x = sum((root_of_unity(d, rng.randrange(d)) * rng.randint(-2, 2)
                         for _ in range(3)), CycloScalar.from_rational(1, d))
                x = x.promote(N)
                want = None
                for e in divisors:
                    try:
                        want = x.restrict(e)
                        break
                    except ConductorOverflow:
                        continue
                assert _least_conductor(N, x.nums) == want.N, (N, d, x)
                got = x.min_conductor()
                assert got == x and (got.N, got.nums, got.den) == (
                    want.N, want.nums, want.den)


def test_scalar_matrix_is_found_once():
    """is_scalar and is_identity read the vector that the first of them
    found: neither walks the rows again."""
    for M, c in ((CycloMatrix.identity(3) * 2, 2), (CycloMatrix.identity(2), 1),
                 (CycloMatrix.zeros(2, 4), 0),
                 (CycloMatrix.from_scalars([[1, 1], [0, 1]]), None)):
        first = M.is_scalar()
        M.rows = None  # a walk would fail
        assert M.is_scalar() == first == c and M.is_identity() == (c == 1)


@pytest.mark.parametrize("coeff", ["1e100000000", "1.5", " 1/2", "1/2 ",
                                   "0x10", "1_000", "1/-2", "inf", "nan",
                                   "\u0661", "", True, 1.5, None])
def test_scalar_json_takes_exact_strings_only(coeff):
    """Only what to_json writes parses: an int or [-+]digits[/digits]; an
    exponent such as 1e100000000 would expand to a hundred million digits."""
    with pytest.raises(MalformedData):
        CycloScalar.from_json({"conductor": 1, "coeffs": [coeff]})


def test_scalar_json_exact_strings():
    for coeff, want in [("-3/4", Fraction(-3, 4)), ("+2", 2), (7, 7),
                        ("0/5", 0), ("12/8", Fraction(3, 2))]:
        got = CycloScalar.from_json({"conductor": 1, "coeffs": [coeff]})
        assert got == CycloScalar.from_rational(want)
    with pytest.raises(MalformedData, match="not rational"):
        CycloScalar.from_json({"conductor": 1, "coeffs": ["1/0"]})


def test_matrix_ops():
    J = CycloMatrix.from_scalars([[0, 1], [-1, 0]])
    assert (J * J) == -CycloMatrix.identity(2)
    assert (J.inverse() * J).is_identity()
    assert J.det() == 1
    A = CycloMatrix.from_scalars([[1, 2], [3, 4]])
    B = CycloMatrix.from_scalars([[0, 1], [1, 1]])
    assert (A * B).det() == A.det() * B.det()
    assert (A * B).conj_transpose() == B.conj_transpose() * A.conj_transpose()
    assert CycloMatrix.from_json(A.to_json(), 2) == A


def test_eigenprojectors_identity():
    E = CycloMatrix.identity(3)
    [(val, proj)] = finite_order_eigenprojectors(E, 1)
    assert val == 1 and proj.is_identity()


def test_eigenprojectors_diag():
    M = CycloMatrix.diag([1, -1])
    out = finite_order_eigenprojectors(M, 2)
    assert len(out) == 2
    vals = [v for v, _ in out]
    assert vals[0] == 1 and vals[1] == -1
    assert out[0][1] == CycloMatrix.diag([1, 0])
    assert out[1][1] == CycloMatrix.diag([0, 1])


def test_eigenprojectors_rotation():
    # 90-degree rotation: eigenvalues +-i with projectors onto (1, -+i) lines
    R = CycloMatrix.from_scalars([[0, -1], [1, 0]])
    out = finite_order_eigenprojectors(R, 4)
    assert len(out) == 2
    i = root_of_unity(4, 1)
    half = Fraction(1, 2)
    expect = {
        tuple((i).to_json()["coeffs"]): None,
    }
    for val, proj in out:
        assert R * proj == proj * val
        assert (proj * proj) == proj
    total = out[0][1] + out[1][1]
    assert total.is_identity()
    # hand-solved projector for eigenvalue i: 1/2 [[1, i], [-i, 1]]
    Pi = CycloMatrix.from_scalars([[half, i * half], [-i * half, half]])
    assert any(proj == Pi for _, proj in out)


def test_eigenprojector_properties_random():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 4)
        N = rng.choice([2, 3, 4])
        D = CycloMatrix.diag([root_of_unity(N, rng.randrange(N))
                              for _ in range(n)])
        # conjugate by a random unipotent
        rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = Fraction(rng.randint(-2, 2))
        U = CycloMatrix.from_scalars(rows)
        M = U * D * U.inverse()
        out = finite_order_eigenprojectors(M, N)
        total = out[0][1]
        for _, p in out[1:]:
            total = total + p
        assert total.is_identity()
        for a, (va, pa) in enumerate(out):
            for b, (vb, pb) in enumerate(out):
                prod = pa * pb
                if a == b:
                    assert prod == pa
                else:
                    assert prod.is_zero()


def test_eigenprojectors_order_mismatch():
    M = CycloMatrix.diag([1, -1])
    with pytest.raises(OrderMismatch):
        finite_order_eigenprojectors(M, 3)


def test_pfaffian_base_cases():
    M = CycloMatrix.from_scalars([[0, 1], [-1, 0]])
    assert pfaffian(M) == 1
    J = CycloMatrix.from_scalars(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    # a12 a34 - a13 a24 + a14 a23 = -1
    assert pfaffian(J) == -1
    t1 = CycloMatrix.diag([-1, 1, 1, 1])
    assert pfaffian(t1 * J * t1) == 1


def test_pfaffian_errors():
    with pytest.raises(OddDimension):
        pfaffian(CycloMatrix.zeros(3))
    with pytest.raises(NotAntisymmetric):
        pfaffian(CycloMatrix.identity(2))


def test_pfaffian_squares_to_det():
    rng = random.Random(2)
    for n in (2, 4, 6, 8):
        for _ in range(3):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    rows[i][j] = v
                    rows[j][i] = -v
            M = CycloMatrix.from_scalars(rows)
            assert pfaffian(M) ** 2 == M.det()


def test_pfaffian_congruence():
    rng = random.Random(3)
    n = 4
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-3, 3))
            rows[i][j] = v
            rows[j][i] = -v
    M = CycloMatrix.from_scalars(rows)
    arows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    A = CycloMatrix.from_scalars(arows)
    assert pfaffian(A.transpose() * M * A) == A.det() * pfaffian(M)


def reference_pfaffian(M):
    """The pfaffian by expansion along the first row, over index subsets:
    exponential in the size, the reference for the elimination."""
    entries, cache = M.scalars(), {}

    def rec(idx):
        if not idx:
            return CycloScalar.from_rational(1)
        if idx not in cache:
            i, rest = idx[0], idx[1:]
            total = CycloScalar.from_rational(0)
            for pos, j in enumerate(rest):
                if entries[i][j]:
                    term = entries[i][j] * rec(tuple(x for x in rest if x != j))
                    total = total + (-term if pos % 2 else term)
            cache[idx] = total
        return cache[idx]

    return rec(tuple(range(M.n)))


def test_pfaffian_matches_the_expansion():
    """Hypothesis: on antisymmetric matrices of size up to 8 at conductors 1
    and 4, sparse ones with zero rows and pivots off the first place
    included, the elimination gives the pfaffian of the expansion."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(st.sampled_from([1, 4]), st.integers(1, 4), st.floats(0, 1),
               st.integers(0, 2**32 - 1))
    def check(N, half, density, seed):
        rng = random.Random(seed)
        m = 2 * half
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < density:
                    v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    if N == 4:
                        v = v + root_of_unity(4, 1) * rng.randint(-2, 2)
                    rows[i][j], rows[j][i] = v, -v
        M = CycloMatrix.from_scalars(rows)
        assert pfaffian(M) == reference_pfaffian(M)

    check()


def test_galois_table_matches_the_table_of_every_power():
    """The Galois table is the tuple of z^(ik mod N), i < phi(N), read off
    the full list of powers of z, for every N <= 200 and every k coprime to
    N; the lazy power table of the conductor is not grown by it."""
    from kmaut import cyclo

    for N in range(1, 201):
        ctx = cyclo._context(N)
        phi, z_phi = ctx.phi, ctx.red[0]
        pows = [(1,) + (0,) * (phi - 1)]
        while len(pows) < N:  # z^m = z * z^(m-1), with z^phi = z_phi
            top, low = pows[-1][-1], (0,) + pows[-1][:-1]
            pows.append(tuple(s + top * r for s, r in zip(low, z_phi)))
        held = len(ctx._pows)
        for k in range(1, N + 1):
            if gcd(k, N) == 1:
                want = tuple(pows[i * k % N] for i in range(phi))
                assert cyclo._galois_table.__wrapped__(N, k) == want, (N, k)
        assert len(ctx._pows) == held


def test_conductor_caches_are_bounded():
    """User input keys the per-conductor tables, so a run over many
    conductors must not keep them all."""
    from kmaut import cyclo
    caches = (cyclo.cyclotomic_poly, cyclo._context, cyclo._embedding,
              cyclo._galois_table)
    for N in range(1, 301):
        cyclo._galois_table(N, 1)
        cyclo._embedding(1, N)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert root_of_unity(12, 1).inverse() == root_of_unity(12, 11)


# ---------------------------------------------------------------------------
# sparse rows: a CycloMatrix never stores a zero entry
# ---------------------------------------------------------------------------

def assert_sparse(X):
    """X holds n row dicts of nonzero coordinate tuples at columns 0..n-1,
    over one positive denominator in lowest terms."""
    phi = len(root_of_unity(X.N, 0).nums)
    assert len(X.rows) == X.n and X.den > 0
    g = X.den
    for row in X.rows:
        assert type(row) is dict
        for j, v in row.items():
            assert 0 <= j < X.n
            assert type(v) is tuple and len(v) == phi and any(v), (j, v)
            g = gcd(g, *v)
    assert g == 1
    return X


def dense(X):
    """The entrywise reference, read through entry(i, j)."""
    return [[X.entry(i, j) for j in range(X.n)] for i in range(X.n)]


def agrees_with_dense(X, ref):
    """X is sparse, equals the nested list of scalars ref entry by entry,
    and is_zero agrees with ref."""
    assert_sparse(X)
    assert dense(X) == ref
    assert X.is_zero() == all(x.is_zero() for row in ref for x in row)


def sparse_matrix(rng, n, N, density):
    phi = len(root_of_unity(N, 0).nums)
    return CycloMatrix.from_scalars(
        [[CycloScalar(N, [rng.randint(-2, 2) for _ in range(phi)], rng.randint(1, 3))
          if rng.random() < density else 0 for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("N", [1, 4, 12])
def test_identity_and_zeros_store_no_zero(N):
    for n in (1, 3):
        one, zero = assert_sparse(CycloMatrix.identity(n, N)), assert_sparse(
            CycloMatrix.zeros(n, N))
        assert one.N == zero.N == N
        assert all(len(row) == 1 for row in one.rows)
        assert zero.is_zero() and not any(zero.rows)
        assert one.is_identity() and not one.is_zero()
        assert assert_sparse(one - one) == zero and (one - one).is_zero()
        assert assert_sparse(one * 0) == zero


@pytest.mark.parametrize("N", [1, 4, 12])
def test_cancelling_sums_store_no_zero(N):
    rng = random.Random(N)
    zero = [[CycloScalar.from_rational(0)] * 4 for _ in range(4)]
    for density in (0.3, 1.0):
        X = sparse_matrix(rng, 4, N, density)
        for got in (X - X, X + (-X), -X + X, X * 2 - X - X):
            agrees_with_dense(got, zero)
            assert got.is_zero() and got.den == 1
        # a partly cancelling sum keeps exactly the surviving entries
        Y = X.transpose()
        for sign, got in ((1, X + Y), (-1, X - Y)):
            agrees_with_dense(got, [[X.entry(i, j) + sign * Y.entry(i, j)
                                     for j in range(4)] for i in range(4)])
        agrees_with_dense(X - Y + Y - X, zero)


def test_cancelling_products_store_no_zero():
    i4 = root_of_unity(4, 1)
    # row (1, 1) against column (1, -1), and (i, 1) against (i, 1)
    for A, B in (([[1, 1], [0, 1]], [[1, 0], [-1, 1]]),
                 ([[i4, 1], [1, i4]], [[i4, 1], [1, -i4]])):
        A, B = CycloMatrix.from_scalars(A), CycloMatrix.from_scalars(B)
        P = A * B
        agrees_with_dense(P, [[sum((A.entry(r, k) * B.entry(k, c) for k in range(2)),
                                   CycloScalar.from_rational(0)) for c in range(2)]
                              for r in range(2)])
        assert P.entry(0, 0).is_zero() and 0 not in P.rows[0]


@pytest.mark.parametrize("N", [1, 4, 12])
def test_scalar_multiples_store_no_zero(N):
    rng = random.Random(10 + N)
    X = sparse_matrix(rng, 4, N, 0.5)
    scalars = [0, Fraction(-2, 3), CycloScalar.from_rational(0, 12),
               root_of_unity(4, 1) + 1, root_of_unity(3, 1) * Fraction(1, 2),
               root_of_unity(12, 5)]
    for s in scalars:
        got = X * s
        agrees_with_dense(got, [[x * s for x in row] for row in dense(X)])
        if not s:
            s = CycloScalar.from_rational(0) + s
            assert got.is_zero() and got == CycloMatrix.zeros(4, X.N)
            assert got.N == X.N * s.N // gcd(X.N, s.N)


@pytest.mark.parametrize("N", [1, 4, 12])
def test_promote_conj_transpose_store_no_zero(N):
    rng = random.Random(20 + N)
    for density in (0.0, 0.3, 1.0):
        X = sparse_matrix(rng, 4, N, density)
        ref = dense(X)
        agrees_with_dense(X.transpose(), [list(col) for col in zip(*ref)])
        agrees_with_dense(X.conj(), [[x.conj() for x in row] for row in ref])
        agrees_with_dense(X.conj_transpose(),
                          [[x.conj() for x in col] for col in zip(*ref)])
        for M in (N, 12, 24):
            agrees_with_dense(X.promote(M), [[x.promote(M) for x in row] for row in ref])


@pytest.mark.parametrize("N", [1, 4, 12])
def test_inverse_and_from_packed_store_no_zero(N):
    rng = random.Random(30 + N)
    for density in (0.4, 1.0):
        X = sparse_matrix(rng, 4, N, density) + CycloMatrix.identity(4, N) * 5
        if X.det().is_zero():
            continue
        Xi = assert_sparse(X.inverse())
        assert (X * Xi).is_identity() and (Xi * X).is_identity()
    # every packed row has its own denominator; columns outside the window
    # are left out
    rows = [({0: (1,), 2: (5,)}, 2), ({1: (1,), 2: (-1,)}, 3)]
    P = assert_sparse(CycloMatrix.from_packed(2, 1, rows, offset=1))
    assert [[x.as_fraction() for x in row] for row in dense(P)] == [
        [0, Fraction(5, 2)], [Fraction(1, 3), Fraction(-1, 3)]]
    rows = [({0: (3, 0)}, 1), ({1: (1, 2)}, 6)]
    P = assert_sparse(CycloMatrix.from_packed(2, 4, rows))
    i4 = root_of_unity(4, 1)
    assert dense(P) == [[3, 0], [0, (1 + 2 * i4) / 6]]


def test_equality_and_hash_agree_with_dense():
    rng = random.Random(40)
    mats = [sparse_matrix(rng, 3, N, d) for N in (1, 4, 12) for d in (0.0, 0.5, 1.0)]
    mats += [X.promote(12) for X in mats] + [X - X for X in mats]
    for X in mats:
        for Y in mats:
            same = dense(X) == dense(Y)
            assert (X == Y) == same
            if same:
                assert hash(X) == hash(Y)


def test_sparse_rows_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from([1, 4, 12]), st.sampled_from([1, 4, 12]),
               st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def check(NX, NY, n, density, seed):
        rng = random.Random(seed)
        X = sparse_matrix(rng, n, NX, density)
        # Y shares X's support, so sums and products are likely to cancel
        Y = X * rng.choice([-1, 1, root_of_unity(4, 1)]) + sparse_matrix(
            rng, n, NY, density / 2)
        s = Y.entry(rng.randrange(n), rng.randrange(n))
        x, y = dense(X), dense(Y)
        zero = CycloScalar.from_rational(0)
        agrees_with_dense(X + Y, [[a + b for a, b in zip(r, t)] for r, t in zip(x, y)])
        agrees_with_dense(X - Y, [[a - b for a, b in zip(r, t)] for r, t in zip(x, y)])
        agrees_with_dense(X * Y, [[sum((x[i][k] * y[k][j] for k in range(n)), zero)
                                   for j in range(n)] for i in range(n)])
        agrees_with_dense(X * s, [[a * s for a in r] for r in x])
        agrees_with_dense(-Y, [[-b for b in r] for r in y])
        agrees_with_dense(Y.transpose(), [list(c) for c in zip(*y)])
        agrees_with_dense(Y.conj(), [[b.conj() for b in r] for r in y])
        agrees_with_dense(X.promote(12), [[a.promote(12) for a in r] for r in x])
        for A, B in ((X, Y), (X + Y - Y, X), (X - X, Y - Y)):
            assert (A == B) == (dense(A) == dense(B))
            if A == B:
                assert hash(A) == hash(B)

    check()


# ---------------------------------------------------------------------------
# JSON matrices: read straight into packed rows
# ---------------------------------------------------------------------------

def reference_from_json(obj):
    """The reader as it was: one CycloScalar per entry, packed by
    from_scalars."""
    return CycloMatrix.from_scalars([[CycloScalar.from_json(x) for x in row]
                                     for row in obj])


def json_coeff(rng):
    """A coefficient string as to_json writes it, or unreduced, signed or
    a plain int."""
    num, den = rng.randint(-4, 4), rng.randint(1, 4)
    return rng.choice([0, "0", "-0", "+0", "0/3", str(num), "+%d" % abs(num),
                       num, "%d/%d" % (num, den), "%d/%d" % (2 * num, 2 * den)])


def json_matrix(rng, n, conductors, density):
    """An n x n JSON matrix whose entries take random conductors; an entry
    is zero with probability 1 - density, also at a large conductor."""
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            N = rng.choice(conductors)
            phi = len(root_of_unity(N, 0).nums)
            coeffs = [json_coeff(rng) if rng.random() < density
                      else rng.choice(["0", 0, "-0", "0/5"]) for _ in range(phi)]
            row.append({"conductor": N, "coeffs": coeffs})
        out.append(row)
    return out


def same_packed(A, B):
    return (A.n, A.N, A.den, A.rows) == (B.n, B.N, B.den, B.rows)


def test_matrix_json_matches_the_scalar_path():
    for obj in (
            # conductors 3 and 4 give 12
            [[{"conductor": 3, "coeffs": ["1", "-2/4"]},
              {"conductor": 4, "coeffs": ["+3", "0"]}],
             [{"conductor": 1, "coeffs": ["-0"]}, {"conductor": 1, "coeffs": [1]}]],
            # a zero entry at conductor 4 still sets the conductor
            [[{"conductor": 1, "coeffs": ["2/4"]}, {"conductor": 4, "coeffs": ["0", "0"]}],
             [{"conductor": 1, "coeffs": ["0"]}, {"conductor": 1, "coeffs": ["-1/6"]}]],
            # all zero
            [[{"conductor": 5, "coeffs": ["0", "-0", "0/7", 0]}]]):
        got = CycloMatrix.from_json(obj, len(obj))
        assert same_packed(got, reference_from_json(obj))
        assert_sparse(got)
    assert CycloMatrix.from_json(obj, len(obj)).N == 5


def test_matrix_json_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.sampled_from([(1,), (1, 3, 4), (3, 4), (1, 4, 12), (5, 8)]),
               st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def check(conductors, n, density, seed):
        obj = json_matrix(random.Random(seed), n, conductors, density)
        got = CycloMatrix.from_json(obj, len(obj))
        assert same_packed(got, reference_from_json(obj))
        assert_sparse(got)

    check()


def test_scalar_and_matrix_json_round_trip_to_the_byte():
    """to_json -> from_json -> to_json writes the same bytes for matrices
    read from random JSON (mixed conductors, zero entries, unreduced
    coefficients) and for each of their entries as a scalar."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.sampled_from([(1,), (1, 3, 4), (3, 4), (1, 4, 12), (5, 8)]),
               st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def check(conductors, n, density, seed):
        M = CycloMatrix.from_json(
            json_matrix(random.Random(seed), n, conductors, density), n)
        text = json.dumps(M.to_json())
        assert json.dumps(CycloMatrix.from_json(json.loads(text), n)
                          .to_json()) == text
        for i in range(n):
            for j in range(n):
                text = json.dumps(M.entry(i, j).to_json())
                back = CycloScalar.from_json(json.loads(text))
                assert json.dumps(back.to_json()) == text

    check()


def reference_to_json(M):
    """The writer by the scalar path: one CycloScalar per nonzero entry, in
    row-major order."""
    return {"size": M.n, "entries": [[i, j, M.entry(i, j).to_json()]
                                     for i in range(M.n) for j in range(M.n)
                                     if M.entry(i, j)]}


def dense_to_json(M):
    """The nested-list writer of older files: one CycloScalar per entry, and
    a zero entry at the matrix's conductor."""
    zero = {"conductor": M.N, "coeffs": ["0"] * len(M.entry(0, 0).nums)}
    return [[M.entry(i, j).to_json() if M.entry(i, j) else zero
             for j in range(M.n)] for i in range(M.n)]


def test_matrix_to_json_matches_the_scalar_path():
    """Byte-identical output with zero entries, mixed conductors and
    denominators that share a factor with some or all numerators; zero
    entries are not written, and the others keep the matrix's
    conductor."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(st.sampled_from([(1,), (1, 3, 4), (3, 4), (1, 4, 12), (5, 8)]),
               st.integers(1, 4), st.floats(0, 1), st.integers(0, 2**32 - 1),
               st.integers(1, 6))
    def check(conductors, n, density, seed, factor):
        M = CycloMatrix.from_json(json_matrix(random.Random(seed), n,
                                              conductors, density), n)
        # the same matrix with a common factor kept in den and every entry
        unreduced = CycloMatrix(
            M.n, M.N, M.den * factor,
            tuple({j: tuple(c * factor for c in v) for j, v in row.items()}
                  for row in M.rows), _normalized=True)
        for X, value in ((M, M), (unreduced, M), (M * M, M * M)):
            got = json.dumps(X.to_json())
            assert got == json.dumps(reference_to_json(X))
            assert CycloMatrix.from_json(json.loads(got), X.n) == value

    check()


def entry(N=1, coeffs=("1",)):
    return {"conductor": N, "coeffs": list(coeffs)}


SCALAR_SHAPE = 'a scalar is {"conductor": N, "coeffs": [...]}'


@pytest.mark.parametrize("bad, exc, message", [
    (["1"], MalformedData, SCALAR_SHAPE),
    ({"conductor": 1}, MalformedData, SCALAR_SHAPE),
    ({"conductor": 1, "coeffs": "1"}, MalformedData, SCALAR_SHAPE),
    (entry(4, ["1", "0", "0"]), MalformedData,
     "conductor 4 takes 2 coefficients, not 3"),
    (entry(1, ["1/0"]), MalformedData, "a coefficient '1/0' is not rational"),
    (entry(1, ["1e5"]), MalformedData,
     'a coefficient must be an integer or an exact string such as "-3/4", '
     "not '1e5'"),
    (entry(True), MalformedData, "conductor must be an integer, not True"),
    (entry(0, []), ConductorOverflow, "conductor must be positive"),
    # the syntax of every coefficient is checked before the conductor
    (entry(0, ["1e5"]), MalformedData, "a coefficient must be an integer"),
])
def test_matrix_json_errors(bad, exc, message):
    """One checked entry reader: a bad entry fails the scalar and the
    matrix reader alike, wherever it sits in the matrix."""
    with pytest.raises(exc) as scalar_err:
        CycloScalar.from_json(bad)
    assert str(scalar_err.value).startswith(message)
    good = entry()
    for obj in ([[bad]], [[good, good], [good, bad]], [[bad, good], [good, good]],
                {"size": 1, "entries": [[0, 0, bad]]},
                {"size": 2, "entries": [[0, 1, good], [1, 0, bad]]}):
        n = obj["size"] if type(obj) is dict else len(obj)
        with pytest.raises(exc) as err:
            CycloMatrix.from_json(obj, n)
        assert str(err.value) == str(scalar_err.value)


def test_matrix_json_shape_errors():
    """A matrix of neither form for the size the caller expects, 1 or 2
    here, is refused before any entry is read."""
    for obj in ([], [[]], [[entry()], [entry()]], [[entry(), entry()]],
                [entry()], {"0": [entry()]}, None, "[[]]"):
        for n in (1, 2):
            if obj == [[entry()]] and n == 1:
                continue
            with pytest.raises(MalformedData, match="^a %dx%d matrix " % (n, n)):
                CycloMatrix.from_json(obj, n)


@pytest.mark.parametrize("obj", [
    {"size": 10**9, "entries": []}, {"size": True, "entries": []},
    {"size": 2.0, "entries": []}, {"size": "2", "entries": []},
    {"entries": []}, {"size": 2}, {"size": 2, "entries": {}},
    {"size": 2, "entries": "[]"}, {"size": 2, "entries": None},
    {"size": 2, "entries": [[True, 0, entry()]]},
    {"size": 2, "entries": [[0, False, entry()]]},
    {"size": 2, "entries": [[0, 2, entry()]]},
    {"size": 2, "entries": [[-1, 0, entry()]]},
    {"size": 2, "entries": [[0, 0.0, entry()]]},
    {"size": 2, "entries": [[0, 0]]},
    {"size": 2, "entries": [[0, 0, entry(), 1]]},
    {"size": 2, "entries": [0, 0, entry()]},
    {"size": 2, "entries": [{"i": 0, "j": 0, "x": entry()}]},
    {"size": 2, "entries": [[0, 0, entry()], [0, 0, entry()]]},
    {"size": 2, "entries": [[0, 0, entry(1, ["0"])], [0, 0, entry()]]},
    {"size": 2, "entries": [[1, 0, entry()], [0, 1, entry()]]},
], ids=["huge_size", "bool_size", "float_size", "string_size", "no_size",
        "no_entries", "entries_object", "entries_string", "entries_null",
        "bool_row", "bool_column", "column_out_of_range", "negative_row",
        "float_column", "short_entry", "long_entry", "flat_entry",
        "entry_object", "repeated", "repeated_after_zero", "column_major"])
def test_sparse_matrix_json_errors(obj):
    """Each of these is refused with MalformedData before any arithmetic,
    the size 10^9 before any row is made: a size other than the one the
    caller expects, a bool or out-of-range index, an entry that is not
    [i, j, scalar], and a position repeated or out of row-major order."""
    with pytest.raises(MalformedData):
        CycloMatrix.from_json(obj, 2)


def test_sparse_and_dense_json_read_to_the_same_matrix():
    """Hypothesis: a random sparse square matrix at conductor 1, 3, 4 or 8
    reads back from its JSON and from the nested list of older files with
    equal N, den and rows (a zero matrix, whose JSON holds no entry, reads
    at conductor 1); the writer writes no zero entry, writes the nonzero
    ones in row-major order, and writes again what it reads from its own
    output, byte for byte."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(st.sampled_from([1, 3, 4, 8]), st.integers(1, 5),
               st.floats(0, 1), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def check(N, n, density, den, seed):
        rng = random.Random(seed)
        phi = len(root_of_unity(N, 0).nums)
        rows = tuple({j: v for j in range(n) if rng.random() < density
                      for v in [tuple(rng.choice([0, 0, 1, -2, 3])
                                      for _ in range(phi))] if any(v)}
                     for _ in range(n))
        M = CycloMatrix(n, N, den, rows)
        text = json.dumps(M.to_json())
        sparse = CycloMatrix.from_json(json.loads(text), n)
        dense = CycloMatrix.from_json(dense_to_json(M), n)
        assert same_packed(dense, M) and sparse == M
        if not M.is_zero():
            assert same_packed(sparse, M)
        cells = json.loads(text)["entries"]
        assert [(i, j) for i, j, _ in cells] == [
            (i, j) for i, row in enumerate(M.rows) for j in sorted(row)]
        assert all(x["conductor"] == N and set(x["coeffs"]) != {"0"}
                   for _, _, x in cells)
        assert json.dumps(sparse.to_json()) == text

    check()


def test_matrix_json_conductor_cap_builds_no_context(monkeypatch):
    """Conductors 997 and 1009 are each allowed, but their lcm is over
    MAX_CONDUCTOR: the reader fails before any context is built, also when
    both entries are zero."""
    from kmaut import cyclo

    def no_context(*args):
        raise AssertionError("context built for %r" % (args,))

    monkeypatch.setattr(cyclo, "_context", no_context)
    monkeypatch.setattr(cyclo, "_embedding", no_context)
    for coeff in ("1", "0"):
        obj = [[entry(997, [coeff] + ["0"] * 995), entry(1)],
               [entry(1), entry(1009, [coeff] + ["0"] * 1007)]]
        with pytest.raises(ConductorOverflow, match="^conductor 1005973 exceeds cap$"):
            CycloMatrix.from_json(obj, len(obj))


_ZERO1, _ZERO4 = entry(1, ["0"]), entry(4, ["0", "0"])


@pytest.mark.parametrize("case", [
    dict(_ZERO1, conductor=True), dict(_ZERO1, conductor=1.0),
    entry(0, ["0"]), entry(-4, ["0", "0"]), dict(_ZERO1, conductor="1"),
    dict(_ZERO1, conductor=[1]), {"coeffs": ["0"]},
    entry(1, [0]), entry(4, [0, "0"]),
    entry(4, ["0"]), entry(1, ["0", "0"]),
    dict(_ZERO4, extra=1),
    entry(3, ["0", "0"]), entry(12, ["0"] * 4),
], ids=["bool_conductor", "float_conductor", "conductor_0", "conductor_-4",
        "string_conductor", "list_conductor", "no_conductor",
        "int_coeff", "int_coeff_4", "short_list", "long_list", "extra_key",
        "new_conductor_3", "new_conductor_12"])
def test_matrix_json_entries_next_to_checked_zeros(case):
    """Only an exact copy of the zero entry of an int conductor already read
    in the matrix skips the entry reader; every near miss reads, or fails
    with the same error, as the entry reader makes it."""
    obj = [[_ZERO1, _ZERO4, entry()], [entry(), case, _ZERO1],
           [_ZERO4, entry(), entry()]]
    try:
        want = reference_from_json(obj)
    except (MalformedData, ConductorOverflow) as err:
        with pytest.raises(type(err)) as got:
            CycloMatrix.from_json(obj, len(obj))
        assert str(got.value) == str(err)
    else:
        assert same_packed(CycloMatrix.from_json(obj, len(obj)), want)


def test_matrix_json_reads_one_zero_entry_per_conductor(monkeypatch):
    """Zero entries at conductor 4 beside nonzero ones at conductor 1: the
    entry reader runs once for each distinct entry value (the unit, -1/2 and
    the zero, 3 calls for 9 entries), and the matrix keeps conductor 4."""
    from kmaut import cyclo
    obj = [[entry(), _ZERO4, _ZERO4], [_ZERO4, entry(1, ["-1/2"]), _ZERO4],
           [_ZERO4, _ZERO4, entry()]]
    calls = []
    read = cyclo._json_scalar
    monkeypatch.setattr(cyclo, "_json_scalar",
                        lambda x: calls.append(x) or read(x))
    got = CycloMatrix.from_json(obj, len(obj))
    assert len(calls) == 3
    monkeypatch.undo()
    assert got.N == 4 and same_packed(got, reference_from_json(obj))


@pytest.mark.parametrize("variant, raises", [
    (dict(entry(), conductor=True), True), (entry(1, [1.0]), True),
    (entry(1, [True]), True), (entry(1, [["1"]]), True), (entry(1, [1]), False),
], ids=["bool_conductor", "float_coeff", "bool_coeff", "list_coeff",
        "int_coeff"])
def test_matrix_json_near_copies_of_a_repeated_entry(variant, raises):
    """Each distinct entry is read once per matrix, under a key of its int
    conductor and str coefficients only: in a matrix of repeated unit
    entries, written with "1" and with 1, one with "conductor": true or a
    coefficient 1.0, true or ["1"] (unhashable) fails as the entry reader
    fails it, at every position; a coefficient 1, an exact integer, reads
    as the unit."""
    for pos in range(9):
        obj = [[entry(1, [(1, "1")[(i + j) % 2]]) for j in range(3)]
               for i in range(3)]
        obj[pos // 3][pos % 3] = variant
        if raises:
            with pytest.raises(MalformedData) as err:
                CycloMatrix.from_json(obj, len(obj))
            with pytest.raises(MalformedData) as want:
                reference_from_json(obj)
            assert str(err.value) == str(want.value)
        else:
            assert same_packed(CycloMatrix.from_json(obj, len(obj)),
                               reference_from_json(obj))


# zeros at conductors 1-4 (those above 1 still raise the matrix conductor)
_GRID_ZEROS = [_ZERO1, entry(2, ["0"]), entry(3, ["0", "0"]), _ZERO4]
_GRID_COEFFS = [0, "0", "-0", "0/5", "1", "-3", "+2", 7, "1/2", "-4/6", "5/3"]
# each refused alone: a bool or float conductor on the zero of conductor 1,
# a zero denominator, an exponent and an unhashable coefficient
_GRID_BAD = [dict(_ZERO1, conductor=True), dict(_ZERO1, conductor=1.0),
             entry(1, ["0/0"]), entry(1, ["1e5"]), entry(1, [["1"]])]


def test_matrix_json_equals_the_entry_by_entry_reader():
    """Hypothesis: the matrix read from a square grid of JSON entries (the
    zeros above, integer and fraction coefficients at conductors 1-4, and
    entries with an extra key) has the conductor, denominator and rows of
    the one assembled from CycloScalar.from_json entry by entry; with one
    entry that the scalar reader refuses alone, it is refused with the
    same MalformedData."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def at(N):  # an entry of conductor N, of drawn coefficients
        phi = len(_GRID_ZEROS[N - 1]["coeffs"])
        return st.lists(st.sampled_from(_GRID_COEFFS), min_size=phi,
                        max_size=phi).map(lambda c: entry(N, c))

    zeros = st.sampled_from(_GRID_ZEROS)
    drawn = st.sampled_from([1, 2, 3, 4]).flatmap(at)
    good = st.one_of(zeros, zeros, drawn,
                     st.one_of(zeros, drawn).map(lambda x: dict(x, extra=1)))
    grids = st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(good, min_size=n, max_size=n), min_size=n, max_size=n))

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(grids, st.none() | st.tuples(st.integers(0, 15),
                                            st.sampled_from(_GRID_BAD)))
    def check(obj, bad):
        if bad is not None:
            n = len(obj)
            obj[bad[0] // n % n][bad[0] % n] = bad[1]
        try:
            want = reference_from_json(obj)
        except MalformedData as err:
            assert bad is not None
            with pytest.raises(MalformedData) as got:
                CycloMatrix.from_json(obj, len(obj))
            assert str(got.value) == str(err)
        else:
            assert bad is None
            got = CycloMatrix.from_json(obj, len(obj))
            assert same_packed(got, want)
            assert_sparse(got)

    check()
