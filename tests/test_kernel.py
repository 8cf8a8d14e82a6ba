"""The arithmetic kernel and the sparsity-aware products built on it.

Kernel products are checked against a triple loop written here, which reduces
modulo the cyclotomic polynomial by long division instead of the kernel's
reduction rows.  The CycloMatrix fast paths (trace_mul, matrix times scalar,
promote) are checked against the entrywise path: promote every scalar, then
multiply with CycloScalar arithmetic.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from kmaut import kernel
from kmaut.cyclo import CycloMatrix, CycloScalar, _context

# Phi_N, lowest degree first, for the conductors with phi = 1, 2, 4
POLY = {1: (-1, 1), 4: (1, 0, 1), 12: (1, 0, -1, 0, 1)}
DENSITIES = (0.0, 0.05, 0.2, 0.5, 1.0)


def ref_mul(a, b, poly):
    """Product of two coordinate vectors modulo the monic polynomial poly."""
    phi = len(poly) - 1
    work = [0] * (2 * phi - 1)
    for p in range(phi):
        for q in range(phi):
            work[p + q] += a[p] * b[q]
    for t in range(len(work) - 1, phi - 1, -1):
        c = work[t]
        for j in range(phi + 1):
            work[t - phi + j] -= c * poly[j]
    assert not any(work[phi:])
    return tuple(work[:phi])


def ref_matmul(A, B, poly, n):
    phi = len(poly) - 1
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [0] * phi
            for k in range(n):
                prod = ref_mul(A[i][k], B[k][j], poly)
                acc = [x + y for x, y in zip(acc, prod)]
            row.append(tuple(acc))
        out.append(tuple(row))
    return out


def rand_rows(rng, n, phi, density, zero_row=None, zero_col=None):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == zero_row or j == zero_col or rng.random() >= density:
                row.append((0,) * phi)
            else:
                vec = [rng.randint(-4, 4) for _ in range(phi)]
                vec[rng.randrange(phi)] = rng.choice((-3, -1, 1, 2))
                row.append(tuple(vec))
        rows.append(tuple(row))
    return tuple(rows)


def kernel_cases():
    rng = random.Random(20260)
    cases = []
    for N in sorted(POLY):
        phi = len(POLY[N]) - 1
        for density in DENSITIES:
            for n in (1, 3, 6, 9):
                zr = rng.randrange(n) if rng.random() < 0.5 else None
                zc = rng.randrange(n) if rng.random() < 0.5 else None
                A = rand_rows(rng, n, phi, density, zero_row=zr)
                B = rand_rows(rng, n, phi, density, zero_col=zc)
                cases.append((N, n, A, B))
        zero = rand_rows(rng, 5, phi, 0.0)
        full = rand_rows(rng, 5, phi, 1.0)
        cases += [(N, 5, zero, full), (N, 5, full, zero), (N, 5, zero, zero)]
    return cases


CASES = kernel_cases()


def pack(rows):
    """Dense rows as the kernel takes them: one dict of the nonzero entries
    per row."""
    return [{j: v for j, v in enumerate(row) if any(v)} for row in rows]


def unpack(rows, n, phi):
    return [tuple(row.get(j, (0,) * phi) for j in range(n)) for row in rows]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_pure_matmul_matches_triple_loop(case):
    N, n, A, B = CASES[case]
    ctx = _context(N)
    got = kernel.matmul(pack(A), pack(B), ctx.red, ctx.phi, n)
    assert unpack(got, n, ctx.phi) == ref_matmul(A, B, POLY[N], n)
    assert all(type(v) is tuple and any(v) for r in got for v in r.values())


@pytest.mark.parametrize("case", range(len(CASES)))
def test_commutator_matches_two_products(case):
    """AB - BA as `bracket_matrix` forms it, two kernel products and a
    difference, equals the difference of the two triple loops and stores no
    entry that cancels."""
    N, n, A, B = CASES[case]
    ctx = _context(N)
    X = CycloMatrix(n, N, 1, tuple(pack(A)))
    Y = CycloMatrix(n, N, 1, tuple(pack(B)))
    got = X * Y - Y * X
    AB, BA = ref_matmul(A, B, POLY[N], n), ref_matmul(B, A, POLY[N], n)
    assert got.den == 1
    assert unpack(got.rows, n, ctx.phi) == [
        tuple(tuple(x - y for x, y in zip(p, q)) for p, q in zip(r, t))
        for r, t in zip(AB, BA)]
    assert all(type(v) is tuple and any(v) for r in got.rows for v in r.values())
    assert (X * X - X * X).rows == ({},) * n


@pytest.mark.parametrize("N", sorted(POLY))
def test_matmul_drops_cancelled_entries(N):
    """Row (a, b) times column (b, -a) cancels in every ring; the product
    stores no zero tuple there, and keeps the entries that survive."""
    rng = random.Random(100 + N)
    ctx = _context(N)
    phi = ctx.phi
    for _ in range(20):
        a, b = (tuple(rng.randint(-3, 3) for _ in range(phi)) for _ in range(2))
        if not (any(a) and any(b)):
            continue
        c = tuple(rng.randint(-3, 3) for _ in range(phi))
        A = ((a, b), (c, (0,) * phi))
        B = ((b, a), (tuple(-x for x in a), b))
        got = kernel.matmul(pack(A), pack(B), ctx.red, phi, 2)
        assert unpack(got, 2, phi) == ref_matmul(A, B, POLY[N], 2)
        assert 0 not in got[0]
        assert all(any(v) for row in got for v in row.values())


@pytest.mark.parametrize("N", sorted(POLY))
def test_conv_reduce_matches_long_division(N):
    rng = random.Random(N)
    ctx = _context(N)
    phi = ctx.phi
    zero = (0,) * phi
    vecs = [zero] + [tuple(rng.randint(-5, 5) for _ in range(phi))
                     for _ in range(12)]
    for a in vecs:
        for b in vecs:
            got = kernel.conv_reduce(a, b, ctx.red, phi)
            assert type(got) is tuple
            assert got == ref_mul(a, b, POLY[N])


def test_conv_reduce_at_degree_two_property():
    """At conductors 3, 4 and 6, where phi = 2 and the product is in closed
    form, conv_reduce is the schoolbook product reduced by Phi_N."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # Phi_3 = x^2 + x + 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    phi_n = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}
    coeff = st.integers(-10**12, 10**12)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.sampled_from(sorted(phi_n)), st.tuples(coeff, coeff),
               st.tuples(coeff, coeff))
    def check(N, a, b):
        ctx = _context(N)
        assert ctx.phi == 2
        got = kernel.conv_reduce(a, b, ctx.red, ctx.phi)
        assert type(got) is tuple
        assert got == ref_mul(a, b, phi_n[N])

    check()


def test_trace_is_the_sum_of_the_diagonal():
    """trace sums the diagonal coordinates; its value, conductor and lowest
    terms are those of the entrywise CycloScalar sum."""
    rng = random.Random(35)
    for N in (1, 3, 4, 12):
        for density in DENSITIES:
            X = rand_matrix(rng, 4, N, density)
            want = CycloScalar.from_rational(0, N)
            for i in range(4):
                want = want + X.entry(i, i)
            got = X.trace()
            assert (got.N, got.nums, got.den) == (want.N, want.nums, want.den)


def test_add_rows_drops_cancelled_entries_and_keeps_its_inputs():
    """fa * a + fb * b entry by entry, with no zero tuple kept; the inputs,
    which rref may go on to mutate, are neither changed nor returned."""
    rng = random.Random(5)
    for _ in range(200):
        phi = rng.choice((1, 2, 4))
        a = {j: tuple(rng.randint(-2, 2) for _ in range(phi))
             for j in rng.sample(range(6), rng.randint(0, 6))}
        a = {j: v for j, v in a.items() if any(v)}
        # b shares some entries with a, some of them its exact negatives
        b = {j: tuple(-x for x in v) if rng.random() < 0.5 else v
             for j, v in a.items() if rng.random() < 0.6}
        b.update({j: (1,) * phi for j in range(6, 6 + rng.randint(0, 2))})
        fa, fb = rng.choice((1, 2)), rng.choice((1, -1, 3))
        a0, b0 = dict(a), dict(b)
        got = kernel.add_rows(a, fa, b, fb)
        want = {}
        for j in set(a) | set(b):
            v = tuple(fa * x + fb * y for x, y in
                      zip(a.get(j, (0,) * phi), b.get(j, (0,) * phi)))
            if any(v):
                want[j] = v
        assert got == want
        assert got is not a and got is not b and a == a0 and b == b0
    a = {0: (1, 2), 1: (3, 0)}
    assert kernel.add_rows(a, 1, {0: (1, 2)}, -1) == {1: (3, 0)}
    assert a == {0: (1, 2), 1: (3, 0)}


def test_rows_gcd_is_gcd_of_coefficients_and_den():
    rng = random.Random(5)
    for phi in (1, 2, 4):
        for _ in range(40):
            scale = rng.choice((1, 2, 6, 12))
            rows = tuple(tuple(tuple(scale * rng.randint(-4, 4) for _ in range(phi))
                               for _ in range(3)) for _ in range(3))
            den = scale * rng.randint(1, 5)
            want = reduce(gcd, (c for row in rows for vec in row for c in vec), den)
            assert kernel.rows_gcd(rows, den) == want
        zero_rows = (((0,) * phi,) * 2,) * 2
        assert kernel.rows_gcd(zero_rows, 6) == 6
        assert kernel.rows_gcd((), 4) == 4


def test_rows_gcd_stops_at_one():
    def unread():
        raise AssertionError("rows_gcd read past a gcd of 1")
        yield

    assert kernel.rows_gcd([((4, 6), (9, 0)), unread()], 12) == 1


# ---------------------------------------------------------------------------
# CycloMatrix fast paths
# ---------------------------------------------------------------------------

def rand_matrix(rng, n, N, density):
    phi = _context(N).phi
    entries = [[CycloScalar(N, tuple(rng.randint(-3, 3) for _ in range(phi)),
                            rng.randint(1, 4))
                if rng.random() < density else CycloScalar.from_rational(0, N)
                for _ in range(n)] for _ in range(n)]
    return CycloMatrix.from_scalars(entries)


def entrywise_scale(M, s):
    """Promote-then-convolve: every entry times s in CycloScalar arithmetic."""
    return CycloMatrix.from_scalars([[M.entry(i, j) * s for j in range(M.n)]
                                     for i in range(M.n)])


def same(X, Y):
    return (X.n, X.N, X.den, X.rows) == (Y.n, Y.N, Y.den, Y.rows)


@pytest.mark.parametrize("NX,NY", [(1, 1), (4, 4), (12, 12), (1, 4), (4, 1),
                                   (3, 4), (4, 3), (12, 3)])
def test_trace_mul_is_trace_of_product(NX, NY):
    rng = random.Random(NX * 100 + NY)
    for density in DENSITIES:
        for n in (1, 4, 7):
            X = rand_matrix(rng, n, NX, density)
            Y = rand_matrix(rng, n, NY, density)
            got, want = X.trace_mul(Y), (X * Y).trace()
            assert (got.N, got.nums, got.den) == (want.N, want.nums, want.den)


SCALARS = [
    CycloScalar.from_rational(0),
    CycloScalar.from_rational(Fraction(-3, 4)),
    CycloScalar.from_rational(Fraction(5, 6), 4),
    CycloScalar.from_rational(0, 12),
    CycloScalar(4, (0, 1), 1),
    CycloScalar(4, (2, -3), 5),
    CycloScalar(3, (1, 1), 2),
    CycloScalar(12, (1, 0, -2, 3), 7),
]


@pytest.mark.parametrize("N", [1, 3, 4, 12])
def test_scalar_multiple_matches_entrywise(N):
    rng = random.Random(N)
    for density in DENSITIES:
        M = rand_matrix(rng, 5, N, density)
        for s in SCALARS:
            assert same(M * s, entrywise_scale(M, s)), (N, density, s)
            assert same(s * M, M * s)
    # ints and Fractions take the integer path, at M's conductor
    for s in (Fraction(2, 3), Fraction(-5, 4), Fraction(0), -2, 0):
        M = rand_matrix(rng, 4, N, 0.5)
        assert same(M * s, entrywise_scale(M, CycloScalar.from_rational(s)))
        assert (M * s).to_json() == (M * CycloScalar.from_rational(s)).to_json()
        assert same(s * M, M * s) and (M * s).N == N


@pytest.mark.parametrize("N,M", [(1, 4), (1, 12), (3, 12), (4, 12), (4, 4)])
def test_promote_matches_entrywise(N, M):
    rng = random.Random(N * M)
    for density in DENSITIES:
        A = rand_matrix(rng, 5, N, density)
        want = CycloMatrix.from_scalars(
            [[A.entry(i, j).promote(M) for j in range(5)] for i in range(5)])
        got = A.promote(M)
        assert got.N == M and got == want
        assert (got.den, got.rows) == (want.den, want.rows)
    zero = CycloMatrix.zeros(3, N).promote(M)
    assert zero.rows == CycloMatrix.zeros(3, M).rows


def test_sum_and_difference_match_entrywise():
    rng = random.Random(7)
    for NX, NY in [(1, 1), (1, 4), (4, 12), (3, 4)]:
        for density in DENSITIES:
            X = rand_matrix(rng, 4, NX, density)
            Y = rand_matrix(rng, 4, NY, density)
            for sign, got in ((1, X + Y), (-1, X - Y)):
                want = CycloMatrix.from_scalars(
                    [[X.entry(i, j) + Y.entry(i, j) * sign for j in range(4)]
                     for i in range(4)])
                assert got == want
                assert got.N == want.N and (got.den, got.rows) == (want.den, want.rows)


def test_products_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(st.sampled_from([1, 3, 4, 12]), st.sampled_from([1, 3, 4, 12]),
               st.integers(1, 5), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def check(NX, NY, n, density, seed):
        rng = random.Random(seed)
        X = rand_matrix(rng, n, NX, density)
        Y = rand_matrix(rng, n, NY, density)
        P = X * Y
        want = CycloMatrix.from_scalars(
            [[sum((X.entry(i, k) * Y.entry(k, j) for k in range(n)),
                  CycloScalar.from_rational(0))
              for j in range(n)] for i in range(n)])
        assert P == want
        assert X.trace_mul(Y) == P.trace()
        s = Y.entry(0, 0)
        assert same(X * s, entrywise_scale(X, s))

    check()


def test_commutator_property():
    """X*Y - Y*X, the matrix bracket, is the entrywise commutator and is
    antisymmetric to the byte at equal and mixed conductors; zero matrices
    and pairs that commute give the zero matrix."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.sampled_from([1, 3, 4, 12]), st.sampled_from([1, 3, 4, 12]),
               st.integers(1, 5), st.floats(0, 1),
               st.sampled_from(["random", "zero", "commuting"]),
               st.integers(0, 2**32 - 1))
    @hyp.example(1, 4, 3, 0.5, "random", 1)
    @hyp.example(1, 4, 3, 0.5, "zero", 2)
    @hyp.example(4, 1, 3, 0.5, "commuting", 3)
    def check(NX, NY, n, density, kind, seed):
        rng = random.Random(seed)
        X = rand_matrix(rng, n, NX, density)
        if kind == "zero":
            Y = CycloMatrix.zeros(n, NY)
        elif kind == "commuting":
            # a polynomial in X, carried to conductor lcm(NX, NY)
            s = rand_matrix(rng, 1, NY, 1.0).entry(0, 0)
            Y = X * X * s + X * Fraction(1, 2) + CycloMatrix.identity(n, NY)
        else:
            Y = rand_matrix(rng, n, NY, density)
        zero = CycloScalar.from_rational(0)
        C = X * Y - Y * X
        assert C == CycloMatrix.from_scalars(
            [[sum((X.entry(i, k) * Y.entry(k, j) - Y.entry(i, k) * X.entry(k, j)
                   for k in range(n)), zero)
              for j in range(n)] for i in range(n)])
        # to_json carries the conductor tag of every entry
        assert C.to_json() == (-(Y * X - X * Y)).to_json()
        if kind != "random":
            assert C.is_zero() and not any(C.rows)

    check()
