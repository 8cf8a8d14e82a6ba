"""The exact elimination in linalg (the dense `rref` behind matrix inverse,
determinant, solving and conductor restriction, and the incremental `Span`)
against a plain rank computation and a permutation-expansion determinant
written here."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from kmaut import linalg
from kmaut.cyclo import CycloMatrix, CycloScalar, root_of_unity
from kmaut.errors import ConductorOverflow
from kmaut.linalg import Span


def rank(rows):
    """Rank by forward Gaussian elimination over Fraction."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def random_matrix(rng):
    """A small matrix of rank at most a drawn bound, as a product of two
    random factors, with some rows then set to zero."""
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
    k = rng.randint(0, min(nrows, ncols))

    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    left = [[q() for _ in range(k)] for _ in range(nrows)]
    right = [[q() for _ in range(ncols)] for _ in range(k)]
    rows = [[sum((a[t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(ncols)] for a in left]
    for i in range(nrows):
        if rng.random() < 0.2:
            rows[i] = [Fraction(0)] * ncols
    return rows, ncols


def probes(rng, rows, ncols):
    """The zero vector, random vectors and combinations of the rows."""
    out = [[Fraction(0)] * ncols]
    for _ in range(3):
        out.append([Fraction(rng.randint(-2, 2)) for _ in range(ncols)])
        coef = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in rows]
        out.append([sum((c * r[j] for c, r in zip(coef, rows)), Fraction(0))
                    for j in range(ncols)])
    return out


def check_span(rows, ncols, vectors):
    span = Span()
    for i, v in enumerate(rows):
        assert span.add(v) == (rank(rows[:i + 1]) > rank(rows[:i]))
    for v in vectors:
        assert span.contains(v) == (rank(rows + [v]) == rank(rows))
    kern = span.nullspace(ncols, Fraction(0), Fraction(1))
    assert len(kern) == ncols - rank(rows)
    assert rank(kern) == len(kern)
    for x in kern:
        for r in rows:
            assert sum((a * b for a, b in zip(r, x)), Fraction(0)) == 0
    return kern


@pytest.mark.parametrize("seed", range(60))
def test_span_against_rank(seed):
    rng = random.Random(seed)
    rows, ncols = random_matrix(rng)
    kern = check_span(rows, ncols, probes(rng, rows, ncols))
    # the reduced form depends only on the row space, so neither the row
    # order nor redundant rows change the kernel basis
    shuffled = rows[::-1] + [[2 * x for x in r] for r in rows]
    assert Span(shuffled).nullspace(ncols, Fraction(0), Fraction(1)) == kern


def test_span_over_cyclotomic_scalars():
    i = root_of_unity(4, 1)
    one, zero = CycloScalar.from_rational(1), CycloScalar.from_rational(0)
    span = Span([[one, i, zero]])
    assert not span.add([i, i * i, zero])
    assert span.contains([i * 3, -one * 3, zero])
    assert not span.contains([one, one, zero])
    assert span.nullspace(3, zero, one) == [[-i, one, zero], [zero, zero, one]]


def test_span_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(q, min_size=n, max_size=n), max_size=6),
        st.lists(st.lists(q, min_size=n, max_size=n), max_size=3),
        st.just(n))))
    def prop(case):
        rows, vectors, ncols = case
        # duplicated and scaled rows make rank deficiency common
        rows = rows + [[x * 2 for x in r] for r in rows[:2]]
        check_span(rows, ncols, vectors + rows)

    prop()


def leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term = rows[i][j] * term
        total = term + total
    return total


def random_cyclo_matrix(rng, N):
    """An n x n matrix over Q(zeta_N) of rank at most a drawn bound: a
    product of random n x k and k x n factors."""
    n = rng.randint(1, 4)
    k = rng.choice([n, n, rng.randint(0, n)])
    z = root_of_unity(N, 1)

    def q():
        x = CycloScalar.from_rational(Fraction(rng.randint(-3, 3),
                                               rng.randint(1, 2)))
        return x + z * rng.randint(-1, 1) if N > 1 else x

    left = [[q() for _ in range(k)] for _ in range(n)]
    right = [[q() for _ in range(n)] for _ in range(k)]
    rows = [[sum((a[t] * right[t][j] for t in range(k)),
                 CycloScalar.from_rational(0, N)) for j in range(n)]
            for a in left]
    return CycloMatrix.from_scalars(rows)


@pytest.mark.parametrize("N", [1, 12])
@pytest.mark.parametrize("seed", range(15))
def test_dense_elimination_against_references(seed, N):
    rng = random.Random(seed)
    A = random_cyclo_matrix(rng, N)
    n = A.n
    rows = A.scalars()
    r = rank(rows)
    one = CycloScalar.from_rational(1)
    zero = CycloScalar.from_rational(0)
    assert A.det() == leibniz_det(rows)
    work = [list(row) for row in rows]
    piv, det = linalg.rref(work)
    assert len(piv) == r
    if r == n:
        assert det == A.det() != 0
        Ai = A.inverse()
        I = CycloMatrix.identity(n)
        assert A * Ai == I and Ai * A == I
    else:
        assert A.det() == 0
        with pytest.raises(ZeroDivisionError):
            A.inverse()
    kern = linalg.nullspace(rows, n, zero, one)
    assert len(kern) == n - r and rank(kern) == len(kern)
    for x in kern:
        assert all(v == 0 for v in A.matvec(x))
    # a combination of the rows is solved exactly; a vector off their span
    # (rank goes up) has no solution
    coef = [Fraction(rng.randint(-2, 2)) for _ in rows]
    inside = [sum((c * row[j] for c, row in zip(coef, rows)), zero)
              for j in range(n)]
    sol = linalg.solve_in_span(rows, inside)
    assert [sum((c * row[j] for c, row in zip(sol, rows)), zero)
            for j in range(n)] == inside
    for j in range(n):
        probe = [one if t == j else zero for t in range(n)]
        sol = linalg.solve_in_span(rows, probe)
        assert (sol is None) == (rank(rows + [probe]) > r)


def test_dense_elimination_over_fractions():
    rng = random.Random(7)
    for _ in range(40):
        rows, ncols = random_matrix(rng)
        r = rank(rows)
        work = [list(row) for row in rows]
        piv, det = linalg.rref(work)
        assert len(piv) == r
        if len(rows) == ncols:
            assert (det if r == ncols else 0) == leibniz_det(rows)
        b = [Fraction(rng.randint(-2, 2)) for _ in rows]
        x = linalg.solve(rows, b)
        if x is None:
            assert rank([row + [t] for row, t in zip(rows, b)]) > r
        else:
            assert [sum((a * c for a, c in zip(row, x)), Fraction(0))
                    for row in rows] == b


def test_singular_and_inconsistent_inputs():
    i = root_of_unity(12, 3)
    A = CycloMatrix.from_scalars([[1, i], [i, -1]])  # second row = i * first
    assert A.det() == 0
    with pytest.raises(ZeroDivisionError):
        A.inverse()
    assert CycloMatrix.zeros(3, 12).det() == 0
    rows = A.scalars()
    assert linalg.solve_in_span(rows[:1], [i, -1]) is not None
    assert linalg.solve_in_span(rows[:1], [i, 1]) is None
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(A, [Fraction(1), Fraction(3)]) is None
    assert linalg.solve(A, [Fraction(1), Fraction(2)]) == [1, 0]


def test_restrict_against_embedding():
    rng = random.Random(3)
    z12 = root_of_unity(12, 1)
    for M in (1, 2, 3, 4, 6, 12):
        zM = root_of_unity(M, 1)
        for _ in range(5):
            y = sum((zM ** k * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for k in range(M)), CycloScalar.from_rational(0, M))
            x = y.promote(12)
            got = x.restrict(M)
            assert got.N == M and got == y
            if M != 12:
                with pytest.raises(ConductorOverflow):
                    (x + z12).restrict(M)


def test_scalar_and_identity_predicates():
    z = root_of_unity(12, 1)
    I = CycloMatrix.identity(3, 12)
    assert I.is_identity() and I.is_scalar() == 1
    assert (I * z).is_scalar() == z and not (I * z).is_identity()
    assert (I * 2).is_scalar() == 2 and not (I * 2).is_identity()
    assert not (I * Fraction(1, 2)).is_identity()
    assert CycloMatrix.diag([1, 1, z]).is_scalar() is None
    off = CycloMatrix.from_scalars([[1, 0], [z, 1]])
    assert off.is_scalar() is None and not off.is_identity()
    assert CycloMatrix.zeros(2, 4).is_scalar() == 0


def test_inverse_and_det_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    phis = {1: 1, 3: 2, 4: 2, 12: 4}

    def matrices(N, n):
        entry = st.lists(st.integers(-2, 2), min_size=phis[N],
                         max_size=phis[N]).map(lambda c: CycloScalar(N, c))
        return st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=n, max_size=n).map(CycloMatrix.from_scalars)

    shapes = st.tuples(st.sampled_from(sorted(phis)), st.integers(1, 3))
    cases = shapes.flatmap(lambda t: st.tuples(matrices(*t), matrices(*t)))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(cases)
    def prop(case):
        A, B = case
        d = A.det()
        assert (A * B).det() == d * B.det()
        if d:
            assert A * A.inverse() == CycloMatrix.identity(A.n)
        else:
            with pytest.raises(ZeroDivisionError):
                A.inverse()

    prop()
