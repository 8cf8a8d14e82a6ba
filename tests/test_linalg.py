"""linalg.Span, the exact incremental echelon form, against a plain rank
computation written here."""

import random
from fractions import Fraction

import pytest

from kmaut.cyclo import CycloScalar, root_of_unity
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
