"""The exact elimination in linalg (`rref` on packed rows behind matrix
inverse, determinant and rank, `nullspace`, `relations`, `solve_in_span` and
conductor restriction, and the incremental `Span` on packed rows over
Q(zeta_N), which shares its pivot and row steps) against a plain rank
computation, a permutation-expansion determinant and the object-level
Gauss-Jordan loop written here.  Rows of Fraction or CycloScalar entries go
in through `pack` and come back through `unpack`."""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from kmaut import kernel, linalg
from kmaut.cyclo import CycloMatrix, CycloScalar, _context, root_of_unity
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


def pack(v, N=1):
    """A vector of Fraction, int or CycloScalar entries as a packed row over
    Q(zeta_N)."""
    v = [x.promote(N) if isinstance(x, CycloScalar)
         else CycloScalar.from_rational(x, N) for x in v]
    den = lcm(1, *(x.den for x in v))
    return ({j: tuple(c * (den // x.den) for c in x.nums)
             for j, x in enumerate(v) if x}, den)


def unpack(vec, n, N=None):
    """A packed row as n entries: Fractions if N is None (a row over Q),
    else CycloScalars of conductor N."""
    ents, den = vec
    if N is None:
        return [Fraction(ents[j][0], den) if j in ents else Fraction(0)
                for j in range(n)]
    zero = (0,) * _context(N).phi
    return [CycloScalar(N, ents.get(j, zero), den) for j in range(n)]


def rref(rows, ncols, N=None):
    """`linalg.rref` on rows of entries: the pivots, the determinant and the
    reduced rows, read back by `unpack` (over Q and as Fractions if N is
    None)."""
    packed = [pack(row, N or 1) for row in rows]
    piv, det = linalg.rref(packed, ncols, N or 1)
    if N is None and piv:
        det = det.as_fraction()
    return piv, det, [unpack(row, ncols, N) for row in packed]


def nullspace(rows, ncols, N=None):
    """`linalg.nullspace` of rows of entries, read back by `unpack`."""
    return [unpack(x, ncols, N) for x in
            linalg.nullspace([pack(row, N or 1) for row in rows], ncols, N or 1)]


def solve(A, b, ncols, N=None):
    """A solution x of A x = b (A a list of rows), free coordinates 0, or
    None: `linalg.solve_in_span` of b on the columns of A."""
    cols = [pack([row[j] for row in A], N or 1) for j in range(ncols)]
    x = linalg.solve_in_span(cols, pack(b, N or 1), N or 1)
    return None if x is None else unpack(x, ncols, N)


def right_kernel(rows, ncols):
    """The relations among the columns of rows, as Fraction vectors."""
    cols = [pack([r[j] for r in rows]) for j in range(ncols)]
    return [unpack(c, ncols) for c in linalg.relations(cols, 1)]


def check_span(rows, ncols, vectors):
    span = Span()
    for i, v in enumerate(rows):
        assert span.add(pack(v)) == (rank(rows[:i + 1]) > rank(rows[:i]))
    for v in vectors:
        assert span.contains(pack(v)) == (rank(rows + [v]) == rank(rows))
    kern = right_kernel(rows, ncols)
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
    # order nor redundant rows change the kernel basis or the span
    shuffled = rows[::-1] + [[2 * x for x in r] for r in rows]
    assert right_kernel(shuffled, ncols) == kern
    span = Span(pack(r) for r in shuffled)
    assert all(span.contains(pack(r)) for r in rows)
    assert not any(span.add(pack(r)) for r in rows)


def test_relations_among_packed_vectors():
    """Over Q(zeta_4), in the basis (1, i): v1 = i v0, v2 = 0 and v3 (over the
    denominator 2) is independent of v0.  Each relation has a 1 at its free
    vector; the inputs are left as they were."""
    vecs = [({0: (1, 0), 1: (0, 1)}, 1), ({0: (0, 1), 1: (-1, 0)}, 1),
            ({}, 1), ({0: (1, 0), 1: (1, 0), 2: (1, 0)}, 2)]
    copy = [(dict(ents), den) for ents, den in vecs]
    assert linalg.relations(vecs, 4) == [({0: (0, -1), 1: (1, 0)}, 1),
                                         ({2: (1, 0)}, 1)]
    assert vecs == copy


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


@pytest.mark.parametrize("N", [1, 4, 12])
def test_span_over_cyclotomic_fields(N):
    """Span(N=...) membership and independence agree with the rank that
    `rref` finds over Q(zeta_N)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ctx = _context(N)
    entry = st.tuples(*[st.integers(-2, 2)] * ctx.phi)

    def rank(vecs, ncols):
        return len(linalg.rref([(dict(e), d) for e, d in vecs], ncols, N)[0])

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.lists(entry, min_size=n, max_size=n),
                           st.integers(1, 3)), max_size=6),
        st.just(n))))
    def prop(case):
        raw, ncols = case
        vecs = [({j: v for j, v in enumerate(row) if any(v)}, den)
                for row, den in raw]
        # zeta_N times a vector keeps the rank: dependence over the field,
        # not over Q
        z = ctx.power(1)
        vecs += [({j: kernel.conv_reduce(v, z, ctx.red, ctx.phi)
                   for j, v in e.items()}, d) for e, d in vecs[:2]]
        span = Span(N=N)
        for i, v in enumerate(vecs):
            assert span.add(v) == (rank(vecs[:i + 1], ncols) > rank(vecs[:i], ncols))
        r = rank(vecs, ncols)
        for j in range(ncols):
            probe = ({j: (1,) + (0,) * (ctx.phi - 1)}, 1)
            assert span.contains(probe) == (rank(vecs + [probe], ncols) == r)
        assert all(span.contains(v) for v in vecs)

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
    piv, det = linalg.rref(A.packed_rows(), n, A.N)
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
    kern = linalg.nullspace(A.packed_rows(), n, A.N)
    assert len(kern) == n - r
    assert rank([unpack(x, n, A.N) for x in kern]) == len(kern)
    for x in kern:
        assert not A.matvec(x, A.N)[0]
    # a combination of the rows is solved exactly; a vector off their span
    # (rank goes up) has no solution
    coef = [Fraction(rng.randint(-2, 2)) for _ in rows]
    inside = [sum((c * row[j] for c, row in zip(coef, rows)), zero)
              for j in range(n)]
    sol = unpack(linalg.solve_in_span(A.packed_rows(), pack(inside, A.N), A.N),
                 n, A.N)
    assert [sum((c * row[j] for c, row in zip(sol, rows)), zero)
            for j in range(n)] == inside
    for j in range(n):
        probe = [one if t == j else zero for t in range(n)]
        sol = linalg.solve_in_span(A.packed_rows(), pack(probe, A.N), A.N)
        assert (sol is None) == (rank(rows + [probe]) > r)


def test_dense_elimination_over_fractions():
    rng = random.Random(7)
    for _ in range(40):
        rows, ncols = random_matrix(rng)
        r = rank(rows)
        piv, det, _ = rref(rows, ncols)
        assert len(piv) == r
        if len(rows) == ncols:
            assert (det if r == ncols else 0) == leibniz_det(rows)
        b = [Fraction(rng.randint(-2, 2)) for _ in rows]
        x = solve(rows, b, ncols)
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
    rows = A.packed_rows()
    assert linalg.solve_in_span(rows[:1], pack([i, -1], A.N), A.N) is not None
    assert linalg.solve_in_span(rows[:1], pack([i, 1], A.N), A.N) is None
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(A, [Fraction(1), Fraction(3)], 2) is None
    assert solve(A, [Fraction(1), Fraction(2)], 2) == [1, 0]


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


def test_traced_names_are_the_working_routines(monkeypatch):
    """Counting wrappers on the module attributes `rref`, `nullspace` and
    `solve_in_span`, installed the way the benchmark's tracer installs its
    own, all count calls from the package's matrix inverse, determinant,
    rank, relations and conductor restriction."""
    names = ("rref", "nullspace", "solve_in_span")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _fn=getattr(linalg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counting)
    A = CycloMatrix.from_scalars([[1, root_of_unity(4, 1)], [2, 3]])
    A.inverse()
    A.det()
    A.rank()
    linalg.relations([({0: (1,)}, 1), ({0: (2,)}, 1)], 1)
    assert root_of_unity(4, 1).promote(12).restrict(4) == root_of_unity(4, 1)
    assert all(calls.values()), calls


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


# -- the packed elimination against the object-level loop ---------------------

def reference_rref(rows):
    """Gauss-Jordan over the scalar objects, one new scalar per entry and
    step: the first nonzero entry of each column is the pivot, its row is
    scaled by 1 / pivot, and the column is cleared above and below."""
    piv = []
    det = 1
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pivot = rows[r][c]
        det = det * pivot
        inv = 1 / pivot
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return piv, det


def reference_inverse(A):
    n = A.n
    one, zero = CycloScalar.from_rational(1), CycloScalar.from_rational(0)
    rows = [r + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(A.scalars())]
    piv, _ = reference_rref(rows)
    if piv != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return CycloMatrix.from_scalars([row[n:] for row in rows])


def reference_det(A):
    piv, det = reference_rref(A.scalars())
    return det if len(piv) == A.n else CycloScalar.from_rational(0, A.N)


def reference_nullspace(rows, ncols, zero, one):
    work = [list(r) for r in rows]
    piv, _ = reference_rref(work)
    basis = []
    for f in range(ncols):
        if f not in piv:
            vec = [zero] * ncols
            vec[f] = one
            for i, c in enumerate(piv):
                vec[c] = -work[i][f]
            basis.append(vec)
    return basis


def reference_solve(A, b):
    aug = [list(row) + [t] for row, t in zip(A, b)]
    n = len(A[0]) if A else 0
    piv, _ = reference_rref(aug)
    if n in piv:
        return None
    x = [0] * n
    for i, c in enumerate(piv):
        x[c] = aug[i][n]
    return x


def js(x):
    """Exact serialization: conductor and coefficients of a scalar."""
    if isinstance(x, list):
        return [js(y) for y in x]
    if x is None:
        return None
    return x.to_json() if isinstance(x, CycloScalar) else str(x)


PHIS = {1: 1, 3: 2, 4: 2, 5: 4, 8: 4, 12: 4}


def seeded_rows(rng, N, nrows, ncols, density, rank=None):
    """nrows x ncols scalars of conductor N, each nonzero with probability
    density (rank at most rank, as a product of two such factors when
    given), with a zero row now and then."""
    def entry():
        if rng.random() >= density:
            return CycloScalar.from_rational(0, N)
        return CycloScalar(N, [rng.randint(-3, 3) for _ in range(PHIS[N])],
                           rng.randint(1, 4))

    if rank is None:
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        left = [[entry() for _ in range(rank)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum((a[t] * right[t][j] for t in range(rank)),
                     CycloScalar.from_rational(0, N)) for j in range(ncols)]
                for a in left]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [CycloScalar.from_rational(0, N)] * ncols
    return rows


def check_square_against_reference(A):
    assert A.det().to_json() == reference_det(A).to_json()
    zero, one = CycloScalar.from_rational(0), CycloScalar.from_rational(1)
    # the relations among the columns of A form its right kernel
    pad = CycloScalar.from_rational(0, A.N).nums
    kern = [[CycloScalar(A.N, ents.get(k, pad), den) for k in range(A.n)]
            for ents, den in linalg.relations(A.transpose().packed_rows(), A.N)]
    assert kern == reference_nullspace(A.scalars(), A.n, zero, one)
    try:
        want = reference_inverse(A).to_json()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            A.inverse()
        assert A.rank() < A.n
    else:
        assert A.inverse().to_json() == want
        assert A.rank() == A.n


def check_rows_against_reference(rows, ncols, rng):
    N = max((x.N for row in rows for x in row), default=1)
    zero, one = CycloScalar.from_rational(0, N), CycloScalar.from_rational(1, N)
    want = [list(r) for r in rows]
    piv, det, got = rref(rows, ncols, N)
    rpiv, rdet = reference_rref(want)
    assert (piv, js(det), js(got)) == (rpiv, js(rdet), js(want))
    assert (js(nullspace(rows, ncols, N))
            == js(reference_nullspace(rows, ncols, zero, one)))
    if rows:
        coef = [rng.randint(-2, 2) for _ in rows]
        inside = [sum((c * r[j] for c, r in zip(coef, rows)), zero)
                  for j in range(ncols)]
        probe = [CycloScalar(N, [rng.randint(-2, 2) for _ in range(PHIS[N])])
                 for _ in range(ncols)]
        for target in (inside, probe):
            columns = [[row[i] for row in rows] for i in range(ncols)]
            assert (solve(columns, target, len(rows), N)
                    == reference_solve(columns, target))


@pytest.mark.parametrize("N", sorted(PHIS))
@pytest.mark.parametrize("density", [0.1, 0.3, 0.6, 1.0])
def test_packed_elimination_matches_object_loop(N, density):
    rng = random.Random(N * 10 + int(density * 10))
    for _ in range(6):
        n = rng.randint(1, 7)
        rank = rng.choice([None, None, rng.randint(0, n)])
        check_square_against_reference(
            CycloMatrix.from_scalars(seeded_rows(rng, N, n, n, density, rank)))
        ncols = rng.randint(1, 8)
        rows = seeded_rows(rng, N, rng.randint(0, 7), ncols, density,
                           rng.choice([None, 1, 2]))
        check_rows_against_reference(rows, ncols, rng)


def test_packed_elimination_over_fractions_matches_object_loop():
    rng = random.Random(11)
    for _ in range(40):
        rows, ncols = random_matrix(rng)
        want = [list(r) for r in rows]
        piv, det, got = rref(rows, ncols)
        rpiv, rdet = reference_rref(want)
        assert (piv, js(det), js(got)) == (rpiv, js(rdet), js(want))
        assert all(type(x) is Fraction for row in got for x in row)
        assert (js(nullspace(rows, ncols))
                == js(reference_nullspace(rows, ncols, Fraction(0), Fraction(1))))
        b = [Fraction(rng.randint(-2, 2)) for _ in rows]
        if rows:  # with no rows the reference cannot tell the columns
            assert solve(rows, b, ncols) == reference_solve(rows, b)


@pytest.mark.parametrize("N", [1, 4, 12])
def test_row_swaps_give_the_determinant_sign(N):
    """Permutation matrices times a unit: every column's first nonzero is
    in a later row, so the determinant is the permutation's sign alone."""
    unit = root_of_unity(N, 1)
    for perm in permutations(range(4)):
        rows = [[unit if j == perm[i] else CycloScalar.from_rational(0, N)
                 for j in range(4)] for i in range(4)]
        A = CycloMatrix.from_scalars(rows)
        inversions = sum(perm[i] > perm[j] for i in range(4)
                         for j in range(i + 1, 4))
        assert A.det() == unit ** 4 * (-1) ** inversions
        check_square_against_reference(A)


def test_singular_packed_inputs():
    for N in (1, 5, 8):
        z = root_of_unity(N, 1)
        A = CycloMatrix.from_scalars([[1, z, 2], [z, z * z, z * 2], [0, 1, 1]])
        assert A.det() == 0 and A.rank() == 2
        with pytest.raises(ZeroDivisionError):
            A.inverse()
        with pytest.raises(ZeroDivisionError):
            CycloMatrix.zeros(2, N).inverse()


def test_dense_conductor_12_inverse_keeps_coefficients_small(monkeypatch):
    """A dense 14 x 14 matrix at conductor 12.  Eliminating by plain
    cross-multiplication, without scaling each pivot to 1, makes products
    of 22000-bit numbers here; the pivot-normalized rows stay within a few
    times the size of the inverse itself."""
    rng = random.Random(12)
    A = CycloMatrix.from_scalars(
        [[CycloScalar(12, [rng.randint(-3, 3) for _ in range(4)], rng.randint(1, 3))
          for _ in range(14)] for _ in range(14)])
    want = reference_inverse(A)
    bits = [0]
    conv = kernel.conv_reduce

    def recording(a, b, red, phi):
        bits[0] = max(bits[0], max(abs(x) for x in a + b).bit_length())
        return conv(a, b, red, phi)

    monkeypatch.setattr(kernel, "conv_reduce", recording)
    got = A.inverse()
    monkeypatch.undo()
    assert got.to_json() == want.to_json()
    size = max(max(abs(c) for row in want.rows for v in row.values() for c in v),
               want.den).bit_length()
    assert bits[0] <= 8 * size


def test_packed_elimination_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def scalars(N):
        return st.tuples(st.lists(st.integers(-2, 2), min_size=PHIS[N],
                                  max_size=PHIS[N]),
                         st.integers(1, 3)).map(lambda t: CycloScalar(N, *t))

    def cases(t):
        N, nrows, ncols = t
        return st.tuples(st.just(ncols), st.lists(
            st.lists(scalars(N), min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows))

    shapes = st.tuples(st.sampled_from(sorted(PHIS)), st.integers(0, 4),
                       st.integers(1, 4))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(shapes.flatmap(cases), st.randoms())
    def prop(case, rng):
        ncols, rows = case
        # a repeated row makes rank deficiency common
        rows = rows + rows[:1]
        check_rows_against_reference(rows, ncols, rng)
        if len(rows) == ncols:
            check_square_against_reference(CycloMatrix.from_scalars(rows))

    prop()
