"""Exact linear algebra over any exact field (Fraction, CycloScalar): `rref`,
the one dense Gauss-Jordan elimination, and `Span`, an incremental sparse
echelon form."""


def rref(rows):
    """Row-reduce a list of rows in place to reduced row echelon form.

    Pivots on the first nonzero entry of each column, scales the pivot row
    by 1 / pivot and clears the column above and below.  Returns the pivot
    columns and the product of the pivots times the sign of the row swaps,
    which for a square nonsingular input is its determinant.
    """
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


def row_space_basis(rows):
    """Independent spanning subset of the given rows, in reduced form."""
    work = [list(r) for r in rows]
    piv, _ = rref(work)
    return work[: len(piv)]


def solve(A, b):
    """A solution x of A x = b (A a list of rows), or None if there is none.

    Free coordinates of x are the integer 0."""
    aug = [list(row) + [t] for row, t in zip(A, b)]
    n = len(A[0]) if A else 0
    piv, _ = rref(aug)
    if n in piv:
        return None
    x = [0] * n
    for i, c in enumerate(piv):
        x[c] = aug[i][n]
    return x


def solve_in_span(basis_rows, target):
    """Coefficients expressing target in span(basis_rows), or None."""
    return solve([[row[i] for row in basis_rows] for i in range(len(target))],
                 target)


def nullspace(rows, ncols, zero=0, one=1):
    """Basis of the right kernel of the matrix given by rows, one vector per
    free column in increasing order."""
    work = [list(r) for r in rows]
    piv, _ = rref(work)
    pivset = set(piv)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for i, c in enumerate(piv):
            vec[c] = -work[i][f]
        basis.append(vec)
    return basis


def _sub_scaled(dst, f, src):
    """dst -= f * src on sparse {column: value} rows, dropping zeros."""
    for j, x in src.items():
        y = dst[j] - f * x if j in dst else -(f * x)
        if y:
            dst[j] = y
        else:
            del dst[j]


class Span:
    """Incremental row space of exact vectors, kept in reduced row echelon form.

    Works over any exact field whose elements support +, -, *, / and test
    false exactly when zero (Fraction, CycloScalar).  Rows are sparse
    {column: value} dicts keyed by their pivot column; each has a 1 at its
    pivot and a 0 at every other pivot.  A vector's entries at the pivots
    are therefore its coordinates, so reducing it is one pass of O(rank x
    width), and the stored form is unique for a given row space.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows = {}
        for v in vectors:
            self.add(v)

    def _residue(self, v):
        r = {j: x for j, x in enumerate(v) if x}
        for c in [c for c in r if c in self._rows]:
            _sub_scaled(r, r[c], self._rows[c])
        return r

    def contains(self, v):
        return not self._residue(v)

    def add(self, v):
        """Extend the span by v; returns whether v was independent of it."""
        r = self._residue(v)
        if not r:
            return False
        p = min(r)
        lead = r[p]
        r = {j: x / lead for j, x in r.items()}
        for row in self._rows.values():
            if p in row:
                _sub_scaled(row, row[p], r)
        self._rows[p] = r
        return True

    def nullspace(self, ncols, zero, one):
        """Basis of the vectors x of length ncols with row . x = 0 for every
        row, one per free column in increasing order."""
        out = []
        for f in range(ncols):
            if f in self._rows:
                continue
            vec = [zero] * ncols
            vec[f] = one
            for c, row in self._rows.items():
                if f in row:
                    vec[c] = -row[f]
            out.append(vec)
        return out
