"""Generic exact linear algebra: dense CycloScalar routines, and `Span`, an
incremental echelon form over any exact field."""

from .cyclo import CycloScalar

_ZERO = CycloScalar.from_rational(0)


def rref(rows):
    """Row-reduce a list of CycloScalar rows in place; returns pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    piv = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return piv


def row_space_basis(rows):
    """Independent spanning subset of the given rows, in reduced form."""
    work = [list(r) for r in rows]
    piv = rref(work)
    return work[: len(piv)]


def solve_in_span(basis_rows, target):
    """Coefficients expressing target in span(basis_rows), or None.

    Gaussian elimination on the transposed system; all exact.
    """
    if not basis_rows:
        return [] if all(not t for t in target) else None
    m = len(target)
    k = len(basis_rows)
    aug = [[basis_rows[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    piv = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][k]:
            return None
    coeffs = [_ZERO] * k
    for i, c in enumerate(piv):
        coeffs[c] = aug[i][k]
    return coeffs


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix given by CycloScalar rows."""
    work = [list(r) for r in rows]
    piv = rref(work)
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    one = CycloScalar.from_rational(1)
    for f in free:
        vec = [_ZERO] * ncols
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
