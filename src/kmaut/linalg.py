"""Exact linear algebra over Q and Q(zeta_N): `eliminate`, the one dense
Gauss-Jordan elimination, on packed integer rows; `rref`, `solve` and
`nullspace` on rows of Fraction or CycloScalar entries, through it; and
`Span`, an incremental sparse echelon form."""

from fractions import Fraction
from math import lcm

from . import cyclo, kernel


def eliminate(rows, ncols, N):
    """Row-reduce packed rows over Q(zeta_N) in place to reduced row echelon
    form.

    A packed row is a pair (entries, den): entries maps each column of a
    nonzero entry to its integer coefficient tuple in the power basis of
    Q(zeta_N), and den > 0 is the one denominator of the row.  Pivots on the
    first nonzero entry of each column and scales the pivot row by the
    inverse of its pivot, one scalar inverse per pivot.  Every other row R_i
    with entry f in the pivot column becomes d_r * R_i - f * R_r over
    d_i * d_r, where d_r is the pivot row's denominator, which is also the
    numerator of its pivot 1.  Each new row is divided by the gcd of its
    coefficients and its denominator, so rows stay in lowest terms.

    Returns the pivot columns and the product of the pivots times the sign
    of the row swaps, a CycloScalar of conductor N (the integer 1 if there
    is no pivot), which for a square nonsingular input is its determinant.
    """
    ctx = cyclo._context(N)
    red, phi = ctx.red, ctx.phi
    conv = kernel.conv_reduce
    piv = []
    det = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if c in rows[i][0]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        prow, pden = rows[r]
        a = prow[c]
        det = cyclo.CycloScalar(N, a, pden) * det
        if any(a[1:]):
            inv = cyclo.CycloScalar(N, a, 1, _normalized=True).inverse()
            prow = {j: conv(x, inv.nums, red, phi) for j, x in prow.items()}
            dr = inv.den
        elif a[0] < 0:
            prow = {j: tuple(-v for v in x) for j, x in prow.items()}
            dr = -a[0]
        else:
            dr = a[0]
        prow, dr = _strip(prow, dr)
        rows[r] = prow, dr
        others = [(j, y) for j, y in prow.items() if j != c]
        for i, (row, d) in enumerate(rows):
            f = row.pop(c, None) if i != r else None
            if f is None:
                continue
            if dr != 1:
                for j, x in row.items():
                    row[j] = tuple(dr * v for v in x)
            for j, y in others:
                t = conv(f, y, red, phi)
                x = row.get(j)
                if x is None:
                    row[j] = tuple(-v for v in t)
                else:
                    s = tuple(v - w for v, w in zip(x, t))
                    if any(s):
                        row[j] = s
                    else:
                        del row[j]
            rows[i] = _strip(row, d * dr)
        piv.append(c)
        r += 1
    return piv, (-det if sign < 0 else det)


def _strip(row, den):
    """The packed row divided by the gcd of its coefficients and den."""
    g = kernel.rows_gcd((row.values(),), den)
    if g == 1:
        return row, den
    return {j: tuple(v // g for v in x) for j, x in row.items()}, den // g


class _Packed:
    """Packed rows for `eliminate` over Q(zeta_N); entries read back as
    CycloScalars of conductor N, or as Fractions if not `cyclo_entries`."""

    __slots__ = ("rows", "N", "ncols", "_cyclo", "_pad")

    def __init__(self, rows, ncols, N, cyclo_entries=True):
        self.rows, self.ncols, self.N, self._cyclo = rows, ncols, N, cyclo_entries
        self._pad = (0,) * (cyclo._context(N).phi - 1)

    @classmethod
    def pack(cls, rows):
        """Rows of Fraction, int or CycloScalar entries, packed over the lcm
        of their conductors; Fractions if no entry was a CycloScalar."""
        conductors = [x.N for row in rows for x in row
                      if isinstance(x, cyclo.CycloScalar)]
        N = lcm(1, *conductors)
        pad = (0,) * (cyclo._context(N).phi - 1)
        packed = []
        for row in rows:
            ents, den = {}, 1
            for j, x in enumerate(row):
                if x:
                    if isinstance(x, cyclo.CycloScalar):
                        x = x.promote(N)
                        ents[j] = x.nums, x.den
                    else:
                        ents[j] = (x.numerator,) + pad, x.denominator
                    den = lcm(den, ents[j][1])
            packed.append(({j: v if d == den else tuple(c * (den // d) for c in v)
                            for j, (v, d) in ents.items()}, den))
        return cls(packed, len(rows[0]) if rows else 0, N, bool(conductors))

    def eliminate(self):
        piv, det = eliminate(self.rows, self.ncols, self.N)
        if piv and not self._cyclo:
            det = det.as_fraction()
        return piv, det

    def entry(self, i, j):
        ents, den = self.rows[i]
        v = ents.get(j, (0,) + self._pad)
        if self._cyclo:
            return cyclo.CycloScalar(self.N, v, den)
        return Fraction(v[0], den)

    def row(self, i):
        return [self.entry(i, j) for j in range(self.ncols)]

    def nullspace(self, ncols, zero, one):
        piv, _ = self.eliminate()
        pivset = set(piv)
        basis = []
        for f in range(ncols):
            if f in pivset:
                continue
            vec = [zero] * ncols
            vec[f] = one
            for i, c in enumerate(piv):
                vec[c] = -self.entry(i, f)
            basis.append(vec)
        return basis


def rref(rows):
    """Row-reduce a list of rows of exact scalars in place to reduced row
    echelon form, through `eliminate`.

    Returns the pivot columns and the product of the pivots times the sign
    of the row swaps, which for a square nonsingular input is its
    determinant.  Entries come back as Fractions if no input entry was a
    CycloScalar, else as CycloScalars at the lcm of the input conductors.
    """
    packed = _Packed.pack(rows)
    piv, det = packed.eliminate()
    rows[:] = [packed.row(i) for i in range(len(rows))]
    return piv, det


def row_space_basis(rows):
    """Independent spanning subset of the given rows, in reduced form."""
    packed = _Packed.pack(rows)
    piv, _ = packed.eliminate()
    return [packed.row(i) for i in range(len(piv))]


def solve(A, b):
    """A solution x of A x = b (A a list of rows), or None if there is none.

    Free coordinates of x are the integer 0."""
    n = len(A[0]) if A else 0
    packed = _Packed.pack([list(row) + [t] for row, t in zip(A, b)])
    piv, _ = packed.eliminate()
    if n in piv:
        return None
    x = [0] * n
    for i, c in enumerate(piv):
        x[c] = packed.entry(i, n)
    return x


def solve_in_span(basis_rows, target):
    """Coefficients expressing target in span(basis_rows), or None."""
    return solve([[row[i] for row in basis_rows] for i in range(len(target))],
                 target)


def nullspace(rows, ncols, zero=0, one=1):
    """Basis of the right kernel of the matrix given by rows, one vector per
    free column in increasing order."""
    return _Packed.pack(rows).nullspace(ncols, zero, one)


def packed_nullspace(rows, ncols, N, zero, one):
    """`nullspace` of packed rows over Q(zeta_N), as `eliminate` takes them
    (and reduces them in place); its entries are CycloScalars of
    conductor N."""
    return _Packed(rows, ncols, N).nullspace(ncols, zero, one)


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
