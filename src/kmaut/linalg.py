"""Exact linear algebra over Q and Q(zeta_N) on packed integer rows: per row,
a dict from column to the integer coefficient tuple of a nonzero entry, over
one denominator.  `eliminate` is the one Gauss-Jordan elimination; its pivot
and row steps also keep `Span`, an incremental row space over Q(zeta_N).
`relations` finds the relations among packed vectors, and `flatten` writes a
packed row over Q(zeta_N) as one over Q.  `rref`, `solve`,
`solve_in_span` and `nullspace` take rows of Fraction or CycloScalar; no
package code calls them, they serve the benchmark's tracer and the tests."""

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
    inverse of its pivot (`_unit_pivot`), one scalar inverse per pivot.
    Every other row R_i with entry f in the pivot column becomes
    d_r * R_i - f * R_r over d_i * d_r (`_clear`), where d_r is the pivot
    row's denominator, which is also the numerator of its pivot 1.

    Returns the pivot columns and the product of the pivots times the sign
    of the row swaps, a CycloScalar of conductor N (the integer 1 if there
    is no pivot), which for a square nonsingular input is its determinant.
    """
    ctx = cyclo._context(N)
    red, phi = ctx.red, ctx.phi
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
        det = cyclo.CycloScalar(N, prow[c], pden) * det
        rows[r] = prow, dr = _unit_pivot(prow, c, N, red, phi)
        others = [(j, y) for j, y in prow.items() if j != c]
        for i, (row, d) in enumerate(rows):
            f = row.pop(c, None) if i != r else None
            if f is not None:
                rows[i] = _clear(row, d, f, others, dr, red, phi)
        piv.append(c)
        r += 1
    return piv, (-det if sign < 0 else det)


def _unit_pivot(row, c, N, red, phi):
    """The packed row divided by its entry at column c, in lowest terms, so
    that this entry's numerator equals the new denominator: multiplied by
    the Galois-norm inverse of the entry, or by its sign if it is
    rational."""
    a = row[c]
    if any(a[1:]):
        inv = cyclo.CycloScalar(N, a, 1, _normalized=True).inverse()
        row = {j: kernel.conv_reduce(x, inv.nums, red, phi)
               for j, x in row.items()}
        den = inv.den
    elif a[0] < 0:
        row = {j: tuple(-v for v in x) for j, x in row.items()}
        den = -a[0]
    else:
        den = a[0]
    return _strip(row, den)


def _clear(row, d, f, others, dr, red, phi):
    """d_r * R_i - f * R_r over d * d_r, in lowest terms, reusing the dict of
    row: R_i is row over d with its entry f in the pivot column already
    removed, and R_r, over d_r with pivot d_r, is given by its other entries
    as (column, coefficients) pairs."""
    conv = kernel.conv_reduce
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
    return _strip(row, d * dr)


def _strip(row, den):
    """The packed row divided by the gcd of its coefficients and den."""
    g = kernel.rows_gcd((row.values(),), den)
    if g == 1:
        return row, den
    return {j: tuple(v // g for v in x) for j, x in row.items()}, den // g


def _kernel(rows, piv, ncols, N):
    """Basis of the right kernel of rows that `eliminate` reduced with
    pivots piv: per free column f in increasing order, the packed vector
    with 1 at f and minus the rows' entries of column f at the pivots."""
    pad = (0,) * (cyclo._context(N).phi - 1)
    pivset = set(piv)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        hits = [(c, rows[i]) for i, c in enumerate(piv) if f in rows[i][0]]
        den = lcm(1, *(d for _, (_, d) in hits))
        vec = {f: (den,) + pad}
        for c, (ents, d) in hits:
            s = den // d
            vec[c] = tuple(-s * v for v in ents[f])
        out.append((vec, den))
    return out


def flatten(vec, N):
    """The packed row over Q of a packed row over Q(zeta_N): coordinate t
    of column j goes to column j * phi(N) + t."""
    phi = cyclo._context(N).phi
    return {j * phi + t: (c,) for j, v in vec[0].items()
            for t, c in enumerate(v) if c}, vec[1]


def relations(vectors, N):
    """Basis of the linear relations among packed vectors over Q(zeta_N):
    the coefficient vectors c with sum_k c_k v_k = 0, as packed vectors
    over Q(zeta_N), one per free column of the transposed system in
    increasing order, with a 1 there.  The vectors are left unchanged."""
    den = lcm(1, *(d for _, d in vectors))
    cols = {}
    for k, (ents, d) in enumerate(vectors):
        s = den // d
        for j, x in ents.items():
            cols.setdefault(j, {})[k] = tuple(s * v for v in x)
    # a homogeneous system: every row may share the denominator 1
    rows = [(row, 1) for row in cols.values()]
    piv, _ = eliminate(rows, len(vectors), N)
    return _kernel(rows, piv, len(vectors), N)


class _Packed:
    """Packed rows for `eliminate` over Q(zeta_N); entries read back as
    CycloScalars of conductor N, or as Fractions if not `cyclo_entries`."""

    __slots__ = ("rows", "N", "ncols", "_cyclo", "_zero")

    def __init__(self, rows, ncols, N, cyclo_entries=True):
        self.rows, self.ncols, self.N, self._cyclo = rows, ncols, N, cyclo_entries
        self._zero = (0,) * cyclo._context(N).phi

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

    def scalar(self, v, den):
        """The entry with coefficients v (None for zero) over den."""
        v = v or self._zero
        if self._cyclo:
            return cyclo.CycloScalar(self.N, v, den)
        return Fraction(v[0], den)

    def entry(self, i, j):
        ents, den = self.rows[i]
        return self.scalar(ents.get(j), den)

    def row(self, i):
        return [self.entry(i, j) for j in range(self.ncols)]


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
    free column in increasing order: one there, zero at the other free
    columns."""
    packed = _Packed.pack(rows)
    piv, _ = packed.eliminate()
    free = sorted(set(range(ncols)) - set(piv))
    out = []
    kern = _kernel(packed.rows, piv, ncols, packed.N)
    for f, (ents, den) in zip(free, kern):
        vec = [zero] * ncols
        vec[f] = one
        for c in piv:
            vec[c] = packed.scalar(ents.get(c), den)
        out.append(vec)
    return out


class Span:
    """Incremental row space of vectors over Q(zeta_N), kept in reduced row
    echelon form by the pivot and row steps of `eliminate`.

    A vector is a packed row over Q(zeta_N), with no zero entry stored.
    Each stored row has pivot 1 and a 0 at every other pivot, and is kept
    as its entries off the pivot over its denominator.  A vector's entries
    at the pivots are therefore its coordinates, so reducing it is one pass
    over them, and the stored form is unique for a given row space."""

    __slots__ = ("_rows", "_N", "_field")

    def __init__(self, vectors=(), N=1):
        ctx = cyclo._context(N)
        # (red, phi) of Q(zeta_N), as `_clear` and `_unit_pivot` take them
        self._rows, self._N, self._field = {}, N, (ctx.red, ctx.phi)
        for v in vectors:
            self.add(v)

    def _residue(self, v):
        row, den = dict(v[0]), v[1]
        for c in [c for c in row if c in self._rows]:
            prow, d = self._rows[c]
            row, den = _clear(row, den, row.pop(c), prow.items(), d, *self._field)
        return row, den

    def contains(self, v):
        return not self._residue(v)[0]

    def add(self, v):
        """Extend the span by v; returns whether v was independent of it."""
        row, den = self._residue(v)
        if not row:
            return False
        p = min(row)
        row, den = _unit_pivot(row, p, self._N, *self._field)
        del row[p]
        for c, (prow, d) in self._rows.items():
            f = prow.pop(p, None)
            if f is not None:
                self._rows[c] = _clear(prow, d, f, row.items(), den, *self._field)
        self._rows[p] = row, den
        return True
