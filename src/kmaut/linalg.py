"""Exact linear algebra over Q and Q(zeta_N) on packed integer rows: per row,
a dict from column to the integer coefficient tuple of a nonzero entry, over
one denominator.  `rref` is the one Gauss-Jordan elimination; its pivot and
row steps also keep `Span`, an incremental row space over Q(zeta_N).
`nullspace` reads the right kernel off the reduced rows, `relations` finds
the relations among packed vectors through it, `solve_in_span` the
coefficients of a vector in the span of others, and `flatten` writes a
packed row over Q(zeta_N) as one over Q."""

from math import lcm

from . import cyclo, kernel


def rref(rows, ncols, N):
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


def nullspace(rows, ncols, N):
    """Basis of the right kernel of packed rows over Q(zeta_N), which `rref`
    reduces in place: per free column f in increasing order, the packed
    vector with 1 at f, 0 at the other free columns and minus the reduced
    rows' entries of column f at the pivots."""
    piv, _ = rref(rows, ncols, N)
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
    over Q(zeta_N), the `nullspace` of the transposed system.  The vectors
    are left unchanged."""
    den = lcm(1, *(d for _, d in vectors))
    cols = {}
    for k, (ents, d) in enumerate(vectors):
        s = den // d
        for j, x in ents.items():
            cols.setdefault(j, {})[k] = tuple(s * v for v in x)
    # a homogeneous system: every row may share the denominator 1
    return nullspace([(row, 1) for row in cols.values()], len(vectors), N)


def solve_in_span(vectors, target, N):
    """The packed coefficients c over Q(zeta_N) with sum_k c_k v_k = target,
    0 at every vector that depends on the ones before it, or None if target
    is not in the span of the vectors.

    The column of target is free exactly when target lies in the span, and
    it is then the last free column: the last relation among vectors and
    target has a 1 at target, and c is minus the rest of it."""
    n = len(vectors)
    rels = relations([*vectors, target], N)
    if not rels or n not in rels[-1][0]:
        return None
    ents, den = rels[-1]
    return {k: tuple(-v for v in x) for k, x in ents.items() if k != n}, den


class Span:
    """Incremental row space of vectors over Q(zeta_N), kept in reduced row
    echelon form by the pivot and row steps of `rref`.

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

    def rows(self):  # the stored rows: (pivot, (entries off it, den))
        return self._rows.items()

    def join(self, rows):  # stored rows on columns no stored row uses
        self._rows.update(rows)

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
