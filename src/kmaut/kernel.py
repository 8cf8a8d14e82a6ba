"""Arithmetic kernel: products of cyclotomic integer vectors and matrices.

Vectors are int tuples of length phi (coefficients in the power basis of a
cyclotomic integer ring), `red` holds the reduction rows for the exponents
phi .. 2*phi-2.  A matrix is a sequence of n sparse rows, each a dict from
column to the nonzero vector in that column; a zero entry is never stored.
`matmul` takes and returns such rows; it skips zero coefficients, so its cost
follows the number of nonzeros.  `conv_reduce` multiplies two vectors, in
closed form at phi 1 and 2.  `add_rows` is the one sparse row sum.
"""

from math import gcd

IMPL = "python"


def conv_reduce(a, b, red, phi):
    if phi == 1:
        return (a[0] * b[0],)
    if phi == 2:
        # conductors 3, 4 and 6: z^2 = r0 + r1 z
        a0, a1 = a
        b0, b1 = b
        top = a1 * b1
        r0, r1 = red[0]
        return (a0 * b0 + top * r0, a0 * b1 + a1 * b0 + top * r1)
    work = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    work[i + j] += ai * bj
    for k in range(2 * phi - 2, phi - 1, -1):
        top = work[k]
        if top:
            work[k] = 0
            row = red[k - phi]
            for j in range(phi):
                rj = row[j]
                if rj:
                    work[j] += top * rj
    return tuple(work[:phi])


def matmul(A, B, red, phi, n):
    """Rows of AB.  Every stored a_ik meets only the stored b_kj, so the cost
    follows the nonzeros; entries that cancel to zero are dropped.  The size
    n is not needed by the sparse product."""
    out = []
    if phi == 1:
        for row in A:
            acc = {}
            for k, a in row.items():
                a = a[0]
                for j, b in B[k].items():
                    acc[j] = acc.get(j, 0) + a * b[0]
            out.append({j: (c,) for j, c in acc.items() if c})
        return out
    width = 2 * phi - 1
    # each row of B as (column, nonzero coefficients) pairs
    Bnz = [[(j, [(q, bq) for q, bq in enumerate(b) if bq])
            for j, b in Bk.items()] for Bk in B]
    for row in A:
        work = {}
        for k, a in row.items():
            Bk = Bnz[k]
            if not Bk:
                continue
            for p, ap in enumerate(a):
                if ap:
                    for j, b in Bk:
                        w = work.get(j)
                        if w is None:
                            w = work[j] = [0] * width
                        for q, bq in b:
                            w[p + q] += ap * bq
        out_row = {}
        for j, w in work.items():
            for t in range(width - 1, phi - 1, -1):
                top = w[t]
                if top:
                    rrow = red[t - phi]
                    for j2 in range(phi):
                        rj = rrow[j2]
                        if rj:
                            w[j2] += top * rj
            v = tuple(w[:phi])
            if any(v):
                out_row[j] = v
        out.append(out_row)
    return out


def add_rows(a, fa, b, fb):
    """The sparse row fa * a + fb * b.  Entries that cancel are dropped, and
    neither input row is changed."""
    out = dict(a) if fa == 1 else {j: tuple([x * fa for x in v])
                                   for j, v in a.items()}
    for j, y in b.items():
        x = out.get(j)
        if x is None:
            out[j] = tuple([c * fb for c in y])
        else:
            v = tuple([p + q * fb for p, q in zip(x, y)])
            if any(v):
                out[j] = v
            else:
                del out[j]
    return out


def rows_gcd(rows, den):
    g = den
    for row in rows:
        for vec in row:
            g = gcd(g, *vec)
            if g == 1:
                return 1
    return g
