"""Arithmetic kernel: products of cyclotomic integer vectors and matrices.

Vectors are int tuples of length phi (coefficients in the power basis of a
cyclotomic integer ring), `red` holds the reduction rows for the exponents
phi .. 2*phi-2.  A matrix is a sequence of n sparse rows, each a dict from
column to the nonzero vector in that column; a zero entry is never stored.
`matmul` (AB) and `commutator` (AB - BA) take and return such rows, and share
one accumulate-and-reduce loop.  The products skip zero coefficients, so their
cost follows the number of nonzeros.
"""

from math import gcd

IMPL = "python"


def conv_reduce(a, b, red, phi):
    if phi == 1:
        return (a[0] * b[0],)
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
    # The size n is not needed by the sparse product.
    return _products(((A, B, 1),), red, phi)


def commutator(A, B, red, phi):
    """Rows of AB - BA: row i of both products goes into one work row, which
    is reduced once."""
    return _products(((A, B, 1), (B, A, -1)), red, phi)


def _products(terms, red, phi):
    # Rows of the sum of s * L R over the terms (L, R, s).  Every stored l_ik
    # meets only the stored r_kj, so the cost follows the nonzeros; entries
    # that cancel to zero are dropped.
    n = len(terms[0][0])
    out = []
    if phi == 1:
        for i in range(n):
            acc = {}
            for L, R, s in terms:
                for k, a in L[i].items():
                    ak = s * a[0]
                    for j, b in R[k].items():
                        acc[j] = acc.get(j, 0) + ak * b[0]
            out.append({j: (c,) for j, c in acc.items() if c})
        return out
    width = 2 * phi - 1
    # each row of R as (column, nonzero coefficients) pairs
    terms = [(L, [[(j, [(q, bq) for q, bq in enumerate(b) if bq])
                   for j, b in Rk.items()] for Rk in R], s)
             for L, R, s in terms]
    for i in range(n):
        work = {}
        for L, Rnz, s in terms:
            for k, a in L[i].items():
                Rk = Rnz[k]
                if not Rk:
                    continue
                for p, ap in enumerate(a):
                    if ap:
                        ap *= s
                        for j, b in Rk:
                            w = work.get(j)
                            if w is None:
                                w = work[j] = [0] * width
                            for q, bq in b:
                                w[p + q] += ap * bq
        row = {}
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
                row[j] = v
        out.append(row)
    return out


def rows_gcd(rows, den):
    g = den
    for row in rows:
        for vec in row:
            g = gcd(g, *vec)
            if g == 1:
                return 1
    return g
