"""Arithmetic kernel: products of cyclotomic integer vectors and matrices.

Vectors are int tuples of length phi (coefficients in the power basis of a
cyclotomic integer ring), `red` holds the reduction rows for the exponents
phi .. 2*phi-2.  The products skip zero coefficients, so their cost follows
the number of nonzeros.
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
    # The nonzero entries of each row of B are listed once; every nonzero
    # a_ik then meets only the nonzero b_kj, so the cost follows the number
    # of nonzeros rather than n^3.
    if phi == 1:
        Bnz = [[(j, b[0]) for j, b in enumerate(Bk) if b[0]] for Bk in B]
        out = []
        for Ai in A:
            acc = [0] * n
            for k, a in enumerate(Ai):
                ak = a[0]
                if ak:
                    for j, bkj in Bnz[k]:
                        acc[j] += ak * bkj
            out.append(tuple([(c,) for c in acc]))
        return out
    width = 2 * phi - 1
    zero = (0,) * phi
    Bnz = [[(j, [(q, bq) for q, bq in enumerate(b) if bq])
            for j, b in enumerate(Bk) if any(b)] for Bk in B]
    out = []
    for Ai in A:
        work = {}
        for k, a in enumerate(Ai):
            Bk = Bnz[k]
            if not Bk or not any(a):
                continue
            for p, ap in enumerate(a):
                if ap:
                    for j, b in Bk:
                        w = work.get(j)
                        if w is None:
                            w = work[j] = [0] * width
                        for q, bq in b:
                            w[p + q] += ap * bq
        row = [zero] * n
        for j, w in work.items():
            for t in range(width - 1, phi - 1, -1):
                top = w[t]
                if top:
                    rrow = red[t - phi]
                    for j2 in range(phi):
                        rj = rrow[j2]
                        if rj:
                            w[j2] += top * rj
            row[j] = tuple(w[:phi])
        out.append(tuple(row))
    return out


def rows_gcd(rows, den):
    g = den
    for row in rows:
        for vec in row:
            for c in vec:
                if c:
                    g = gcd(g, c)
                    if g == 1:
                        return 1
    return g
