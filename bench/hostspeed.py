"""Host CPU speed, measured next to every op.

On shared hosts the speed of one vCPU changes by up to 2x in phases of
seconds to minutes, while CPU time stays equal to wall time.  A fixed
pure-Python reference, run right before each op, follows those phases.
The reference is owned by the benchmark, so a change to kmaut cannot move
it.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# Seconds one reference() takes in the fast phase of a 2-CPU 2.0 GHz host,
# Python 3.11; corrected op times are expressed at that speed.
NOMINAL_S = 0.0020
REACH = 3


def reference():
    """The arithmetic the kmaut layers spend their time in: Gauss-Jordan
    over Fraction, and convolution of small integer tuples."""
    n = 8
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1)
             for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    a = tuple(range(1, 9))
    acc = 0
    for _ in range(120):
        work = [0] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                work[i + j] += x * y
        acc += work[7]
    return acc


def timed_reference():
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def corrected(lat, refs):
    """Op times at the nominal speed.  refs[i] is taken right before op i
    and refs[-1] after the last op; op i is scaled by the median of the
    REACH references before it and the REACH after it, which follows
    phases of a few seconds and ignores a single disturbed reference."""
    out = []
    for i, t in enumerate(lat):
        near = refs[max(0, i + 1 - REACH):i + 1 + REACH]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out
