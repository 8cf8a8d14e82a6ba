"""Self-verification suite: every acceptance check as a callable, shared by
the command line (selftest verb) and the test suite."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import lcm

from .algebra import (EXCEPTIONAL, SemisimpleElement, SimpleAlgebra,
                      make_algebra, sigma_eigenspace)
from .autg import (
    Automorphism,
    InvLabel,
    _entry_word,
    identity_automorphism,
    involution_int_class,
    mu_automorphism,
    standard_involution,
    standard_list,
)
from .cyclo import CycloMatrix, CycloScalar, pfaffian, root_of_unity
from .linalg import Span, flatten
from .loop import (
    AffineElement,
    LoopElement,
    _affine_row,
    _packed,
    affine_bracket,
    affine_form,
    derived_algebra_witness,
    loop_bracket,
)
from .loopaut import (
    StandardLoopAutomorphism,
    conjugate_constant,
    conjugate_exp,
    conjugate_reflection,
    conjugate_scale,
    conjugate_shift,
    invariant,
    invariant_first_kind,
    normalize_to_constant,
    normalizing_scale,
    opposite,
    tau_scaling,
)
from .pi0 import pi0_row
from .realforms import (
    cartan_decomposition,
    check_extension_bijection,
    real_form,
    sl2_catalogue,
)
from .tables import (
    entry_invariant,
    enumerate_first_kind,
    enumerate_second_kind,
    membership_condition,
    realize,
    realize_entry,
    valid_ks,
)


def table2_expected(algebra, k):
    fam, n = algebra.family, algebra.param
    if fam == "a":
        if n == 1:
            return "2+1" if k == 1 else None
        if n % 2 == 0:
            m = n // 2
            return "%d+%d" % (m + 1, 2 if k == 1 else 0)
        m = (n + 1) // 2
        return "%d+%d" % (m + 4, 2 if k == 1 else 0)
    if fam == "b":
        return "%d+1" % (2 * n)
    if fam == "c":
        if n % 2:
            return "%d+1" % ((n + 1) // 2 + 1)
        return "%d+1" % (n // 2 + 3)
    if fam == "d":
        if n == 4:
            return {1: "6+2", 2: "6+0", 3: "1+1"}[k]
        if n % 2 == 0:
            m = n // 2
            return "%d+%d" % (3 * m + 3 if k == 1 else 3 * m, 2 if k == 1 else 0)
        m = (n + 1) // 2
        return "%d+%d" % (3 * m, 2 if k == 1 else 0)
    return {("e6", 1): "4+2", ("e6", 2): "4+0", ("e7", 1): "5+1",
            ("e8", 1): "2+1", ("f4", 1): "2+1", ("g2", 1): "1+1"}[(fam, k)]


def table3_expected(algebra, k):
    fam, n = algebra.family, algebra.param
    if fam == "a":
        if n == 1:
            return 3 if k == 1 else None
        if n % 2 == 0:
            m = n // 2
            return m * (m + 3) // 2 + 2 if k == 1 else m + 1
        m = (n + 1) // 2
        return m * (m + 3) // 2 + 4 if k == 1 else 2 * (m + 1)
    if fam == "b":
        return (n + 1) * (n + 2) // 2
    if fam == "c":
        if n % 2:
            m = (n + 1) // 2
            return (m + 1) * (m + 2) // 2
        m = n // 2
        return (m + 2) * (m + 3) // 2
    if fam == "d":
        if n == 4:
            return {1: 10, 2: 8, 3: 3}[k]
        if n % 2 == 0:
            m = n // 2
            return m * m + 3 * m + 4 if k == 1 else m * (m + 2)
        m = (n + 1) // 2
        return (m + 1) ** 2 if k == 1 else m * (m + 1)
    return {("e6", 1): 9, ("e6", 2): 6, ("e7", 1): 10, ("e8", 1): 6,
            ("f4", 1): 6, ("g2", 1): 3}[(fam, k)]


def acceptance_algebras():
    return ([make_algebra(fam, n, "compact") for fam, ranks in
             (("a", range(1, 8)), ("b", range(2, 6)), ("c", range(3, 7)),
              ("d", range(4, 9))) for n in ranks]
            + [make_algebra(fam, None, "compact") for fam in EXCEPTIONAL])


def loop_test_algebras():
    """Algebras for the random windowed identity checks (up to d6)."""
    return [make_algebra(fam, n, "complex") for fam, ranks in
            (("a", (1, 2, 3)), ("b", (2, 3)), ("c", (3,)), ("d", (4, 5, 6)))
            for n in ranks]


def default_twist(algebra):
    """A representative nontrivial twist where one exists."""
    if algebra.outer == "mu" and algebra.out_order == 2:
        return mu_automorphism(algebra), 2
    if algebra.outer == "det":
        return standard_involution(algebra, InvLabel(1)), 2
    return identity_automorphism(algebra), 1


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_inner_matrix(algebra, rng):
    """Exact random element of the inner group: unipotents, permutations and
    root-of-unity diagonals for the a/c families; signed even permutations
    and rational plane rotations for the orthogonal ones."""
    n = algebra.size
    fam = algebra.family
    G = CycloMatrix.identity(n)
    if fam == "a":
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
            rows[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            G = G * CycloMatrix.from_scalars(rows)
        k = rng.randrange(4)
        diag = [root_of_unity(4, k)] + [CycloScalar.from_rational(1)] * (n - 1)
        G = G * CycloMatrix.diag(diag)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[Fraction(int(perm[a] == b)) for b in range(n)] for a in range(n)]
        G = G * CycloMatrix.from_scalars(rows)
        return G
    if fam == "c":
        half = algebra.param
        for _ in range(2):
            # symplectic unipotent [[E, B], [0, E]] with symmetric B
            B = [[Fraction(0)] * half for _ in range(half)]
            i, j = rng.randrange(half), rng.randrange(half)
            v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            B[i][j] += v
            B[j][i] = B[i][j] if i != j else B[i][j]
            rows = [[Fraction(int(a == b)) for b in range(half)] + B[a]
                    for a in range(half)]
            rows += [[Fraction(0)] * half
                     + [Fraction(int(a == b)) for b in range(half)]
                     for a in range(half)]
            G = G * CycloMatrix.from_scalars(rows)
        return G
    # orthogonal families: pythagorean plane rotations and even sign flips
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c, s = Fraction(3, 5), Fraction(4, 5)
        if rng.random() < 0.5:
            c, s = Fraction(5, 13), Fraction(12, 13)
        rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
        rows[i][i], rows[j][j] = c, c
        rows[i][j], rows[j][i] = s, -s
        G = G * CycloMatrix.from_scalars(rows)
    i, j = rng.sample(range(n), 2)
    rows = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i][i] = Fraction(-1)
    rows[j][j] = Fraction(-1)
    G = G * CycloMatrix.from_scalars(rows)
    return G


def random_inner_automorphism(algebra, rng):
    return Automorphism(algebra, random_inner_matrix(algebra, rng))


def random_loop_element(algebra, twist, l, rng, window=2, terms=2):
    coeffs = {}
    for _ in range(terms):
        n = rng.randint(-window, window)
        basis = sigma_eigenspace(algebra, twist, l, n % l)
        if not basis:
            continue
        M = basis[rng.randrange(len(basis))].matrix \
            * Fraction(rng.randint(1, 3), rng.randint(1, 2))
        coeffs[n] = coeffs.get(n) + M if n in coeffs else M
    return LoopElement(algebra, twist, l, coeffs, validate=False)


def random_affine_element(algebra, twist, l, rng, window=2):
    return AffineElement(random_loop_element(algebra, twist, l, rng, window),
                         Fraction(rng.randint(-2, 2)),
                         Fraction(rng.randint(-2, 2)))


def antifixed_direction(phi0, rng):
    """A rational-semisimple Y with phi0(Y) = -Y, for curve twisting."""
    algebra = phi0.algebra
    cands = []
    n = algebra.size
    # i (E_ij + E_ji) is in sl(m) only; sp(2n) is not searched
    kinds = {"a": (False, True), "c": ()}.get(algebra.family, (False,))
    for i in range(n):
        for j in range(i + 1, n):
            for mk in kinds:
                unit = [[Fraction(0)] * n for _ in range(n)]
                unit[i][j] = Fraction(1)
                unit[j][i] = Fraction(1 if mk else -1)
                M = CycloMatrix.from_scalars(unit)
                if mk:
                    M = M * root_of_unity(4, 1)
                if algebra.contains_matrix(M) and phi0.apply_matrix(M) == -M:
                    cands.append(M)
    if not cands:
        return None
    M = cands[rng.randrange(len(cands))]
    r = Fraction(rng.randint(1, 2), 2)
    return SemisimpleElement(algebra, M * r, sorted({r, -r, Fraction(0)}))


def random_conjugation(phi, rng):
    """One random conjugation step keeping the automorphism in the standard
    family: a constant quasiconjugation, a loop rotation, or an exponential
    twist along a direction anti-fixed by the constant part."""
    kind = rng.randrange(3)
    if kind == 0:
        psi0 = random_inner_automorphism(phi.algebra, rng)
        return conjugate_constant(phi, psi0)
    if kind == 1:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return conjugate_shift(phi, c)
    Y = antifixed_direction(phi.phi0, rng)
    if Y is None or not phi.X.matrix.is_zero():
        psi0 = random_inner_automorphism(phi.algebra, rng)
        return conjugate_constant(phi, psi0)
    if phi.twist.apply_matrix(Y.matrix) != Y.matrix:
        return conjugate_shift(phi, Fraction(1, 3))
    return conjugate_exp(phi, Y)


# ---------------------------------------------------------------------------
# the acceptance criteria
# ---------------------------------------------------------------------------

def check_table2_counts():
    bad = []
    for alg in acceptance_algebras():
        for k in valid_ks(alg):
            want = table2_expected(alg, k)
            got = enumerate_first_kind(alg, k).count
            if got != want:
                bad.append((alg.label(), k, got, want))
    return ("table2-counts", not bad, "all rows match" if not bad else repr(bad))


def check_table3_counts():
    bad = []
    for alg in acceptance_algebras():
        for k in valid_ks(alg):
            want = table3_expected(alg, k)
            got = enumerate_second_kind(alg, k).count
            if got != want:
                bad.append((alg.label(), k, got, want))
    # spot list of the e6 outer row
    alg = make_algebra("e6", None, "compact")
    row = enumerate_second_kind(alg, 2)
    want = [("rho0", "rho1"), ("rho0", "rho4"), ("rho1", "rho2"),
            ("rho1", "rho3"), ("rho2", "rho4"), ("rho3", "rho4")]
    got = [(repr(e[1]), repr(e[2])) for e in row.entries]
    if sorted(got) != sorted(want):
        bad.append(("e6 row", got))
    return ("table3-counts", not bad, "all rows match" if not bad else repr(bad))


def check_table1_validation():
    bad = []
    for alg in acceptance_algebras():
        if alg.is_exceptional:
            continue
        labels = list(standard_list(alg)) + [InvLabel(0)]
        for lab in labels:
            row = pi0_row(alg, lab)
            frame = row.frame()
            sig_owner = {}
            for e in row.entries:
                rep = e.builder() if e.builder else None
                if rep is None:
                    continue
                if frame is not None and frame.compose(rep) != rep.compose(frame):
                    bad.append((alg.label(), repr(lab), e.rep, "commute"))
                if rep.word() != _entry_word(e):
                    bad.append((alg.label(), repr(lab), e.rep, "word"))
                sigs = row.entry_signatures(e)
                for s in sigs:
                    owner = sig_owner.get(s)
                    if owner is not None and owner != e.rep:
                        bad.append((alg.label(), repr(lab), e.rep, "sig-clash"))
                    sig_owner[s] = e.rep
    return ("table1-validation", not bad,
            "all classical rows validated" if not bad else repr(bad[:6]))


def check_algebra_identities():
    rng = random.Random(11)
    bad = []
    for alg in loop_test_algebras():
        twist, l = default_twist(alg)
        for _ in range(200):
            x = random_affine_element(alg, twist, l, rng)
            y = random_affine_element(alg, twist, l, rng)
            z = random_affine_element(alg, twist, l, rng)
            j = affine_bracket(x, affine_bracket(y, z)) \
                + affine_bracket(y, affine_bracket(z, x)) \
                + affine_bracket(z, affine_bracket(x, y))
            if not j.is_zero():
                bad.append((alg.label(), "jacobi"))
                break
            if affine_form(affine_bracket(x, y), z) != affine_form(x, affine_bracket(y, z)):
                bad.append((alg.label(), "biinvariance"))
                break
        # eigenspace grading of brackets
        for na in range(l):
            for nb in range(l):
                ba = sigma_eigenspace(alg, twist, l, na)
                bb = sigma_eigenspace(alg, twist, l, nb)
                if not ba or not bb:
                    continue
                xa = ba[rng.randrange(len(ba))]
                xb = bb[rng.randrange(len(bb))]
                br = alg.bracket_matrix(xa.matrix, xb.matrix)
                img = twist.apply_matrix(br)
                if img != br * root_of_unity(l, (na + nb) % l):
                    bad.append((alg.label(), "grading"))
    # derived-algebra witness on small fixtures
    sl2 = make_algebra("a", 1, "complex")
    rep = derived_algebra_witness(sl2, identity_automorphism(sl2), 1, 2)
    if not rep["ok"]:
        bad.append(("a1", "derived witness"))
    su3 = make_algebra("a", 2, "complex")
    rep = derived_algebra_witness(su3, mu_automorphism(su3), 2, 4)
    if not rep["ok"]:
        bad.append(("a2 twisted", "derived witness"))
    return ("algebra-identities", not bad,
            "jacobi/biinvariance/grading + derived witness" if not bad
            else repr(bad))


def stability_fixtures():
    """Fixture automorphisms for the invariant-stability checks."""
    out = []
    su3 = make_algebra("a", 2, "compact")
    mu3 = mu_automorphism(su3)
    i3 = identity_automorphism(su3)
    tau1 = standard_involution(su3, InvLabel(1))
    # first kind, order 2 (type 1a)
    out.append(("q2", StandardLoopAutomorphism(mu3, 2, 1, 0, None, tau1)))
    # first kind, order 3: rotation composed with nothing
    out.append(("q3", StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 3), None, i3)))
    # first kind, order 4: mu with quarter rotation
    out.append(("q4", StandardLoopAutomorphism(i3, 1, 1, Fraction(1, 4), None, mu3)))
    # first kind, order 4 with p = 2: an order-two class at a half rotation
    tau2 = standard_involution(su3, InvLabel(2))
    out.append(("q4-p2", StandardLoopAutomorphism(tau1, 2, 1, Fraction(1, 2),
                                                  None, tau2)))
    # first kind, order 6: order-3 inner times half rotation
    w = root_of_unity(3, 1)
    D = CycloMatrix.diag([w, w ** 2, CycloScalar.from_rational(1)])
    rot3 = Automorphism(su3, D)
    out.append(("q6", StandardLoopAutomorphism(rot3.compose(rot3), 3, 1,
                                               Fraction(1, 2), None, rot3)))
    # second kind, order 2
    out.append(("2nd", StandardLoopAutomorphism(tau1, 2, -1, 0, None, tau1)))
    su2 = make_algebra("a", 1, "compact")
    t2 = standard_involution(su2, InvLabel(1))
    out.append(("2nd-sl2", StandardLoopAutomorphism(
        identity_automorphism(su2), 1, -1, 0, None, t2)))
    return out


def check_invariant_stability():
    rng, rounds = random.Random(23), 30
    bad = []
    for name, phi in stability_fixtures():
        base = invariant(phi)
        for _ in range(rounds):
            conj = random_conjugation(phi, rng)
            inv = invariant(conj)
            if inv != base:
                bad.append((name, repr(base), repr(inv)))
                break
    return ("invariant-stability", not bad,
            "%d fixtures x %d conjugations" % (len(stability_fixtures()), rounds)
            if not bad else repr(bad))


def check_opposite():
    bad = []
    for name, phi in stability_fixtures():
        if phi.epsilon != 1:
            continue
        refl = conjugate_reflection(phi)
        if invariant_first_kind(refl) != opposite(invariant_first_kind(phi)):
            bad.append((name, "reflection"))
    # iota_2 fixes every order-2 invariant: the reflected realization of
    # each first-kind table entry reads back as the entry
    for alg in acceptance_algebras():
        if alg.is_exceptional:
            continue
        for k in valid_ks(alg):
            for e in enumerate_first_kind(alg, k).entries:
                inv = entry_invariant(alg, e)
                if invariant_first_kind(conjugate_reflection(realize(inv))) != inv:
                    bad.append((alg.label(), e, "iota2"))
    return ("opposite-iota", not bad, "reflection = opposite; iota2 = id"
            if not bad else repr(bad[:4]))


def check_realize_roundtrip():
    bad = []
    checked = 0
    for alg in acceptance_algebras():
        if alg.is_exceptional:
            continue
        for k in valid_ks(alg):
            for row in (enumerate_first_kind(alg, k),
                        enumerate_second_kind(alg, k)):
                for e in row.entries:
                    want = entry_invariant(alg, e)
                    inv = invariant(realize(want))
                    checked += 1
                    if inv != want:
                        bad.append((alg.label(), k, e, repr(inv)))
                    if not membership_condition(inv, k):
                        bad.append((alg.label(), k, e, "membership"))
    return ("realize-roundtrip", not bad,
            "%d entries round-tripped" % checked if not bad else repr(bad[:4]))


def check_normalization():
    rng = random.Random(31)
    bad = []
    fixtures = [f for _, f in stability_fixtures()]
    done = 0
    while done < 50:
        phi = fixtures[done % len(fixtures)]
        Y = antifixed_direction(phi.phi0, rng)
        if Y is None or phi.twist.apply_matrix(Y.matrix) != Y.matrix:
            phi2 = conjugate_shift(phi, Fraction(1, 4))
        else:
            phi2 = conjugate_exp(phi, Y)
        q = phi2.order(32)
        Yn, tw, const = normalize_to_constant(phi2)
        lhs = Yn.matrix - phi2.phi0.apply_matrix(Yn.matrix) * phi2.epsilon \
            + phi2.X.matrix
        if not lhs.is_zero():
            bad.append(("identity", done))
            break
        if tw.order(64) <= 0 or not const.has_constant_curve():
            bad.append(("target", done))
            break
        if const.order(32) != q:
            bad.append(("order", done))
            break
        if invariant(phi2) != invariant(const):
            bad.append(("invariant", done))
            break
        done += 1
    return ("normalization", not bad,
            "%d randomized curve fixtures" % done if not bad else repr(bad))


def check_tau_laws():
    rng = random.Random(41)
    bad = []
    sl2 = make_algebra("a", 1, "complex")
    iden = identity_automorphism(sl2)
    tau = tau_scaling(sl2, iden, 1, Fraction(3, 2))
    # bracket automorphism
    for _ in range(10):
        u = random_loop_element(sl2, iden, 1, rng)
        v = random_loop_element(sl2, iden, 1, rng)
        if tau.apply(loop_bracket(u, v)) != loop_bracket(tau.apply(u), tau.apply(v)):
            bad.append("bracket")
            break
    # interchange law on loop elements: tau_r(phi(u)) == (^r phi)(tau_{r^eps}(u))
    t1 = standard_involution(sl2, InvLabel(1))
    for eps, t0 in ((1, Fraction(1, 2)), (-1, Fraction(0))):
        phi = StandardLoopAutomorphism(iden if eps == 1 else iden, 1, eps, t0,
                                       None, t1)
        for s in (Fraction(2), Fraction(3, 2)):
            tau_s = tau_scaling(sl2, iden, 1, s)
            tau_se = tau_scaling(sl2, iden, 1, s if eps == 1 else 1 / s)
            lhs = tau_s.compose(phi)
            rhs = phi.compose(tau_se)  # constant phi: ^r phi = phi
            for _ in range(4):
                u = random_loop_element(sl2, iden, 1, rng)
                a = lhs.apply(u)
                b = rhs.apply(u)
                if a != b:
                    bad.append(("interchange", eps, str(s)))
                    break
    # normalizing scale for scaled second-kind fixtures
    phi = StandardLoopAutomorphism(iden, 1, -1, 0, None, t1, Fraction(9))
    s_par = normalizing_scale(phi)
    if s_par != 3 or conjugate_scale(phi, s_par).scale != 1:
        bad.append("normalizing-r")
    phi = StandardLoopAutomorphism(iden, 1, -1, 0, None, t1, Fraction(1, 4))
    s_par = normalizing_scale(phi)
    if conjugate_scale(phi, s_par).scale != 1:
        bad.append("normalizing-r-2")
    return ("tau-laws", not bad, "bracket/interchange/normalizer" if not bad
            else repr(bad))


def check_extension_bijections():
    bad = []
    algebras = [make_algebra("a", n, "compact") for n in range(1, 8)]
    algebras += [make_algebra("b", n, "compact") for n in range(2, 6)]
    algebras += [make_algebra("c", n, "compact") for n in range(3, 7)]
    algebras += [make_algebra("d", n, "compact") for n in (4, 5, 6)]
    for alg in algebras:
        for k in valid_ks(alg):
            rep = check_extension_bijection(alg, k)
            if not rep["ok"]:
                bad.append((alg.label(), k))
    return ("extension-bijections", not bad,
            "every class and its conjugate-linear extension realized "
            "and read back"
            if not bad else repr(bad))


def check_sl2_catalogue():
    cat = sl2_catalogue()
    ok = cat["ok"]
    return ("sl2-catalogue", ok,
            "3 almost split + 3 noncompact almost compact + compact; windows closed"
            if ok else repr(cat))


def check_cartan_tables():
    """Table entries of a2, a3, b2, c3 and d4, both kinds, at window 1: the
    Cartan inclusions hold, and K + iP has independent rows, as many as the
    real form basis, inside the span that `real_form` keeps."""
    i = root_of_unity(4, 1)
    bad, checked = [], 0
    for alg in map(SimpleAlgebra.from_label, ["a2", "a3", "b2", "c3", "d4"]):
        for k in valid_ks(alg):
            for row in (enumerate_first_kind(alg, k),
                        enumerate_second_kind(alg, k)):
                for e in row.entries:
                    phi = realize_entry(alg, e)
                    rep = cartan_decomposition(phi, N=1)
                    rf, M = real_form(phi, N=1), lcm(4, 2 * phi.l)
                    rows = [_affine_row(x, 1, M) for x in
                            rep["K"] + [x * i for x in rep["P"]]]
                    kip = [flatten(_packed(r, 1, alg.dim), M) for r in rows]
                    checked += 1
                    if not all(rep["inclusions"].values()):
                        bad.append((alg.label(), e, "inclusions"))
                    span = Span()
                    if len(rf.basis) != len(kip) or not all(
                            span.add(v) and rf._span.contains(v)
                            for v in kip):
                        bad.append((alg.label(), e, "real form"))
    return ("cartan-tables", not bad,
            "%d entries: inclusions hold, real form = K + iP" % checked
            if not bad else repr(bad[:4]))


def check_pfaffian_separation():
    bad = []
    for m in (2, 3):
        alg = make_algebra("d", 2 * m, "compact")
        from .algebra import j_matrix, tau_matrix
        J = j_matrix(2 * m)
        t1 = tau_matrix(1, 4 * m)
        J2 = t1 * J * t1
        a = involution_int_class(Automorphism(alg, J))
        b = involution_int_class(Automorphism(alg, J2))
        if a == b:
            bad.append(("so(%d)" % (4 * m), "classes merged"))
        if pfaffian(J) == pfaffian(J2):
            bad.append(("so(%d)" % (4 * m), "pfaffian equal"))
    return ("pfaffian-separation", not bad,
            "Ad J vs Ad tau1 J tau1 separated in so(8), so(12)"
            if not bad else repr(bad))


ALL_CHECKS = [
    check_table2_counts,
    check_table3_counts,
    check_table1_validation,
    check_algebra_identities,
    check_invariant_stability,
    check_opposite,
    check_realize_roundtrip,
    check_normalization,
    check_tau_laws,
    check_extension_bijections,
    check_sl2_catalogue,
    check_cartan_tables,
    check_pfaffian_separation,
]


def run_all():
    """Run every check, writing one line for each to stdout."""
    results = []
    for fn in ALL_CHECKS:
        t0 = time.time()
        name, ok, detail = fn()
        dt = time.time() - t0
        results.append((name, ok, detail, dt))
        print("%-24s %s  (%.1fs)  %s" % (name, "PASS" if ok else "FAIL", dt,
                                          detail), flush=True)
    return results
