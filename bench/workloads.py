"""The three benchmark workloads: seeded inputs, the timed call of each op,
its oracle and the canonical output that goes into the run digest.

Every workload is a list of ops.  An op is a tuple (kind, payload); the
timed part is `execute(kind, payload)`, the untimed checks are
`oracle(kind, payload, result)` and `canonical(kind, result)`.  The kmaut
layers are reached through their modules (`kloop.affine_bracket`, ...), so
the wrappers that `spans.py` installs on module attributes see every call.

Sizes are cells: a fixed number of ops per (algebra, op kind).  The seed
draws the conjugations and random elements that fill a cell, so the cost of
a run depends little on the seed, and no input repeats within a run
(warm-up included), so memoized answers cannot pass for a speed-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

from kmaut import algebra as kalgebra
from kmaut import loop as kloop
from kmaut import loopaut, realforms, selftest, tables
from kmaut.algebra import make_algebra, sigma_eigenspace
from kmaut.autg import parse_label, standard_involution
from kmaut.loopaut import FirstKindInvariant

WORKLOADS = ("classify", "loop", "realform")

# Rounds per run are drawn after the warm-up.
SIZES = {
    "full": {
        "classify": {"algebras": [("a", n) for n in range(2, 8)]
                     + [("b", n) for n in range(2, 6)]
                     + [("c", n) for n in range(3, 7)]
                     + [("d", n) for n in range(4, 9)],
                     "rounds": 9},
        "loop": {"algebras": "all", "rounds": 80},
        # (rank, pairs or "all", windows).  Left out to keep the batch near
        # 20 s: a1 (rho1,rho1) at window 4 (6 s), the other a2 pairs at
        # window 1 (3-4 s each) and a2 at window >= 2 (3-73 s each).
        "realform": {"bases": [(1, "all", (2, 3)),
                               (1, ["rho0,rho0", "rho0,rho1"], (4,)),
                               (2, ["rho0,rho1", "rho0,rho2", "rho1,rho2"],
                                (1,))],
                     "cartan_windows": (2, 3),
                     "warmup_window": {1: 1, 2: 0, "cartan": 1}},
    },
    "tiny": {
        "classify": {"algebras": [("a", 2), ("b", 2), ("c", 3)],
                     "rounds": 1},
        "loop": {"algebras": ["a1", "a2", "b2"], "rounds": 1},
        "realform": {"bases": [(1, ["rho0,rho1"], (1,))],
                     "cartan_windows": (1,),
                     "warmup_window": {1: 0, "cartan": 0}},
    },
}


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# classify: the work behind the conjugate and realize verbs
# ---------------------------------------------------------------------------

def _invariant(phi):
    if phi.epsilon == 1:
        return loopaut.invariant_first_kind(phi)
    return loopaut.invariant_second_kind(phi)


def _table_row(alg, kind, k):
    if kind == 1:
        return tables.enumerate_first_kind(alg, k)
    return tables.enumerate_second_kind(alg, k)


class _Stratum:
    """Table entries of one algebra, walked in a fixed order that strides
    through the table, so that any run of draws covers its rows evenly;
    `turn` rotates the conjugation kind."""

    def __init__(self, alg, entries):
        m = len(entries)
        stride = max(1, round(m * 0.618))
        while gcd(stride, m) != 1:
            stride += 1
        self.alg = alg
        self.entries = [entries[i * stride % m] for i in range(m)]
        self.pos = 0
        self.turn = 0

    def next(self):
        e = self.entries[self.pos % len(self.entries)]
        self.pos += 1
        return e


OP_KINDS = ("same", "distinct", "realize")


def uses_triality(entry):
    """Whether an so(8) table entry is realized through the triality
    operator: it names a primed class or the triality component theta."""
    return any(getattr(x, "prime", 0) or x == "theta" for x in entry[1:])


def conjugate(phi, kind, rng):
    """selftest.random_conjugation with its kind given: 0 a constant inner
    quasiconjugation, 1 a loop rotation, 2 an exponential twist (a constant
    one where no anti-fixed direction exists)."""
    if kind == 1:
        return loopaut.conjugate_shift(
            phi, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    if kind == 2 and phi.X.matrix.is_zero():
        Y = selftest.antifixed_direction(phi.phi0, rng)
        if Y is not None:
            if phi.twist.apply_matrix(Y.matrix) != Y.matrix:
                return loopaut.conjugate_shift(phi, Fraction(1, 3))
            return loopaut.conjugate_exp(phi, Y)
    return loopaut.conjugate_constant(
        phi, selftest.random_inner_automorphism(phi.algebra, rng))


class _ClassifyGen:
    """Conjugacy pairs and realize round trips over the table entries.

    Each round has one op per algebra, its kind rotating through OP_KINDS
    and the conjugation kind rotating too, so 9 rounds give 3 ops per
    (algebra, op kind), one of each conjugation kind.  Per-op cost varies
    10x with the conjugation kind and with the entry, so both are fixed
    per cell and the seed draws only the conjugating elements: with
    entries drawn at random, the 90th percentile op time spread 0.23 of
    its median over ten seeds.

    The so(8) entries realized through the triality operator cost 20-50x
    a matrix group entry; drawing them at random would make the run's cost
    depend on the seed, so every batch holds the realize round trip of
    each of them once, and the rounds draw from the other entries only,
    partners of distinct pairs included."""

    def __init__(self, spec, rng):
        self.rng = rng
        self.seen = set()
        self.realized = {}
        self.strata = []
        self.triality = []
        self.rows = {}
        for fam, n in spec["algebras"]:
            alg = make_algebra(fam, n, "compact")
            group = []
            for k in tables.valid_ks(alg):
                for kind in (1, 2):
                    row = _table_row(alg, kind, k)
                    self.rows[(alg, kind, k)] = row.entries
                    for i, e in enumerate(row.entries):
                        if (fam, n) == ("d", 4) and uses_triality(e):
                            self.triality.append((alg, kind, k, i))
                        else:
                            group.append((alg, kind, k, i))
            self.strata.append(_Stratum(alg, group))
        # order >= 3 fixtures; q6 is `undecided`.  q3 is left out: every
        # conjugate of it is q3 itself, so it cannot give new inputs
        self.fixtures = [(name, phi) for name, phi
                         in selftest.stability_fixtures()
                         if name in ("q4", "q4-p2", "q6")]
        self.fixture_turn = 0
        self.round_no = 0

    def _phi(self, ent):
        if ent not in self.realized:
            alg, kind, k, i = ent
            self.realized[ent] = tables.realize_entry(
                alg, self.rows[(alg, kind, k)][i])
        return self.realized[ent]

    def _fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _conj_op(self, label, phi, expect, kind, partner=None):
        """A pair (phi, conjugate of partner or phi) new to this run; a
        conjugation that gives a pair seen before (a rotation of a constant
        first-kind map is the map itself) is replaced by a constant one."""
        a = phi.to_json()
        for attempt in range(20):
            psi = conjugate(partner or phi, kind if attempt == 0 else 0,
                            self.rng)
            b = psi.to_json()
            if self._fresh(("pair", _canon(a), _canon(b))):
                return ("conjugate", {"label": label, "a": a, "b": b,
                                      "expect": expect})
        raise RuntimeError("no fresh conjugate for %s" % label)

    def _realize_op(self, ent):
        alg, kind, k, i = ent
        self.seen.add(("realize", ent))
        return ("realize", {"label": alg.label(), "kind": kind, "k": k,
                            "index": i, "entry": self.rows[(alg, kind, k)][i],
                            "inv": _invariant(self._phi(ent))})

    def _op(self, stratum, kind):
        if kind == "realize":
            for _ in range(len(stratum.entries)):
                ent = stratum.next()
                if ("realize", ent) not in self.seen:
                    return self._realize_op(ent)
            raise RuntimeError("more realize ops than entries")
        ent = stratum.next()
        conj_kind = stratum.turn % 3
        stratum.turn += 1
        label = "%s/%s/%d" % (stratum.alg.label(), kind, conj_kind)
        if kind == "same":
            return self._conj_op(label, self._phi(ent),
                                 ["conjugate", "undecided"], conj_kind)
        alg, tkind, k, i = ent
        row = len(self.rows[(alg, tkind, k)])
        j = next(j % row for j in range(i + 1, i + row)
                 if (alg, tkind, k, j % row) not in self.triality)
        partner = self._phi((alg, tkind, k, j))
        return self._conj_op(label, self._phi(ent), ["not_conjugate"],
                             conj_kind, partner)

    def _fixture_op(self):
        t = self.fixture_turn
        self.fixture_turn += 1
        name, phi = self.fixtures[t % len(self.fixtures)]
        return self._conj_op("fixture/" + name, phi,
                             ["conjugate", "undecided"], (t // 3) % 3)

    def warmup(self):
        """One realize op per algebra and one fixture pair: fills the
        algebra-level caches at a fraction of a round's cost."""
        return [self._op(st, "realize") for st in self.strata] \
            + [self._fixture_op()]

    def round(self):
        r = self.round_no
        self.round_no += 1
        return [self._op(st, OP_KINDS[(r + i) % 3])
                for i, st in enumerate(self.strata)] + [self._fixture_op()]

    def fixed(self):
        """Ops that every batch holds once."""
        return [self._realize_op(ent) for ent in self.triality]


def _exec_conjugate(p):
    a = loopaut.StandardLoopAutomorphism.from_json(p["a"])
    b = loopaut.StandardLoopAutomorphism.from_json(p["b"])
    return loopaut.conjugacy_test(a, b)


def _exec_realize(p):
    inv = p["inv"]
    row = _table_row(inv.algebra, p["kind"], p["k"])
    entry = row.entries[p["index"]]
    phi = tables.realize(inv)
    return {"entry": entry, "phi": phi, "inv": _invariant(phi)}


def _entry_matches(inv, entry):
    if entry[0] == "1a":
        return inv.p == 0 and inv.rho == entry[1] and inv.beta.rep == entry[2]
    if entry[0] == "1b":
        return inv.p == 1 and inv.rho.p == 0 and inv.beta.rep == entry[1]
    return inv.pair == (entry[1], entry[2])


def _check_realize(p, res):
    inv = res["inv"]
    return (res["entry"] == p["entry"] and inv == p["inv"]
            and isinstance(inv, FirstKindInvariant) == (p["kind"] == 1)
            and _entry_matches(inv, p["entry"]))


# ---------------------------------------------------------------------------
# loop: Jacobi and form invariance on random affine triples
# ---------------------------------------------------------------------------

def _loop_algebras(spec):
    algs = selftest.loop_test_algebras()
    if spec["algebras"] != "all":
        algs = [a for a in algs if a.label() in spec["algebras"]]
    return algs


class _LoopGen:
    """Random affine triples drawn as selftest.random_affine_element draws
    them, kept as (degree, eigenbasis index, factor) terms: the op builds
    the elements, as the algebra-identities check does inside its loop."""

    def __init__(self, spec, rng):
        self.rng = rng
        self.cells = [(alg,) + selftest.default_twist(alg)
                      for alg in _loop_algebras(spec)]
        self.seen = set()

    def _element(self, alg, twist, l):
        rng = self.rng
        terms = []
        for _ in range(2):
            n = rng.randint(-2, 2)
            basis = sigma_eigenspace(alg, twist, l, n % l)
            if basis:
                terms.append((n, rng.randrange(len(basis)),
                              Fraction(rng.randint(1, 3), rng.randint(1, 2))))
        return (tuple(terms), Fraction(rng.randint(-2, 2)),
                Fraction(rng.randint(-2, 2)))

    def warmup(self):
        return self.round()

    def fixed(self):
        return []

    def round(self):
        ops = []
        for alg, twist, l in self.cells:
            while True:
                xyz = tuple(self._element(alg, twist, l) for _ in range(3))
                if self._fresh((alg.label(), xyz)):
                    break
            ops.append(("jacobi", {"algebra": alg, "twist": twist, "l": l,
                                   "xyz": xyz}))
        return ops

    def _fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _affine(p, elt):
    alg, twist, l = p["algebra"], p["twist"], p["l"]
    terms, c, d = elt
    coeffs = {}
    for n, idx, q in terms:
        M = kalgebra.sigma_eigenspace(alg, twist, l, n % l)[idx].matrix * q
        coeffs[n] = coeffs[n] + M if n in coeffs else M
    return kloop.AffineElement(
        kloop.LoopElement(alg, twist, l, coeffs, validate=False), c, d)


def _exec_jacobi(p):
    x, y, z = (_affine(p, e) for e in p["xyz"])
    br = kloop.affine_bracket
    yz, zx, xy = br(y, z), br(z, x), br(x, y)
    jac = br(x, yz) + br(y, zx) + br(z, xy)
    return {"jacobi_zero": jac.is_zero(),
            "lhs": kloop.affine_form(xy, z), "rhs": kloop.affine_form(x, yz)}


# ---------------------------------------------------------------------------
# realform: real form window bases and Cartan decompositions
# ---------------------------------------------------------------------------

def _pairs(alg, pairs):
    if pairs == "all":
        return [(e[1], e[2]) for k in tables.valid_ks(alg)
                for e in tables.enumerate_second_kind(alg, k).entries]
    return [tuple(parse_label(alg, s) for s in p.split(",")) for p in pairs]


def _realform_ops(spec):
    """(warm-up ops, batch ops): the batch is fixed, since the input space
    is small and per-op cost spans 0.03-4 s; the warm-up runs every input
    algebra and pair at a smaller window."""
    warm, batch, warmed = [], [], set()
    for rank, pairs, windows in spec["bases"]:
        alg = make_algebra("a", rank, "compact")
        for pair in _pairs(alg, pairs):
            if (rank, pair) not in warmed:
                warmed.add((rank, pair))
                warm.append(("basis", {"algebra": alg, "pair": pair,
                                       "window": spec["warmup_window"][rank]}))
            for w in windows:
                batch.append(("basis", {"algebra": alg, "pair": pair,
                                        "window": w}))
    a1 = make_algebra("a", 1, "compact")
    invols = []
    for k in tables.valid_ks(a1):
        for kind in (1, 2):
            for e in _table_row(a1, kind, k).entries:
                invols.append((e, tables.realize_entry(a1, e)))
    for e, phi in invols:
        warm.append(("cartan", {"entry": e, "phi": phi,
                                "window": spec["warmup_window"]["cartan"]}))
        for w in spec["cartan_windows"]:
            batch.append(("cartan", {"entry": e, "phi": phi, "window": w}))
    return warm, batch


def _exec_basis(p):
    alg = p["algebra"]
    rb = realforms.real_form_basis(alg, p["pair"], N=p["window"])
    return {
        "algebra": alg.to_json(),
        "pair": [repr(x) for x in p["pair"]],
        "l": rb.l,
        "window": rb.window,
        "coefficient_dims": {str(k): v for k, v in
                             sorted(rb.coefficient_dims().items())},
        "bracket_closed": rb.closed_under_bracket(),
        "basis": [b.to_json() for b in rb.basis],
    }


def expected_dims(alg, pair, window):
    """Complex dimension of every degree of the window: the sigma eigenspace
    of the twist sigma = rho-^(-1) rho+ at that degree."""
    plus = standard_involution(alg, pair[0])
    minus = standard_involution(alg, pair[1])
    sigma = minus.inverse().compose(plus)
    l = sigma.order(bound=64)
    return {str(n): len(sigma_eigenspace(alg, sigma, l, n % l))
            for n in range(-window, window + 1)}


def _check_basis(p, res):
    want = {n: d for n, d in expected_dims(p["algebra"], p["pair"],
                                           p["window"]).items() if d}
    return res["bracket_closed"] is True and res["coefficient_dims"] == want


def _exec_cartan(p):
    return realforms.cartan_decomposition(p["phi"], N=p["window"])


def _check_cartan(p, res):
    return bool(res["K"]) and all(v is True for v in res["inclusions"].values())


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def execute(kind, payload):
    """The timed call of one op."""
    if kind == "conjugate":
        return _exec_conjugate(payload)
    if kind == "realize":
        return _exec_realize(payload)
    if kind == "jacobi":
        return _exec_jacobi(payload)
    if kind == "basis":
        return _exec_basis(payload)
    return _exec_cartan(payload)


def oracle(kind, payload, result):
    """True when the answer agrees with one known without the timed path."""
    if kind == "conjugate":
        return result in payload["expect"]
    if kind == "realize":
        return _check_realize(payload, result)
    if kind == "jacobi":
        return result["jacobi_zero"] is True and result["lhs"] == result["rhs"]
    if kind == "basis":
        return _check_basis(payload, result)
    return _check_cartan(payload, result)


def canonical(kind, result):
    """JSON-able form of an op's output, for the run digest."""
    if kind == "conjugate":
        return result
    if kind == "realize":
        return {"phi": result["phi"].to_json(), "inv": result["inv"].to_json()}
    if kind == "jacobi":
        return {"jacobi_zero": result["jacobi_zero"],
                "lhs": result["lhs"].to_json(), "rhs": result["rhs"].to_json()}
    if kind == "basis":
        return result
    return {"K": [x.to_json() for x in result["K"]],
            "P": [x.to_json() for x in result["P"]],
            "inclusions": result["inclusions"], "window": result["window"]}


class Workload:
    """Seeded inputs of one run: `warmup()` draws the warm-up ops, then
    `batch()` the timed ops, disjoint from them and from each other; the
    batch is shuffled so that op kinds interleave over the run."""

    def __init__(self, name, seed, size="full"):
        self.spec = SIZES[size][name]
        self.rng = random.Random("%s:%d" % (name, seed))
        if name == "realform":
            self.gen = None
            self._warm, self._batch = _realform_ops(self.spec)
        else:
            cls = _ClassifyGen if name == "classify" else _LoopGen
            self.gen = cls(self.spec, self.rng)

    def warmup(self):
        return self._warm if self.gen is None else self.gen.warmup()

    def batch(self):
        if self.gen is None:
            ops = list(self._batch)
        else:
            ops = [op for _ in range(self.spec["rounds"])
                   for op in self.gen.round()] + self.gen.fixed()
        self.rng.shuffle(ops)
        return ops
