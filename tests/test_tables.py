import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kmaut import cli
from kmaut.algebra import make_algebra
from kmaut.autg import InvLabel
from kmaut.errors import InvalidK, InvalidLabel, StaticOnlyAlgebra
from kmaut.loopaut import (
    invariant,
    invariant_first_kind,
    invariant_second_kind,
)
from kmaut.pi0 import pi0_row
from kmaut.selftest import (acceptance_algebras, table2_expected,
                            table3_expected)
from kmaut.tables import (
    enumerate_first_kind,
    enumerate_second_kind,
    first_kind_class,
    membership_condition,
    realize,
    realize_entry,
    valid_ks,
)


def test_counts_match_closed_forms():
    cases = [("a", 1), ("a", 4), ("a", 5), ("b", 3), ("c", 4), ("c", 5),
             ("d", 4), ("d", 5), ("d", 6), ("e6", None), ("e7", None),
             ("g2", None)]
    for fam, n in cases:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            assert enumerate_first_kind(alg, k).count == table2_expected(alg, k)
            assert enumerate_second_kind(alg, k).count == table3_expected(alg, k)


def test_specific_rows():
    a1 = make_algebra("a", 1, "compact")
    assert enumerate_first_kind(a1, 1).count == "2+1"
    assert enumerate_second_kind(a1, 1).count == 3
    b3 = make_algebra("b", 3, "compact")
    assert enumerate_first_kind(b3, 1).count == "6+1"
    d4 = make_algebra("d", 4, "compact")
    row = enumerate_first_kind(d4, 3)
    assert row.count == "1+1"
    assert [e for e in row.entries if e[0] == "1a"] == \
        [("1a", InvLabel(4), "theta")]
    row = enumerate_second_kind(d4, 3)
    assert [(repr(e[1]), repr(e[2])) for e in row.entries] == \
        [("rho1", "rho1'"), ("rho1", "rho3'"), ("rho3", "rho3'")]


def test_e6_second_kind_entries():
    e6 = make_algebra("e6", None, "compact")
    row = enumerate_second_kind(e6, 2)
    got = sorted((repr(e[1]), repr(e[2])) for e in row.entries)
    assert got == [("rho0", "rho1"), ("rho0", "rho4"), ("rho1", "rho2"),
                   ("rho1", "rho3"), ("rho2", "rho4"), ("rho3", "rho4")]
    assert row.provenance == "static"


def test_invalid_k():
    b2 = make_algebra("b", 2, "compact")
    with pytest.raises(InvalidK):
        enumerate_first_kind(b2, 2)
    with pytest.raises(InvalidK):
        enumerate_second_kind(b2, 3)


def test_entries_pairwise_distinct():
    for fam, n in [("a", 3), ("d", 4), ("d", 6)]:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            for row in (enumerate_first_kind(alg, k),
                        enumerate_second_kind(alg, k)):
                assert len(set(map(repr, row.entries))) == len(row.entries)


def test_realize_roundtrip_samples():
    for fam, n in [("a", 2), ("b", 2), ("c", 3), ("d", 4)]:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            row = enumerate_first_kind(alg, k)
            for e in row.entries[:4]:
                phi = realize_entry(alg, e)
                inv = invariant_first_kind(phi)
                phi2 = realize(inv)
                assert invariant_first_kind(phi2) == inv
            row = enumerate_second_kind(alg, k)
            for e in row.entries[:4]:
                phi = realize_entry(alg, e)
                inv = invariant_second_kind(phi)
                assert inv.pair == (e[1], e[2])
                phi2 = realize(inv)
                assert invariant_second_kind(phi2) == inv


@pytest.mark.parametrize("family,n,reps", [
    ("a", 2, ["id", "mu"]), ("d", 4, ["id", "rho1", "theta"])])
def test_realize_identity_row_classes(family, n, reps):
    """Each class of the identity row is realized at q = 1, as the
    identity on the loop algebra twisted by its representative, and reads
    back as itself."""
    alg = make_algebra(family, n, "compact")
    ident = InvLabel(0)
    assert [e.rep for e in pi0_row(alg, ident).entries] == reps
    for rep in reps:
        inv = first_kind_class(alg, 1, 0, ident, rep)
        phi = realize(inv)
        assert phi.order() == 1
        assert invariant(phi) == inv


def test_realize_refuses_what_is_no_class():
    """At p = 0, rho = id is the class of order one and any other rho one
    of order two; the other combinations name their cause."""
    alg = make_algebra("a", 2, "compact")
    for q, rho in ((2, InvLabel(0)), (1, InvLabel(1))):
        inv = first_kind_class(alg, q, 0, rho, "id")
        with pytest.raises(InvalidLabel, match="rho = id gives the class of "
                                               "order q = 1"):
            realize(inv)


def test_realize_static_only():
    e6 = make_algebra("e6", None, "compact")
    row = enumerate_second_kind(e6, 1)
    with pytest.raises(StaticOnlyAlgebra):
        realize_entry(e6, row.entries[0])


def test_membership_condition():
    su3 = make_algebra("a", 2, "compact")
    # [mu, id] on su(3) has k = 2: not a twist class of the untwisted algebra
    row = enumerate_second_kind(su3, 2)
    entry = next(e for e in row.entries if e[1] == InvLabel(0))
    phi = realize_entry(su3, entry)
    inv = invariant_second_kind(phi)
    assert membership_condition(inv, 2)
    assert not membership_condition(inv, 1)
    # [mu, mu] is inner-product: twist class 1
    row1 = enumerate_second_kind(su3, 1)
    entry = next(e for e in row1.entries
                 if e[1] == e[2] and e[1].p == 2)
    inv = invariant_second_kind(realize_entry(su3, entry))
    assert membership_condition(inv, 1)
    # first kind: (0, rho, [sigma]) is a member of its own sigma class
    r2 = enumerate_first_kind(su3, 2)
    e = next(x for x in r2.entries if x[0] == "1a")
    inv = invariant_first_kind(realize_entry(su3, e))
    assert membership_condition(inv, 2)
    assert not membership_condition(inv, 1)
    # a conjugate-linear class lies on the twist of the class it extends
    from kmaut.realforms import conj_linear_extend
    for e in r2.entries + row.entries[:1]:
        inv = invariant(conj_linear_extend(realize_entry(su3, e)))
        assert membership_condition(inv, 2)
        assert not membership_condition(inv, 1)


def test_realized_entries_pairwise_not_conjugate():
    from kmaut.loopaut import conjugacy_test
    alg = make_algebra("a", 2, "compact")
    row = enumerate_second_kind(alg, 1)
    phis = [realize_entry(alg, e) for e in row.entries]
    for i, a in enumerate(phis):
        for b in phis[i + 1:]:
            assert conjugacy_test(a, b) == "not_conjugate"


def test_square_map_lands_in_first_kind_set():
    from kmaut.loopaut import square_map
    for fam, n in [("a", 2), ("a", 3), ("d", 4)]:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            row = enumerate_second_kind(alg, k)
            for e in row.entries:
                inv = invariant_second_kind(realize_entry(alg, e))
                sq = square_map(inv)
                # the square is the identity with the same twist class
                assert sq.q == 1 and sq.p == 0
                assert membership_condition(sq, k)
                assert invariant(realize(sq)) == sq


def test_second_kind_order_always_even():
    for fam, n in [("a", 2), ("d", 4)]:
        alg = make_algebra(fam, n, "compact")
        for k in valid_ks(alg):
            for e in enumerate_second_kind(alg, k).entries[:3]:
                phi = realize_entry(alg, e)
                assert phi.order(bound=64) % 2 == 0


def test_row_rendering():
    a1 = make_algebra("a", 1, "compact")
    row = enumerate_first_kind(a1, 1)
    text = row.render()
    assert "a1^(1)" in text and "2+1" in text
    js = row.to_json()
    assert js["count"] == "2+1" and js["provenance"] == "computed"


_TABLES_GOLDEN = Path(__file__).parent / "golden" / "tables-digests.json"


def _tables_argvs():
    """Every `kmaut tables` call of the byte-identity gate: a-d at n = 1..8
    and the exceptional families, both kinds, k = 1..3, every emit format."""
    algebras = [["--family", f, "--n", str(n)] for f in "abcd"
                for n in range(1, 9)]
    algebras += [["--family", f] for f in ("e6", "e7", "e8", "f4", "g2")]
    return [["tables"] + alg + ["--kind", str(kind), "--k", str(k),
                                "--emit", emit]
            for alg in algebras for kind in (1, 2) for k in (1, 2, 3)
            for emit in ("json", "text", "latex")]


def _tables_digests():
    """{argv joined by spaces: [exit code, sha256 of stdout]} over
    `_tables_argvs`, run in-process through cli.main."""
    out = {}
    for argv in _tables_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out[" ".join(argv)] = [code, hashlib.sha256(
            buf.getvalue().encode()).hexdigest()]
    return out


_REALIZE_GOLDEN = Path(__file__).parent / "golden" / "realize-digests.json"


def _realize_digests():
    """{algebra, k and entry joined by spaces: sha256 of the sorted JSON of
    the entry's realized map} over every first- and second-kind entry of the
    classical acceptance algebras (a1-a7, b2-b5, c3-c6, d4-d8)."""
    out = {}
    for alg in acceptance_algebras():
        if alg.is_exceptional:
            continue
        for k in valid_ks(alg):
            for row in (enumerate_first_kind(alg, k),
                        enumerate_second_kind(alg, k)):
                for e in row.entries:
                    text = json.dumps(realize_entry(alg, e).to_json(),
                                      sort_keys=True)
                    key = " ".join([alg.label(), str(k)] + list(map(str, e)))
                    out[key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_realized_entries_are_byte_identical_to_the_golden_digests():
    """The matrices and labels of the row builders reach output only through
    realized maps: every realized table entry hashes to its committed
    digest."""
    want = json.loads(_REALIZE_GOLDEN.read_text())
    got = _realize_digests()
    assert len(want) == 621
    assert got.keys() == want.keys()
    assert [a for a in want if got[a] != want[a]] == []


def test_tables_output_is_byte_identical_to_the_golden_digests():
    """Every table output, refused ones' error payloads included, hashes to
    its committed digest with its committed exit code."""
    want = json.loads(_TABLES_GOLDEN.read_text())
    got = _tables_digests()
    assert len(want) == 666
    assert sorted(code for code, _ in want.values()).count(0) == 270
    assert got.keys() == want.keys()
    assert [a for a in want if got[a] != want[a]] == []
