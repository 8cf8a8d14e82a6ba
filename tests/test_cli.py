import json
import subprocess
import sys
from fractions import Fraction

import pytest

from kmaut.algebra import make_algebra
from kmaut.autg import (identity_automorphism, mu_automorphism,
                        standard_involution, triality_automorphism)
from kmaut.cli import main
from kmaut.loopaut import StandardLoopAutomorphism
from kmaut.tables import enumerate_first_kind, realize_entry


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_tables_json(capsys):
    rc, out = run_cli(["tables", "--family", "a", "--n", "1", "--k", "1",
                       "--kind", "2"], capsys)
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["count"] == 3
    assert rows[0]["algebra"] == "a1^(1)"


def test_tables_text_and_latex(capsys):
    rc, out = run_cli(["tables", "--family", "d", "--n", "4", "--k", "3",
                       "--kind", "1", "--emit", "text"], capsys)
    assert rc == 0 and "1+1" in out
    rc, out = run_cli(["tables", "--family", "g2", "--emit", "latex"], capsys)
    assert rc == 0 and out.startswith("\\begin{tabular}")


def test_tables_invalid_k(capsys):
    rc, out = run_cli(["tables", "--family", "b", "--n", "2", "--k", "2"],
                      capsys)
    assert rc == 2
    assert json.loads(out) == {"error": "k = 2 is not valid for b2"}


def _write_aut(tmp_path, name="aut.json"):
    su2 = make_algebra("a", 1, "compact")
    iden = identity_automorphism(su2)
    tau = standard_involution(su2, "rho1")
    phi = StandardLoopAutomorphism(iden, 1, 1, Fraction(1, 2), None, tau)
    path = tmp_path / name
    path.write_text(json.dumps(phi.to_json()))
    return path


def test_invariant_verb(tmp_path, capsys):
    path = _write_aut(tmp_path)
    rc, out = run_cli(["invariant", "--in", str(path)], capsys)
    assert rc == 0
    inv = json.loads(out)
    assert inv == {"kind": 1, "q": 2, "p": 1, "rho": "id",
                   "beta": {"rep": "id", "k": 1}}


def test_conjugate_verb(tmp_path, capsys):
    path = _write_aut(tmp_path)
    rc, out = run_cli(["conjugate", "--a", str(path), "--b", str(path)],
                      capsys)
    assert rc == 0
    assert json.loads(out)["result"] == "conjugate"


def test_realize_verb_roundtrips(tmp_path, capsys):
    inv = {"kind": 2, "algebra": {"family": "a", "n": 1},
           "pair": ["mu", "id"], "k": 1, "order": 2}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(inv))
    rc, out = run_cli(["realize", "--in", str(path)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["epsilon"] == -1
    # the emitted automorphism re-parses and has the asked invariant
    phi = StandardLoopAutomorphism.from_json(payload)
    from kmaut.loopaut import invariant_second_kind
    got = invariant_second_kind(phi)
    assert [repr(x) for x in got.pair] == ["rho0", "rho1"]


def test_realform_verb(tmp_path, capsys):
    rc, out = run_cli(["realform", "--pair", "mu,id", "--algebra", "a1",
                       "--window", "4"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["l"] == 2
    assert payload["bracket_closed"] is True
    dims = payload["coefficient_dims"]
    assert dims["0"] == 1 and dims["1"] == 2


def _assert_typed_error(rc, out):
    assert rc == 2
    # a typed error, not a raw exception that the CLI prefixes with its type
    assert not json.loads(out)["error"].startswith(("ValueError", "TypeError"))


def test_bad_inputs(tmp_path, capsys):
    rc, out = run_cli(["realform", "--pair", "mu", "--algebra", "a1"], capsys)
    assert rc == 2
    path = tmp_path / "garbage.json"
    path.write_text("{}")
    rc, out = run_cli(["invariant", "--in", str(path)], capsys)
    assert rc == 2
    rc, out = run_cli(["invariant", "--in", str(tmp_path / "missing.json")],
                      capsys)
    assert rc == 2
    first = {"kind": 1, "algebra": {"family": "a", "n": 2}, "p": 0,
             "rho": "rho1", "beta": {"rep": "id"}, "q": 2}
    second = {"kind": 2, "algebra": {"family": "a", "n": 1},
              "pair": ["mu", "id"], "k": 1, "order": 2}
    for bad in [dict(first, beta={"rep": "no-such-rep"}),
                dict(second, pair=["mu"]), dict(first, algebra="a2"),
                dict(second, algebra=["a", 1]), [first], dict(first, q=2.5),
                dict(second, pair=[1, 2]), dict(second, k=True),
                dict(second, algebra={"family": "a", "n": 1.5}),
                dict(second, algebra={"family": "a", "n": "2"})]:
        path.write_text(json.dumps(bad))
        _assert_typed_error(*run_cli(["realize", "--in", str(path)], capsys))
    # automorphisms: every JSON object is checked to be one, and n is an int
    aut = json.loads(_write_aut(tmp_path, "good.json").read_text())
    for bad in [dict(aut, twist=dict(aut["twist"], algebra="a1")),
                dict(aut, phi0=dict(aut["phi0"], algebra=["a", 1])),
                dict(aut, twist=None), dict(aut, phi0=None), [aut],
                dict(aut, phi0=dict(aut["phi0"],
                                    algebra={"family": "a", "n": True}))]:
        path.write_text(json.dumps(bad))
        _assert_typed_error(*run_cli(["invariant", "--in", str(path)], capsys))


def test_conjugate_accepts_conj_linear_involutions(tmp_path, capsys):
    """A realized a1 second-kind pair made conjugate-linear is conjugate to
    itself, and not to its complex-linear original."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"kind": 2, "algebra": {"family": "a", "n": 1},
                               "pair": ["rho1", "id"], "k": 1}))
    rc, out = run_cli(["realize", "--in", str(inv)], capsys)
    assert rc == 0
    lin = tmp_path / "lin.json"
    lin.write_text(out)
    payload = json.loads(out)
    payload["phi0"]["conj_linear"] = True
    conj = tmp_path / "x.json"
    conj.write_text(json.dumps(payload))
    for a, b, verdict in ((conj, conj, "conjugate"),
                          (conj, lin, "not_conjugate")):
        rc, out = run_cli(["conjugate", "--a", str(a), "--b", str(b)], capsys)
        assert rc == 0 and json.loads(out) == {"result": verdict}
    rc, out = run_cli(["invariant", "--in", str(conj)], capsys)
    assert rc == 0 and json.loads(out)["conj_linear"] is True


def _write_outer_aut(tmp_path, family, n, phi0_of):
    """An automorphism whose constant part phi0_of(algebra) is outer."""
    alg = make_algebra(family, n, "compact")
    phi = StandardLoopAutomorphism(identity_automorphism(alg), 1, 1, 0, None,
                                   phi0_of(alg))
    path = tmp_path / ("aut-%s%d.json" % (family, n))
    path.write_text(json.dumps(phi.to_json()))
    return path


@pytest.mark.parametrize("field,value", [
    ("scale", "-1"), ("scale", "0"), ("l", 0), ("l", -2),
    ("l", 1.5), ("l", True), ("l", "2"), ("epsilon", 0), ("epsilon", 5),
    ("phi0.outer_power", 5), ("phi0.outer_power", "1"),
    ("phi0.outer_power", 1.5), ("t0", "1/0"), ("scale", "1/0"), ("t0", [1]),
    ("phi0.outer_power", [0, 1]), ("phi0.outer_power", [0, 1, 5])])
def test_conjugate_rejects_out_of_range_data(tmp_path, capsys, field, value):
    good = base = _write_aut(tmp_path)
    if field == "phi0.outer_power":
        # outer_power 1 of mu on su(3), which a truncated 1.5 would keep; a
        # list is the word of an operator, which only so(8) takes
        base = _write_outer_aut(tmp_path, "d", 4, triality_automorphism) \
            if isinstance(value, list) \
            else _write_outer_aut(tmp_path, "a", 2, mu_automorphism)
    payload = json.loads(base.read_text())
    *keys, last = field.split(".")
    target = payload
    for key in keys:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out = run_cli(["conjugate", "--a", str(bad), "--b", str(good)], capsys)
    _assert_typed_error(rc, out)


def test_selftest_verb_reports_failures(monkeypatch, capsys):
    from kmaut import selftest

    def failing(deep=False):
        return ("stub", False, "fails on purpose")

    monkeypatch.setattr(selftest, "ALL_CHECKS",
                        [selftest.check_table3_counts, failing])
    rc, out = run_cli(["selftest"], capsys)
    assert rc == 1
    assert "stub" in out and "FAIL" in out
    assert out.splitlines()[-1] == "1/2 criteria passed"


def _cut_rows(m):
    del m[2:]


def _cut_first_row(m):
    del m[0][2:]


def _square_2x2(m):
    del m[2:]
    for row in m:
        del row[2:]


def _first_entry(value):
    def edit(m):
        m[0][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    _cut_rows, _cut_first_row, _square_2x2,
    _first_entry({"conductor": 3, "coeffs": ["1"]}),
    _first_entry({"conductor": 1, "coeffs": [[1]]}),
    _first_entry({"conductor": None, "coeffs": ["1"]}),
    _first_entry({"conductor": 30030, "coeffs": ["1"]}),
    _first_entry({"conductor": 100000, "coeffs": ["1"]}),
    _first_entry({"conductor": 1.5, "coeffs": ["1"]}),
    _first_entry({"conductor": True, "coeffs": ["1"]}),
    _first_entry({"conductor": "x", "coeffs": ["1"]}),
    _first_entry({"conductor": 1, "coeffs": ["abc"]}),
    _first_entry({"conductor": 1, "coeffs": [1.5]}),
], ids=["cut_rows", "cut_first_row", "square_2x2", "short_scalar",
        "nested_coeff", "null_conductor", "short_scalar_30030",
        "short_scalar_100000", "float_conductor", "bool_conductor",
        "string_conductor", "word_coeff", "float_coeff"])
def test_invariant_rejects_malformed_matrix(tmp_path, capsys, edit):
    a2 = make_algebra("a", 2, "compact")
    entry = enumerate_first_kind(a2, 1).entries[0]
    payload = realize_entry(a2, entry).to_json()
    edit(payload["twist"]["matrix"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    _assert_typed_error(*run_cli(["invariant", "--in", str(bad)], capsys))


def test_table_output_byte_stable(capsys):
    rc1, out1 = run_cli(["tables", "--family", "d", "--n", "4"], capsys)
    rc2, out2 = run_cli(["tables", "--family", "d", "--n", "4"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "kmaut.cli", "tables",
                           "--family", "a", "--n", "2", "--kind", "1",
                           "--k", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows[0]["count"] == "2+2"
