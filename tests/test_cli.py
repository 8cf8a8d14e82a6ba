import contextlib
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kmaut.algebra import make_algebra
from kmaut.autg import (identity_automorphism, mu_automorphism,
                        standard_involution, triality_automorphism)
from kmaut.cli import main
from kmaut.loopaut import StandardLoopAutomorphism, conjugate_exp
from kmaut.selftest import antifixed_direction, stability_fixtures
from kmaut.tables import (enumerate_first_kind, enumerate_second_kind,
                          realize_entry)


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


def test_realize_verb_order_one_class(tmp_path, capsys):
    """q = 1 with rho = id is the identity on a twisted loop algebra, and
    its realization reads back as the class asked for."""
    inv = {"kind": 1, "algebra": {"family": "a", "n": 2}, "q": 1, "p": 0,
           "rho": "id", "beta": {"rep": "mu"}}
    path = tmp_path / "inv.json"
    path.write_text(json.dumps(inv))
    rc, out = run_cli(["realize", "--in", str(path)], capsys)
    assert rc == 0
    aut = tmp_path / "aut.json"
    aut.write_text(out)
    rc, out = run_cli(["invariant", "--in", str(aut)], capsys)
    assert rc == 0
    assert json.loads(out) == {"beta": {"k": 2, "rep": "mu"}, "kind": 1,
                               "p": 0, "q": 1, "rho": "id"}


def test_realform_verb(tmp_path, capsys):
    rc, out = run_cli(["realform", "--pair", "mu,id", "--algebra", "a1",
                       "--window", "4"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["l"] == 2
    assert payload["bracket_closed"] is True
    dims = payload["coefficient_dims"]
    assert dims["0"] == 1 and dims["1"] == 2


def test_realform_json_matches_its_golden_copy(capsys):
    """The JSON is byte-identical to a committed copy, the conductor written
    with every coefficient included: the zero c of the d element, for one,
    stays at conductor 1."""
    rc, out = run_cli(["realform", "--pair", "mu,id", "--algebra", "a1",
                       "--window", "4", "--emit", "json"], capsys)
    assert rc == 0
    golden = Path(__file__).parent / "golden" / "realform-a1-mu-id-w4.json"
    assert out == golden.read_text()


@pytest.mark.parametrize("case", json.loads(
    (Path(__file__).parent / "golden" / "realform-digests.json").read_text()))
def test_realform_json_matches_its_golden_digest(case, capsys):
    """The JSON of an outer a3 pair and of a c3 pair, which the a1 golden
    copy does not reach, and of an a2 and a b2 pair at window 2, whose
    closure checks skip pairs that leave the window, hashes to its
    committed sha256."""
    rc, out = run_cli(["realform"] + case["args"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_realform_json_does_not_depend_on_the_hash_seed():
    """The real form JSON of an a2 pair is byte-identical under two string
    hash seeds, so no set or dict of strings orders its output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "kmaut.cli", "realform", "--pair",
             "rho1,rho2", "--algebra", "a2", "--window", "3", "--emit", "json"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_realform_reads_the_algebra_label(capsys):
    """Exceptional names are algebras (with no matrix model, so no real form
    basis); a family name is one letter, so ab1 is unknown."""
    rc, out = run_cli(["realform", "--pair", "rho1,id", "--algebra", "e6"],
                      capsys)
    assert rc == 2 and "unknown family" not in json.loads(out)["error"]
    assert "matrix model" in json.loads(out)["error"]
    for label in ["ab1", "abcd1", "d", "e9", "a-1"]:
        rc, out = run_cli(["realform", "--pair", "rho1,id", "--algebra", label],
                          capsys)
        assert rc == 2
        assert json.loads(out)["error"].startswith("unknown algebra")


def test_realform_rejects_labels_of_other_algebras(capsys):
    """a1 has no mu o Ad J class: muAdJ used to parse to rho3."""
    rc, out = run_cli(["realform", "--pair", "muAdJ,id", "--algebra", "a1"],
                      capsys)
    assert rc == 2
    assert json.loads(out) == {"error": "label 'muAdJ' not valid for a1"}


def test_exponent_strings_exit_2_fast(tmp_path, capsys):
    """An exponent string in a coefficient or in t0 is refused before any
    arithmetic: Fraction("1e100000000") alone ran past a minute."""
    aut = json.loads(_write_aut(tmp_path).read_text())
    coeff = json.loads(json.dumps(aut))
    coeff["twist"]["matrix"]["entries"][0][2] = {"conductor": 1,
                                                 "coeffs": ["1e100000000"]}
    for bad in [dict(aut, t0="1e100000000"), coeff]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        start = time.perf_counter()
        rc, out = run_cli(["invariant", "--in", str(path)], capsys)
        assert time.perf_counter() - start < 1
        _assert_typed_error(rc, out)


def _assert_typed_error(rc, out):
    assert rc == 2
    # a typed error, not a raw exception that the CLI prefixes with its type
    assert not json.loads(out)["error"].startswith(
        ("ValueError", "TypeError", "KeyError"))


def test_so8_operator_off_the_bracket_exits_2(tmp_path, capsys):
    """The realized so(8) pair (rho1, rho1') at k = 3 with its twist operator
    L replaced by D L D^-1, D = diag(2, 1, ..., 1): once read back as that
    pair, it now exits 2 with an error naming the operator."""
    from kmaut.cyclo import CycloMatrix
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"kind": 2, "algebra": {"family": "d", "n": 4},
                               "pair": ["rho1", "rho1'"], "k": 3}))
    rc, out = run_cli(["realize", "--in", str(inv)], capsys)
    assert rc == 0
    payload = json.loads(out)
    L = CycloMatrix.from_json(payload["twist"]["matrix"], 28)
    D = CycloMatrix.diag([2] + [1] * (L.n - 1))
    payload["twist"]["matrix"] = (D * L * D.inverse()).to_json()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out = run_cli(["invariant", "--in", str(bad)], capsys)
    _assert_typed_error(rc, out)
    assert "operator" in json.loads(out)["error"]


def test_so8_operator_with_a_wrong_word_exits_2(tmp_path, capsys):
    """The realized so(8) class (q 1, p 0, id, theta) reads back as itself
    at k = 3; with its twist theta given the word [0, 1, 2] of an inner map,
    it once read back as beta = id at k = 1, and now exits 2 with a JSON
    error naming the word, and nothing on stderr."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"kind": 1, "algebra": {"family": "d", "n": 4},
                               "q": 1, "p": 0, "rho": "id",
                               "beta": {"rep": "theta"}}))
    rc, out = run_cli(["realize", "--in", str(inv)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["twist"]["rep"] == "operator"
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(payload))
    rc, out = run_cli(["invariant", "--in", str(path)], capsys)
    assert rc == 0 and json.loads(out)["beta"] == {"k": 3, "rep": "theta"}
    payload["twist"]["outer_power"] = [0, 1, 2]
    path.write_text(json.dumps(payload))
    rc = main(["invariant", "--in", str(path)])
    captured = capsys.readouterr()
    _assert_typed_error(rc, captured.out)
    assert "outer_power" in json.loads(captured.out)["error"]
    assert captured.err == ""


def test_realform_window_zero_and_negative(capsys):
    """--window 0 is the window [0, 0], not the default; a negative window
    exits 2."""
    rc, out = run_cli(["realform", "--pair", "mu,id", "--algebra", "a1",
                       "--window", "0"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["window"] == 0 and payload["bracket_closed"] is True
    assert payload["coefficient_dims"] == {"0": 1}
    rc, out = run_cli(["realform", "--pair", "mu,id", "--algebra", "a1",
                       "--window", "-1"], capsys)
    _assert_typed_error(rc, out)
    assert "window" in json.loads(out)["error"]


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
                dict(second, algebra={"family": "a", "n": "2"}),
                # only what was asked for is realized: kind is 1 or 2,
                # 0 <= p < q, k is the outer order of the pair, and kind,
                # beta and pair must be present
                dict(second, kind=3), dict(second, kind="1"),
                dict(first, kind=True),
                dict(first, algebra={"family": "a", "n": 1}, p=7, q=2),
                dict(first, p=-1), dict(second, pair=["rho1", "id"], k=3),
                {key: v for key, v in second.items() if key != "kind"},
                {key: v for key, v in first.items() if key != "beta"},
                {key: v for key, v in second.items() if key != "pair"},
                # well formed, but no class: a translation (p = 1) reads
                # back with rho = id, and at q = 1 rho is id
                dict(first, p=1), dict(first, q=1)]:
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


def test_conj_linear_is_a_json_boolean_and_label_a_string(tmp_path, capsys):
    """conj_linear is true, false or absent, and a label a string: "false",
    "0", 1 or [] as conj_linear, or a list as label, exits 2 with a typed
    error for `invariant` and for `conjugate` against the unchanged map,
    which false and an absent key read back as."""
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"kind": 2, "algebra": {"family": "a", "n": 1},
                               "pair": ["rho1", "id"], "k": 1}))
    rc, out = run_cli(["realize", "--in", str(inv)], capsys)
    assert rc == 0
    good = tmp_path / "good.json"
    good.write_text(out)
    base = json.loads(out)
    path = tmp_path / "x.json"
    bad = [dict(base["phi0"], conj_linear=v) for v in ("false", "0", 1, [])]
    bad.append(dict(base["phi0"], label=["id"]))
    for phi0 in bad:
        path.write_text(json.dumps(dict(base, phi0=phi0)))
        _assert_typed_error(*run_cli(["invariant", "--in", str(path)], capsys))
        _assert_typed_error(*run_cli(["conjugate", "--a", str(path), "--b",
                                      str(good)], capsys))
    absent = {k: v for k, v in base["phi0"].items() if k != "conj_linear"}
    for phi0 in (dict(base["phi0"], conj_linear=False), absent):
        path.write_text(json.dumps(dict(base, phi0=phi0)))
        rc, out = run_cli(["conjugate", "--a", str(path), "--b", str(good)],
                          capsys)
        assert rc == 0 and json.loads(out) == {"result": "conjugate"}


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

    def failing():
        return ("stub", False, "fails on purpose")

    monkeypatch.setattr(selftest, "ALL_CHECKS",
                        [selftest.check_table3_counts, failing])
    rc, out = run_cli(["selftest"], capsys)
    assert rc == 1
    assert "stub" in out and "FAIL" in out
    assert out.splitlines()[-1] == "1/2 criteria passed"


def test_selftest_verb_takes_no_options(capsys):
    """The suite runs in one configuration: an option is an argument error,
    and no check runs."""
    rc, out = run_cli(["selftest", "--deep"], capsys)
    assert rc == 2
    assert json.loads(out) == {"error": "argument parsing failed"}


def _dense(m):
    """The nested-list form of a JSON matrix, as files written before the
    sparse form hold it: each zero at the conductor of the entries."""
    x = m["entries"][0][2]
    rows = [[{"conductor": x["conductor"], "coeffs": ["0"] * len(x["coeffs"])}
             for _ in range(m["size"])] for _ in range(m["size"])]
    for i, j, x in m["entries"]:
        rows[i][j] = x
    return rows


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


def _sparse(edit):
    """An edit of the sparse form of the matrix."""
    edit.sparse = True
    return edit


def _entries(value):
    return _sparse(lambda m: m.update(entries=value))


def _first_cell(value):
    return _sparse(lambda m: m["entries"].__setitem__(0, value))


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
    _sparse(lambda m: m.update(size=10**9)),
    _sparse(lambda m: m.update(size=True)),
    _sparse(lambda m: m.pop("size")),
    _entries({}), _entries(None), _entries([[0, 0]]),
    _first_cell([True, 0, {"conductor": 1, "coeffs": ["1"]}]),
    _first_cell([0, 3, {"conductor": 1, "coeffs": ["1"]}]),
    _first_cell([-1, 0, {"conductor": 1, "coeffs": ["1"]}]),
    _sparse(lambda m: m["entries"].insert(1, m["entries"][0])),
    _sparse(lambda m: m["entries"].reverse()),
], ids=["cut_rows", "cut_first_row", "square_2x2", "short_scalar",
        "nested_coeff", "null_conductor", "short_scalar_30030",
        "short_scalar_100000", "float_conductor", "bool_conductor",
        "string_conductor", "word_coeff", "float_coeff", "huge_size",
        "bool_size", "no_size", "entries_object", "entries_null",
        "short_entry", "bool_row", "column_out_of_range", "negative_row",
        "repeated_entry", "column_major"])
def test_invariant_rejects_malformed_matrix(tmp_path, capsys, edit):
    """Edits of the nested-list form of older files, and of the sparse
    form: each exits 2 with a typed error."""
    a2 = make_algebra("a", 2, "compact")
    entry = enumerate_first_kind(a2, 1).entries[0]
    payload = realize_entry(a2, entry).to_json()
    if not getattr(edit, "sparse", False):
        payload["twist"]["matrix"] = _dense(payload["twist"]["matrix"])
    edit(payload["twist"]["matrix"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    _assert_typed_error(*run_cli(["invariant", "--in", str(bad)], capsys))


def test_table_output_byte_stable(capsys):
    rc1, out1 = run_cli(["tables", "--family", "d", "--n", "4"], capsys)
    rc2, out2 = run_cli(["tables", "--family", "d", "--n", "4"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is that of a scratch file, which the CLI may point
    at the null device."""

    def __init__(self, path):
        self.sink = open(path, "w")
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.sink.fileno()


@pytest.mark.parametrize("args", [
    ["tables", "--family", "a", "--n", "1", "--k", "1", "--kind", "2"],
    ["realform", "--pair", "rho0,rho1", "--algebra", "a1", "--window", "1"],
])
def test_closed_stdout_ends_quietly(args, tmp_path, monkeypatch, capsys):
    """When stdout's reader goes away, main returns 1 without raising and
    without a second write: no JSON error follows the output it cut."""
    pipe = _ClosedPipe(tmp_path / "sink")
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main(args) == 1
    finally:
        pipe.sink.close()
    assert len(pipe.writes) == 1 and "error" not in pipe.writes[0]
    assert capsys.readouterr().err == ""


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "kmaut.cli", "tables",
                           "--family", "a", "--n", "2", "--kind", "1",
                           "--k", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert rows[0]["count"] == "2+2"


def _curved():
    q2 = dict(stability_fixtures())["q2"]
    return conjugate_exp(q2, antifixed_direction(q2.phi0, random.Random(5)))


def _singular(payload):
    m = payload["phi0"]["matrix"]
    m["entries"] = [e for e in m["entries"] if e[0] != 0]


def _x_not_object(payload):
    payload["X"] = True


def _x_empty(payload):
    payload["X"] = {}


def _rates_not_list(payload):
    payload["X"]["rates"] = None


def _exceptional_family(payload):
    payload["phi0"]["algebra"]["family"] = "e8"


@pytest.mark.parametrize("edit", [
    _singular, _x_not_object, _x_empty, _rates_not_list, _exceptional_family])
def test_invariant_rejects_at_parse(tmp_path, capsys, edit):
    """Each of these once ended in a traceback past the JSON reader, or,
    for an empty X, read as a constant curve."""
    payload = _curved().to_json()
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    _assert_typed_error(*run_cli(["invariant", "--in", str(bad)], capsys))


@pytest.mark.parametrize("fam,n", [("b", 2), ("c", 3), ("d", 4)])
def test_invariant_rejects_a_matrix_outside_the_group(tmp_path, capsys, fam, n):
    """One off-diagonal 1/3 added to phi0 of a realized first-kind entry
    keeps the matrix invertible but takes it out of the group: exit 2 at
    parse with an error about the matrix, not about the order it would
    have had."""
    alg = make_algebra(fam, n, "compact")
    entry = enumerate_first_kind(alg, 1).entries[0]
    payload = realize_entry(alg, entry).to_json()
    payload["phi0"]["matrix"] = _dense(payload["phi0"]["matrix"])
    scalar = payload["phi0"]["matrix"][0][1]
    scalar["coeffs"][0] = str(Fraction(scalar["coeffs"][0]) + Fraction(1, 3))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out = run_cli(["invariant", "--in", str(bad)], capsys)
    _assert_typed_error(rc, out)
    error = json.loads(out)["error"]
    assert "matrix" in error and "order" not in error


_FUZZ_VALUES = [None, True, 0, 1, -1, 2, 7, "0", "1/0", "x", 1.5, [], {},
                [[]], "e8"]


def _fields(node, path=()):
    """The path of every field below a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


class _OverBudget(BaseException):
    """Raised by the alarm of `_budget`; no handler of the CLI catches it."""


@contextlib.contextmanager
def _budget(seconds):
    """Fail, instead of stalling, when the block runs over its wall time."""
    def expired(signum, frame):
        raise _OverBudget("over the budget of %s s" % seconds)

    old = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_invariant_fuzz_exits_0_or_2(tmp_path, capsys):
    """One seeded mutation of every field of two automorphisms, a realized
    table entry (in the sparse form, and with its matrices in the
    nested-list form of older files) and one with a curve, and of every
    field but the matrix entries of a realized so(8) entry whose twist has
    outer order three, with a seeded sample of those entries: each run
    exits 0 or 2 with a JSON payload on stdout, within a budget of wall
    time per input."""
    rng = random.Random(5)
    a2, d4 = make_algebra("a", 2, "compact"), make_algebra("d", 4, "compact")
    curved = _curved()
    assert not curved.has_constant_curve()
    so8 = realize_entry(d4, enumerate_second_kind(d4, 3).entries[0])
    assert so8.to_json()["twist"]["rep"] == "operator"
    path = tmp_path / "aut.json"
    runs = 0
    entry = realize_entry(a2, enumerate_first_kind(a2, 2).entries[0])
    for phi, sample, dense in ((entry, None, False), (entry, None, True),
                               (curved, None, False), (so8, 40, False)):
        base = phi.to_json()
        if dense:
            for key in ("twist", "phi0"):
                base[key]["matrix"] = _dense(base[key]["matrix"])
        fields = list(_fields(base))
        if sample is not None:
            inner = [f for f in fields if "matrix" in f[:-1]]
            fields = ([f for f in fields if "matrix" not in f[:-1]]
                      + rng.sample(inner, sample))
        for field in fields:
            payload = json.loads(json.dumps(base))
            node = payload
            for key in field[:-1]:
                node = node[key]
            if rng.random() < 0.1:
                del node[field[-1]]
            else:
                node[field[-1]] = rng.choice(_FUZZ_VALUES)
            path.write_text(json.dumps(payload))
            with _budget(20):
                rc, out = run_cli(["invariant", "--in", str(path)], capsys)
            assert rc in (0, 2), (field, out)
            json.loads(out)
            runs += 1
    assert runs > 300


@pytest.mark.parametrize("fam,n", [("a", 2), ("b", 2), ("c", 3), ("d", 4)])
def test_invariant_json_round_trip_to_the_byte(fam, n):
    """An entry invariant's to_json, with its algebra added as `realize
    --in` takes it, reads back to the same invariant and the same bytes."""
    from kmaut.cli import _invariant_from_json
    from kmaut.tables import entry_invariant, enumerate_second_kind, valid_ks

    alg = make_algebra(fam, n, "compact")
    for k in valid_ks(alg):
        for row in (enumerate_first_kind(alg, k), enumerate_second_kind(alg, k)):
            for entry in row.entries:
                inv = entry_invariant(alg, entry)
                text = json.dumps(inv.to_json())
                obj = dict(json.loads(text), algebra={"family": fam, "n": n})
                back = _invariant_from_json(obj)
                assert back == inv and json.dumps(back.to_json()) == text


@pytest.mark.parametrize("fam,n", [("b", 2), ("c", 3), ("d", 5)])
def test_outer_power_one_off_the_a_family_exits_2(tmp_path, capsys, fam, n):
    """mu exists on the a family only: rho1 of b2, c3 or d5 with
    "outer_power": 1 once read back as rho1 itself."""
    from kmaut.autg import Automorphism
    from kmaut.errors import MalformedData
    alg = make_algebra(fam, n, "compact")
    rho = dict(standard_involution(alg, "rho1").to_json(), outer_power=1)
    with pytest.raises(MalformedData, match="outer_power"):
        Automorphism.from_json(rho)
    payload = realize_entry(alg, enumerate_first_kind(alg, 1).entries[0]) \
        .to_json()
    payload["phi0"] = rho
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out = run_cli(["invariant", "--in", str(bad)], capsys)
    _assert_typed_error(rc, out)
    assert "outer_power" in json.loads(out)["error"]
