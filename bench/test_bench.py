"""Self-tests of the benchmark: tiny batches of every workload, the oracles,
the digest and the contract of BENCHMARK.json.

    python -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "60", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=str(cwd))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if not trace:
        report = next(line for line in proc.stdout.splitlines()
                      if line.startswith("# report "))
        assert json.loads(report[len("# report "):])["failed_frac"] == 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == spans.per_layer_names()


def _first(ops, kind):
    return next(p for k, p in ops if k == kind)


def test_oracle_counts_a_flipped_verdict():
    wl = workloads.Workload("classify", 3, "tiny")
    ops = wl.warmup() + wl.batch()
    for kind, p in ops:
        if kind != "conjugate":
            continue
        verdict = workloads.execute(kind, p)
        assert workloads.oracle(kind, p, verdict)
        flipped = "conjugate" if verdict == "not_conjugate" else "not_conjugate"
        assert not workloads.oracle(kind, p, flipped)


def test_oracle_counts_a_wrong_realization():
    wl = workloads.Workload("classify", 3, "tiny")
    ops = [op for op in wl.warmup() + wl.batch() if op[0] == "realize"]
    p1, p2 = ops[0][1], ops[1][1]
    res = workloads.execute("realize", p1)
    assert workloads.oracle("realize", p1, res)
    other = workloads.execute("realize", p2)
    assert not workloads.oracle("realize", p1, dict(res, inv=other["inv"]))


def test_oracle_counts_a_perturbed_dimension():
    wl = workloads.Workload("realform", 3, "tiny")
    p = _first(wl.batch(), "basis")
    res = workloads.execute("basis", p)
    assert workloads.oracle("basis", p, res)
    bad = copy.deepcopy(res)
    n = next(iter(bad["coefficient_dims"]))
    bad["coefficient_dims"][n] += 1
    assert not workloads.oracle("basis", p, bad)
    assert not workloads.oracle("basis", p, dict(res, bracket_closed=False))


def test_oracle_counts_a_failed_inclusion():
    wl = workloads.Workload("realform", 3, "tiny")
    p = _first(wl.batch(), "cartan")
    res = workloads.execute("cartan", p)
    assert workloads.oracle("cartan", p, res)
    bad = dict(res, inclusions=dict(res["inclusions"], KK_in_K=False))
    assert not workloads.oracle("cartan", p, bad)


def test_oracle_counts_a_broken_identity():
    wl = workloads.Workload("loop", 3, "tiny")
    p = _first(wl.batch(), "jacobi")
    res = workloads.execute("jacobi", p)
    assert workloads.oracle("jacobi", p, res)
    assert not workloads.oracle("jacobi", p, dict(res, jacobi_zero=False))
    assert not workloads.oracle("jacobi", p, dict(res, lhs=res["lhs"] + 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    digests = []
    for _ in range(2):
        wl = workloads.Workload(workload, 5, "tiny")
        run.run_ops(wl.warmup())
        res = run.run_ops(wl.batch())
        assert not res["failures"]
        digests.append(res["digest"])
    assert digests[0] == digests[1]


def test_no_input_repeats_within_a_run():
    wl = workloads.Workload("classify", 4, "tiny")
    ops = wl.warmup() + wl.batch()
    keys = [json.dumps(p["a"], sort_keys=True) + json.dumps(p["b"], sort_keys=True)
            if k == "conjugate" else (p["label"], p["kind"], p["k"], p["index"])
            for k, p in ops]
    assert len(keys) == len(set(map(str, keys)))


def test_triality_stratum_is_the_operator_representation():
    alg = workloads.make_algebra("d", 4, "compact")
    for k in workloads.tables.valid_ks(alg):
        for kind in (1, 2):
            for e in workloads._table_row(alg, kind, k).entries:
                rep = workloads.tables.realize_entry(alg, e).to_json()
                op = "operator" in (rep["phi0"].get("rep"),
                                    rep["twist"].get("rep"))
                assert op == workloads.uses_triality(e), e


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("loop", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
