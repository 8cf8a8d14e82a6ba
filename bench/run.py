#!/usr/bin/env python3
"""kmaut benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client, one thread; each op starts when the
previous one has returned.  The run imports kmaut from ./src, draws its
inputs from the seed, runs a warm-up on a disjoint draw, then times a batch
in which no input repeats, and checks every answer against an oracle.
`--seconds` caps the batch; the batch is sized to end before the cap on a
2-CPU host.  The last line of standard output is the result as one JSON
object; with `--trace 1` it holds the per-layer metrics of spans.py instead
of the end-to-end ones.  A full report (run metadata, output digest, the
tail percentile used) goes to .bench_out/.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3          # setup_s is the median of this many set-ups
TRACE_CAP = 2.5            # the traced pass may run this many times --seconds
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("decided_frac", "frac"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("classify", "loop", "realform"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few ops per workload, for the self-tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print {\"setup_s\": ...} and exit")
    return p.parse_args(argv)


def load_program():
    """Put ./src and this directory on the path (workloads.py imports
    kmaut); fail without a result when the program is not in the
    checkout."""
    if not (SRC / "kmaut" / "__init__.py").is_file():
        sys.stderr.write("bench: no kmaut sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def run_ops(ops, tracer=None, cap=None):
    """Run ops in order, one at a time.  Only the call into kmaut is timed;
    the host speed reference, oracle and digest run between ops, with
    tracing off."""
    import workloads
    lat, refs, failures, decisions, decided = [], [], [], 0, 0
    by_kind = {}
    digest = hashlib.sha256()
    start = time.perf_counter()
    for i, (kind, payload) in enumerate(ops):
        if cap is not None and time.perf_counter() - start >= cap:
            break
        refs.append(hostspeed.timed_reference())
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = workloads.execute(kind, payload)
            err = None
        except Exception:  # a failing op is counted, never fatal
            err = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        lat.append(t1 - t0)
        tally = by_kind.setdefault(kind, [0, 0.0])
        tally[0] += 1
        tally[1] += t1 - t0
        if err is None:
            ok = workloads.oracle(kind, payload, result)
            out = workloads.canonical(kind, result)
            if not ok:
                err = "oracle rejected %s %s" % (
                    kind, json.dumps(out, sort_keys=True)[:300])
        else:
            out = {"error": err.strip().splitlines()[-1]}
        digest.update(json.dumps(out, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
        if kind == "conjugate":
            decisions += 1
            decided += err is None and result != "undecided"
        if err is not None:
            failures.append("op %d (%s): %s" % (i, kind, err))
    refs.append(hostspeed.timed_reference())
    return {"lat": lat, "refs": refs, "failures": failures,
            "decisions": decisions,
            "decided": decided, "digest": digest.hexdigest(),
            "by_kind": by_kind}


def setup(args):
    """Import kmaut, enumerate the inputs' tables, draw the warm-up and run
    it; returns (workload, warm-up result, seconds at the nominal host
    speed, raw seconds).  Three host speed references are timed on each
    side of it."""
    refs = [hostspeed.timed_reference() for _ in range(3)]
    t0 = time.perf_counter()
    import workloads
    wl = workloads.Workload(args.workload, args.seed, args.size)
    warm_res = run_ops(wl.warmup())
    raw = time.perf_counter() - t0
    refs += [hostspeed.timed_reference() for _ in range(3)]
    return (wl, warm_res, raw * hostspeed.NOMINAL_S / statistics.median(refs),
            raw)


def setup_in_children(args, n):
    """(corrected, raw) set-up times of n fresh processes, run one after
    another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--size", args.size, "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError("setup child failed: %s" % proc.stderr[-500:])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if res["warm_failed"]:
            raise RuntimeError("setup child: warm-up ops failed")
        out.append((res["setup_s"], res["raw_s"]))
    return out


def freeze_inputs():
    """Keep the drawn inputs out of the collector's scans, so that garbage
    collection inside an op costs what the program's own objects cost."""
    gc.collect()
    gc.freeze()


def tail_latency(lat):
    """(percentile, value, samples beyond it): the highest percentile in
    PERCENTILES with at least ten samples above it, nearest-rank."""
    xs = sorted(lat)
    best = (100, xs[-1], 0)
    for p in PERCENTILES:
        idx = max(math.ceil(p / 100 * len(xs)) - 1, 0)
        beyond = len(xs) - idx - 1
        if beyond >= 10:
            best = (p, xs[idx], beyond)
    return best


def git_revision():
    """HEAD of the checkout's own .git, read without leaving the checkout;
    "unknown" where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    from kmaut import kernel
    return {"git_rev": git_revision(), "kernel_impl": kernel.IMPL,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size, "trace": args.trace,
            "load_model": "closed loop, 1 client, 1 thread"}


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.setup_only:
        _, warm_res, t, raw = setup(args)
        print(json.dumps({"setup_s": t, "raw_s": raw,
                          "warm_failed": len(warm_res["failures"])}))
        return 0

    if args.trace:
        return main_traced(args)

    child_setups = setup_in_children(args, SETUP_REPEATS - 1)
    wl, warm_res, t_setup, t_setup_raw = setup(args)
    setups = child_setups + [(t_setup, t_setup_raw)]
    t0 = time.perf_counter()
    batch = wl.batch()
    t_draw = time.perf_counter() - t0
    freeze_inputs()
    res = run_ops(batch, cap=args.seconds)
    raw = res["lat"]
    lat = hostspeed.corrected(raw, res["refs"])
    busy = sum(lat)
    pct, tail, beyond = tail_latency(lat)
    n = len(lat)
    failed = len(res["failures"]) + len(warm_res["failures"])
    metrics = {
        "setup_s": statistics.median(t for t, _ in setups),
        "ops_per_s": n / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # conjugacy tests not answered `undecided`; ops of the other
        # workloads always give a definite answer
        "decided_frac": (res["decided"] / res["decisions"]
                         if res["decisions"] else 1.0),
    }
    report = {
        "meta": metadata(args),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "failed_frac": failed / n,
        "latency_tail_percentile": pct, "latency_tail_beyond": beyond,
        "ops": n, "batch_ops": len(batch), "busy_s": busy,
        "raw": {"busy_s": sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_tail_ms": tail_latency(raw)[1] * 1e3,
                "reference_median_s": statistics.median(res["refs"]),
                "setup_runs_s": [r for _, r in setups],
                "op_s": raw, "reference_s": res["refs"]},
        "setup_runs_s": [t for t, _ in setups], "batch_draw_s": t_draw,
        "digest": res["digest"], "ops_and_busy_s_by_kind": res["by_kind"],
        "failures": (warm_res["failures"] + res["failures"])[:10],
    }
    finish(args, report, n, failed, report["metrics"])
    return 0


def main_traced(args):
    """Traced pass for the per-layer metrics, then the same ops untraced for
    the overhead ratio; both must give the same digest."""
    from spans import Tracer
    wl, warm_res, _, _ = setup(args)
    batch = wl.batch()
    freeze_inputs()
    tracer = Tracer()
    tracer.install()
    traced = run_ops(batch, tracer=tracer, cap=TRACE_CAP * args.seconds)
    done = batch[:len(traced["lat"])]
    plain = run_ops(done)
    traced_s = sum(hostspeed.corrected(traced["lat"], traced["refs"]))
    plain_s = sum(hostspeed.corrected(plain["lat"], plain["refs"]))
    n = len(traced["lat"])
    failures = warm_res["failures"] + traced["failures"]
    if traced["digest"] != plain["digest"]:
        failures.append("traced and untraced passes disagree")
    # self times at the nominal host speed of the traced pass
    scale = hostspeed.NOMINAL_S / statistics.median(traced["refs"])
    metrics = {k: {"value": v, "unit": u} for k, (v, u)
               in tracer.metrics(traced_s / plain_s, scale).items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.csv" % (args.workload, args.seed))
    nspans = tracer.write_spans(spans_path)
    report = {
        "meta": metadata(args), "metrics": metrics,
        "ops": n, "batch_ops": len(batch),
        "traced_s": traced_s, "untraced_s": plain_s,
        "raw": {"traced_s": sum(traced["lat"]),
                "untraced_s": sum(plain["lat"])},
        "spans": nspans, "spans_file": str(spans_path.relative_to(ROOT)),
        "digest": traced["digest"], "failures": failures[:10],
    }
    finish(args, report, n, len(failures), metrics)
    return 0


def finish(args, report, attempted, failed, metrics):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                               args.trace))
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for line in report["failures"]:
        sys.stderr.write("bench: %s\n" % line)
    print("# meta " + json.dumps(report["meta"], sort_keys=True))
    summary = {k: v for k, v in report.items()
               if k not in ("meta", "metrics", "failures", "raw")}
    print("# report " + json.dumps(summary, sort_keys=True))
    for name, m in metrics.items():
        print("# %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    if "failed_frac" in report:
        print("# %-44s %16.6g %s" % ("failed_frac", report["failed_frac"],
                                     "frac"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
