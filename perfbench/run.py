"""Benchmark of the cocodes package.

Run from the root of a checkout that holds `src/cocodes`:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

One client in one single-threaded process runs the workload's pass of
ops in a closed loop, whole passes, until at least `--seconds` have
passed and MIN_PASSES passes are done.  Every op's output is checked.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run.  A result file with the same numbers, the environment and every
op's outcome is written to `perfbench/results/`.

Times are taken on a shared machine, whose speed drifts in phases of
seconds to minutes.  So a fixed reference kernel (`calibration.py`)
runs between every two ops and before every set-up; each time is
divided by the mean kernel time right before and after it and reported
at the kernel's nominal speed.  An op's latency is the median of these
figures over the passes.  The raw wall times go to the result file
beside them.
"""

from __future__ import annotations

import argparse
import gc
import gzip
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

import calibration
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("construct", "verify", "pipeline")
# Set-ups made in a row before the first pass; the median is reported.
SETUP_REPEATS = 5
# Every op runs at least this often, so its median is not left to one
# or two samples.
MIN_PASSES = 4
TAIL_BEYOND = 10

# Per-layer metrics printed by a traced run, beside the module totals.
REPORTED_SPANS = [
    "corr.corr_profile", "corr.corr_sum_profile", "corr.is_ccc",
    "corr.is_n_co_sf", "corr.is_complementary_set", "corr.acorr",
    "corr.zccc_zone", "cyclo.is_zero", "cyclo.reduced",
    "construct.generate_cosf", "construct.elongate_cosf", "construct.connect",
    "construct.cosf_to_ccc", "construct.enlarge_ccc", "construct.kron_expand",
    "model.energy", "matrices.build",
    "planner.plan", "planner.constructible", "planner.execute",
    "cli.family_to_doc", "cli.family_from_doc", "cli.load_json",
    "cli.dump_json", "model.canonical_form",
]
REPORTED_COUNTS = ["cyclo.CycloNum.init", "model.Sequence.init"]


def import_package():
    """Import cocodes from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "cocodes", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from the root of a "
                         "checkout that holds src/cocodes")
    sys.path.insert(0, SRC)
    import cocodes
    if os.path.abspath(cocodes.__file__) != init:
        raise SystemExit(f"error: imported cocodes from {cocodes.__file__}, "
                         f"expected {init}")


# -- environment ---------------------------------------------------------------


def git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # so git does not look for a repository above ROOT
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured even
    where there is no git commit."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cocodes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- measuring -----------------------------------------------------------------


def run_op(op, slot: int, tracer=None) -> dict:
    arg = op.fresh() if op.fresh is not None else None
    kernel_s = calibration.kernel_s()
    error = None
    if tracer is not None:
        tracer.active = True
        tracer.begin("op")
    t0 = time.perf_counter()
    try:
        out = op.run(arg)
    except Exception:  # a failed op is counted, the run goes on
        out = None
        error = traceback.format_exc(limit=-3)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
            tracer.active = False
    reason = error if error is not None else op.check(out)
    return {"op": op.name, "slot": slot, "s": elapsed, "kernel_s": kernel_s,
            "entries": op.entries, "failure": reason}


def run_pass(wl, tracer=None) -> tuple:
    """(one sample per op, wall time) of one pass.  Each sample gets its
    time at the kernel's nominal speed, `scaled_s`, from the kernel runs
    right before and right after the op."""
    gc.collect()
    t0 = time.perf_counter()
    samples = [run_op(op, slot, tracer) for slot, op in enumerate(wl.ops)]
    after = calibration.kernel_s()
    wall = time.perf_counter() - t0
    bounds = [s["kernel_s"] for s in samples] + [after]
    for i, s in enumerate(samples):
        s["scaled_s"] = calibration.scale(s["s"], bounds[i:i + 2])
    return samples, wall


def nearest_rank(sorted_xs, pct: float):
    return sorted_xs[max(math.ceil(pct / 100 * len(sorted_xs)) - 1, 0)]


def op_latencies(wl, samples, key: str) -> list:
    """Each op's median over the passes of samples[key]."""
    per_op = [[] for _ in wl.ops]
    for s in samples:
        per_op[s["slot"]].append(s[key])
    return [statistics.median(xs) for xs in per_op]


def end_to_end(wl, samples, setup_scaled) -> tuple:
    """End-to-end metrics from each op's median scaled time, and the
    same figures from raw wall times plus the pooled percentiles for
    the result file."""
    failed_slots = {s["slot"] for s in samples if s["failure"] is not None}
    done = sum(op.entries for slot, op in enumerate(wl.ops) if slot not in failed_slots)
    passed = sum(1 for s in samples if s["failure"] is None)

    def latency_metrics(latencies):
        return {
            "entries_per_s": (done / sum(latencies), "1/s"),
            "op_p50_ms": (nearest_rank(sorted(latencies), 50) * 1e3, "ms"),
            "op_tail_ms": (max(latencies) * 1e3, "ms"),
        }

    metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
    metrics.update(latency_metrics(op_latencies(wl, samples, "scaled_s")))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["pass_rate"] = (passed / len(samples), "ratio")

    raw = {k: v for k, (v, _) in latency_metrics(op_latencies(wl, samples, "s")).items()}
    pooled = sorted(s["s"] for s in samples)
    n = len(pooled)
    beyond = min(TAIL_BEYOND, n - 1)
    raw.update({
        "pooled_samples": n,
        "pooled_p50_ms": nearest_rank(pooled, 50) * 1e3,
        # highest percentile with TAIL_BEYOND samples beyond it
        "pooled_tail_percentile": 100.0 * (n - beyond) / n,
        "pooled_tail_ms": pooled[n - 1 - beyond] * 1e3,
    })
    return metrics, raw


def per_layer(tracer, untraced_walls, traced_walls) -> dict:
    """Per-layer metrics per traced pass; the pass times are sums of
    scaled op times."""
    per = 1.0 / len(traced_walls)
    metrics = {}
    for name in REPORTED_SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name] * per, "count")
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] * 1e-9 * per, "s")
    for name in REPORTED_COUNTS:
        metrics[f"{name}.calls"] = (tracer.calls[name] * per, "count")
    for short in tracing.MODULES:
        total = sum(tracer.self_ns[f"{short}.{metric}"]
                    for _, metric in tracing.SPANNED[short])
        metrics[f"{short}.self_s"] = (total * 1e-9 * per, "s")
    metrics["cli.bytes_rw"] = (tracer.bytes_rw * per, "bytes")
    spawned, exact = tracer.fallback_share()
    metrics["corr.fallback_share"] = (spawned / exact if exact else 0.0, "ratio")
    zero_tests = tracer.calls["cyclo.is_zero"]
    metrics["cyclo.reduce_share"] = (
        tracer.calls["cyclo.reduced"] / zero_tests if zero_tests else 0.0, "ratio")
    traced = statistics.median(traced_walls)
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - statistics.median(untraced_walls), "s")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_summary(samples) -> dict:
    out = {}
    for s in samples:
        rec = out.setdefault(s["op"], {"runs": 0, "failed": 0, "ms": [], "scaled_ms": []})
        rec["runs"] += 1
        rec["ms"].append(round(s["s"] * 1e3, 3))
        rec["scaled_ms"].append(round(s["scaled_s"] * 1e3, 3))
        if s["failure"] is not None:
            rec["failed"] += 1
            rec.setdefault("failure", s["failure"])
    for rec in out.values():
        rec["median_ms"] = statistics.median(rec["ms"])
        rec["median_scaled_ms"] = statistics.median(rec["scaled_ms"])
    return out


# -- entry point -------------------------------------------------------------


def set_up(args, number: int):
    """What a new process pays before its first op: import the package
    (fresh module objects, so import-time work is counted) and build
    the workload's inputs from the seed."""
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("cocodes", "workloads", "expected")]:
        del sys.modules[name]
    import workloads
    if args.workload == "construct":
        return workloads.construct(args.seed, args.scale)
    if args.workload == "verify":
        return workloads.verify(args.seed, args.scale)
    return workloads.pipeline(args.seed, args.scale,
                              os.path.join(WORK, f"pipeline-{os.getpid()}-{number}"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="least time measured, in whole passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the same ops on small families, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    import_package()
    setups, wl = [], None
    for number in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        kernel_times = [calibration.kernel_s() for _ in range(3)]
        t0 = time.perf_counter()
        wl = set_up(args, number)
        elapsed = time.perf_counter() - t0
        setups.append((elapsed, calibration.scale(elapsed, kernel_times)))
    import workloads
    report = {"workload": args.workload, "scale": args.scale, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args),
              "setup_s": [raw for raw, _ in setups],
              "setup_scaled_s": [scaled for _, scaled in setups]}
    samples, walls = [], []
    start = time.perf_counter()
    try:
        if args.trace:
            # untraced and traced passes alternate, so the overhead is
            # not confounded with the machine's slow and fast phases
            tracer = tracing.Tracer()
            untraced = []
            while not walls or time.perf_counter() - start < args.seconds:
                more, _ = run_pass(wl)
                samples += more
                untraced.append(sum(s["scaled_s"] for s in more))
                tracer.install()
                try:
                    more, _ = run_pass(wl, tracer)
                finally:
                    tracer.uninstall()
                samples += more
                walls.append(sum(s["scaled_s"] for s in more))
            metrics = per_layer(tracer, untraced, walls)
        else:
            while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                more, wall = run_pass(wl)
                samples += more
                walls.append(wall)
            metrics, report["raw"] = end_to_end(
                wl, samples, report["setup_scaled_s"])
        probe = workloads.overflow_probe()
    finally:
        wl.close()
    if args.trace:
        metrics["probe.int64_overflow.failed"] = (int(probe["failed"]), "count")

    failed = sum(1 for s in samples if s["failure"] is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(passes=len(walls), pass_wall_s=walls, known_defects=[probe],
                  ops=op_summary(samples), result=result)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with gzip.open(stem + "-spans.jsonl.gz", "wt", compresslevel=1) as fh:
            fh.write('["id", "parent", "op", "name", "start_ns", "end_ns", "tag"]\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    if not args.trace:
        raw = report["raw"]
        print(f"op latencies: median of {len(walls)} passes for each of "
              f"{len(wl.ops)} ops, at the reference kernel's nominal speed; "
              f"op_tail_ms is the slowest op (p100 of {len(wl.ops)}). "
              f"Raw wall times: op_p50_ms {raw['op_p50_ms']:.4g}, op_tail_ms "
              f"{raw['op_tail_ms']:.4g}, entries_per_s {raw['entries_per_s']:.4g}; "
              f"pooled over all {raw['pooled_samples']} samples: p50 "
              f"{raw['pooled_p50_ms']:.4g} ms, p{raw['pooled_tail_percentile']:.4g} "
              f"{raw['pooled_tail_ms']:.4g} ms")
    if probe["failed"]:
        print(f"known defect: {probe['op']}: {probe['error'].strip().splitlines()[-1]}")
    for name, rec in report["ops"].items():
        if rec["failed"]:
            print(f"FAILED {name}: {rec['failure'].strip().splitlines()[-1]}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
