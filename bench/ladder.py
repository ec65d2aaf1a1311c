"""The end-to-end ladder of cocodes: fixed rungs from planning to file I/O,
each timed in a process of its own, with the time split by the package's
own functions.

    python3 bench/ladder.py                             # every rung, this tree
    python3 bench/ladder.py --rungs execute-8-1024 --repeats 5
    python3 bench/ladder.py --against HEAD --record N   # writes bench/BENCH_N.json

A rung builds its input untimed (`fresh`), then times `run` over it,
with the garbage collector off as `timeit` has it: for WARM_S seconds
to warm the factory caches and the processor, then `--repeats` times
(REPEATS by default, up from 9, at which the is-ccc-6-216 and
files-12-216 rungs read IQRs of 36% of their medians; on a shared host
the drift between processes can still widen the pooled IQR).
It reports the median and the interquartile range of those wall times,
and the process's peak RSS (`ru_maxrss`, set-up included).  Then
SPLIT_RUNS more runs go through wrappers that the harness installs on
the named functions of the rung (at every module that binds them),
which give each function's calls and its self time: the time inside it
but not inside another wrapped function.  The package itself holds no
timing code, and a function a revision does not have is left out.

The heavy rungs (the 32x32 and 64x64 CCCs of L=4096, built and checked,
and the 129 MB file of the 32x32 CCC of L=1024, written and read) run
only when named.  A process of one takes no warm-up and runs each of its
`--repeats` (HEAVY_REPEATS by default) through the wrappers, and its
address space is capped at
HEAVY_AS_MB, so a revision that cannot fit the check there (the dense
kernel needed more than 8 GB for the 64x64 check) fails with a
MemoryError rather than exhausting the host; with `--against` it runs
HEAVY_PAIRS processes per tree.

`--against REV` exports REV (`git archive`) and copies the working
tree's sources to two temporary directories whose paths have one
length, since a process's speed can shift with the size of its argv and
environment: on the is-ccc rung, two copies of one tree read 20-30%
apart when one ran from a shorter path.  It runs every rung on both,
alternating which goes first, PAIRS processes each, since the host's
speed drifts over minutes.  Each tree's repeats are pooled for the
median and IQR.  Since the pooled IQR of a short rung mostly shows the
drift between processes, each tree also records its processes' own
medians, and the rung the count of pairs (one process of each tree,
back to back) whose head median is the lower.  The result file holds
the Python and numpy versions, nproc, both commits and the digest of
each tree's sources.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WARM_S = 0.2  # untimed runs before the timed ones, at least one
REPEATS = 30  # timed runs per process of a short rung, by default
HEAVY_REPEATS = 9  # the same for a heavy rung
SPLIT_RUNS = 2  # runs through the wrappers, after the timed ones
PAIRS = 10  # processes per tree and rung with --against
HEAVY_PAIRS = 3  # the same for a heavy rung
HEAVY_AS_MB = 4096  # address space of a heavy rung's process
TIMEOUT_S = 600  # per rung process

CONSTRUCTION = ["planner.plan", "construct._elongation", "construct._connections",
                "model.layered_multiply", "model.layer_product", "construct._family"]
# the check's kernel stages: the layers laid side by side (`_layers`),
# their energy and limbs (`_digits`, self time), the gather of each
# root's values (`_root_values`), per-member transforms, member sums, the
# per-shift pass's inverse, round and fold (`sums`, self time) and the
# decisions (certificate, zero test)
CHECK = ["corr._Kernel._digits", "corr._Kernel._layers", "corr._root_values",
         "corr._root_spectra", "corr._member_sums", "corr._Kernel.sums",
         "corr._Kernel._certify", "corr._Kernel.zeros"]
FILES = ["cli._family_text", "cli._dump_json", "cli._load_json", "cli._family_of_text",
         "cli.family_from_doc"]


def _execute(n: int, length: int):
    def rung(c, tree):
        return None, lambda _: c.execute(c.plan(n, [length]), verify=False).family
    return rung


def _plan_sweep(c, tree):
    """The plan sweep of the benchmark's construct workload (seed 1)."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads
    op = next(op for op in workloads.construct(1, "full").ops if op.name == "plan sweep")
    return None, op.run


def _ccc(c, n: int, length: int):
    return c.cosf_to_ccc(c.execute(c.plan(n, [length]), verify=False).family, c.dft_matrix(n))


def _cosf_to_ccc(c, tree):
    cosf = c.execute(c.plan(16, [1024]), verify=False).family
    return None, lambda _: c.cosf_to_ccc(cosf, c.dft_matrix(16))


def _enlarge(c, tree):
    ccc = _ccc(c, 6, 216)
    return None, lambda _: c.enlarge_ccc(ccc, [c.hadamard_matrix(2)] * 6)


def _is_ccc(c, tree):
    # a fresh CCC each run, held as layers, as the constructor leaves it
    return lambda: _ccc(c, 6, 216), c.is_ccc


def _zone(c, tree):
    return lambda: c.enlarge_ccc(_ccc(c, 6, 216), [c.hadamard_matrix(2)] * 6), c.zccc_zone


def _build(n: int):
    def rung(c, tree):
        return None, lambda _: _ccc(c, n, 4096)
    return rung


def _check(n: int):
    def rung(c, tree):
        # the CCC as the constructor leaves it, held as layers
        return lambda: _ccc(c, n, 4096), c.is_ccc
    return rung


def _files(build):
    def rung(c, tree):
        """The CCC `build` gives written as `cocodes` writes it and read
        back."""
        import cocodes.cli as cli
        ccc = build(c)
        work = tempfile.mkdtemp(prefix="ladder-")
        atexit.register(shutil.rmtree, work, True)
        path = os.path.join(work, "ccc.json")

        def run(_):
            cli._dump_family(path, ccc, "ccc")
            return cli._load_family(path)
        return None, run
    return rung


# name: (rung, the functions its time is split by)
RUNGS = {
    "plan-sweep": (_plan_sweep, ["planner.plan", "planner.factor_chain", "planner._greedy_chain"]),
    "execute-8-1024": (_execute(8, 1024), CONSTRUCTION),
    "execute-64-4096": (_execute(64, 4096), CONSTRUCTION),
    "execute-128-16384": (_execute(128, 16384), CONSTRUCTION),
    "cosf-to-ccc-16-1024": (_cosf_to_ccc, CONSTRUCTION + CHECK),
    "enlarge-6-216": (_enlarge, CONSTRUCTION + ["construct._expansions"] + CHECK),
    "is-ccc-6-216": (_is_ccc, CHECK),
    "zone-12-216": (_zone, CHECK),
    "files-12-216": (_files(lambda c: c.enlarge_ccc(_ccc(c, 6, 216), [c.hadamard_matrix(2)] * 6)),
                     FILES),
    "files-32-1024": (_files(lambda c: _ccc(c, 32, 1024)), FILES),
    "build-32-4096": (_build(32), CONSTRUCTION),
    "is-ccc-32-4096": (_check(32), CHECK),
    "build-64-4096": (_build(64), CONSTRUCTION),
    "is-ccc-64-4096": (_check(64), CHECK),
}
HEAVY = {"build-32-4096", "is-ccc-32-4096", "build-64-4096", "is-ccc-64-4096", "files-32-1024"}


# -- one rung, in its own process ---------------------------------------------


class Split:
    """Wrappers on named functions of the package that count calls and
    sum self time, and undo themselves."""

    def __init__(self, names):
        self.stats, self.undo, self.stack = {}, [], []
        for name in names:
            self._install(name)

    def _install(self, name: str) -> None:
        module_name, _, attr = name.partition(".")
        owner = sys.modules.get(f"cocodes.{module_name}")
        if "." in attr:  # a method: Class.method
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        timed = self._timed(name, fn)
        if isinstance(owner, type):
            places = [owner]
        else:  # every module of the package that binds the function
            places = [m for key, m in list(sys.modules.items())
                      if (key == "cocodes" or key.startswith("cocodes.")) and
                      any(v is fn for v in vars(m).values())]
        for place in places:
            for key, value in list(vars(place).items()):
                if value is fn:
                    setattr(place, key, timed)
                    self.undo.append((place, key, fn))
        self.stats[name] = [0, 0.0]

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self.stack.pop()
                record = self.stats[name]
                record[0] += 1
                record[1] += elapsed - inner
                if self.stack:
                    self.stack[-1] += elapsed
        return timed

    def remove(self) -> None:
        for place, key, fn in reversed(self.undo):
            setattr(place, key, fn)


def child(rung: str, tree: str, repeats: int) -> dict:
    heavy = rung in HEAVY
    if heavy:
        cap = HEAVY_AS_MB * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(tree, "src"))
    import cocodes
    if not os.path.abspath(cocodes.__file__).startswith(os.path.abspath(tree) + os.sep):
        raise SystemExit(f"imported cocodes from {cocodes.__file__}, not from {tree}")
    make, names = RUNGS[rung]
    fresh, run = make(cocodes, tree)

    def once() -> float:
        x = fresh() if fresh is not None else None
        gc.collect()
        gc.disable()  # as timeit does, so that no collection lands in a run or a split
        try:
            start = time.perf_counter()
            run(x)
            return time.perf_counter() - start
        finally:
            gc.enable()

    if heavy:  # every run timed and split
        split, runs = Split(names), repeats
        times = [once() for _ in range(runs)]
        split.remove()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        warm_until = time.perf_counter() + WARM_S
        once()
        while time.perf_counter() < warm_until:
            once()
        times = [once() for _ in range(repeats)]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        split, runs = Split(names), SPLIT_RUNS
        try:
            for _ in range(runs):
                once()
        finally:
            split.remove()
    return {"rung": rung, "times_s": times, "peak_rss_mb": rss,
            "split": {name: {"calls": calls / runs, "self_s": self_s / runs}
                      for name, (calls, self_s) in split.stats.items()}}


# -- the harness ------------------------------------------------------------------


def measure(tree: str, rung: str, repeats: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--child", rung, "--tree", tree,
            "--repeats", str(repeats)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode:
        raise SystemExit(f"rung {rung} failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results) -> dict:
    """Median and IQR of the pooled repeats, each process's own median
    (in the order they ran), and the median over the processes of the
    peak RSS and of each split figure."""
    times = sorted(t for r in results for t in r["times_s"])
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    split = {name: {key: statistics.median(r["split"][name][key] for r in results)
                    for key in ("calls", "self_s")} for name in results[0]["split"]}
    return {"median_s": statistics.median(times), "iqr_s": q3 - q1, "repeats": len(times),
            "processes": len(results),
            "process_medians_s": [statistics.median(r["times_s"]) for r in results],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results), "split": split}


def git(*argv):
    """git's output in this checkout; None outside a repository of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # so git does not look for a repository above ROOT
    proc = subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(tree: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(tree, "src", "cocodes")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


def export(rev: str) -> str:
    """A temporary directory holding REV's files (`git archive`)."""
    target = tempfile.mkdtemp(prefix="ladder-")
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(target, filter="data")
    return target


def snapshot() -> str:
    """A temporary directory, named as `export` names its, holding the
    working tree's package and benchmark."""
    target = tempfile.mkdtemp(prefix="ladder-")
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(target, part),
                        ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    return target


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def print_table(report: dict) -> None:
    trees = [t for t in ("base", "head") if t in next(iter(report["rungs"].values()))]
    for name, rung in report["rungs"].items():
        cells = [f"{t} {rung[t]['median_s'] * 1e3:9.3f} ms (IQR {rung[t]['iqr_s'] * 1e3:.3f}), "
                 f"{rung[t]['peak_rss_mb']:6.1f} MB" for t in trees]
        ratio = (f"  x{rung['ratio']:.3f}, head won {rung['head_wins']} of "
                 f"{rung['head']['processes']} pairs") if "ratio" in rung else ""
        print(f"{name:20s} " + " | ".join(cells) + ratio, file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rungs", nargs="+", choices=list(RUNGS),
                   default=[name for name in RUNGS if name not in HEAVY])
    p.add_argument("--repeats", type=int,
                   help=f"timed runs per process (default {REPEATS}, a heavy rung {HEAVY_REPEATS})")
    p.add_argument("--against", metavar="REV", help="compare with this revision")
    p.add_argument("--record", type=int, metavar="N", help="write bench/BENCH_<N>.json")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--tree", default=ROOT, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        p.error("--repeats must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.tree, args.repeats)))
        return 0

    trees = {"head": ROOT}
    report = {"environment": environment(),
              "commits": {"head": {"commit": git("rev-parse", "HEAD"),
                                   "dirty": git("status", "--porcelain", "--", "src") not in ("", None),
                                   "source_sha256": source_digest(ROOT)}},
              "repeats": {}, "rungs": {}}
    if args.against:
        trees = {"base": export(args.against), "head": snapshot()}
        report["commits"]["base"] = {"commit": git("rev-parse", args.against),
                                     "source_sha256": source_digest(trees["base"])}
    try:
        for name in args.rungs:
            repeats = args.repeats or (HEAVY_REPEATS if name in HEAVY else REPEATS)
            report["repeats"][name] = repeats
            runs = {t: [] for t in trees}
            pairs = (HEAVY_PAIRS if name in HEAVY else PAIRS) if args.against else 1
            for i in range(pairs):
                order = sorted(trees, reverse=bool(i % 2))  # base first, then head first
                for t in order:
                    runs[t].append(measure(trees[t], name, repeats))
            rung = {t: summary(rs) for t, rs in runs.items()}
            if args.against:
                rung["ratio"] = rung["head"]["median_s"] / rung["base"]["median_s"]
                # pair i is the i-th process of each tree, run back to back
                rung["head_wins"] = sum(h < b for h, b in zip(rung["head"]["process_medians_s"],
                                                              rung["base"]["process_medians_s"]))
            report["rungs"][name] = rung
    finally:
        if args.against:
            for tree in trees.values():
                shutil.rmtree(tree, ignore_errors=True)
    print_table(report)
    if args.record is not None:
        path = os.path.join(HERE, f"BENCH_{args.record}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
