"""Benchmark of the freqsev pricing engine.

    python3 bench/run.py --workload {cv-nets,fold-gbm,distill-price}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
One process runs one pass at a time (closed loop), with the BLAS thread
count pinned to 1 before numpy is imported.

With `--trace 0` the run sets the workload up at least `SETUP_REPEATS`
times and for at least `SETUP_MIN_S` seconds, then runs timed passes
until `--seconds` have passed (at least one), and reports the end-to-end
metrics. `setup_s` is the median set-up; the one-off import time is kept
in the metadata. With `--trace 1` it sets up once under the tracer, runs
two traced passes at the same seed and reports the per-layer metrics of
the first, with the tracing overhead estimated from the cost of one
wrapped call. Every run checks the outputs of each pass; passes at one
seed must produce identical outputs, and the two traced passes identical
counts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the run metadata.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402 - the BLAS environment must be set before numpy loads
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("cv-nets", "fold-gbm", "distill-price")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- run metadata ------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def ram_mb() -> float:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def src_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py")))


def metadata() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "src_lines": src_lines(SRC),
    }


# -- runs --------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seed, seconds, workdir):
    """Set-up repeated, then passes for `seconds`; end-to-end metrics.

    A set-up of a few milliseconds scatters by tens of percent from one
    draw to the next, so `setup_s` is the median of many."""
    from workloads import Ops, PassFailed

    ops = Ops()
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        state = None  # free the last set-up first, so peak RSS holds one
        start = time.perf_counter()
        state = workload.setup(seed, workdir / "setup")
        setup_times.append(time.perf_counter() - start)
    walls, cpus, ratios, first = [], [], [], None
    began = time.perf_counter()
    try:
        while not walls or time.perf_counter() - began < seconds:
            start, cpu = time.perf_counter(), time.process_time()
            out = workload.run(state, workdir / f"pass-{len(walls)}", ops)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu)
            fingerprint, ratio = workload.check(state, out, ops)
            ratios.append(ratio)
            if first is None:
                first = fingerprint
            else:
                ops.check(fingerprint == first, f"pass {len(walls) - 1} repeats pass 0")
    except PassFailed:
        pass
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if walls:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["deviance_ratio"] = (ratios[0], "ratio")
    info = {"passes": len(walls), "pass_walls_s": walls, "pass_cpu_s": cpus,
            "setups": len(setup_times), "setup_times_s": setup_times[:20]}
    return ops, metrics, info


def traced_run(workload, seed, workdir):
    """One traced set-up, then two traced passes; per-layer metrics of the
    first, which is the process's first pass like the one pass of a timed
    run. The second must repeat the first's outputs and counts."""
    import tracing
    from workloads import Ops, PassFailed

    ops = Ops()
    tracer = tracing.Tracer()
    roots, fingerprints = [], []
    tracer.install()
    try:
        with tracer.root("setup") as setup_root:
            state = workload.setup(seed, workdir / "setup")
        for k in range(2):
            with tracer.root(f"pass-{k}") as root:
                out = workload.run(state, workdir / f"pass-{k}", ops)
            roots.append(root)
            fingerprints.append(workload.check(state, out, ops)[0])
            del out
        ops.check(fingerprints[1] == fingerprints[0], "traced pass 1 repeats the outputs of pass 0")
    except PassFailed:
        return ops, {}, {}
    finally:
        tracer.uninstall()
    spans = tracer.spans
    for root in roots:
        faults = tracing.nesting_faults(spans, root)
        ops.check(not faults, f"spans of {spans[root].name} nest: {faults[:3]}")
    span_cost = tracing.call_cost()
    metrics, repeat = (tracing.layer_metrics(spans, setup_root, root, span_cost) for root in roots)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    differ = sorted(k for k in counts if counts[k] != repeat[k][0])
    ops.check(not differ, f"traced pass 1 repeats the counts of pass 0: {differ}")
    info = {"spans": len(spans), "span_cost_s": span_cost,
            "pass_walls_s": [spans[r].duration for r in roots]}
    return ops, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freqsev" / "__init__.py").is_file():
        print(f"bench: no freqsev sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and freqsev

    import_s = time.perf_counter() - start  # one-off, so kept out of setup_s
    import freqsev

    if Path(freqsev.__file__).resolve().parent != SRC / "freqsev":
        print(f"bench: freqsev was imported from {freqsev.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            ops, metrics, info = traced_run(workload, args.seed, workdir)
        else:
            ops, metrics, info = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata()
    meta.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "import_s": import_s, **info})
    ops.check(all(math.isfinite(v) for v, _ in metrics.values()), "every metric is finite")
    metrics = {k: (v, u) for k, (v, u) in metrics.items() if math.isfinite(v)}
    for failure in ops.failures:
        print(f"bench: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not ops.failures and bool(metrics),
        "attempted": max(ops.attempted, 1),
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
