"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload cv-nets --seeds 1-10 [--trace 0] [--out FILE]

Runs `bench/run.py` once per seed, one run at a time, from the root of
the checkout, and prints for every metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the
distance between the quartiles as a share of the median. The bound of
each end-to-end metric in BENCHMARK.json is printed next to its spread.
`--out` writes the raw results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
        runs.append({"seed": seed, **result, "meta": meta})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()
                                                       if not args.trace or k.startswith("trace.")),
              flush=True)
    names = list(runs[0]["metrics"])
    summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
    for n, s in summary.items():
        bound = bounds.get(n)
        tail = "" if bound is None else f"  bound {bound}  spread/bound {s['spread'] / bound:.2f}"
        print(f"{n:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}{tail}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
