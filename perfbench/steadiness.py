"""Run the benchmark several times per workload and record the spread.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/steadiness.json

Each run is a separate ``run.py`` process with its own seed (1..runs); a set
runs every workload, and the sets run one after another.  For every
end-to-end metric, and for the unscaled figures ``run.py`` prints on its
``# raw`` line, the record holds each run's value, their median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share of
the median next to the metric's bound in ``BENCHMARK.json``, and from the
second set on the shift of the median from the first set's.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import RAW_PREFIX  # noqa: E402


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine() -> dict:
    import numpy

    from run import _cpu_model

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "load": "one benchmark process, one thread (OMP/OPENBLAS pinned to 1); "
        "the setup_s child runs alone while the parent waits",
    }


def summarize(runs: list[dict], metric: str, bound: float | None) -> dict:
    values = [r[metric] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
    if bound is not None:
        out["bound"] = bound
    return out


def one_run(bench: dict, name: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: {result['failed']} failed ops")
    raw = next(json.loads(x[len(RAW_PREFIX):]) for x in lines if x.startswith(RAW_PREFIX))
    return {
        "seed": seed,
        **{k: v["value"] for k, v in result["metrics"].items()},
        **{f"raw.{k}": v for k, v in raw.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, help="sets of runs, one after another")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", default=None, help="JSON record (default: print only)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "sets": []}
    for k in range(args.sets):
        workloads = {}
        for name in names:
            runs = [one_run(bench, name, seed) for seed in range(1, args.runs + 1)]
            summary = {m["name"]: summarize(runs, m["name"], m["bound"]) for m in bench["end_to_end"]}
            for raw in ("raw.ops_per_s", "raw.setup_s", "raw.speed_factor"):
                summary[raw] = summarize(runs, raw, None)
            for metric, row in summary.items():
                shift = ""
                if k:
                    first = record["sets"][0][name]["summary"][metric]["median"]
                    row["shift_from_set_1"] = row["median"] / first - 1
                    shift = f" shift {row['shift_from_set_1']:+7.2%}"
                print(f"set {k + 1} {name:18s} {metric:18s} median {row['median']:12.6g} "
                      f"spread {row['spread']:7.2%}{shift}", flush=True)
            workloads[name] = {"summary": summary, "runs": runs}
        record["sets"].append(workloads)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
