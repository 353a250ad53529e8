"""Run the benchmark once per seed and summarise each metric across seeds.

    python3 bench/spread.py --workload dense_spinor --seeds 1-10 --seconds 40 [--json]

Runs are untraced and sequential (one at a time, never concurrent).  For
every metric on the last line it prints the median over seeds and the quartile spread
(Q3 - Q1) / median; with ``--json`` the summary is printed as one JSON object
instead, the form stored in ``baseline.json``.  Per-seed lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        shown = ", ".join(f"{n} {m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}: {shown}", file=sys.stderr, flush=True)

    summary = {
        "workload": args.workload,
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
        "seconds": float(args.seconds),
        "correct": correct,
        "failed_frac": failed / attempted,
        "metrics": {
            name: {
                "median": statistics.median(v),
                "spread": stats.quartile_spread(v) if len(v) > 1 and statistics.median(v) else None,
                "unit": units[name],
            }
            for name, v in values.items()
        },
    }
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(f"correct {correct}, failed {failed} of {attempted} commands")
        for name, m in summary["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:<36} median {m['median']:>14.6f} {m['unit']:<6} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
