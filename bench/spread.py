"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload predict [--seeds 1-10] [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile as a share of the median, next to the bound BENCHMARK.json fixes.
The raw result lines go to bench/out/spread_<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    with open(BENCH_DIR / "out" / f"spread_{args.workload}.jsonl", "w", encoding="utf-8") as log:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=180, check=False)
            if proc.returncode != 0:
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps(dict(result, seed=seed)) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"seed {seed}: correct={result['correct']} " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    for metric in SPEC["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<14} median {med:.6g} {metric['unit']:<8} spread {(q3 - q1) / med:.4f} "
              f"(bound {metric['bound']}, a third of it {metric['bound'] / 3:.4f}) over {len(vals)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
