"""Steadiness check: run one commit's benchmark as two sets and compare them.

    python3 perfbench/steady.py [--runs 10] [--workload W ...]

Set A runs every chosen workload ``--runs`` times, each time with a new seed,
with the run length and command of ``BENCHMARK.json``; set B then does the
same with the next seeds.  A workload's two sets are thus taken in different
periods, as far apart as the other workloads' runs.  For every workload and
end-to-end metric it reports each set's median and quartile spread
((q3 - q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them)
and how far set B's median is worse than set A's, both against the metric's
bound.  The spread of ``setup_s`` is reported but not held to the bound.  A
workload also needs the same share of failed operations in every run.  The
table goes to stdout and the raw figures to
``perfbench/results/steady-<time>.json``.  Exit code 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first (negative = better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in bench["workloads"]]
    )
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    command = [sys.executable if bench["command"][0] == "python3" else bench["command"][0]]
    command += bench["command"][1:]
    seed = args.first_seed
    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    for _ in "AB":
        for name in names:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(command, name, seed, bench["run_seconds"]))
                runs[-1]["seed"] = seed
                seed += 1
            results[name].append(runs)

    ok = True
    lines = [
        "| workload | metric | bound | set | median | spread | worse by | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, sets in results.items():
        shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
        correct = all(run["correct"] for runs in sets for run in runs)
        ok &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            key = metric["name"]
            medians = []
            for k, runs in enumerate(sets):
                values = [run["metrics"][key]["value"] for run in runs]
                medians.append(statistics.median(values))
                s = spread(values)
                good = key == "setup_s" or s <= metric["bound"]
                drift = ""
                if k == 1:
                    d = worse_by(medians[0], medians[1], metric["better"])
                    drift = f"{d:+.3f}"
                    good &= d <= metric["bound"]
                ok &= good
                lines.append(
                    f"| {name} | {key} | {metric['bound']} | {'AB'[k]} | "
                    f"{medians[-1]:.4g} {metric['unit']} | {s:.3f} | {drift} | "
                    f"{'ok' if good else 'FAIL'} |"
                )
        lines.append(
            f"| {name} | failed share | exact | all | "
            f"{', '.join(f'{x:.3f}' for x in sorted(shares))} | | | "
            f"{'ok' if len(shares) == 1 and correct else 'FAIL'} |"
        )
    print("\n".join(lines))

    out = HERE / "results" / time.strftime("steady-%Y%m%dT%H%M%S.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"benchmark": bench, "results": results}, indent=1) + "\n")
    print(f"raw figures: {out.relative_to(ROOT)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
