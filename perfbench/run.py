"""Benchmark of the sunphases command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,phases,checks} --seed N \
        --seconds S --trace {0,1}

A run starts ``PROCESSES`` fresh worker processes one after another, each a
closed loop with one client that calls ``sunphases.cli.main`` in process.  Each
worker's first operation, timed from the moment the process is started, is
one set-up sample; the operations after it are the timed samples.  Each
worker runs operations until a third of ``--seconds`` of wall time has passed
since its start, and at least one timed operation.  After every operation,
while the worker waits, this process checks the outputs against the
independent oracle, so checking never overlaps timed work; it counts in the
worker's share, so a run lasts about ``--seconds``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).  BLAS runs one thread in every process.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes per run: each gives one set-up sample.
PROCESSES = 3
#: A stuck operation ends the run well inside the three-minute limit.
REPLY_TIMEOUT_S = 150.0

#: Names and units of the metrics a run prints, as BENCHMARK.json lists them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class Worker:
    """One fresh benchmark process and its request/reply pipe."""

    def __init__(self):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        self.replied = time.perf_counter()
        if not line:
            raise RuntimeError(f"worker gave no reply to {message}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def layer_value(name: str, traces: list[dict]) -> float:
    """Mean per traced operation of one per-layer metric."""

    def one(trace: dict) -> float:
        if name == "cli.self_s":
            return trace["cli_self_s"]
        if name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            if key in LAYERS:
                return sum(v for k, v in trace["self_s"].items() if k.startswith(key + "."))
            return trace["self_s"].get(key, 0.0)
        if name.endswith(".calls"):
            return trace["calls"].get(name[: -len(".calls")], 0)
        return trace["counters"].get(name, 0.0)

    return sum(one(t) for t in traces) / len(traces)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.make_op = workloads.WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.budget = seconds / PROCESSES
        self.trace = trace
        self.setups: list[float] = []
        self.op_seconds: list[float] = []
        self.traced_seconds: list[float] = []
        self.traces: list[dict] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _check(self, calls, reply, outdir: Path) -> None:
        self.attempted += 1
        fault = False
        for call, code in zip(calls, reply["exit"]):
            if code != 0:
                self.errors.append(f"{' '.join(call.argv)}: exit {code}")
                continue
            try:
                fault |= call.check(outdir)
            except Exception as exc:  # any unreadable or wrong output is incorrect
                self.errors.append(f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}")
        self.failed += fault

    def _op(self, worker: Worker, tmp: Path, trace: bool) -> dict:
        outdir = Path(tempfile.mkdtemp(dir=tmp))
        calls = self.make_op(self.rng)
        argv = [[a.replace("{out}", str(outdir)) for a in c.argv] for c in calls]
        reply = worker.request({"argv": argv, "trace": trace})
        self._check(calls, reply, outdir)
        shutil.rmtree(outdir)
        return reply

    def one_process(self, tmp: Path) -> None:
        worker = Worker()
        try:
            self._op(worker, tmp, False)
            self.setups.append(worker.replied - worker.started)
            samples = 0
            # the share is wall time, checking included, so a run's length is fixed
            while time.perf_counter() - worker.started < self.budget or samples == 0:
                traced = self.trace and len(self.traced_seconds) <= len(self.op_seconds)
                reply = self._op(worker, tmp, traced)
                samples += 1
                if traced:
                    self.traced_seconds.append(reply["seconds"])
                    self.traces.append(reply["trace"])
                else:
                    self.op_seconds.append(reply["seconds"])
            self.rss.append(worker.request({"stop": True})["peak_rss_mb"])
        finally:
            worker.close()

    def metrics(self) -> dict:
        if not self.trace:
            listed = BENCHMARK["end_to_end"]
            values = {
                "setup_s": statistics.median(self.setups),
                "op_p50_s": statistics.median(self.op_seconds),
                "peak_rss_mb": statistics.median(self.rss),
            }
        else:
            listed = BENCHMARK["per_layer"]
            values = {
                m["name"]: layer_value(m["name"], self.traces)
                for m in listed
                if not m["name"].startswith("trace.")
            }
            traced = statistics.median(self.traced_seconds)
            values["trace.op_s"] = traced
            values["trace.overhead_pct"] = 100.0 * (
                traced / statistics.median(self.op_seconds) - 1.0
            )
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "sunphases"
    if not (src / "cli.py").is_file():
        print(f"error: no sunphases sources under {src}", file=sys.stderr)
        return 2
    # the one build step of a Python checkout: byte-compile before timing
    if not compileall.compile_dir(str(src), quiet=1):
        print("error: sunphases does not compile", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for _ in range(PROCESSES):
            run.one_process(tmp)
    finally:
        shutil.rmtree(tmp)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    for error in run.errors[:10]:
        print(f"incorrect: {error}", file=sys.stderr)
    print(
        f"{args.workload}: {run.attempted} operations in {PROCESSES} processes, "
        f"{len(run.op_seconds)} timed samples, {len(run.traced_seconds)} traced, "
        f"{run.failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
