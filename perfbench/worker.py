"""One fresh benchmark process: runs CLI calls in process, one at a time.

Started by ``run.py``.  It imports ``sunphases`` from ``src/`` and then reads
one JSON request per line from stdin::

    {"argv": [[...], ...], "trace": false}   run one operation (a list of calls)
    {"stop": true}                           report peak RSS and exit

and answers each with one JSON line on its own stdout.  Output that the CLI
prints goes to a sink, so it never mixes with the replies.  The imports and
the first operation are the set-up a CLI user pays on every invocation, so
they are done in this process and timed by the parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sunphases.cli import main  # noqa: E402


def run_call(argv: list[str]) -> object:
    """Invoke the click entry point in process; returns the exit code (0 = ok)."""
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code or 0
    except Exception as exc:  # reported to the parent, which marks the run incorrect
        return f"{type(exc).__name__}: {exc}"
    return 0


def run_op(calls: list[list[str]]) -> tuple[float, list[object]]:
    start = time.perf_counter()
    codes = [run_call(argv) for argv in calls]
    return time.perf_counter() - start, codes


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    ru_maxrss of a process started by fork and exec carries the parent's peak
    over on Linux, so the high-water mark of this address space (VmHWM) is
    read first.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(replies) -> None:
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            replies.write(json.dumps({"peak_rss_mb": peak_rss_mb()}) + "\n")
            replies.flush()
            return
        trace = None
        if request.get("trace"):
            if tracer is None:
                from tracer import Tracer

                tracer = Tracer()
            tracer.reset()
            tracer.install()
            try:
                seconds, codes = run_op(request["argv"])
            finally:
                tracer.uninstall()
            trace = tracer.snapshot(seconds)
        else:
            seconds, codes = run_op(request["argv"])
        replies.write(json.dumps({"seconds": seconds, "exit": codes, "trace": trace}) + "\n")
        replies.flush()


if __name__ == "__main__":
    replies = sys.stdout
    with open(os.devnull, "w") as sink:
        sys.stdout = sink
        try:
            serve(replies)
        finally:
            sys.stdout = replies
