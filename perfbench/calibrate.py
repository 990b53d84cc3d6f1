"""Host calibration: a fixed allocation-heavy kernel and parallel throughput.

The kernel builds and walks a dict of tuples, the same kind of work as
the Datalog fact stores and the online supervisor's tables, so its time
tracks the host's speed for this program (an integer-only loop does
not: it misses the allocator and cache effects).  The collector is
disabled only while the kernel runs, so the program's GC state cannot
skew it.

The kernel runs in a separate, long-lived worker process
(:class:`Calibration`), so its time depends on the host and not on the
heap the program under test left behind in the benchmark's process.

Run as a script it is that worker (``--serve REPEATS``: one sample per
input line) or the worker of :func:`parallel_throughput` (``--child SECONDS``:
run the kernel for that long and print how many runs completed).
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from pathlib import Path

KERNEL_ITEMS = 8000
#: kernel repetitions per calibration sample; the sample is their minimum
REPEATS = 5


def kernel() -> int:
    table = {}
    for i in range(KERNEL_ITEMS):
        key = (i, i % 97)
        table[key] = (i, key, "v")
    total = 0
    for key, row in table.items():
        total += row[0] - key[1]
    return total


def kernel_seconds(repeats: int = REPEATS) -> float:
    """One calibration sample: the fastest of ``repeats`` kernel runs."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Calibration:
    """Calibration samples taken across one run by a worker process, each
    the fastest of ``repeats`` kernel runs; the run normalises by their
    median.  :meth:`close` stops the worker."""

    def __init__(self, repeats: int = REPEATS) -> None:
        self.repeats = repeats
        self.samples: list[float] = []
        self._worker: subprocess.Popen | None = None

    def sample(self) -> float:
        if self._worker is None:
            self._worker = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--serve",
                 str(self.repeats)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._worker.stdin.write("\n")
        self._worker.stdin.flush()
        line = self._worker.stdout.readline()
        if not line:
            raise RuntimeError("calibration worker exited")
        value = float(line)
        self.samples.append(value)
        return value

    def close(self) -> None:
        if self._worker is not None:
            self._worker.stdin.close()
            try:
                self._worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._worker.kill()
                self._worker.wait()
            self._worker.stdout.close()
            self._worker = None

    @property
    def host_s(self) -> float:
        return statistics.median(self.samples)


def _kernel_runs_for(seconds: float) -> int:
    runs = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            kernel()
            runs += 1
    finally:
        if enabled:
            gc.enable()
    return runs


def parallel_throughput(seconds: float = 0.4) -> dict[str, float]:
    """Measured kernel throughput of one process and of two concurrent
    processes; ``speedup`` is their ratio (2.0 on two idle cores)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               str(seconds)]
    single = _kernel_runs_for(seconds) / seconds
    children = [subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
                for _ in range(2)]
    total = 0.0
    try:
        for child in children:
            out, _err = child.communicate(timeout=60)
            if child.returncode != 0:
                raise RuntimeError(
                    f"calibration child failed ({child.returncode})")
            total += int(out.split()[-1]) / seconds
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    return {"single_runs_per_s": single, "two_process_runs_per_s": total,
            "speedup": total / single}


def _serve(repeats: int) -> None:
    for _line in sys.stdin:
        print(repr(kernel_seconds(repeats)), flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        _serve(int(sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(_kernel_runs_for(float(sys.argv[2])))
    else:
        raise SystemExit("usage: calibrate.py --serve REPEATS | --child SECONDS")
