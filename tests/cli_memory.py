"""Peak RSS and RSS after each command of one cli-1m op.

    python tests/cli_memory.py --seed 11

Runs op 0 of the benchmark's ``cli-1m`` workload (``perfbench/workloads.py``,
the op whose peak ``perfbench/run.py --trace 0`` reports) in this process at
the given seed, with each command's steps taken from the workload itself.
It prints one line per command: the largest RSS seen while it ran and the
RSS when it returned, in MB, then the process's ``ru_maxrss``, which is the
benchmark's ``peak_rss_mb``.  A thread reads ``VmRSS`` from
``/proc/self/status`` every 0.5 ms and reads nothing else, so the script
runs on Linux only; a peak shorter than the interval, or than a stretch in
which the interpreter does not switch threads, can be missed.  ``--smoke``
runs the workload's smoke sizes.  It is a script, not a test: pytest does
not collect it.
"""

import argparse
import contextlib
import os
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERIOD_S = 0.0005


def rss_mb(status) -> float:
    """``VmRSS`` of this process in MB, read from the open ``/proc/self/status``."""
    status.seek(0)
    for line in status:
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS line in /proc/self/status")


class RssRegions:
    """The workload's tracer: each ``region`` records its command's peak and
    closing RSS, while a thread samples RSS every ``PERIOD_S``."""

    def __init__(self):
        self.rows = []
        self._status = open("/proc/self/status")
        self._peak = rss_mb(self._status)
        self._lock = threading.Lock()  # a region's reset is never undone by a sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        with open("/proc/self/status") as status:
            while not self._stop.wait(PERIOD_S):
                rss = rss_mb(status)
                with self._lock:
                    self._peak = max(self._peak, rss)

    @contextlib.contextmanager
    def region(self, name: str):
        with self._lock:
            self._peak = rss_mb(self._status)
        try:
            yield
        finally:
            after = rss_mb(self._status)
            with self._lock:
                self.rows.append((name.removeprefix("cli."), max(self._peak, after), after))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._status.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true", help="the workload's smoke sizes")
    args = parser.parse_args(argv)
    # one thread for numpy's native libraries, as the benchmark runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    regions = RssRegions()
    workload = workloads.CliWorkload(workloads.SMOKE if args.smoke else workloads.FULL,
                                     args.seed, regions)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    try:
        _, bad = workload.check(workload.op(0))
    finally:
        workload.release()
        regions.close()
    print(f"cli-1m op 0 at seed {args.seed}: RSS in MB, sampled every {PERIOD_S * 1e3:g} ms")
    print(f"{'command':10s} {'peak':>6s} {'after':>6s}")
    for name, peak, after in regions.rows:
        print(f"{name:10s} {peak:6.1f} {after:6.1f}")
    print(f"ru_maxrss  {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:6.1f}")
    for problem in bad:
        print(f"check: {problem}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
