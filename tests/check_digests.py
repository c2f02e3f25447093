"""Check that the benchmark's outputs are unchanged: the digest of each
workload's ``--trace 1`` run at seed 3 against its ``full`` pin in
``data/digests.json``.

    python tests/check_digests.py

Each workload runs in its own ``perfbench/run.py`` process, one after the
other (a few minutes in all).  The script prints one line, naming each
workload's digest and whether it matches its pin, and any of the run's own
``checks`` or failed ops, and exits 1 if a digest moved or a run reported
either.  It is a script, not a test: pytest does not collect it.  Tier-1
checks the ``--smoke`` runs against the ``smoke`` pins
(``test_digests.py``).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "digests.json").read_text())


def detail(workload: str, *flags: str) -> dict:
    """The ``detail`` line of the run with ``flags`` added, or a digest
    that says why there is none."""
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", "3", "--trace", "1", *flags],
                         capture_output=True, text=True)
    for line in run.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    return {"digest": f"no detail line (exit {run.returncode})"}


def faults(report: dict) -> list[str]:
    """What a run reports against itself: its checks, and its failed ops,
    timed or warm-up."""
    found = [f"check: {check}" for check in report.get("checks", [])]
    for ops, what in ((report, "failed ops"), (report.get("warmup", {}), "failed warm-up ops")):
        if ops.get("failed"):
            found.append(f"{ops['failed']} {what}: {ops['failures']}")
    return found


def main() -> int:
    pinned = PINNED["full"]
    got = {workload: detail(workload) for workload in pinned}
    moved = [w for w in pinned if got[w]["digest"] != pinned[w]]
    faulty = [w for w in pinned if faults(got[w])]
    parts = [f"{w} {got[w]['digest']}" + (f" MOVED from {pinned[w]}" if w in moved else "")
             + "".join(f" ({fault})" for fault in faults(got[w])) for w in pinned]
    verdict = [f"{len(w)} {what}" for w, what in ((moved, "moved"), (faulty, "with faults")) if w]
    print(f"digests at seed 3, --trace 1: {', '.join(parts)}; "
          f"{'; '.join(verdict) or 'all as pinned'}")
    return 1 if moved or faulty else 0


if __name__ == "__main__":
    sys.exit(main())
