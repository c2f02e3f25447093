"""Check that the benchmark's outputs are unchanged: the digest of each
workload's ``--trace 1`` run at seed 3 against its pin in
``data/digests.json``.

    python tests/check_digests.py

Each workload runs in its own ``perfbench/run.py`` process, one after the
other (a few minutes in all).  The script prints one line, naming each
workload's digest and whether it matches its pin, and exits 1 if one does
not.  It is a script, not a test: pytest does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "digests.json").read_text())


def digest(workload: str) -> str:
    """The ``digest`` of the run's ``detail`` line, or why there is none."""
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", "3", "--trace", "1"],
                         capture_output=True, text=True)
    for line in run.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])["digest"]
    return f"no detail line (exit {run.returncode})"


def main() -> int:
    got = {workload: digest(workload) for workload in PINNED}
    moved = [w for w in PINNED if got[w] != PINNED[w]]
    parts = [f"{w} {got[w]}" + (f" MOVED from {PINNED[w]}" if w in moved else "")
             for w in PINNED]
    verdict = f"{len(moved)} moved" if moved else "all as pinned"
    print(f"digests at seed 3, --trace 1: {', '.join(parts)}; {verdict}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
