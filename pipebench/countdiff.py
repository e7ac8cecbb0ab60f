"""Flag exact counts that moved between two traced runs.

Save the last line of ``run.py --trace 1`` for the same workload and
seed on two commits, then::

    python3 pipebench/countdiff.py before.json after.json

Exits 1 and names every count that differs.  The counts depend on the
seed only (never on run length or host speed), so a change that only
makes the program faster must leave all of them identical.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import EXACT_COUNTS  # noqa: E402


def load(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    return json.loads(lines[-1])["metrics"]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[1]), load(argv[2])
    moved = 0
    for name in EXACT_COUNTS:
        old = before.get(name, {}).get("value")
        new = after.get(name, {}).get("value")
        if old != new:
            moved += 1
            print(f"MOVED {name}: {old} -> {new}")
        else:
            print(f"same  {name}: {new}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
