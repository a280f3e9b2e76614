"""Print the margins of the acceptance gates without their timings.

Runs ``pytest -s tests/test_acceptance.py`` with ``src`` on PYTHONPATH and
prints each ``[criterion N]`` line it writes, with the wall times (``2.9s``)
and their budgets (``(< 2 min)``) removed.  What is left is the gates'
verdicts and margins, so two trees print the same lines exactly when every
gate holds the same margins:

    python3 tools/gate_margins.py > after.txt
    (cd ../parent && python3 tools/gate_margins.py) > before.txt
    diff before.txt after.txt

Run it from anywhere; it tests the tree it sits in.  Exits with pytest's
status, so a failing gate still shows in the exit code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a gate line, from its tag to the end; pytest's progress dots may precede it
GATE = re.compile(r"\[criterion\s+\d+\].*")
# a wall time with its optional budget, and the comma before it
TIMING = re.compile(r",?\s*\d+(?:\.\d+)?s(?:\s*\(<[^)]*\))?(?=[,;]|$)")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    for line in run.stdout.splitlines():
        gate = GATE.search(line)
        if gate:
            print(TIMING.sub("", gate.group(0)).rstrip())
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
