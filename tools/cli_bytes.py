"""Compare the command-line output of this tree with another tree's.

Runs each command of COMMANDS as ``python3 -m dswave ...`` in both trees,
each with its own ``src`` on PYTHONPATH, and prints for every command whose
stdout, stderr or exit code differ what differs: the exit codes, the
stderr lines, and every number that moved, with its relative change
|b - a| / max(|a|, |b|).  A line whose words differ, not only its numbers,
is printed whole from both trees.  The last line counts the commands that
came out identical:

    python3 tools/cli_bytes.py ../parent

"before" is the other tree, "after" this one.  Run it from anywhere.  Exits
1 when any command differs, 0 when all are byte-identical.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_GRID = ["--r", "0.2:2.5:6", "--t", "0:2.9:6"]
_LATE = ["--r", "0.3,0.7,1.2", "--t", "3.5,5,10,20"]
_PIONIC = ["--profile", "pionic", "--n-quantum", "2", "--ell", "1",
           "--velocity", "pionic_phase"]

COMMANDS = [
    # the shapes of the benchmark's cli workload
    ["eval", "--jobs", "2", "--format", "csv", "--ell", "1", "--mass", "2.0", *_GRID],
    ["eval", "--jobs", "1", "--format", "json", "--ell", "0", "--mass", "0.5", *_GRID],
    ["compare", "--method", "riemann", "--method-b", "fd", "--jobs", "1", "--ell", "2",
     "--mass", "0.5", *_GRID],
    ["kernels", "--format", "csv", "--mass", repr(math.sqrt(2.0)), "--r", "0:0.9:10",
     "--t", "3:12:10"],
    # the README's examples
    ["eval", "--ell", "1", "--r", "0.2:2.0:10", "--t", "0:3:7", "--jobs", "4"],
    ["eval", "--profile", "pionic", "--n-quantum", "1", "--ell", "0",
     "--method", "huygens_hankel", "--r", "1.0", "--t", "0,0.5,1", "--format", "json"],
    ["compare", "--method", "riemann", "--method-b", "fd", "--ell", "1", "--mass", "2.0",
     "--r", "0.5,1.0,1.5", "--t", "0:2:5", "--tolerance", "1e-4"],
    ["decay", "--mass", "2.0", "--decay-r", "0.7", "--t-window", "14,34", "--n-samples", "21",
     "--fit-poly"],
    ["kernels", "--r", "0.1,0.3", "--t", "1.0,2.0"],
    # spectral rows, early and late, and late riemann rows
    ["eval", "--jobs", "1", "--method", "hankel", "--ell", "1", "--mass", "2.0", *_GRID],
    *(["eval", "--jobs", "1", "--method", method, "--ell", "1", "--mass", mass, *_LATE]
      for method in ("riemann", "hankel") for mass in ("0.5", "2.0")),
    ["eval", "--jobs", "1", "--method", "hankel", "--mass", "2.0", *_PIONIC,
     "--r", "0.5,1.2", "--t", "1,5,14"],
    # the paper's application: the pionic atom's late-time decay
    ["decay", *_PIONIC, "--energy", "2.0", "--mass", "2.0", "--format", "json"],
]

# a number as the writers print it, with nan and inf
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _run(tree: Path, args: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "dswave", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if math.isfinite(scale) and scale > 0.0 else math.inf


def _compare_text(name: str, before: str, after: str) -> list[str]:
    """The lines that say how text after differs from text before."""
    old, new = before.splitlines(), after.splitlines()
    if len(old) != len(new):
        return [f"  {name}: {len(old)} lines before, {len(new)} after"]
    out = []
    worst = 0.0
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a == b:
            continue
        if _NUMBER.split(a) != _NUMBER.split(b):
            out += [f"  {name} line {i} before: {a}", f"  {name} line {i} after:  {b}"]
            continue
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            if x != y:
                rel = _rel(float(x), float(y))
                worst = max(worst, rel)
                out.append(f"  {name} line {i}: {x} -> {y} (rel {rel:.2e})")
    if worst:
        out.append(f"  {name}: largest relative change {worst:.2e}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "dswave").is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    same = 0
    for args in COMMANDS:
        (code_a, out_a, err_a), (code_b, out_b, err_b) = _run(other, args), _run(ROOT, args)
        if (code_a, out_a, err_a) == (code_b, out_b, err_b):
            same += 1
            continue
        print("dswave " + " ".join(args))
        if code_a != code_b:
            print(f"  exit code: {code_a} -> {code_b}")
        for line in _compare_text("stdout", out_a, out_b) + _compare_text("stderr", err_a, err_b):
            print(line)
    print(f"{same} of {len(COMMANDS)} commands identical")
    return 0 if same == len(COMMANDS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
