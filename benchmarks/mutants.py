"""Planted bugs that ``diagmon verify`` must catch.

    python3 benchmarks/mutants.py

Copies the ``src/diagmon`` next to this script into a temporary directory.
For each mutant it makes one exact text replacement in one file of the copy,
runs ``python -m diagmon.cli verify --profile <profile>`` on the copy in a
subprocess, and puts the file back.  A mutant is killed when the run exits
1, prints a ``FAIL`` line and prints no traceback: verify turns a check that
raises into a FAIL line that names it, so a traceback means the mutant broke
verify itself, not that a check caught it.  The unmutated copy must pass
each profile first.  Prints one line per mutant and exits 0 when every
mutant is killed, 1 otherwise.  Stdlib only.

A mutant's ``old`` text must occur exactly once in its file, so a refactor
that moves the code it names fails here, and in the tier-1 test that reads
``MUTANTS``, until the mutant moves with it.  A mutant that survives is a
finding: add a check or a case that kills it, and keep the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src" / "diagmon"
# seconds a verify run may take: quick takes about 0.3 s and full about 0.9 s,
# so a mutant that makes a check hang is cut and counted as surviving
RUN_TIMEOUT = 20


class Mutant(NamedTuple):
    name: str
    file: str  # under src/diagmon
    old: str  # must occur exactly once in the file
    new: str
    profile: str


MUTANTS = (
    # the partition formula's packed factors (counting._partition_grid)
    Mutant("factor span one degree short", "counting.py", "range(hi, lo - 1, -1)", "range(hi, lo, -1)", "quick"),
    Mutant("factor start degree dropped", "counting.py", "                    low += lo\n", "", "quick"),
    Mutant(
        "empty factor skipped, not left",
        "counting.py",
        "if not packed:\n                        break",
        "if not packed:\n                        continue",
        "quick",
    ),
    Mutant(
        "one-term factor start degree dropped",
        "counting.py",
        "low += lo",
        "low += lo if packed >> width else 0",
        "quick",
    ),
    Mutant(
        "one-term factor parts not counted",
        "counting.py",
        "k += mult",
        "k += mult if packed >> width else 0",
        "quick",
    ),
    Mutant(
        "slot width from Bell(n), not Bell(2n)",
        "counting.py",
        "width = bell(2 * n).bit_length() + 1",
        "width = bell(n).bit_length() + 1",
        "quick",
    ),
    Mutant("unpacked slots not advanced", "counting.py", "                    r += 1\n", "", "quick"),
    # the partition formula's labels (combinat.pi_count)
    Mutant("n counts parts, not points", "combinat.py", "n += i * mult", "n += mult", "quick"),
    Mutant("(i!)^mult read as i!*mult", "combinat.py", "math.factorial(i) ** mult", "math.factorial(i) * mult", "quick"),
    Mutant(
        "mult! dropped from the denominator",
        "combinat.py",
        "math.factorial(mult) * math.factorial(i) ** mult",
        "math.factorial(i) ** mult",
        "quick",
    ),
    # the two-colored graph (core.lambda_graph, idempotency.classify_lambda_components)
    Mutant(
        "lower singleton put in the red loops",
        "core.py",
        "blue_loops.append(v - n + 1)",
        "red_loops.append(v - n + 1)",
        "quick",
    ),
    Mutant(
        "loops counted from the red loops only",
        "idempotency.py",
        "for loops in (g.red_loops, g.blue_loops):",
        "for loops in (g.red_loops,):",
        "quick",
    ),
    # the oracle's tallies (oracle.brute_report)
    Mutant(
        "per-class twisted count bumped for every idempotent",
        "oracle.py",
        "            entry[3] += 1\n",
        "        entry[3] += 1\n",
        "full",
    ),
    Mutant(
        "per-rank twisted tally read from the idempotent tally",
        "oracle.py",
        "report.twisted_by_rank[rank] = report.twisted_by_rank.get(rank, 0) + 1",
        "report.twisted_by_rank[rank] = report.idempotents_by_rank[rank]",
        "quick",
    ),
)


def misplaced() -> list[str]:
    """One line for each mutant whose old text does not occur exactly once."""
    out = []
    for m in MUTANTS:
        copies = (SRC / m.file).read_text(encoding="utf-8").count(m.old)
        if copies != 1:
            out.append(f"{m.name}: {copies} copies of {m.old!r} in {m.file}")
    return out


def verify(root: Path, profile: str) -> tuple[int | None, str]:
    """Exit code (None on a timeout) and output of verify on the copy in root."""
    env = {**os.environ, "PYTHONPATH": str(root), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "diagmon.cli", "verify", "--profile", profile],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT} s"
    return run.returncode, run.stdout + run.stderr


def main() -> int:
    stale = misplaced()
    for line in stale:
        print(f"STALE {line}")
    if stale:
        return 1
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(SRC, root / "diagmon", ignore=shutil.ignore_patterns("__pycache__"))
        for profile in sorted({m.profile for m in MUTANTS}):
            code, out = verify(root, profile)
            if code != 0:
                print(f"BROKEN the unmutated copy fails verify --profile {profile} (exit {code}):\n{out}")
                return 1
        for m in MUTANTS:
            path = root / "diagmon" / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, out = verify(root, m.profile)
            finally:
                path.write_text(text, encoding="utf-8")
            fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
            if code == 1 and fails and "Traceback" not in out:
                print(f"KILLED {m.name} ({m.profile}): {fails[0][:150]}")
            else:
                survivors += 1
                why = "a traceback" if "Traceback" in out else f"{len(fails)} FAIL lines"
                print(f"SURVIVED {m.name} ({m.profile}): exit {code}, {why}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
