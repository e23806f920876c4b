"""Numeric diff of the tsq command line between two checkouts.

Runs the argv of ``cli_digest.argvs()`` in each checkout, one subprocess per
side, through that checkout's ``cli_digest.run``.  For every argv it compares
the exit codes, the text of standard output and standard error once every
decimal number is masked, and the numbers themselves:

    python scripts/cli_numdiff.py PARENT CHANGE

It prints one line per argv that differs, then a summary with the largest
|delta| of any number.  It exits 1 on an exit-code or masked-text mismatch,
or when a number moved by more than ``qcore.STATE_TOL``, and 0 otherwise.

The argv list is that of the checkout holding this script, so run the copy
in the newer checkout: an older one may not refuse some of the newer error
argv (``search --n 30``) before allocating.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import cli_digest
from tsq.qcore import STATE_TOL

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
WORKER = """
import json, os, sys
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "scripts"))
import cli_digest
os.chdir(root)
for argv in json.load(sys.stdin):
    print(json.dumps(cli_digest.run(argv)), flush=True)
"""


def outputs(root: str, argvs: list[list[str]]) -> list[tuple[str, str, str]]:
    """(exit code, stdout, stderr) of every argv, run in the checkout at ``root``."""
    done = subprocess.run(
        [sys.executable, "-c", WORKER, str(Path(root).resolve())],
        input=json.dumps(argvs), capture_output=True, text=True, check=True,
    )
    return [tuple(json.loads(line)) for line in done.stdout.splitlines()]


def largest_delta(before: str, after: str) -> float:
    """Largest |delta| between the numbers of two texts equal once masked."""
    pairs = zip(NUMBER.findall(before), NUMBER.findall(after))
    return max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    argvs = cli_digest.argvs()
    parent, change = (outputs(root, argvs) for root in argv)
    mismatches, moved, worst = 0, 0, 0.0
    for args, (code_a, *texts_a), (code_b, *texts_b) in zip(argvs, parent, change):
        a, b = "\0".join(texts_a), "\0".join(texts_b)
        faults = [f"exit {code_a} -> {code_b}"] if code_a != code_b else []
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            faults.append("text differs")
        if faults:
            mismatches += 1
            print(json.dumps(args), "; ".join(faults), sep="\t")
        elif a != b:
            delta = largest_delta(a, b)
            worst, moved = max(worst, delta), moved + 1
            print(json.dumps(args), f"max |delta| {delta:.3g}", sep="\t")
    print(
        f"{len(argvs)} argv: {mismatches} mismatched, {moved} moved numerically,"
        f" max |delta| {worst:.3g} (STATE_TOL {STATE_TOL:g})"
    )
    return 1 if mismatches or worst > STATE_TOL else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
