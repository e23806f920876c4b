"""Behaviour digest of the tsq command line.

Runs a fixed list of argv through ``tsq.cli.main`` in one process and prints
one line per argv: the argv as JSON, the exit code, and the sha256 of
standard output and of standard error.  It takes no arguments:

    python scripts/cli_digest.py > digest.txt

The list covers every subcommand, both output formats, n = 2-4, both
unitaries, ``ts-instance`` and ``grover-external`` in JSON at n = 5,
``ts-instance`` in JSON at n = 7 and 8, ``ts-instance`` and
``grover-solver`` in JSON with an A-only split at n = 5-8, every ``epr``
mode and path with several seeds, ``complexity`` on the drawer problem
(at every advice rank for n = 3 and 4, in one call each, at n = 5 and 8,
and at n = 9, whose answer table passes the dimension cap: exit 2), on
both bundled files and at every advice rank on a 16-setting random table
under ``tests/data/`` (one k per call, and all of them in one call), on a
4-setting table with two settings no query tells apart (exit 2 at k = 1/2,
exit 0 at k = 1), on two 10-bit settings (at k = 1/2, where the first of
the [10 choose 5]_2 advice bases splits them, and at k = 1), on a
24-setting drawer with 29 of its answers flipped (at k = 0, which passes
the step budget unless its one class prunes its branches, and at k = 0.2),
on a file whose name is not a string (exit 2), and a few invalid argv.
Problem-file paths are relative to the repository root, and the script runs
from there, so the digests of two checkouts can be compared with ``diff``.
An exception that escapes ``main`` is printed as ``raise:<type>``.  The
output is committed as ``tests/golden/cli-digest.txt``, and
``tests/test_digest.py`` checks the command line against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tsq import cli  # noqa: E402

PROBLEM_FILES = ("src/tsq/problems/grover-n2.json", "src/tsq/problems/grover-n2-reduced.json")
RANDOM_TABLE = "tests/data/random-16x8.json"  # 16 settings, 8 binary queries
CONFUSABLE_TABLE = "tests/data/confusable-4x2.json"  # two settings answer every query alike
LIST_NAME = "tests/data/list-name.json"  # its "name" is a list
WIDE_TABLE = "tests/data/wide-10.json"  # two 10-bit settings, one query
FLIPPED_TABLE = "tests/data/flipped-24.json"  # 24 drawers, 29 answers flipped
UNITARIES = ("xor", "grover-long")
SPLITS = {
    2: ("A:[01]", "A:[10]", "A:[11]", "B:[10]/A:[01]", "B:[11]/A:[01]"),
    3: ("A:[001]", "A:[011,101]", "B:[100,010]/A:[001]"),
    4: ("A:[0011,0101]",),
}
SPLIT_N5 = "B:[10000,01000]/A:[00111,00011,00001]"
# final parts named by bases that are not reduced, for the A-only completion
A_ONLY_SPLITS = {
    5: ("A:[00011,10001]", "A:[11000,01100,00110]"),
    6: ("A:[000011,100001,010001]", "A:[110000,011000,001100]"),
    7: ("A:[0000011,1000001]", "A:[1100000,0110000,0011000,0001100]"),
    8: ("A:[00000011,10000001,01000001]", "A:[11000000,01100000,00110000,00011000]"),
}
ERRORS = (
    [],
    ["--version"],
    ["--help"],
    ["epr", "--help"],
    ["bogus"],
    ["epr"],
    ["epr", "--outcome", "012"],
    ["epr", "--outcome", "0"],
    ["epr", "--mode", "costa", "--path", "direct", "--outcome", "01"],
    ["epr", "--mode", "sideways", "--outcome", "01"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A01"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "B:[10]"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[00]"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[011]"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[100]"],
    ["ts-instance", "--n", "2", "--outcome", "01", "--split", "B:[100]/A:[01]"],
    ["ts-instance", "--n", "2", "--outcome", "01", "--split", "B:[10]/A:[011]"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[0x]"],
    ["ts-instance", "--n", "2", "--outcome", "01", "--split", "C:[10]/A:[01]"],
    ["ts-instance", "--n", "2", "--outcome", "01", "--split", "A:[10]/A:[01]"],
    # zero and dependent masks: the final part is checked first, then the initial one
    *(
        ["ts-instance", "--n", "2", "--outcome", "01", "--split", split]
        for split in ("B:[00]", "B:[00]/A:[01,10,11]", "A:[01,01]", "B:[01,01]/A:[]", "A:[11]/B:[00]", "A:[00,01]")
    ),
    ["grover-solver", "--n", "0", "--outcome", "0"],
    ["grover-solver", "--n", "2", "--outcome", "012"],
    ["grover-external", "--n", "2", "--outcome", "1"],
    ["ts-instance", "--n", "2", "--outcome", "1", "--final-rank", "1"],
    ["epr", "--mode", "ts", "--outcome", "011"],
    ["grover-external", "--n", "2", "--outcome", "11", "--split", "B:[10]/A:[10]"],
    ["ts-instance", "--n", "2", "--outcome", "01"],
    ["ts-instance", "--n", "2", "--outcome", "01", "--final-rank", "3"],
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", ""],
    ["grover-external", "--n", "2", "--outcome", "01", "--split", ""],
    ["ts-instance", "--n", "2", "--outcome", "01", "--split", ""],
    ["ts-instance", "--n", "2", "--outcome", "01", "--final-rank", "1", "--split", ""],
    ["search", "--n", "4", "--target", "00000"],
    ["search", "--n", "4"],
    ["search", "--n", "30", "--target", "0" * 30],
    ["complexity", "--n", "40", "--k", "0.5"],
    ["complexity", "--k", "2"],
    ["complexity", "--problem", "file", "--k", "0"],
    ["complexity", "--problem", "file", "--problem-file", "no/such/file.json", "--k", "0"],
    ["complexity", "--problem", "file", "--problem-file", "tests/data", "--k", "0"],
    ["complexity", "--problem", "file", "--problem-file", "tests/data/signed-settings.json", "--k", "1"],
    [
        "complexity", "--problem", "grover", "--n", "3",
        "--problem-file", "src/tsq/problems/grover-n2.json", "--k", "0.5",
    ],
    # an empty mask entry is refused; "A:[]" alone is rank 0
    *(
        ["ts-instance", "--n", "2", "--outcome", "01", "--split", split]
        for split in ("A:[01,,]", "A:[,01]", "B:[10,]/A:[01]", "A:[ , ]")
    ),
)


def values(n: int, step: int = 1) -> list[str]:
    return [format(b, f"0{n}b") for b in range(0, 1 << n, step)]


def argvs() -> list[list[str]]:
    out = []
    for n, step in ((2, 1), (3, 2), (4, 5)):
        for unitary in UNITARIES:
            for b in values(n, step):
                base = ["--n", str(n), "--outcome", b, "--unitary", unitary]
                for split in (None, *SPLITS[n]):
                    extra = ["--split", split] if split else []
                    out += [["grover-external", *base, *extra], ["grover-solver", *base, *extra]]
                for split in SPLITS[n]:
                    for view in ("solver", "external"):
                        out.append(["ts-instance", *base, "--split", split, "--perspective", view])
                for rank in range(n + 1):
                    out.append(["ts-instance", *base, "--final-rank", str(rank)])
    for mode in ("direct", "costa", "ts"):
        for path in (None, "direct", "via-t0"):
            for seed in (None, 1, 2, 7):
                for b in values(2):
                    argv = ["epr", "--mode", mode, "--outcome", b]
                    argv += ["--path", path] if path else []
                    argv += ["--seed", str(seed)] if seed is not None else []
                    out.append(argv)
    ks = (["--k", "0", "--k", "0.5", "--k", "1"], ["--k", "0.25"], ["--k", "1", "--k", "0"])
    for n in (2, 3, 4):
        out += [["complexity", "--n", str(n), *k] for k in ks]
    # every advice rank of the drawer at n = 3 and 4: the nine k values in eighths
    eighths = [arg for e in range(9) for arg in ("--k", str(e / 8))]
    out += [["complexity", "--n", str(n), *eighths] for n in (3, 4)]
    # the drawer at n = 5 and 8, and at n = 9, past the dimension cap: exit 2
    out += [["complexity", "--n", "5", *ks[0]], ["complexity", "--n", "8", "--k", "0.5"],
            ["complexity", "--n", "9", "--k", "0.5"]]
    for path in PROBLEM_FILES:
        out += [["complexity", "--problem", "file", "--problem-file", path, *k] for k in ks]
    five_ks = ("0", "0.25", "0.5", "0.75", "1")
    for k in five_ks:
        out.append(["complexity", "--problem", "file", "--problem-file", RANDOM_TABLE, "--k", k])
    # every k on one problem object
    out.append(["complexity", "--problem", "file", "--problem-file", RANDOM_TABLE,
                *(arg for k in five_ks for arg in ("--k", k))])
    # refused below full rank by the search, which the pair closed form gives way to
    for k in ("0.5", "1.0"):
        out.append(["complexity", "--problem", "file", "--problem-file", CONFUSABLE_TABLE, "--k", k])
    # a name that is not a string: exit 2
    out.append(["complexity", "--problem", "file", "--problem-file", LIST_NAME, "--k", "1"])
    # [10 choose 5]_2 advice bases at k = 1/2, of which the first splits the two
    for k in ("0.5", "1"):
        out.append(["complexity", "--problem", "file", "--problem-file", WIDE_TABLE, "--k", k])
    # the k = 0 search stays within the step budget only if every count prunes
    for k in ("0", "0.2"):
        out.append(["complexity", "--problem", "file", "--problem-file", FLIPPED_TABLE, "--k", k])
    for n in range(4, 9):
        for target in (values(n)[1], values(n)[-1]):
            for variant in ("long", "grover"):
                out.append(["search", "--n", str(n), "--target", target, "--variant", variant])
    # each generated argv in both output formats
    out = [argv + ["--output", fmt] for argv in out for fmt in ("table", "json")]
    # the benchmark's size, n = 5: JSON only, every final rank and one full split
    for unitary in UNITARIES:
        for b in values(5, 13):
            base = ["--n", "5", "--outcome", b, "--unitary", unitary]
            for rank in range(1, 5):
                out.append(["ts-instance", *base, "--final-rank", str(rank), "--output", "json"])
            out.append(["grover-external", *base, "--split", SPLIT_N5, "--output", "json"])
    # A-only splits at n = 5-8, completed from the final part: JSON only
    for n, splits in A_ONLY_SPLITS.items():
        for unitary in UNITARIES:
            base = ["--n", str(n), "--outcome", values(n)[1], "--unitary", unitary]
            for split in splits:
                for command in ("ts-instance", "grover-solver"):
                    out.append([command, *base, "--split", split, "--output", "json"])
    # the largest sizes under the default cap, n = 7 and 8: JSON only
    for n in (7, 8):
        for unitary in UNITARIES:
            for b in (values(n)[1], values(n)[-1]):
                base = ["--n", str(n), "--outcome", b, "--unitary", unitary]
                out.append(["ts-instance", *base, "--final-rank", "3", "--output", "json"])
    return out + [list(argv) for argv in ERRORS]


def run(argv: list[str]) -> tuple[str, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(cli.main(argv))
        except SystemExit as e:
            code = str(e.code)
        except Exception as e:  # a traceback is a finding, not a crash of the sweep
            code = f"raise:{type(e).__name__}"
    return code, stdout.getvalue(), stderr.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    os.chdir(ROOT)
    for argv in argvs():
        code, out, err = run(argv)
        print(json.dumps(argv), code, sha256(out), sha256(err), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
