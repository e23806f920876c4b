"""The command-line digest of ``scripts/cli_digest.py`` against its committed copy.

Every argv of the digest runs in-process from the repository root.  Each
line's exit code must match exactly, and so must the sha256 of its standard
output and of its standard error, except on lines whose bytes depend on the
platform:
- seeded ``epr`` lines draw their unitaries through LAPACK QR;
- ``grover-long`` lines print BLAS products with ``repr``;
- help and usage text is laid out by argparse, which changes between
  Python versions.
The first two compare their exit code and their standard error, which tsq
writes; usage lines compare their exit code alone.

A change to what the command line prints regenerates the file with

    python scripts/cli_digest.py > tests/golden/cli-digest.txt
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).parent / "golden" / "cli-digest.txt"


def load_digest_script():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "scripts" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def platform_bound(argv: list[str]) -> bool:
    return (argv[0] == "epr" and "--seed" in argv) or "grover-long" in argv


def test_cli_digest_matches_the_committed_file(monkeypatch):
    digest = load_digest_script()
    monkeypatch.chdir(ROOT)
    committed = [line.split("\t") for line in DIGEST.read_text().splitlines()]
    argvs = digest.argvs()
    assert [json.loads(fields[0]) for fields in committed] == argvs
    changed = []
    for (text, code, out_hash, err_hash), argv in zip(committed, argvs):
        got_code, out, err = digest.run(argv)
        got = (got_code, digest.sha256(out), digest.sha256(err))
        want = (code, out_hash, err_hash)
        if out.startswith("usage:") or err.startswith("usage:"):
            got, want = got[:1], want[:1]
        elif platform_bound(argv):
            got, want = got[::2], want[::2]
        if got != want:
            changed.append(f"{text}: {want} -> {got}")
    assert not changed, f"{len(changed)} digest lines changed:\n" + "\n".join(changed[:10])
