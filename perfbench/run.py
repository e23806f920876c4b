#!/usr/bin/env python3
"""tsq benchmark: one seeded workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload zigzag-n5 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout.  The workload's items are made once from the seed.  One
caller calls them in a closed loop, a round at a time, until ``--seconds``
have passed (at least five rounds).  An item's latency is its fastest call
over the rounds; its output is checked after the first call's timer stops.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one round untraced twice (the first time as a warm-up),
then sets up again and runs one round with every public ``tsq`` function
wrapped in a span, and prints the per-layer metrics, so a span's calls are
those of one round.
The last line of standard output is the JSON result; a fuller record, with
the environment and sample counts, is written under ``.perfbench/`` along
with the spans of a traced run.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # must be set before numpy loads its BLAS
    os.environ[_var] = str(NPROC)

from tracer import ITEM_SPAN, SETUP_SPAN, Tracer  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh child processes
MIN_ROUNDS = 5  # a run has at least this many rounds
SHOWN_FAILURES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="print this process's set-up time and exit")
    return p.parse_args(argv)


def call(item, tracer=None):
    """Time one call of an item.  Returns (seconds, output, error or None)."""
    output, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            output = item.run()
        else:
            with tracer.span(ITEM_SPAN):
                output = item.run()
    except Exception as exc:  # a failing item is counted, never aborts the run
        error = exc
    return time.perf_counter() - t0, output, error


class Recorder:
    """Latency (fastest call) and first failure of each item of one run."""

    def __init__(self, items):
        self.items = items
        self.latencies = [float("inf")] * len(items)
        self.errors: list[Exception | None] = [None] * len(items)
        self.rounds = 0

    def round(self, tracer=None) -> None:
        """Call every item that has not failed once; the first round checks each output."""
        first = self.rounds == 0
        for i, item in enumerate(self.items):
            if self.errors[i] is not None:
                continue
            elapsed, output, error = call(item, tracer)
            self.latencies[i] = min(self.latencies[i], elapsed)
            if first and error is None:
                try:
                    item.check(output)
                except Exception as exc:
                    error = exc
            if error is not None:
                self.errors[i] = error
                if len(self.failures) <= SHOWN_FAILURES:
                    traceback.print_exception(error, file=sys.stderr)
        self.rounds += 1

    @property
    def failures(self) -> list[str]:
        return [f"{it.kind}: {type(e).__name__}: {e}" for it, e in zip(self.items, self.errors) if e is not None]

    def rate(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def measure(workload, built, args, setup: list[float]) -> Recorder:
    """Rounds over the same items until ``args.seconds`` have passed (at least
    MIN_ROUNDS).  The set-up samples of child processes are taken between
    rounds, spread over the run, so that no one slow stretch of the machine
    sets all of them."""
    rec = Recorder(workload.make_items(built))
    start = time.perf_counter()
    while rec.rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rec.round()
        if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= args.seconds * len(setup) / SETUP_SAMPLES:
            setup.append(setup_sample(args))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))
    return rec


def setup_sample(args) -> float:
    """Set-up time of a fresh child process running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tsq").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    if not (ROOT / ".git").exists():  # keep git from finding a repository above the checkout
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def end_to_end(rec: Recorder, setup: list[float]) -> dict:
    lat = rec.latencies
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "items_per_s": (rec.rate(), "1/s", len(lat)),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "item_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms", len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_ratio": (len(rec.failures) / len(lat), "-", len(lat)),
    }


def per_layer(workload, untraced: Recorder):
    """Set up again and run one round with every traced function wrapped."""
    import tsq

    tracer = Tracer()
    tracer.install(tsq)
    try:
        with tracer.span(SETUP_SPAN):
            built = workload.build()
        traced = Recorder(workload.make_items(built))
        traced.round(tracer)
    finally:
        tracer.uninstall()
    metrics = {}
    for name, entry in sorted(tracer.summary().items()):
        metrics[f"{name}.calls"] = (entry["calls"], "count", 1)
        metrics[f"{name}.self_s"] = (entry["self_s"], "s", entry["calls"])
    for name, value in tracer.bytes.items():
        metrics[name] = (value, "computed_bytes", 1)
    metrics["trace.untraced_items_per_s"] = (untraced.rate(), "1/s", len(untraced.latencies))
    metrics["trace.items_per_s"] = (traced.rate(), "1/s", len(traced.latencies))
    metrics["trace.overhead"] = (untraced.rate() / traced.rate(), "ratio", 1)
    return metrics, tracer, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "tsq" / "__init__.py").is_file():
        print(f"error: no tsq sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    built = workload.build()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import tsq

    if Path(tsq.__file__).resolve().parent != (ROOT / "src" / "tsq").resolve():
        print(f"error: tsq was imported from {tsq.__file__}, not from this checkout", file=sys.stderr)
        return 2

    env = environment(args)
    if args.trace == 0:
        setup = [setup_s]
        rec = measure(workload, built, args, setup)
        computed = end_to_end(rec, setup)
        attempted, failures = len(rec.items), rec.failures
    else:
        warmup = Recorder(workload.make_items(built))
        warmup.round()  # keeps first-call costs out of the overhead
        rec = Recorder(workload.make_items(built))
        rec.round()
        computed, tracer, traced = per_layer(workload, rec)
        attempted = len(warmup.items) + len(rec.items) + len(traced.items)
        failures = warmup.failures + rec.failures + traced.failures
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in computed or computed[m["name"]][1] != m["unit"]:
            raise SystemExit(f"error: no metric {m['name']} in {m['unit']}, as BENCHMARK.json names it")
        metrics[m["name"]] = {"value": computed[m["name"]][0], "unit": m["unit"]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    record = {
        "environment": env,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "rounds": rec.rounds,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in computed.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# environment {json.dumps(env)}")
    print(f"# {'metric':<44} {'value':>14}  {'unit':<14} samples")
    for name, (value, unit, samples) in computed.items():
        print(f"# {name:<44} {value:>14.6g}  {unit:<14} {samples}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
