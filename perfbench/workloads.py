"""The benchmark workloads: inputs made from the seed, items, and output checks.

An item is one call into the program.  Its inputs are generated before it
runs, its ``run`` is the only timed part, and its ``check`` compares the
output with a reference from ``reference.py`` (or the repository's golden
text) after the timer has stopped.  Every call goes through the module
attribute (``tsym.solver_instance``, not a local alias) so the traced run's
wrappers see it.
"""

from __future__ import annotations

import ast
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from tsq import cli, complexity, grover, measure, qcore, tsym


class Mismatch(Exception):
    """An item's output disagrees with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def observable(register: str, basis, n: int):
    return measure.ParityObservable(register, tuple(ref.bits(m, n) for m in basis))


def branch_set(state, n: int) -> set[str]:
    """Settings carrying more than 1e-6 of the mass of a bottom-line input state."""
    mass = (np.abs(np.asarray(state.amps)) ** 2).reshape(1 << n, -1).sum(axis=1)
    return {ref.bits(b, n) for b in np.nonzero(mass > 1e-6 * mass.sum())[0]}


class ZigzagN5:
    """Dense 1024x1024 processes at n=5: zigzag instance pairs and recovery."""

    n = 5
    splits_per_rank = 2
    # recovery factor of one split's 32 solver instances, recorded at the
    # seed commit for both processes: 2^(initial-part rank)
    recovery_factor = {1: 2.0, 2: 4.0, 3: 8.0, 4: 16.0}

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def build(self):
        return {"xor": tsym.xor_process(self.n), "grover": grover.grover_process(self.n)}

    def make_items(self, built) -> list[Item]:
        n = self.n
        rng = random.Random(f"{self.seed}/zigzag-n5")
        settings = [ref.bits(b, n) for b in range(1 << n)]
        items = []  # per split and process: 32 instance pairs, then their recovery
        for r in range(1, n):
            for final in rng.sample(ref.subspaces(n, n - r), self.splits_per_rank):
                init = ref.first_complement(n, final)
                split = tsym.SelectionSplit(observable("B", init, n), observable("A", final, n))
                for process in built.values():
                    solved: list = []
                    items += [self._instance_item(process, b, split, final, settings, solved) for b in settings]
                    items.append(self._recovery_item(solved, r))
        return items

    def _instance_item(self, process, b, split, final, settings, solved) -> Item:
        """Both perspectives of one setting: the solver and the external zigzag."""
        want = ref.parity_class(settings, final, b)

        def run():
            return tsym.solver_instance(process, b, split), tsym.external_instance(process, b, split)

        def check(result):
            solver, external = result
            expect(solver.perspective == "solver", "wrong perspective")
            expect(external.perspective == "external", "wrong perspective")
            expect(branch_set(solver.bottom_line[0], self.n) == want, f"solver branches at {b}")
            expect(branch_set(external.bottom_line[0], self.n) == {b}, f"external branches at {b}")
            solved.append(solver)

        return Item("instance_pair", run, check)

    def _recovery_item(self, solved: list, r: int) -> Item:
        def check(report):
            expect(len(solved) == 1 << self.n, "recovery summed an incomplete instance set")
            expect(bool(report.proportional), "recovered state is not proportional to the input")
            expect(abs(report.factor - self.recovery_factor[r]) <= 1e-9, f"recovery factor {report.factor}")

        return Item("recover_superposition", lambda: tsym.recover_superposition(solved), check)


def file_tree(path: Path) -> ref.DecisionTree:
    """Reference decision tree of a problem file, read without ``cli.load_problem``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    answer = {(b, q): str(data["answer"][b][q]) for b in data["settings"] for q in data["queries"]}
    solution = {b: str(s) for b, s in data["solution"].items()}
    return ref.DecisionTree(data["settings"], data["queries"], answer, solution)


def random_table(rng: random.Random, n: int, queries: int):
    """A seeded binary oracle table whose solution is the setting, and its reference.

    A draw where two settings answer every query alike cannot be solved, so
    it is drawn again.
    """
    settings = [ref.bits(b, n) for b in range(1 << n)]
    names = [f"q{j}" for j in range(queries)]
    while True:
        rows = [tuple(rng.choice("01") for _ in names) for _ in settings]
        if len(set(rows)) == len(rows):
            break
    answer = {(b, q): row[j] for b, row in zip(settings, rows) for j, q in enumerate(names)}
    solution = {b: b for b in settings}
    spec = complexity.OracleProblemSpec("random", settings, names, answer, solution)
    return spec, ref.DecisionTree(settings, names, answer, solution)


def prediction_item(problem, tree, k: float) -> Item:
    """``advanced_knowledge_prediction`` at ``k``; a drawer problem when ``tree`` is None."""
    n = len(problem.settings[0])
    r = ref.advice_rank(k, n)
    if tree is None:  # closed form 2^(n-r) - 1 for every class
        worst = ref.drawer_count(n, r)

        def classes(masks):
            keys = {tuple(ref.parity(m, int(s, 2)) for m in masks) for s in problem.settings}
            return dict.fromkeys(keys, worst)
    else:
        worst = tree.prediction(n, r)
        classes = tree.class_counts

    def check(report):
        masks = tuple(int(m, 2) for m in report.masks)
        expect(report.advice_rank == r and ref.gf2_rank(masks) == r, f"advice rank at k={k}")
        expect(report.worst_case == worst, f"k={k}: {report.worst_case} queries, expected {worst}")
        expect(dict(report.per_class) == classes(masks), f"per-class counts at k={k}")

    return Item("advanced_knowledge_prediction",
                lambda: complexity.advanced_knowledge_prediction(problem, k), check)


class AdviceTree:
    """Split enumeration and query-count predictions: pure Python GF(2) and decision-tree work."""

    # (n, ranks) of the split enumerations and (n, k values) of the drawer
    # problems.  The larger cases, n=5 at ranks 3-4 and the n=4 drawer at
    # k < 1/4, take 3-10 s a call.  A call that long cannot be repeated within
    # a run, so on a machine whose speed drifts it would set the spread of the
    # whole workload.
    enumerations = ((4, (1, 2, 3)), (5, (1, 2)))
    drawers = ((3, tuple(i / 8 for i in range(9))), (4, tuple(i / 8 for i in range(2, 9))))
    file_ks = (0.0, 0.5, 1.0)
    random_n = 4
    random_tables = 24
    random_queries = 8
    random_ks = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.problem_files = sorted((root / "src" / "tsq" / "problems").glob("*.json"))
        expect(len(self.problem_files) == 2, "expected the two bundled problem files")
        self.file_trees = [file_tree(path) for path in self.problem_files]

    def build(self):
        return {
            "xor": {n: tsym.xor_process(n) for n, _ in self.enumerations},
            "drawer": {n: complexity.grover_problem(n) for n, _ in self.drawers},
            "files": [cli.load_problem(path) for path in self.problem_files],
        }

    def make_items(self, built) -> list[Item]:
        rng = random.Random(f"{self.seed}/advice-tree")
        items = [self._enumerate_item(built["xor"][n], r) for n, ranks in self.enumerations for r in ranks]
        items += [prediction_item(built["drawer"][n], None, k) for n, ks in self.drawers for k in ks]
        for problem, tree in zip(built["files"], self.file_trees):
            items += [prediction_item(problem, tree, k) for k in self.file_ks]
        for _ in range(self.random_tables):
            spec, tree = random_table(rng, self.random_n, self.random_queries)
            items += [prediction_item(spec, tree, k) for k in self.random_ks]
        rng.shuffle(items)  # no kind of item runs in one stretch of a round
        return items

    def _enumerate_item(self, process, r: int) -> Item:
        n = process.n
        expected = {
            tuple(ref.bits(m, n) for m in final): tuple(ref.bits(m, n) for m in ref.first_complement(n, final))
            for final in ref.subspaces(n, n - r)
        }

        def check(splits):
            got = {s.final_part.masks: s.initial_part.masks for s in splits}
            expect(len(splits) == len(expected), f"{len(splits)} rank-{r} splits, expected {len(expected)}")
            expect(got == expected, f"rank-{r} splits differ from the reference")

        return Item("enumerate_splits", lambda: tsym.enumerate_splits(process, r), check)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process; returns the exit code and standard output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


GOLDEN_COMMANDS = {
    "grover-external-n2-01.txt": ["grover-external", "--n", "2", "--outcome", "01"],
    "grover-solver-n2-01.txt": ["grover-solver", "--n", "2", "--outcome", "01"],
    "zigzag-external-n2-01.txt": [
        "ts-instance", "--n", "2", "--outcome", "01",
        "--split", "B:[10]/A:[01]", "--perspective", "external",
    ],
    "zigzag-solver-n2-01.txt": ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[01]"],
    "epr-direct-01.txt": ["epr", "--mode", "direct", "--outcome", "01"],
    "epr-costa-01.txt": ["epr", "--mode", "costa", "--outcome", "01"],
    "epr-ts-direct-01.txt": ["epr", "--mode", "ts", "--path", "direct", "--outcome", "01"],
    "epr-ts-via-t0-01.txt": ["epr", "--mode", "ts", "--path", "via-t0", "--outcome", "01"],
}

EPR_MODES = (("direct", "direct"), ("costa", "via-t0"), ("ts", "direct"), ("ts", "via-t0"))


def scalars(output: str, fmt: str) -> dict:
    """Scalars of a CLI report, from its JSON or from its trailing ``key: value`` lines."""
    if fmt == "json":
        return json.loads(output)["scalars"]
    found = {}
    for line in output.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key.isidentifier():
            found[key] = value
    return found


def literal(value):
    return ast.literal_eval(value) if isinstance(value, str) else value


class SmallCalls:
    """In-process CLI calls and Born-rule sampling, all small."""

    process_draws = 2
    measure_items = 40
    shots = 16
    file_ks = ("0", "0.5", "1")

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        golden = root / "tests" / "golden"
        self.golden = {name: (golden / name).read_text(encoding="utf-8") for name in GOLDEN_COMMANDS}
        self.problem_files = sorted((root / "src" / "tsq" / "problems").glob("*.json"))
        expect(len(self.problem_files) == 2, "expected the two bundled problem files")
        self.file_trees = [file_tree(path) for path in self.problem_files]

    def build(self):
        return {}

    def make_items(self, built) -> list[Item]:
        rng = random.Random(f"{self.seed}/small-calls")
        items = [self._golden_item(name) for name in GOLDEN_COMMANDS]
        for mode, path in EPR_MODES:
            for fmt in ("table", "json"):
                for _ in range(2):
                    items.append(self._epr_item(rng, mode, path, fmt))
        for command in ("grover-solver", "grover-external", "ts-instance"):
            for n in (2, 3):
                for unitary in ("xor", "grover-long"):
                    for fmt in ("table", "json"):
                        for _ in range(self.process_draws):
                            items.append(self._process_item(rng, command, n, unitary, fmt))
        for n in range(4, 17):
            for variant in ("long", "grover"):
                items.append(self._search_item(rng, n, variant))
        items += [self._measure_item(rng) for _ in range(self.measure_items)]
        items += [self._complexity_file_item(path, tree) for path, tree in zip(self.problem_files, self.file_trees)]
        items.append(self._complexity_grover_item())
        rng.shuffle(items)  # no kind of item runs in one stretch of a round
        return items

    def _complexity_file_item(self, path: Path, tree: ref.DecisionTree) -> Item:
        argv = ["complexity", "--problem", "file", "--problem-file", str(path), "--output", "json"]
        for k in self.file_ks:
            argv += ["--k", k]
        n = len(tree.settings[0])
        want = [tree.prediction(n, ref.advice_rank(float(k), n)) for k in self.file_ks]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code} for {argv}")
            got = [report["worst_case"] for report in json.loads(out)["scalars"]["reports"]]
            expect(got == want, f"query counts {got}, expected {want} for {path.name}")

        return Item("cli.complexity", lambda: run_cli(argv), check)

    def _complexity_grover_item(self) -> Item:
        argv = ["complexity", "--problem", "grover", "--n", "2", "--k", "0", "--k", "0.5", "--k", "1"]
        want = [str(ref.drawer_count(2, r)) for r in (0, 1, 2)]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code} for {argv}")
            rows = [line.split() for line in out.splitlines() if line.strip()[:1].isdigit()]
            expect([row[2] for row in rows] == want, f"drawer query counts for {argv}")

        return Item("cli.complexity", lambda: run_cli(argv), check)

    def _golden_item(self, name: str) -> Item:
        def check(result):
            code, out = result
            expect(code == 0 and out == self.golden[name], f"output differs from golden {name}")

        return Item("cli.golden", lambda: run_cli(GOLDEN_COMMANDS[name]), check)

    def _epr_item(self, rng, mode, path, fmt) -> Item:
        argv = ["epr", "--mode", mode, "--path", path, "--outcome", rng.choice(["00", "01", "10", "11"]),
                "--seed", str(rng.randrange(1 << 31)), "--output", fmt]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code} for {argv}")
            values = scalars(out, fmt)
            expect(float(values["emulation_max_deviation"]) <= 1e-10, f"emulation deviation for {argv}")

        return Item("cli.epr", lambda: run_cli(argv), check)

    def _process_item(self, rng, command, n, unitary, fmt) -> Item:
        settings = [ref.bits(b, n) for b in range(1 << n)]
        b = rng.choice(settings)
        final = rng.choice(ref.subspaces(n, rng.randrange(1, n)))
        init = ref.first_complement(n, final)
        names = {"A": ",".join(ref.bits(m, n) for m in final), "B": ",".join(ref.bits(m, n) for m in init)}
        instance = f"B:[{names['B']}]/A:[{names['A']}]@{b}"
        branches = sorted(ref.parity_class(settings, final, b))
        argv = [command, "--n", str(n), "--outcome", b, "--unitary", unitary, "--output", fmt]
        if command == "grover-solver":
            argv += ["--split", f"A:[{names['A']}]"]
        elif command == "grover-external":
            argv += ["--split", f"B:[{names['B']}]/A:[{names['A']}]"]
            branches = None
        elif rng.random() < 0.5:
            rank = rng.randrange(0, n + 1)
            argv += ["--final-rank", str(rank)]
            instance = None
            branches = sorted(ref.parity_class(settings, [1 << i for i in range(rank)], b))
        else:
            perspective = rng.choice(["solver", "external"])
            argv += ["--split", f"B:[{names['B']}]/A:[{names['A']}]", "--perspective", perspective]
            if perspective == "external":
                branches = [b]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code} for {argv}")
            values = scalars(out, fmt)
            if instance is not None:
                expect(values.get("instance") == instance, f"instance name for {argv}")
            if branches is not None:
                expect(literal(values.get("branch_settings")) == branches, f"branch settings for {argv}")
            if fmt == "json" and command == "grover-external":
                rows = json.loads(out)["tables"]["external description / t2 output"]
                mass = {(r["b"], r["a"]): r["re"] ** 2 + r["im"] ** 2 for r in rows}
                # the t2 output is a unit vector concentrated on (b, b)
                expect(mass.get((b, b), 0.0) >= 1 - 1e-9, f"t2 output for {argv}")

        return Item(f"cli.{command}", lambda: run_cli(argv), check)

    def _search_item(self, rng, n: int, variant: str) -> Item:
        fmt = rng.choice(["table", "json"])
        argv = ["search", "--n", str(n), "--target", ref.bits(rng.randrange(1 << n), n),
                "--variant", variant, "--output", fmt]

        def check(result):
            code, out = result
            expect(code == 0, f"exit code {code} for {argv}")
            if fmt == "json":
                values = json.loads(out)["scalars"]
                iterations, success = values["iterations"], values["success_probability"]
            else:
                lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
                iterations = int(lines["iterations (queries)"])
                success = float(lines["success probability"])
            if variant == "long":
                expect(iterations == ref.long_iterations(n), f"iterations for {argv}")
                expect(success >= 1 - 1e-9, f"success {success} for {argv}")
            else:
                expect(iterations == ref.grover_iterations(n), f"iterations for {argv}")
                expect(abs(success - ref.grover_success(n)) <= 1e-9, f"success {success} for {argv}")

        return Item("cli.search", lambda: run_cli(argv), check)

    def _measure_item(self, rng) -> Item:
        amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(16)])
        state = qcore.StateVector(qcore.RegisterLayout(2, 2), amps)
        register = rng.choice("BA")
        basis = rng.choice(ref.subspaces(2, rng.randrange(1, 3)))
        obs = observable(register, basis, 2)
        values = [(i // 4 if register == "B" else i % 4) for i in range(16)]
        keys = [tuple(ref.parity(m, v) for m in basis) for v in values]
        seeds = [rng.randrange(1 << 31) for _ in range(self.shots)]

        def check(records):
            expect(len(records) == len(seeds), "missing measurement records")
            for rec in records:
                keep = np.array([key == rec.outcome.bits for key in keys])
                expect(keep.any() and np.abs(amps[keep]).sum() > 0, f"impossible outcome {rec.outcome.bits}")
                expect(np.array_equal(rec.post_state.amps, np.where(keep, amps, 0)), "post-measurement state")

        return Item("measure", lambda: [measure.measure(state, obs, seed=s) for s in seeds], check)


WORKLOADS = {"zigzag-n5": ZigzagN5, "advice-tree": AdviceTree, "small-calls": SmallCalls}
