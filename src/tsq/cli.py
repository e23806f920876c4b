"""Scenario runner and reporting front end.

Subcommands reproduce the zigzag tables as text, emit machine-readable JSON
reports, and ingest user-defined oracle problems from a JSON file.  Exit
codes: 0 success, 2 configuration/schema error, 3 numerical-invariant
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import __version__, gf2, render
from .complexity import grover_problem, k_sweep, OracleProblemSpec
from .epr import direct_trace, emulation_check, make_scenario, ts_trace
from .grover import SearchOracle, grover_process, run_grover, run_long
from .measure import ParityObservable, full_observable, project, project_forced
from .qcore import InvariantError, RegisterLayout, StateVector, max_abs_diff
from .tsym import (
    SelectionSplit,
    complete_split,
    external_instance,
    selection_is_injective,
    solver_instance,
    uneven_instance,
    xor_process,
)

SCHEMA_VERSION = 1
EPR_BITS = 2  # register width of the redundant EPR encoding
EPR_SPLIT = SelectionSplit(ParityObservable("B", ("10",)), ParityObservable("A", ("01",)))


class SchemaError(ValueError):
    """Problem file does not match the expected schema."""


@dataclass
class Report:
    """One scenario's result.  Each table is a builder of its text lines,
    called with the report's state formatter, and its named states; a report
    renders only the format asked for."""

    scenario: dict
    seed: Optional[int]
    tables: dict = field(default_factory=dict)  # label -> (text-lines builder, {name: state})
    scalars: dict = field(default_factory=dict)

    def add_table(
        self, label: str, lines: Callable[[render.Show], list[str]], states: Optional[dict] = None
    ) -> None:
        self.tables[label] = (lines, states or {})

    def to_json(self) -> str:
        """The bytes of ``json.dumps(payload, indent=2, sort_keys=True)``.  The
        values whose keys sort before "tables" are dumped by the stdlib as one
        object; the tables follow, each distinct state's amplitude rows written
        once by ``render.state_rows``, and then the tool version."""
        keyed = {
            f"{label} / {name}": state
            for label, (_, states) in self.tables.items()
            for name, state in states.items()
        }
        # a state shown in two tables of the report is scanned once
        distinct = {id(state): state for state in keyed.values()}
        rows = {key: render.state_rows(state) for key, state in distinct.items()}
        entries = ",\n".join(f"    {json.dumps(key)}: {rows[id(keyed[key])]}" for key in sorted(keyed))
        tables = f"{{\n{entries}\n  }}" if entries else "{}"
        head = json.dumps(
            {"scalars": self.scalars, "scenario": self.scenario,
             "schema_version": SCHEMA_VERSION, "seed": self.seed},
            indent=2, sort_keys=True,
        )[:-2]  # strip the closing "\n}"
        return f'{head},\n  "tables": {tables},\n  "tool_version": {json.dumps(__version__)}\n}}'

    def to_text(self) -> str:
        shown: dict[int, tuple[StateVector, str]] = {}

        def show(state: StateVector) -> str:
            # a state shown in two tables of the report is formatted once; the
            # entry holds the state, so its id is not reused during the call
            entry = shown.get(id(state))
            if entry is None:
                entry = shown[id(state)] = (state, render.format_state(state))
            return entry[1]

        chunks = []
        for label, (lines, _) in self.tables.items():
            chunks.append(f"## {label}")
            chunks.extend(lines(show))
            chunks.append("")
        for key in sorted(self.scalars):
            chunks.append(f"{key}: {self.scalars[key]}")
        return "\n".join(chunks).rstrip() + "\n"


def _add_instance(report: Report, inst) -> None:
    """The zigzag table of one instance, headed by its split's part names."""
    left, right = inst.split.initial_part.name(), inst.split.final_part.name()
    report.add_table(
        f"{inst.perspective} zigzag",
        lambda show: render.zigzag_table(left, right, inst.walk, show),
        dict(inst.trajectory),
    )
    report.scalars["instance"] = inst.name()


def parse_split(process, text: str) -> SelectionSplit:
    """Parse "B:[10]/A:[01]" or just "A:[01]".

    The text names A and optionally B, once each, and every mask is n
    characters of 0 and 1.  Each part's masks are nonzero and
    GF(2)-independent, checked here for the final part first and then for
    the initial one; ``ParityObservable`` does not check them again.  A
    missing initial part is the final part's first complement in sorted
    basis order (``complete_split``), built from the pivots of its reduced
    basis, however the masks name the subspace; a given one must pass
    ``selection_is_injective``.
    """
    n = process.n
    parts = {}
    for chunk in text.split("/"):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise ValueError(f"bad split syntax {text!r}")
        reg, masks = chunk.split(":", 1)
        reg = reg.strip().upper()
        masks = masks.strip()
        if not (masks.startswith("[") and masks.endswith("]")):
            raise ValueError(f"bad split syntax {text!r}")
        if reg not in ("A", "B") or reg in parts:
            raise ValueError(f"split {text!r} must name register A and optionally B, once each")
        inner = masks[1:-1].strip()  # "[]" is rank 0; an empty entry fails the width check
        mask_list = tuple(m.strip() for m in inner.split(",")) if inner else ()
        if any(len(m) != n or m.strip("01") for m in mask_list):
            raise ValueError(f"split masks must be {n} characters of 0 and 1")
        parts[reg] = mask_list
    if "A" not in parts:
        raise ValueError("split must name the final part, e.g. A:[01]")
    for reg in ("A", "B"):  # the final part is checked first
        ints = [int(m, 2) for m in parts.get(reg, ())]
        if 0 in ints:
            raise ValueError("parity masks must be nonzero")
        if not gf2.is_independent(ints):
            raise ValueError("parity masks must be GF(2)-linearly independent")
    final_part = ParityObservable("A", parts["A"])
    if "B" not in parts:
        return complete_split(process, final_part)
    split = SelectionSplit(ParityObservable("B", parts["B"]), final_part)
    if not selection_is_injective(process, split):
        raise ValueError(f"split {text!r} is redundant (selection not injective)")
    return split


def _check_outcome(bits: str, n: int) -> None:
    """Refuse an outcome that is not an n-bit binary value, after the layout
    check; text that is not binary keeps the message of ``int(bits, 2)``."""
    RegisterLayout(n, n)
    int(bits, 2)
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError(f"outcome {bits!r} is not a value of the {n}-bit register")


_PROCESSES = {"xor": xor_process, "grover-long": grover_process}  # by --unitary


def _run_grover_external(params: dict) -> Report:
    process = _PROCESSES[params.get("unitary", "xor")](params["n"])
    b = params["outcome"]
    report = Report(scenario={"kind": "grover-external", **params}, seed=None)
    initial = process.initial_state
    full_b = full_observable(process.layout, "B")
    selected = project_forced(full_b, b, initial)
    # U_12 is controlled on B, so U_12 P_b = P_b U_12: the forward leg masked
    # to setting b, whose sector code under the full observable is b itself
    output = project(full_b, int(b, 2), process.forward)
    report.add_table(
        "external description",
        lambda show: render.zigzag_table("B", "A", (initial, selected, output, None, None), show),
        {"initial": initial, "t1 selected": selected, "t2 output": output},
    )
    if params.get("split") is not None:
        _add_instance(report, external_instance(process, b, parse_split(process, params["split"])))
    return report


def _run_grover_solver(params: dict) -> Report:
    process = _PROCESSES[params.get("unitary", "xor")](params["n"])
    b = params["outcome"]
    report = Report(scenario={"kind": "grover-solver", **params}, seed=None)
    initial = process.initial_state
    correlated = process.forward
    selected = project_forced(full_observable(process.layout, "A"), b, correlated)
    report.add_table(
        "relativized description",
        lambda show: render.zigzag_table("B", "A", (initial, None, correlated, selected, None), show),
        {"initial": initial, "t2 correlated": correlated, "t2 selected": selected},
    )
    if params.get("split") is not None:
        inst = solver_instance(process, b, parse_split(process, params["split"]))
        _add_instance(report, inst)
        report.add_table(
            "bottom line (backward)",
            lambda show: render.bottom_line_table(inst, show, "backward"),
            {"input": inst.bottom_line[0], "output": inst.bottom_line[1]},
        )
        report.add_table(
            "bottom line (forward)", lambda show: render.bottom_line_table(inst, show, "forward")
        )
        report.scalars["branch_settings"] = list(inst.branch_settings())
    return report


def _run_ts_instance(params: dict) -> Report:
    process = _PROCESSES[params.get("unitary", "xor")](params["n"])
    b = params["outcome"]
    report = Report(scenario={"kind": "ts-instance", **params}, seed=None)
    if params.get("final_rank") is not None:
        # the rank picks the canonical split and the solver's perspective itself
        if params.get("split") is not None:
            raise ValueError("--final-rank picks its own split; it cannot be combined with --split")
        if params.get("perspective") == "external":
            raise ValueError(
                "--final-rank builds a solver instance; it cannot be combined with --perspective external"
            )
        inst = uneven_instance(process, b, params["final_rank"])
    else:
        if params.get("split") is None:
            raise ValueError("ts-instance needs either --split or --final-rank")
        split = parse_split(process, params["split"])
        if params.get("perspective", "solver") == "external":
            inst = external_instance(process, b, split)
        else:
            inst = solver_instance(process, b, split)
    _add_instance(report, inst)
    report.scalars["branch_settings"] = list(inst.branch_settings())
    return report


def _run_epr(params: dict) -> Report:
    seed = params.get("seed")
    scenario = make_scenario(seed=seed)
    outcome = params["outcome"]
    mode = params.get("mode", "direct")
    path = params.get("path") or ("via-t0" if mode == "costa" else "direct")
    if mode == "costa" and path == "direct":
        raise ValueError("--mode costa runs the via-t0 path; --path direct contradicts it")
    report = Report(scenario={"kind": "epr", **params, "path": path}, seed=seed)
    via_t0 = path == "via-t0"
    if mode == "ts":
        parts = (EPR_SPLIT.initial_part.name(), EPR_SPLIT.final_part.name())
        trace = ts_trace(scenario, outcome, EPR_SPLIT, via_t0=via_t0)
    else:
        parts = ("B", "A")
        trace = direct_trace(scenario, outcome, via_t0=via_t0)
    report.add_table(
        f"{trace.kind} trace",
        lambda show: render.zigzag_table(*parts, trace.walk, show, via=via_t0),
        dict(trace.states),
    )
    report.scalars["emulation_max_deviation"] = emulation_check(scenario, outcome)
    if trace.kind in ("ts-direct", "ts-via-t0"):
        direct = direct_trace(scenario, outcome)
        report.scalars["bottom_line_vs_direct"] = max_abs_diff(
            trace.bottom_line[1], direct.bottom_line[1]
        )
    return report


def _run_complexity(params: dict) -> Report:
    if params["problem"] == "file" and not params.get("problem_file"):
        raise ValueError("--problem file requires --problem-file")
    if params["problem"] == "grover" and params.get("problem_file"):
        raise ValueError("--problem-file requires --problem file")
    if params.get("problem_file"):
        problem = load_problem(Path(params["problem_file"]))
    else:
        problem = grover_problem(params["n"])
    ks = params["k"]
    reports = k_sweep(problem, ks)
    report = Report(scenario={"kind": "complexity", **params, "problem": problem.name}, seed=None)

    def lines(_show):
        return [f"{'k':>6}  {'rank':>4}  {'worst_case':>10}  masks"] + [
            f"{r.k:>6g}  {r.advice_rank:>4}  {r.worst_case:>10}  [{','.join(r.masks) or '-'}]"
            for r in reports
        ]

    report.add_table("complexity", lines)
    report.scalars["reports"] = [
        {
            "k": r.k,
            "advice_rank": r.advice_rank,
            "masks": list(r.masks),
            "per_class": [
                {"parities": list(bits), "queries": count} for bits, count in r.per_class
            ],
            "worst_case": r.worst_case,
            "predicted_quantum": r.predicted_quantum,
        }
        for r in reports
    ]
    return report


def _run_search(params: dict) -> Report:
    oracle = SearchOracle(params["n"], params["target"])
    run = run_long(oracle) if params.get("variant", "long") == "long" else run_grover(oracle)
    report = Report(scenario={"kind": "search", **params}, seed=None)
    report.scalars.update(
        {
            "variant": run.variant,
            "iterations": run.iterations,
            "phase": run.phase,
            "success_probability": run.success_probability,
            "query_count": run.query_count,
        }
    )
    report.add_table("search", lambda _show: [
        f"variant: {run.variant}",
        f"iterations (queries): {run.iterations}",
        f"phase: {run.phase:.12g}",
        f"success probability: {run.success_probability:.12g}",
    ])
    return report


_RUNNERS = {
    "grover-external": _run_grover_external,
    "grover-solver": _run_grover_solver,
    "ts-instance": _run_ts_instance,
    "epr": _run_epr,
    "complexity": _run_complexity,
    "search": _run_search,
}


def load_problem(path: Path) -> OracleProblemSpec:
    """Read an oracle problem from the JSON schema used by `complexity`.

    Only the JSON shape is checked here; the answer rows are flattened into
    (setting, query) pairs, and ``OracleProblemSpec`` checks that every
    answer and solution is present.  Any refusal is a SchemaError.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"problem file not found: {path}")
    except OSError as e:
        raise SchemaError(f"problem file cannot be read: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"problem file is not valid JSON: {e}")
    except RecursionError:
        raise SchemaError("problem file is nested too deeply to read")
    if not isinstance(data, dict):
        raise SchemaError("problem file must hold a JSON object")
    for key in ("settings", "queries", "answer", "solution"):
        if key not in data:
            raise SchemaError(f"problem file missing required key {key!r}")
    for key in ("settings", "queries"):
        if not isinstance(data[key], list) or not all(isinstance(x, str) for x in data[key]):
            raise SchemaError(f"{key!r} must be a list of strings")
    for key in ("answer", "solution"):
        if not isinstance(data[key], dict):
            raise SchemaError(f"{key!r} must be an object")
    for b, row in data["answer"].items():
        if not isinstance(row, dict):
            raise SchemaError(f"answer row of setting {b!r} must be an object")
    name = data.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    try:
        return OracleProblemSpec(
            name=name,
            settings=data["settings"],
            queries=data["queries"],
            answer={(b, q): str(v) for b, row in data["answer"].items() for q, v in row.items()},
            solution={b: str(v) for b, v in data["solution"].items()},
        )
    except ValueError as e:
        raise SchemaError(str(e))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=("table", "json"), default="table")

    p = sub.add_parser("grover-external", help="external (setter-side) description and zigzag")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--outcome", required=True, help="setting value, e.g. 01")
    p.add_argument("--split", help='selection split, e.g. "B:[10]/A:[01]"')
    p.add_argument("--unitary", choices=tuple(_PROCESSES), default="xor")
    common(p)

    p = sub.add_parser("grover-solver", help="solver-side description and zigzag")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--outcome", required=True)
    p.add_argument("--split", help='selection split, e.g. "A:[01]"')
    p.add_argument("--unitary", choices=tuple(_PROCESSES), default="xor")
    common(p)

    p = sub.add_parser("ts-instance", help="one time-symmetrization instance")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--outcome", required=True)
    p.add_argument("--perspective", choices=("external", "solver"), default="solver")
    p.add_argument("--split")
    p.add_argument("--final-rank", type=int, dest="final_rank")
    p.add_argument("--unitary", choices=tuple(_PROCESSES), default="xor")
    common(p)

    p = sub.add_parser("epr", help="nonlocality traces on the redundant encoding")
    p.add_argument("--mode", choices=("direct", "costa", "ts"), default="direct")
    p.add_argument("--path", choices=("direct", "via-t0"))
    p.add_argument("--outcome", required=True)
    p.add_argument("--seed", type=int)
    common(p)

    p = sub.add_parser("complexity", help="advanced-knowledge query-count predictions")
    p.add_argument("--problem", choices=("grover", "file"), default="grover")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=float, action="append", required=True)
    p.add_argument("--problem-file", dest="problem_file")
    common(p)

    p = sub.add_parser("search", help="run the Grover or zero-failure search network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--variant", choices=("long", "grover"), default="long")
    common(p)

    return parser


_PARSER = _build_parser()  # built once; parse_args keeps no state between calls


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in ("command", "output") and v is not None}
    try:
        if "outcome" in params:
            _check_outcome(params["outcome"], params.get("n", EPR_BITS))
        report = _RUNNERS[args.command](params)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"numerical invariant failure: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(report.to_json() + "\n" if args.output == "json" else report.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
