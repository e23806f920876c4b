"""Command line front end: golden outputs, JSON determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsq import __version__, cli, complexity, gf2, render
from tsq.cli import SchemaError, load_problem, main, parse_split
from tsq.complexity import decision_tree_complexity
from tsq.qcore import RENDER_TOL, RegisterLayout, StateVector
from tsq.tsym import enumerate_splits, xor_process
from conftest import drawer_problem, observable_refusal, setting_values, span

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
PROBLEMS = SRC / "tsq" / "problems"
XOR_PROCESSES = {n: xor_process(n) for n in range(1, 5)}

GOLDEN_COMMANDS = {
    "grover-external-n2-01.txt": ["grover-external", "--n", "2", "--outcome", "01"],
    "grover-solver-n2-01.txt": ["grover-solver", "--n", "2", "--outcome", "01"],
    "zigzag-external-n2-01.txt": [
        "ts-instance", "--n", "2", "--outcome", "01",
        "--split", "B:[10]/A:[01]", "--perspective", "external",
    ],
    "zigzag-solver-n2-01.txt": [
        "grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[01]",
    ],
    "epr-direct-01.txt": ["epr", "--mode", "direct", "--outcome", "01"],
    "epr-costa-01.txt": ["epr", "--mode", "costa", "--outcome", "01"],
    "epr-ts-direct-01.txt": ["epr", "--mode", "ts", "--path", "direct", "--outcome", "01"],
    "epr-ts-via-t0-01.txt": ["epr", "--mode", "ts", "--path", "via-t0", "--outcome", "01"],
}


def _refuse_to_render(*args, **kwargs):
    raise AssertionError("rendered a format that was not asked for")


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_output(golden_name, capsys, monkeypatch):
    # a text report builds no JSON rows
    monkeypatch.setattr(render, "state_rows", _refuse_to_render)
    assert main(GOLDEN_COMMANDS[golden_name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden_name).read_text()


RENDER_ONCE_COMMANDS = [
    *GOLDEN_COMMANDS.values(),
    ["grover-external", "--n", "3", "--outcome", "110", "--split", "B:[100,010]/A:[001]"],
    ["grover-solver", "--n", "3", "--outcome", "011", "--split", "A:[011,101]", "--unitary", "grover-long"],
    ["ts-instance", "--n", "3", "--outcome", "101", "--final-rank", "2"],
    ["ts-instance", "--n", "2", "--outcome", "10", "--split", "A:[11]", "--perspective", "solver"],
    ["epr", "--mode", "ts", "--path", "via-t0", "--outcome", "11", "--seed", "7"],
    ["complexity", "--n", "2", "--k", "0", "--k", "0.5"],
    ["complexity", "--problem", "file", "--problem-file", str(PROBLEMS / "grover-n2-reduced.json"), "--k", "1"],
    ["search", "--n", "5", "--target", "01101", "--variant", "grover"],
]


@pytest.mark.parametrize("argv", RENDER_ONCE_COMMANDS, ids=" ".join)
def test_report_renders_only_the_requested_format(argv, capsys, monkeypatch):
    # a text report builds no JSON rows, and a JSON report formats no state
    for fmt, unused in (("table", "state_rows"), ("json", "format_state")):
        assert main([*argv, "--output", fmt]) == 0
        want = capsys.readouterr().out
        with monkeypatch.context() as patched:
            patched.setattr(render, unused, _refuse_to_render)
            assert main([*argv, "--output", fmt]) == 0
        assert capsys.readouterr().out == want


def reference_state_rows(s: StateVector) -> list[dict]:
    """The amplitude rows of a JSON report as the stdlib encoder takes them."""
    return [
        {"b": label.b_bits, "a": label.a_bits, "re": amp.real, "im": amp.imag}
        for label, amp in s.terms()
    ]


def reference_json(report: cli.Report) -> str:
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": report.scenario,
        "seed": report.seed,
        "tables": {
            f"{label} / {name}": reference_state_rows(state)
            for label, (_, states) in report.tables.items()
            for name, state in states.items()
        },
        "scalars": report.scalars,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def json_reports(monkeypatch, argv) -> tuple[str, list]:
    """Standard output of ``main`` on ``argv`` in JSON, and the reports it wrote."""
    reports, to_json = [], cli.Report.to_json
    monkeypatch.setattr(cli.Report, "to_json", lambda self: reports.append(self) or to_json(self))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--output", "json"]) == 0
    return out.getvalue(), reports


N5_JSON_COMMANDS = [
    [command, "--n", "5", "--outcome", "01101", *extra, "--unitary", unitary]
    for unitary in ("xor", "grover-long")
    for command, extra in (
        ("ts-instance", ["--final-rank", "2"]),
        ("grover-external", ["--split", "B:[10000,01000]/A:[00111,00011,00001]"]),
    )
]


@pytest.mark.parametrize("argv", RENDER_ONCE_COMMANDS + N5_JSON_COMMANDS, ids=" ".join)
def test_json_report_is_the_stdlib_encoding(argv, monkeypatch):
    # the report writes its rows itself, byte for byte as the stdlib indent encoder
    out, reports = json_reports(monkeypatch, argv)
    assert out == reference_json(*reports) + "\n"


@pytest.mark.parametrize("argv", [
    ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[01]"],
    ["epr", "--mode", "ts", "--outcome", "01"],
])
def test_json_report_writes_each_state_once(argv, monkeypatch):
    scanned, state_rows = [], render.state_rows
    monkeypatch.setattr(render, "state_rows", lambda s: scanned.append(s) or state_rows(s))
    _, (report,) = json_reports(monkeypatch, argv)
    shown = [s for _, states in report.tables.values() for s in states.values()]
    assert sorted(map(id, scanned)) == sorted({id(s) for s in shown})


@pytest.mark.parametrize("argv", RENDER_ONCE_COMMANDS, ids=" ".join)
def test_text_report_formats_each_state_once(argv, capsys, monkeypatch):
    # a state shown in two tables of one text report is formatted once
    formatted, format_state = [], render.format_state
    monkeypatch.setattr(render, "format_state", lambda s: formatted.append(s) or format_state(s))
    assert main([*argv, "--output", "table"]) == 0
    capsys.readouterr()
    assert len(formatted) == len({id(s) for s in formatted})


# parts of amplitudes: signed zeros, plain values, and magnitudes whose repr
# takes an exponent; rendered_states also puts amplitudes at the threshold
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-5, -1e-5, 3e17, -3e17]) | st.floats(
    -1e6, 1e6, allow_nan=False
)


@st.composite
def rendered_states(draw):
    layout = RegisterLayout(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    amps = np.array(
        [complex(draw(PARTS), draw(PARTS)) for _ in range(layout.dim)], dtype=np.complex128
    )
    if draw(st.booleans()):
        # one amplitude just above or below RENDER_TOL * max(norm, 1), on a signed axis
        i = draw(st.integers(0, layout.dim - 1))
        amps[i] = 0
        scale = max(float(np.linalg.norm(amps)), 1.0)
        size = RENDER_TOL * scale * draw(st.sampled_from([1 - 1e-6, 1 + 1e-6]))
        amps[i] = size * draw(st.sampled_from([1, -1, 1j, -1j]))
    return StateVector(layout, amps)


@settings(max_examples=300, deadline=None)
@given(rendered_states())
@example(StateVector(RegisterLayout(1, 1), np.zeros(4)))  # no kept terms
@example(StateVector(RegisterLayout(1, 1), [1e-10, -1e-10j, 0, 0]))  # none above the threshold
@example(StateVector(RegisterLayout(1, 2), [complex(-0.0, 1e-5), complex(3e17, -0.0), 0, 1, 0, 0, 0, 0]))
def test_state_rows_are_the_stdlib_encoding(state):
    table = '{\n  "tables": {\n    "t": ' + render.state_rows(state) + "\n  }\n}"
    reference = {"tables": {"t": reference_state_rows(state)}}
    assert table == json.dumps(reference, indent=2, sort_keys=True)


def test_json_report_is_deterministic(capsys):
    argv = ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[01]", "--output", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["schema_version"] == 1
    assert payload["scalars"]["branch_settings"] == ["01", "11"]
    rows = payload["tables"]["bottom line (backward) / input"]
    assert sorted((r["b"], r["a"], r["re"]) for r in rows) == [
        ("01", "00", 1.0),
        ("11", "00", 1.0),
    ]


def test_epr_json_scalars(capsys):
    assert main(["epr", "--mode", "ts", "--outcome", "01", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scalars"]["emulation_max_deviation"] <= 1e-12
    assert payload["scalars"]["bottom_line_vs_direct"] <= 1e-12


def test_search_command(capsys):
    assert main(["search", "--n", "4", "--target", "0110", "--variant", "long"]) == 0
    out = capsys.readouterr().out
    assert "iterations (queries): 3" in out
    assert "success probability: 1" in out


def test_complexity_command(capsys):
    assert main(["complexity", "--problem", "grover", "--n", "2", "--k", "0", "--k", "0.5", "--k", "1"]) == 0
    out = capsys.readouterr().out
    rows = [l.split() for l in out.splitlines() if l.strip()[:1].isdigit()]
    assert [r[2] for r in rows] == ["3", "1", "0"]


def test_exit_code_config_errors(capsys):
    # split syntax, redundant split, missing split, oversized instance
    assert main(["grover-solver", "--n", "2", "--outcome", "01", "--split", "A=01"]) == 2
    assert main(["grover-solver", "--n", "2", "--outcome", "01", "--split", "B:[01]/A:[01]"]) == 2
    assert main(["ts-instance", "--n", "2", "--outcome", "01"]) == 2
    assert main(["complexity", "--problem", "grover", "--n", "9", "--k", "0"]) == 2
    assert main(["grover-external", "--n", "2", "--outcome", "7"]) == 2
    assert main(["complexity", "--problem", "file", "--k", "0"]) == 2
    # the drawer problem with a problem file, once a silent run of the file
    assert main(["complexity", "--problem", "grover", "--n", "3",
                 "--problem-file", str(PROBLEMS / "grover-n2.json"), "--k", "0.5"]) == 2
    # the costa mode always runs via t0
    assert main(["epr", "--mode", "costa", "--path", "direct", "--outcome", "01"]) == 2
    # outcomes of the wrong width or alphabet, once a KeyError or a zero-padded value
    assert main(["grover-solver", "--n", "2", "--outcome", "012"]) == 2
    assert main(["ts-instance", "--n", "2", "--outcome", "1", "--final-rank", "1"]) == 2
    assert main(["grover-external", "--n", "2", "--outcome", "1"]) == 2
    assert main(["epr", "--outcome", "0"]) == 2
    assert main(["epr", "--mode", "ts", "--outcome", "011"]) == 2
    # sizes refused before anything is allocated
    assert main(["search", "--n", "30", "--target", "0" * 30]) == 2
    assert main(["complexity", "--n", "40", "--k", "0.5"]) == 2
    capsys.readouterr()


def test_search_past_its_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(complexity, "DEFAULT_SEARCH_BUDGET", 10)
    assert main(["complexity", "--problem", "grover", "--n", "5", "--k", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: search budget of 10 steps spent (candidate sets counted: 9, advice bases scanned: 1)\n"
    )


def test_drawer_problem_needs_one_bit(capsys):
    assert main(["complexity", "--n", "-3", "--k", "0.5"]) == 2
    assert capsys.readouterr().err == "error: the drawer problem needs at least one bit, got n=-3\n"


def test_final_rank_refuses_a_split_and_the_external_perspective(capsys):
    # the rank picks the canonical split and always builds a solver instance
    argv = ["ts-instance", "--n", "2", "--outcome", "01", "--final-rank", "1"]
    for extra, conflict in (
        (["--split", "A:[01]"], "--split"),
        (["--split", "B:[10]/A:[01]", "--perspective", "solver"], "--split"),
        (["--perspective", "external"], "--perspective external"),
        (["--split", ""], "--split"),
    ):
        assert main([*argv, *extra]) == 2
        assert f"cannot be combined with {conflict}\n" in capsys.readouterr().err
    assert main([*argv, "--perspective", "solver"]) == 0
    assert "solver zigzag" in capsys.readouterr().out


def test_non_monotone_sweep_exits_3(monkeypatch, capsys):
    # a query count that grows with k breaks an invariant: exit 3, no traceback
    predict = complexity.advanced_knowledge_prediction

    def rising(problem, k):
        return dataclasses.replace(predict(problem, k), worst_case=round(k * 10))

    monkeypatch.setattr(complexity, "advanced_knowledge_prediction", rising)
    assert main(["complexity", "--problem", "grover", "--n", "2", "--k", "0", "--k", "1"]) == 3
    assert "worst-case count increased with k" in capsys.readouterr().err


def test_non_monotone_sweep_is_checked_in_ascending_k(monkeypatch, capsys):
    # counts 1, 2, 0 at k = 0, 0.5, 1: given as 0.5, 0, 1, no neighbours in
    # that order rise with k, but the count rises from k = 0 to k = 0.5
    predict = complexity.advanced_knowledge_prediction
    counts = {0.0: 1, 0.5: 2, 1.0: 0}

    def unsorted(problem, k):
        return dataclasses.replace(predict(problem, k), worst_case=counts[k])

    monkeypatch.setattr(complexity, "advanced_knowledge_prediction", unsorted)
    argv = ["complexity", "--problem", "grover", "--n", "2", "--k", "0.5", "--k", "0", "--k", "1"]
    assert main(argv) == 3
    assert "worst-case count increased with k: 2 at k=0.5 > 1 at k=0" in capsys.readouterr().err


@pytest.mark.parametrize("unitary", ["xor", "grover-long"])
def test_ts_instance_n7_runs_with_block_operators(unitary, capsys):
    # a dense 2^14 x 2^14 solving unitary would take 4.3 GB; one 2^7 x 2^7 network fits easily
    outcome = "0110101"
    argv = ["ts-instance", "--n", "7", "--outcome", outcome, "--final-rank", "3",
            "--unitary", unitary, "--output", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    # final part: the low 3 bits of A, so the settings that agree with the outcome there survive
    low = int(outcome, 2) & 0b111
    expected = [format(b, "07b") for b in range(1 << 7) if b & 0b111 == low]
    assert payload["scalars"]["branch_settings"] == expected


@pytest.mark.parametrize("unitary", ["xor", "grover-long"])
def test_ts_instance_n8_stores_one_network(unitary, capsys):
    # n=8 is the largest size under the default cap; a block per setting
    # would take 256 networks, 268 MB, before any state is built
    argv = ["ts-instance", "--n", "8", "--outcome", "01101001", "--final-rank", "3",
            "--unitary", unitary, "--output", "json"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(capsys.readouterr().out)["scalars"]["branch_settings"]) == 32
    assert peak < 32 * 2**20


def test_seeded_epr_is_deterministic(capsys):
    argv = ["epr", "--mode", "costa", "--outcome", "01", "--seed", "1", "--output", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["seed"] == 1


MASK_ERROR = "error: split masks must be 2 characters of 0 and 1\n"


@pytest.mark.parametrize("split, message", [
    # a mask of another width, or not binary, gets the one mask message
    ("A:[011]", MASK_ERROR),
    ("A:[100]", MASK_ERROR),
    ("B:[100]/A:[01]", MASK_ERROR),
    ("B:[10]/A:[011]", MASK_ERROR),
    ("A:[0x]", MASK_ERROR),
    # an empty mask entry is a mask of width 0
    ("A:[01,,]", MASK_ERROR),
    ("A:[,01]", MASK_ERROR),
    ("B:[10,]/A:[01]", MASK_ERROR),
    ("A:[ , ]", MASK_ERROR),
    # another register, or one named twice, gets the one register message
    ("C:[10]/A:[01]", "error: split 'C:[10]/A:[01]' must name register A and optionally B, once each\n"),
    ("A:[10]/A:[01]", "error: split 'A:[10]/A:[01]' must name register A and optionally B, once each\n"),
    ("A:[10]/a:[01]", "error: split 'A:[10]/a:[01]' must name register A and optionally B, once each\n"),
])
def test_split_text_is_checked_where_it_enters(split, message, capsys):
    assert main(["ts-instance", "--n", "2", "--outcome", "01", "--split", split]) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", ["grover-external", "grover-solver", "ts-instance"])
def test_empty_split_is_refused(command, capsys):
    # an explicit empty split was once taken as no split at all
    assert main([command, "--n", "2", "--outcome", "01", "--split", ""]) == 2
    assert capsys.readouterr() == ("", "error: bad split syntax ''\n")


def test_parse_split_auto_complement():
    process = xor_process(2)
    split = parse_split(process, "A:[01]")
    assert split.initial_part.masks == ("10",)
    split2 = parse_split(process, "B:[11]/A:[01]")
    assert split2.initial_part.masks == ("11",)
    with pytest.raises(ValueError):
        parse_split(process, "B:[10]")  # final part is mandatory
    # an empty list is the rank-0 part, with or without blanks inside
    for text in ("A:[]", "A:[ ]"):
        assert parse_split(process, text).final_part.masks == ()


@st.composite
def mask_splits(draw) -> tuple[int, dict, str]:
    """Split text at n <= 4 whose parts may hold zero, repeated and dependent
    masks, in either text order; the final part may be missing."""
    n = draw(st.integers(1, 4))
    mask_lists = st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1)
    named = draw(st.sampled_from(["A", "B", "AB"]))
    parts = {reg: [format(m, f"0{n}b") for m in draw(mask_lists)] for reg in named}
    chunks = [f"{reg}:[{','.join(masks)}]" for reg, masks in parts.items()]
    if draw(st.booleans()):
        chunks.reverse()
    return n, parts, "/".join(chunks)


def reference_split_refusal(n: int, parts: dict, text: str) -> Optional[str]:
    """The checks of a split's parts as the checked observable constructor
    made them, the final part first, and then the injectivity of a given
    initial part; None for a split that parses."""
    if "A" not in parts:
        return "split must name the final part, e.g. A:[01]"
    for reg in ("A", "B"):
        message = observable_refusal(parts.get(reg, ()))
        if message:
            return message
    masks = parts.get("B", []) + parts["A"]
    if "B" in parts and len(span(int(m, 2) for m in masks)) != 1 << n:
        return f"split {text!r} is redundant (selection not injective)"
    return None


@settings(max_examples=400, deadline=None)
@given(mask_splits())
@example((2, {"B": ["00"]}, "B:[00]"))
@example((2, {"A": ["01", "10", "11"], "B": ["00"]}, "B:[00]/A:[01,10,11]"))
@example((2, {"A": ["11"], "B": ["00"]}, "A:[11]/B:[00]"))
@example((2, {"A": [], "B": ["01", "01"]}, "B:[01,01]/A:[]"))
def test_parse_split_refuses_like_the_checked_constructor(case):
    n, parts, text = case
    message = reference_split_refusal(n, parts, text)
    if message is None:
        split = parse_split(XOR_PROCESSES[n], text)
        assert split.final_part.masks == tuple(parts["A"])
        assert "B" not in parts or split.initial_part.masks == tuple(parts["B"])
        return
    with pytest.raises(ValueError) as err:
        parse_split(XOR_PROCESSES[n], text)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parse_split_completes_like_enumerate_splits(n):
    # for every final subspace, auto-completion picks the initial part that
    # enumerate_splits pairs with it, whichever basis names the subspace
    process = xor_process(n)
    for rank in range(n + 1):
        for split in enumerate_splits(process, rank):
            masks = [gf2.bits_to_mask(m) for m in split.final_part.masks]
            # a non-reduced basis of the same subspace: fold each mask into the next
            folded = [m ^ masks[i + 1] if i + 1 < len(masks) else m for i, m in enumerate(masks)]
            for basis in (masks, masks[::-1], folded):
                bits = ",".join(gf2.mask_to_bits(m, n) for m in basis)
                completed = parse_split(process, f"A:[{bits}]")
                assert completed.initial_part == split.initial_part


def test_load_bundled_problems():
    p = load_problem(PROBLEMS / "grover-n2.json")
    assert decision_tree_complexity(p, p.settings) == 3
    reduced = load_problem(PROBLEMS / "grover-n2-reduced.json")
    assert decision_tree_complexity(reduced, reduced.settings) == 1


def test_load_problem_schema_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError):
        load_problem(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_problem(bad)
    # a missing answer row, entry or solution is refused by the spec, naming the setting
    complete = {
        "settings": ["00", "01"],
        "queries": ["00", "01"],
        "answer": {"00": {"00": "1", "01": "0"}, "01": {"00": "0", "01": "1"}},
        "solution": {"00": "00", "01": "01"},
    }
    incomplete = tmp_path / "incomplete.json"
    missing = "answer table missing entry for (setting, query) "
    for change, message in (
        ({"answer": {"00": complete["answer"]["00"]}}, missing + "('01', '00')"),
        ({"answer": {**complete["answer"], "01": {"00": "0"}}}, missing + "('01', '01')"),
        ({"solution": {"00": "00"}}, "solution missing for setting 01"),
    ):
        incomplete.write_text(json.dumps({**complete, **change}))
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_problem(incomplete)


@pytest.mark.parametrize("kind", ["directory", "deeply nested"])
def test_unreadable_problem_file_exits_2(kind, tmp_path, capsys):
    # a path that cannot be read as a file, or JSON nested past the recursion
    # limit of the decoder, is a schema error and not a traceback
    path = tmp_path
    if kind == "deeply nested":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["complexity", "--problem", "file", "--problem-file", str(path), "--k", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


VALID_PROBLEM = json.loads((PROBLEMS / "grover-n2-reduced.json").read_text())


@pytest.mark.parametrize("shape, change", [
    ("answer not an object", {"answer": []}),
    ("solution not an object", {"solution": "0111"}),
    ("answer row not an object", {"answer": {"01": ["00", "01", "10", "11"], "11": {}}}),
    # read character by character, this one would pass as settings "0" and "1"
    ("settings a string", {
        "settings": "01",
        "answer": {"0": {q: "0" for q in VALID_PROBLEM["queries"]},
                   "1": {q: "1" for q in VALID_PROBLEM["queries"]}},
        "solution": {"0": "0", "1": "1"},
    }),
    ("queries not strings", {"queries": [["00"], "01"]}),
    # any JSON value used to pass as the name, and was reported as the problem
    ("name not a string", {"name": [1, 2]}),
    ("file not an object", None),
])
def test_malformed_problem_file_exits_2(shape, change, tmp_path, capsys):
    # each shape used to escape as a traceback or be read character by character
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(5 if change is None else {**VALID_PROBLEM, **change}))
    with pytest.raises(SchemaError):
        load_problem(path)
    assert main(["complexity", "--problem", "file", "--problem-file", str(path), "--k", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("settings", [
    ["+1", "-1"], ["+1", "10"], ["-1", "10"], ["0_1", "1_0"], ["ab", "10"],
])
def test_non_binary_settings_exit_2(settings, tmp_path, capsys):
    # int(b, 2) reads "+1", "-1" and "0_1" as numbers; none is a bit string
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "settings": settings,
        "queries": ["q"],
        "answer": {b: {"q": str(i)} for i, b in enumerate(settings)},
        "solution": {b: b for b in settings},
    }))
    with pytest.raises(SchemaError, match="settings must be bitstrings of equal length"):
        load_problem(path)
    assert main(["complexity", "--problem", "file", "--problem-file", str(path), "--k", "1"]) == 2
    assert capsys.readouterr().err == "error: settings must be bitstrings of equal length\n"


def test_problem_file_via_cli(capsys, tmp_path):
    assert main([
        "complexity", "--problem", "file",
        "--problem-file", str(PROBLEMS / "grover-n2-reduced.json"),
        "--k", "0",
    ]) == 0
    assert "1" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main([
        "complexity", "--problem", "file", "--problem-file", str(bad), "--k", "0",
    ]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_confusable_file_exits_2_below_full_rank(fmt, capsys):
    # two of its settings answer both queries alike, so the pair closed form
    # gives way to the search, which finds no query to separate them
    path = str(Path(__file__).parent / "data" / "confusable-4x2.json")
    argv = ["complexity", "--problem", "file", "--problem-file", path, "--output", fmt]
    assert main([*argv, "--k", "0.5"]) == 2
    assert "no query distinguishes" in capsys.readouterr().err
    assert main([*argv, "--k", "1.0"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        worst = json.loads(out)["scalars"]["reports"][0]["worst_case"]
    else:
        (row,) = [line.split() for line in out.splitlines() if line.strip()[:1].isdigit()]
        worst = int(row[2])
    assert worst == 0


def test_24_setting_drawer_file_finishes(tmp_path):
    # a 24-setting drawer file at three advice ranks
    problem = drawer_problem(setting_values(5)[:24])
    path = tmp_path / "drawer-24.json"
    path.write_text(json.dumps({
        "name": "drawer-24",
        "settings": problem.settings,
        "queries": problem.queries,
        "answer": {b: {q: problem.answer[(b, q)] for q in problem.queries} for b in problem.settings},
        "solution": dict(problem.solution),
    }))
    done = subprocess.run(
        [sys.executable, "-m", "tsq.cli", "complexity", "--problem", "file",
         "--problem-file", str(path), "--k", "0", "--k", "0.2", "--k", "0.4", "--output", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    reports = json.loads(done.stdout)["scalars"]["reports"]
    assert [r["worst_case"] for r in reports] == [23, 11, 5]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_outcome_check_runs_after_the_layout_check(capsys):
    assert main(["grover-solver", "--n", "0", "--outcome", "0"]) == 2
    assert capsys.readouterr().err == "error: each register needs at least one bit\n"


# n = 9 is above the joint-dimension cap of the register commands and of the
# drawer problem's answer table, n = 40 far above it; "x" is
# not an integer at all
NS = st.sampled_from(["0", "1", "2", "3", "9", "40", "x"])
BITS = st.text("01", max_size=4) | st.text("012x-b_ ", min_size=1, max_size=4)
MASK_LISTS = st.lists(BITS, max_size=3).map(lambda masks: "[" + ",".join(masks) + "]")
SPLITS = st.one_of(
    MASK_LISTS.map(lambda a: f"A:{a}"),
    st.tuples(MASK_LISTS, MASK_LISTS).map(lambda ba: f"B:{ba[0]}/A:{ba[1]}"),
    st.text("AB:[]/01,", max_size=10),
)
KS = st.sampled_from(["-0.5", "0", "0.25", "0.5", "1", "1.5", "nan", "inf", "k"])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(
        ["grover-external", "grover-solver", "ts-instance", "epr", "complexity", "search"]
    ))
    argv = [command]
    if command in ("grover-external", "grover-solver", "ts-instance"):
        argv += ["--n", draw(NS), "--outcome", draw(BITS)]
        argv += ["--unitary", draw(st.sampled_from(["xor", "grover-long"]))]
        if draw(st.booleans()):
            argv += ["--split", draw(SPLITS)]
        if command == "ts-instance":
            if draw(st.booleans()):
                argv += ["--final-rank", str(draw(st.integers(-1, 4)))]
            argv += ["--perspective", draw(st.sampled_from(["solver", "external"]))]
    elif command == "epr":
        argv += ["--outcome", draw(BITS), "--mode", draw(st.sampled_from(["direct", "costa", "ts"]))]
        path = draw(st.sampled_from([None, "direct", "via-t0"]))
        seed = draw(st.sampled_from([None, -1, 0, 1]))
        argv += ["--path", path] if path else []
        argv += ["--seed", str(seed)] if seed is not None else []
    elif command == "complexity":
        argv += ["--n", draw(NS)]
        for k in draw(st.lists(KS, min_size=1, max_size=3)):
            argv += ["--k", k]
        problem = draw(st.sampled_from([None, "grover-n2.json", "missing.json"]))
        if problem:
            argv += ["--problem", "file", "--problem-file", str(PROBLEMS / problem)]
    else:
        argv += ["--n", draw(NS), "--target", draw(BITS)]
        argv += ["--variant", draw(st.sampled_from(["long", "grover"]))]
    return argv + ["--output", draw(st.sampled_from(["table", "json"]))]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_every_argv_exits_0_2_or_3(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the argv
            code = e.code
    assert code in (0, 2, 3), argv


def test_cli_runs_without_importing_scipy():
    # scipy.stats alone takes over a second to import, and no CLI path needs scipy
    code = """
import contextlib, io, sys
from tsq import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["epr", "--mode", "direct", "--outcome", "01", "--seed", "3"]) == 0
    assert cli.main(["complexity", "--n", "2", "--k", "0.5"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
