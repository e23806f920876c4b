"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tsq.cli import main
from tsq.complexity import grover_problem, k_sweep
from tsq.epr import direct_trace, emulation_check, make_scenario, ts_trace
from tsq.grover import SearchOracle, run_long
from tsq.measure import ParityObservable, full_observable
from tsq.qcore import max_abs_diff
from tsq.tsym import (
    SelectionSplit,
    enumerate_splits,
    recover_superposition,
    solver_instance,
    xor_process,
)
from conftest import SESSION_STARTED, basis_state, setting_values, state_from_terms

GOLDEN = Path(__file__).parent / "golden"


def test_criterion_1_table_reproduction(capsys):
    """The six process tables, amplitude-exact and byte-exact, in under 1 s."""
    started = time.perf_counter()
    process = xor_process(2)
    layout = process.layout
    split = SelectionSplit(ParityObservable("B", ("10",)), ParityObservable("A", ("01",)))

    # amplitude-exact state checks behind each table
    from tsq.measure import project
    from tsq.qcore import apply
    from tsq.tsym import external_instance

    uniform = state_from_terms(layout, [(b, "00", 1) for b in ("00", "01", "10", "11")])
    correlated = state_from_terms(layout, [(b, b, 1) for b in ("00", "01", "10", "11")])
    assert max_abs_diff(process.initial_state, uniform) <= 1e-12
    selected = project(full_observable(layout, "B"), 0b01, process.initial_state)
    assert max_abs_diff(apply(process.u12, selected), basis_state(layout, "01", "01")) <= 1e-12
    assert max_abs_diff(apply(process.u12, process.initial_state), correlated) <= 1e-12

    ext = external_instance(process, "01", split)
    assert max_abs_diff(
        ext.trajectory[1][1], state_from_terms(layout, [("00", "00", 1), ("01", "00", 1)])
    ) <= 1e-12
    assert max_abs_diff(ext.bottom_line[0], basis_state(layout, "01", "00")) <= 1e-12
    assert max_abs_diff(ext.bottom_line[1], basis_state(layout, "01", "01")) <= 1e-12

    sol = solver_instance(process, "01", split)
    two_in = state_from_terms(layout, [("01", "00", 1), ("11", "00", 1)])
    two_out = state_from_terms(layout, [("01", "01", 1), ("11", "11", 1)])
    assert max_abs_diff(sol.trajectory[2][1], two_out) <= 1e-12
    assert max_abs_diff(sol.bottom_line[0], two_in) <= 1e-12
    assert max_abs_diff(sol.bottom_line[1], two_out) <= 1e-12

    # byte-exact rendering against the checked-in golden files
    for golden, argv in (
        ("grover-external-n2-01.txt", ["grover-external", "--n", "2", "--outcome", "01"]),
        ("grover-solver-n2-01.txt", ["grover-solver", "--n", "2", "--outcome", "01"]),
        (
            "zigzag-external-n2-01.txt",
            ["ts-instance", "--n", "2", "--outcome", "01",
             "--split", "B:[10]/A:[01]", "--perspective", "external"],
        ),
        (
            "zigzag-solver-n2-01.txt",
            ["grover-solver", "--n", "2", "--outcome", "01", "--split", "A:[01]"],
        ),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(), golden

    assert time.perf_counter() - started < 1.0


def test_criterion_2_three_solver_instances():
    """Exactly three instances for n=2, b=01, pairing 01 with 11, 00, 10."""
    process = xor_process(2)
    splits = enumerate_splits(process, 1)
    assert len(splits) == 3
    branch_sets = {
        frozenset(solver_instance(process, "01", s).branch_settings()) for s in splits
    }
    assert branch_sets == {
        frozenset({"01", "11"}),
        frozenset({"01", "00"}),
        frozenset({"01", "10"}),
    }


def test_criterion_3_superposition_recovery():
    """Sum of solver bottom-line inputs is proportional to the initial state."""
    p2 = xor_process(2)
    report = recover_superposition(
        [
            solver_instance(p2, b, split)
            for split in enumerate_splits(p2, 1)
            for b in setting_values(2)
        ]
    )
    assert report.proportional
    assert abs(report.factor - 6) <= 1e-10
    assert report.max_deviation <= 1e-10

    # ceil/floor split at n=3: 7 final-part subspaces, 4 branches per setting
    p3 = xor_process(3)
    report3 = recover_superposition(
        [
            solver_instance(p3, b, split)
            for split in enumerate_splits(p3, 2)
            for b in setting_values(3)
        ]
    )
    assert report3.proportional
    assert abs(report3.factor - 28) <= 1e-10


def test_criterion_4_query_complexity_predictions():
    """Exact minimax counts for drawer search at n=2 to 8, in under 10 s."""
    started = time.perf_counter()
    counts2 = [r.worst_case for r in k_sweep(grover_problem(2), [0, 0.5, 1])]
    assert counts2 == [3, 1, 0]
    counts4 = [r.worst_case for r in k_sweep(grover_problem(4), [0, 0.5, 1])]
    assert counts4 == [15, 3, 0]
    for n, half in ((2, counts2[1]), (4, counts4[1])):
        assert half == 2 ** (n // 2) - 1
    # every rank-r advice class is a drawer over 2^(n - r) settings
    for n in (5, 6, 7, 8):
        reports = k_sweep(grover_problem(n), [r / n for r in range(n + 1)])
        assert [r.worst_case for r in reports] == [2 ** (n - r) - 1 for r in range(n + 1)]
    assert time.perf_counter() - started < 10.0


def test_criterion_5_search_certainty():
    """Zero-failure search: certainty at bounded iteration counts."""
    for n in (1, 2, 3, 4, 6, 8):
        run = run_long(SearchOracle(n, "0" * n))
        assert run.success_probability >= 1 - 1e-9, f"N={1 << n}"
        assert run.iterations <= math.ceil(math.pi * math.sqrt(1 << n) / 4) + 1
        if n == 2:
            assert run.query_count == 1


def test_criterion_6_epr_equivalences():
    """Direct vs via-t0 agreement, bottom-line identity, local emulation."""
    outcomes = ("00", "01", "10", "11")
    identity_scenario = make_scenario()
    for b in outcomes:
        dev = max_abs_diff(
            dict(direct_trace(identity_scenario, b, via_t0=True).states)["t2"],
            dict(direct_trace(identity_scenario, b).states)["t2"],
        )
        assert dev <= 1e-12
        assert emulation_check(identity_scenario, b) <= 1e-12

    for seed in range(100):
        scenario = make_scenario(seed=seed)
        b = outcomes[seed % 4]
        dev = max_abs_diff(
            dict(direct_trace(scenario, b, via_t0=True).states)["t2"],
            dict(direct_trace(scenario, b).states)["t2"],
        )
        assert dev <= 1e-12, f"seed {seed}"
        assert emulation_check(scenario, b) <= 1e-12, f"seed {seed}"

    splits = [
        SelectionSplit(ParityObservable("B", (bm,)), ParityObservable("A", (am,)))
        for bm in ("01", "10", "11")
        for am in ("01", "10", "11")
        if bm != am
    ]
    for b in outcomes:
        direct = direct_trace(identity_scenario, b)
        for split in splits:
            for via_t0 in (True, False):
                trace = ts_trace(identity_scenario, b, split, via_t0=via_t0)
                assert max_abs_diff(trace.bottom_line[1], direct.bottom_line[1]) <= 1e-12


def test_criterion_7_suite_runs_headless_under_two_minutes(request):
    """The property suites complete headless in one command within budget:
    this test runs last in its session (``conftest``) and times it from the
    session's start."""
    elapsed = time.perf_counter() - request.config.stash[SESSION_STARTED]
    assert elapsed < 120.0, f"suite took {elapsed:.1f} s"
