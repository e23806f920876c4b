"""Search networks: standard iterations, the certainty variant, and the
lifted two-register unitary."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from tsq.grover import (
    SearchOracle,
    as_process_unitary,
    grover_iterate,
    grover_process,
    matched_phase,
    optimal_iterations,
    run_grover,
    run_long,
    search_network,
    _plane,
    _success,
    _uniform,
)
from tsq.qcore import CERTAINTY_EPS, STATE_TOL, InvariantError, apply, hadamard
from tsq.tsym import enumerate_splits, solver_instance, xor_process
from conftest import basis_state, copy_blocks, setting_values


def closed_form_success(n: int, iterations: int) -> float:
    """Independent oracle: sin^2((2J+1) theta) for standard pi phases."""
    theta = math.asin(1 / math.sqrt(1 << n))
    return math.sin((2 * iterations + 1) * theta) ** 2


def uniform_search_state(n: int) -> np.ndarray:
    d = 1 << n
    return np.full(d, 1 / math.sqrt(d), dtype=np.complex128)


def simulate(oracle: SearchOracle, iterations: int, phase: float) -> float:
    state = uniform_search_state(oracle.n)
    for _ in range(iterations):
        state = grover_iterate(state, oracle, (phase, phase))
    return float(abs(state[oracle.target_index]) ** 2 / np.vdot(state, state).real)


def test_oracle_validation():
    with pytest.raises(ValueError):
        SearchOracle(2, "012")
    with pytest.raises(ValueError):
        SearchOracle(2, "0")
    with pytest.raises(ValueError, match=r"^target '00000' must be 4 characters of 0 and 1$"):
        SearchOracle(4, "00000")


def test_one_iteration_solves_four_drawers():
    assert simulate(SearchOracle(2, "11"), 1, math.pi) == pytest.approx(1.0)


def test_zero_iterations_give_uniform_probability():
    for n in (1, 2, 3, 4):
        assert simulate(SearchOracle(n, "0" * n), 0, math.pi) == pytest.approx(1 / (1 << n))


def test_sixteen_drawers_three_iterations():
    p = simulate(SearchOracle(4, "0110"), 3, math.pi)
    assert p == pytest.approx(closed_form_success(4, 3), abs=1e-12)
    assert p == pytest.approx(0.9613, abs=5e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_standard_iterations_match_closed_form(n):
    oracle = SearchOracle(n, "1" * n)
    for j in range(0, optimal_iterations(n) + 1):
        assert simulate(oracle, j, math.pi) == pytest.approx(
            closed_form_success(n, j), abs=1e-12
        )


def test_run_long_small_cases():
    run = run_long(SearchOracle(2, "01"))
    assert run.iterations == 1
    assert run.success_probability == pytest.approx(1.0, abs=1e-9)
    assert run.phase == pytest.approx(math.pi)  # N=4 needs no phase reduction
    run2 = run_long(SearchOracle(1, "1"))
    assert run2.iterations == 1
    assert run2.success_probability == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 17))
def test_run_long_reaches_certainty(n):
    # the closed-form phase alone must reach certainty: run_long searches for no better one
    run = run_long(SearchOracle(n, "0" * n))
    assert run.phase == matched_phase(n, optimal_iterations(n))
    assert 1 - run.success_probability <= CERTAINTY_EPS
    assert run.query_count == run.iterations
    assert run.iterations <= math.ceil(math.pi * math.sqrt(1 << n) / 4) + 1


@pytest.mark.parametrize("n", [3, 4, 8])
def test_run_long_raises_when_the_phase_drifts(n, monkeypatch):
    monkeypatch.setattr("tsq.grover.matched_phase", lambda n, j: matched_phase(n, j) + 0.01)
    with pytest.raises(InvariantError, match="certainty not reached"):
        run_long(SearchOracle(n, "0" * n))


def test_run_long_beats_bare_grover_on_certainty():
    for n in (3, 4, 6):
        grover = run_grover(SearchOracle(n, "0" * n))
        long = run_long(SearchOracle(n, "0" * n))
        assert long.success_probability >= grover.success_probability - 1e-12


def test_matched_phase_infeasible_iteration_count():
    with pytest.raises(ValueError):
        matched_phase(4, 1)  # one step cannot reach certainty in 16 drawers


@pytest.mark.parametrize("d", [1 << k for k in range(11)])
def test_hadamard_matches_scipy(d):
    # slow reference: scipy's Sylvester construction, at every dtype src uses
    for dtype in (int, float, np.complex128):
        ours, ref = hadamard(d, dtype=dtype), scipy.linalg.hadamard(d, dtype=dtype)
        assert np.array_equal(ours, ref)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()  # signed zeros too


def test_search_network_matrix():
    oracle = SearchOracle(2, "10")
    m = search_network(oracle)
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-10
    assert abs(m[oracle.target_index, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)


def iteration_matrix(oracle: SearchOracle, phase: float) -> np.ndarray:
    """Slow reference: the dense matrix of one iteration, diffusion after oracle."""
    d = oracle.dim
    o = np.eye(d, dtype=np.complex128)
    o[oracle.target_index, oracle.target_index] = np.exp(1j * phase)
    diff = (1 - np.exp(1j * phase)) * np.full((d, d), 1 / d) - np.eye(d)
    return diff @ o


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_search_network_matches_iteration_matrix_product(n):
    oracle = SearchOracle(n, format((1 << n) - 2, f"0{n}b"))
    run = run_long(oracle)
    reference = hadamard(oracle.dim, dtype=np.complex128) / math.sqrt(oracle.dim)
    for _ in range(run.iterations):
        reference = iteration_matrix(oracle, run.phase) @ reference
    assert np.max(np.abs(search_network(oracle) - reference)) <= 1e-12


def test_grover_iterate_acts_on_each_column(rng):
    oracle = SearchOracle(3, "101")
    columns = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    together = grover_iterate(columns, oracle, (0.7, 1.9))
    for j in range(5):
        alone = grover_iterate(columns[:, j], oracle, (0.7, 1.9))
        assert np.max(np.abs(together[:, j] - alone)) <= 1e-14 * np.linalg.norm(alone)
    with pytest.raises(ValueError):
        grover_iterate(columns.T, oracle, (0.7, 1.9))


def test_lifted_unitary_correlates_every_setting():
    u = as_process_unitary(2)
    layout = u.layout
    for b in ("00", "01", "10", "11"):
        out = apply(u, basis_state(layout, b, "00"))
        assert abs(out.amplitude(b, b)) ** 2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lifted_unitary_matches_per_setting_networks(n):
    # slow reference: one search network per setting b, each built from its own oracle
    reference = np.stack(
        [search_network(SearchOracle(n, format(b, f"0{n}b"))) for b in range(1 << n)]
    )
    u = as_process_unitary(n)
    assert np.max(np.abs(copy_blocks(u.layout, u.matrix) - reference)) <= 1e-12


def test_grover_process_interop_with_xor_branch_sets():
    # branch structure is unitary-provider independent
    gp = grover_process(2)
    xp = xor_process(2)
    for split in enumerate_splits(xp, 1):
        for b in setting_values(2):
            assert (
                solver_instance(gp, b, split).branch_settings()
                == solver_instance(xp, b, split).branch_settings()
            )


@pytest.mark.parametrize("n", range(1, 11))
def test_plane_matches_the_iteration_loop(n, rng):
    # slow reference: grover_iterate over all 2^n amplitudes
    for _ in range(4):
        oracle = SearchOracle(n, format(int(rng.integers(1 << n)), f"0{n}b"))
        phase, iterations = float(rng.uniform(0, 2 * math.pi)), int(rng.integers(0, 30))
        reference = uniform_search_state(n)
        for _ in range(iterations):
            reference = grover_iterate(reference, oracle, (phase, phase))
        p = float(abs(reference[oracle.target_index]) ** 2 / np.vdot(reference, reference).real)
        # the plane coordinates (a_t, a_r) from the uniform state: a_t on the
        # target and a_r / sqrt(d - 1) on every other item
        (m00, m01), (m10, m11) = _plane(oracle, iterations, phase)
        s, c = _uniform(oracle.dim)
        a_t, a_r = m00 * s + m01 * c, m10 * s + m11 * c
        state = np.full(oracle.dim, a_r / math.sqrt(oracle.dim - 1), dtype=np.complex128)
        state[oracle.target_index] = a_t
        assert np.max(np.abs(state - reference)) <= STATE_TOL
        assert abs(_success(oracle, iterations, phase) - p) <= 1e-12


@pytest.mark.parametrize("n", range(1, 21))
def test_grover_success_is_the_closed_form_for_every_target(n, monkeypatch):
    monkeypatch.setenv("TSQ_DIM_CAP", str(1 << 20))
    runs = [run_grover(SearchOracle(n, t)) for t in ("0" * n, format(1, f"0{n}b"), "1" * n)]
    assert len({run.success_probability for run in runs}) == 1
    p = runs[0].success_probability
    assert abs(p - closed_form_success(n, runs[0].iterations)) <= 1e-14


@pytest.mark.parametrize("run", [run_long, run_grover])
def test_search_run_allocates_no_state(run):
    # the run is a power of one 2x2 matrix: at n = 16 a state of 2^16
    # amplitudes would take 1 MiB
    oracle = SearchOracle(16, "0" * 15 + "1")
    tracemalloc.start()
    try:
        run(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_lift_refuses_its_size_before_building_the_network(monkeypatch):
    # at n = 9 the joint dimension 2^18 is past the default cap: the layout
    # refuses it before the 512 x 512 network is built
    def refuse(oracle):
        raise AssertionError("built the network of a refused size")

    monkeypatch.setattr("tsq.grover.search_network", refuse)
    with pytest.raises(ValueError, match=r"joint dimension 2\^18 exceeds the cap"):
        as_process_unitary(9)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_search_network_is_unitary(n):
    m = search_network(SearchOracle(n, format(5, f"0{n}b")))
    assert np.max(np.abs(m.conj().T @ m - np.eye(1 << n))) <= 1e-13
