"""Nonlocality traces and the local emulation of action at a distance."""

import numpy as np
import pytest
from scipy.stats import unitary_group

from tsq.epr import (
    EprScenario,
    _carry,
    direct_trace,
    emulation_check,
    make_scenario,
    redundant_encode,
    ts_trace,
)
from tsq.measure import ParityObservable, project_forced
from tsq.qcore import (
    RegisterLayout,
    StateVector,
    apply,
    max_abs_diff,
)
from tsq.tsym import SelectionSplit
from conftest import (
    basis_state,
    dense,
    outcome_for,
    random_state,
    state_from_terms,
    states_close,
    xor_decode,
)

L22 = RegisterLayout(2, 2)
OUTCOMES = ("00", "01", "10", "11")


def state(trace, label):
    return dict(trace.states)[label]


def rank1_splits():
    # complementary pairs only: equal masks would leave the pair underselected
    for b_mask in ("01", "10", "11"):
        for a_mask in ("01", "10", "11"):
            if a_mask == b_mask:
                continue
            yield SelectionSplit(
                ParityObservable("B", (b_mask,)), ParityObservable("A", (a_mask,))
            )


def test_redundant_encode():
    s = redundant_encode(L22)
    assert states_close(s, state_from_terms(L22, [(b, b, 1) for b in OUTCOMES]))
    assert s.norm() ** 2 == pytest.approx(4)
    with pytest.raises(ValueError):
        redundant_encode(RegisterLayout(1, 1))


def test_xor_decode_of_encoding():
    small = xor_decode(redundant_encode(L22))
    assert small.amplitude("0", "0") == 2
    assert small.amplitude("1", "1") == 2
    assert small.amplitude("0", "1") == 0
    assert small.amplitude("1", "0") == 0


def test_xor_decode_sharp_state():
    small = xor_decode(basis_state(L22, "01", "01"))
    assert small.amplitude("1", "1") == 1
    assert small.norm() == pytest.approx(1)


def test_xor_decode_matches_bucket_oracle(rng):
    s = random_state(L22, rng)
    decoded = xor_decode(s)
    buckets = np.zeros(4, dtype=np.complex128)
    for i, amp in enumerate(s.amps):
        b, a = divmod(i, 4)
        x = bin(b).count("1") % 2
        y = bin(a).count("1") % 2
        buckets[x * 2 + y] += amp
    assert np.max(np.abs(decoded.amps - buckets)) <= 1e-12 * s.norm()


def test_scenario_factorization_invariant():
    for seed in (None, 3, 17):
        scenario = make_scenario(seed=seed)
        dev = np.max(
            np.abs(
                dense(scenario.u12)
                - dense(scenario.u02) @ dense(scenario.u01).conj().T
            )
        )
        assert dev <= 1e-10


def test_seeded_scenario_draws_scipy_haar_unitaries():
    # slow reference: scipy's Haar sampler on a generator with the same seed
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scenario = make_scenario(seed=seed)
        for u in (scenario.u01, scenario.u02):
            assert np.array_equal(dense(u), unitary_group.rvs(16, random_state=rng))


def test_direct_trace_default_scenario():
    trace = direct_trace(make_scenario(), "01")
    assert states_close(state(trace, "t1 post"), basis_state(L22, "01", "01"))
    # the t2 outcome always copies the t1 outcome
    for b in OUTCOMES:
        t = direct_trace(make_scenario(), b)
        assert states_close(state(t, "t2"), basis_state(L22, b, b))


def test_costa_trace_identity_separation():
    trace = direct_trace(make_scenario(), "01", via_t0=True)
    assert states_close(state(trace, "t0 changed"), basis_state(L22, "01", "01"))
    assert [label for label, _ in trace.states] == ["t1 pre", "t1 post", "t0 changed", "t2"]


@pytest.mark.parametrize("b", OUTCOMES)
def test_costa_equals_direct(b):
    scenario = make_scenario()
    via_t0 = state(direct_trace(scenario, b, via_t0=True), "t2")
    assert max_abs_diff(via_t0, state(direct_trace(scenario, b), "t2")) <= 1e-12


def test_costa_equals_direct_random_unitaries():
    for seed in range(10):
        scenario = make_scenario(seed=seed)
        for b in OUTCOMES:
            dev = max_abs_diff(
                state(direct_trace(scenario, b, via_t0=True), "t2"),
                state(direct_trace(scenario, b), "t2"),
            )
            assert dev <= 1e-12


def test_ts_trace_table_states():
    split = SelectionSplit(ParityObservable("B", ("10",)), ParityObservable("A", ("01",)))
    trace = ts_trace(make_scenario(), "01", split, via_t0=True)
    assert states_close(
        state(trace, "t1 post"),
        state_from_terms(L22, [("00", "00", 1), ("01", "01", 1)]),
    )
    assert states_close(state(trace, "t2 post"), basis_state(L22, "01", "01"))
    assert states_close(state(trace, "t1 final"), basis_state(L22, "01", "01"))
    assert trace.kind == "ts-via-t0"
    assert len([s for s in trace.states if s[0].startswith("t0")]) == 2  # two loops


@pytest.mark.parametrize("via_t0", [True, False])
def test_ts_bottom_line_matches_direct(via_t0):
    scenario = make_scenario()
    for b in OUTCOMES:
        direct = direct_trace(scenario, b)
        for split in rank1_splits():
            trace = ts_trace(scenario, b, split, via_t0=via_t0)
            assert max_abs_diff(trace.bottom_line[1], direct.bottom_line[1]) <= 1e-12


def test_ts_loop_closure():
    split = SelectionSplit(ParityObservable("B", ("10",)), ParityObservable("A", ("01",)))
    scenario = make_scenario(seed=23)
    trace = ts_trace(scenario, "01", split, via_t0=True)
    # re-running each backward-propagated t0 state forward lands on the state
    # just before the corresponding measurement's effect was applied
    assert (
        max_abs_diff(apply(scenario.u02, state(trace, "t0 after B loop")), state(trace, "t2 pre"))
        <= 1e-12
    )
    assert (
        max_abs_diff(apply(scenario.u01, state(trace, "t0 after A loop")), state(trace, "t1 final"))
        <= 1e-12
    )


def test_ts_measurement_order_symmetry():
    # projectors act on different registers, so which partial measurement is
    # applied first cannot matter
    from tsq.measure import project

    scenario = make_scenario()
    for b in OUTCOMES:
        for split in rank1_splits():
            p_b = (split.initial_part, outcome_for(split.initial_part, b).code)
            p_a = (split.final_part, outcome_for(split.final_part, b).code)
            b_first = project(*p_a, apply(scenario.u12, project(*p_b, scenario.psi_t1())))
            a_first = project(*p_b, apply(scenario.u12, project(*p_a, scenario.psi_t1())))
            # compare at t2: the A-side projection commutes through u12's
            # effect once the B projection is also accounted for
            trace = ts_trace(scenario, b, split, via_t0=False)
            assert max_abs_diff(trace.bottom_line[1], b_first) <= 1e-12
            assert max_abs_diff(xor_decode(b_first), xor_decode(a_first)) <= 1e-12


def test_emulation_check_identity():
    scenario = make_scenario()
    for b in OUTCOMES:
        assert emulation_check(scenario, b) == 0


def test_emulation_check_random():
    for seed in range(10):
        scenario = make_scenario(seed=seed)
        for b in OUTCOMES:
            assert emulation_check(scenario, b) <= 1e-12


def test_emulation_check_partial_observable():
    # the emulation holds for a partial B measurement too: the left bit
    # projected at t1 and carried directly by u12, or through t0 by u01+ and u02
    scenario = make_scenario(seed=5)
    b_left = ParityObservable("B", ("10",))
    for v in ("00", "10"):
        t1_post = project_forced(b_left, v, scenario.psi_t1())
        nonlocal_t2, no_t0 = _carry(scenario, t1_post, via_t0=False)
        local_t2, t0 = _carry(scenario, t1_post, via_t0=True)
        assert no_t0 is None and t0 is not None
        assert max_abs_diff(nonlocal_t2, local_t2) <= 1e-12


def test_impossible_outcome_raises():
    from tsq.qcore import InvariantError

    scenario = EprScenario(
        layout=L22,
        psi_t0=basis_state(L22, "00", "00"),
        u01=make_scenario().u01,
        u02=make_scenario().u02,
    )
    with pytest.raises(InvariantError):
        direct_trace(scenario, "01")
