"""Parity observables, projectors, Born sampling, and postponement."""

import re

import numpy as np
import pytest

import tsq.measure as measure_module
from tsq import gf2
from tsq.grover import grover_process
from tsq.measure import (
    ParityObservable,
    ParityOutcome,
    full_observable,
    measure,
    project,
    project_forced,
    projector_diagonal,
    sector_masses,
)
from tsq.qcore import (
    STATE_TOL,
    InvariantError,
    RegisterLayout,
    StateVector,
    UnitaryOp,
    apply,
    identity_unitary,
    max_abs_diff,
    uniform_setting_state,
)
from tsq.tsym import xor_process
from conftest import (
    basis_label,
    basis_state,
    bitwise_equal,
    outcome_bits,
    outcome_for,
    random_independent_masks,
    random_state,
    reduced_density,
    setting_values,
    state_from_terms,
    states_close,
)

L2 = RegisterLayout(2, 2)
INITIAL = uniform_setting_state(L2)
CORRELATED = state_from_terms(L2, [(b, b, 1) for b in ("00", "01", "10", "11")])


def all_outcomes(obs):
    for code in range(1 << obs.rank):
        yield ParityOutcome(obs, code)


def test_observable_validation():
    # zero and dependent masks are refused by cli.parse_split (test_cli)
    with pytest.raises(ValueError):
        ParityObservable("C", ("01",))
    assert full_observable(L2, "B").masks == ("10", "01")
    assert ParityObservable("A", ()).rank == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_outcome_code_spells_the_outcome_bits(n, rng):
    # the code of a register value is its entry in the parity codes, and its
    # bits, read by gf2.code_bits, are the value's parities in mask order
    for r in range(n + 1):
        masks = random_independent_masks(rng, n, r)
        obs = ParityObservable("B", tuple(gf2.mask_to_bits(m, n) for m in masks))
        codes = gf2.parity_codes(masks, n)
        for v in setting_values(n):
            outcome = outcome_for(obs, v)
            assert outcome.bits == outcome_bits(obs, v)
            assert outcome.code == codes[int(v, 2)]


def test_observable_names():
    assert full_observable(L2, "B").name() == "B"
    assert ParityObservable("B", ("10",)).name() == "B_l"
    assert ParityObservable("A", ("01",)).name() == "A_r"
    assert ParityObservable("B", ("11",)).name() == "B[11]"
    assert ParityObservable("B", ()).name() == "B(trivial)"


def test_left_bit_projector_on_initial_state():
    obs = ParityObservable("B", ("10",))
    assert outcome_for(obs, "01").bits == (0,)
    kept = project(obs, outcome_for(obs, "01").code, INITIAL)
    assert states_close(kept, state_from_terms(L2, [("00", "00", 1), ("01", "00", 1)]))


def test_right_bit_projector_on_correlated_state():
    obs = ParityObservable("A", ("01",))
    assert outcome_for(obs, "01").bits == (1,)
    kept = project(obs, outcome_for(obs, "01").code, CORRELATED)
    assert states_close(kept, state_from_terms(L2, [("01", "01", 1), ("11", "11", 1)]))


def test_projector_idempotent():
    for obs in (full_observable(L2, "B"), ParityObservable("A", ("11",))):
        for outcome in all_outcomes(obs):
            diag = projector_diagonal(outcome, L2)
            assert set(np.unique(diag)) <= {0.0, 1.0}
            s = project(obs, outcome.code, CORRELATED)
            assert max_abs_diff(project(obs, outcome.code, s), s) == 0


def test_full_rank_projection_fixes_eigenstate():
    s = basis_state(L2, "01", "00")
    assert max_abs_diff(project(full_observable(L2, "B"), 0b01, s), s) == 0


def test_sector_completeness(rng):
    s = random_state(RegisterLayout(3, 3), rng)
    for obs in (
        full_observable(s.layout, "B"),
        ParityObservable("A", ("011", "101")),
        ParityObservable("B", ("111",)),
    ):
        total = sum(project(obs, code, s).amps for code in range(1 << obs.rank))
        assert np.max(np.abs(total - s.amps)) <= 1e-12 * s.norm()


def test_measure_forced():
    # a forced outcome is project_forced, with the outcome named by a register value
    post = project_forced(full_observable(L2, "B"), "01", INITIAL)
    assert states_close(post, basis_state(L2, "01", "00"))


def test_measure_sharp_state_is_deterministic():
    s = basis_state(L2, "01", "01")
    rec = measure(s, ParityObservable("A", ("01",)), seed=0)
    assert rec.outcome.bits == (1,)
    assert states_close(rec.post_state, s)


def test_measure_impossible_outcome():
    with pytest.raises(InvariantError, match="impossible outcome 11 for B"):
        project_forced(full_observable(L2, "B"), "11", basis_state(L2, "01", "00"))


def reference_draw(s, obs, seed):
    """The seeded draw over the sector_masses dict: its keys sorted into code
    order, and the inverse CDF of one uniform draw."""
    masses = sector_masses(s, obs)
    keys = sorted(masses)
    weights = np.array([masses[k] for k in keys])
    cdf = np.cumsum(weights / weights.sum())
    u = np.random.default_rng(seed).random()
    return keys[int(np.searchsorted(cdf / cdf[-1], u, side="right"))]


def sector_of(s, obs, bits) -> np.ndarray:
    """True at the joint indices whose observed register value has outcome ``bits``."""
    masks = [gf2.bits_to_mask(m) for m in obs.masks]
    values = [divmod(i, s.layout.dim_a)[0 if obs.register == "B" else 1] for i in range(s.layout.dim)]
    return np.array([tuple(gf2.parity(m, v) for m in masks) == bits for v in values])


L3 = RegisterLayout(3, 3)
RANK_ENDS = [
    ParityObservable("B", ()),
    ParityObservable("A", ()),
    full_observable(L3, "B"),
    ParityObservable("A", ("011", "101", "111")),
]


@pytest.mark.parametrize("obs", RANK_ENDS, ids=lambda obs: obs.name())
def test_measure_at_both_ends_of_the_rank_range(obs, rng):
    s = random_state(L3, rng)
    for seed in range(50):
        rec = measure(s, obs, seed=seed)
        assert rec.outcome.bits == reference_draw(s, obs, seed)
        assert np.array_equal(rec.post_state.amps, np.where(sector_of(s, obs, rec.outcome.bits), s.amps, 0))
    # the forced path: the sector of every register value
    for value in setting_values(3):
        bits = outcome_for(obs, value).bits
        post = project_forced(obs, value, s)
        assert np.array_equal(post.amps, np.where(sector_of(s, obs, bits), s.amps, 0))


@pytest.mark.parametrize("obs", RANK_ENDS, ids=lambda obs: obs.name())
def test_measure_refuses_forced_outcomes_without_mass(obs, rng):
    # values that are no value of the register: one bit too many, and a bit
    # that is not 0 or 1
    s = random_state(L3, rng)
    for value in ("0000", "012"):
        with pytest.raises(ValueError, match=f"{value!r} is not a value of the 3-bit register"):
            project_forced(obs, value, s)
    if not obs.rank:
        return
    # the sector of value 111 emptied of mass
    s = StateVector(L3, np.where(sector_of(s, obs, outcome_for(obs, "111").bits), 0, s.amps))
    message = f"impossible outcome 111 for {obs.name()}: the projection annihilates the state"
    with pytest.raises(InvariantError, match=re.escape(message)):
        project_forced(obs, "111", s)


def test_measure_selector_contract():
    # the draw needs a seed; a chosen outcome is project_forced
    with pytest.raises(TypeError):
        measure(INITIAL, full_observable(L2, "B"))
    # None would seed from the operating system, so no run could repeat the draw
    with pytest.raises(ValueError, match="seed"):
        measure(INITIAL, full_observable(L2, "B"), seed=None)
    # numpy refuses a negative or a float seed; a generator would be consumed,
    # so that the draw would depend on its state
    refused = [
        (-1, ValueError),
        (1.5, TypeError),
        (np.random.default_rng(0), TypeError),
        (np.random.PCG64(0), TypeError),
    ]
    for seed, error in refused:
        with pytest.raises(error):
            measure(INITIAL, full_observable(L2, "B"), seed=seed)


def test_born_rule_sampling():
    obs = full_observable(L2, "B")
    trials = 100_000
    counts = {}
    for i in range(trials):
        rec = measure(INITIAL, obs, seed=i)
        counts[rec.outcome.bits] = counts.get(rec.outcome.bits, 0) + 1
    assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for c in counts.values():
        assert abs(c / trials - 0.25) <= 0.02


def slow_sector_weights(s, obs) -> tuple[list[int], list[float]]:
    """The sector code of every joint index and the Born weight of every
    sector, one amplitude at a time: the index's register value, its code
    built mask by mask (``outcome_for``), and |amplitude|^2 added to that
    code's entry.  Shares no arithmetic with ``measure`` or ``sector_masses``."""
    n = s.layout.bits(obs.register)
    index_codes = []
    weights = [0.0] * (1 << obs.rank)
    for i, amp in enumerate(s.amps.tolist()):
        value = divmod(i, s.layout.dim_a)[0 if obs.register == "B" else 1]
        code = outcome_for(obs, format(value, f"0{n}b")).code
        index_codes.append(code)
        weights[code] += abs(amp) ** 2
    return index_codes, weights


def emptied(s, index_codes, codes) -> StateVector:
    """``s`` with the sectors ``codes`` emptied of mass."""
    return StateVector(s.layout, np.where(np.isin(index_codes, codes), 0, s.amps))


@pytest.mark.parametrize("register", ["B", "A"])
@pytest.mark.parametrize("n", range(1, 5))
def test_draw_matches_slow_reference(n, register, rng):
    # every rank of an n-bit register, the other register 2 bits wide; the
    # states cycle through a random state and the same state with its first,
    # its last, or both end sectors emptied of mass
    layout = RegisterLayout(n, 2) if register == "B" else RegisterLayout(2, n)
    for r in range(n + 1):
        masks = random_independent_masks(rng, n, r)
        obs = ParityObservable(register, tuple(gf2.mask_to_bits(m, n) for m in masks))
        s = random_state(layout, rng)
        index_codes = np.array(slow_sector_weights(s, obs)[0])
        last = (1 << r) - 1
        ends = [] if r == 0 else [[0], [last]] if r == 1 else [[0], [last], [0, last]]
        states = [s] + [emptied(s, index_codes, codes) for codes in ends]
        cases = []
        for state in states:
            _, weights = slow_sector_weights(state, obs)
            w = np.array(weights)
            cases.append((state, weights, w / w.sum()))
        for seed in range(1000):
            state, weights, p = cases[seed % len(cases)]
            rec = measure(state, obs, seed=seed)
            code = rec.outcome.code
            assert code == np.random.default_rng(seed).choice(1 << r, p=p)
            assert 0 <= code < 1 << r and weights[code] > 0
            assert np.array_equal(rec.post_state.amps, np.where(index_codes == code, state.amps, 0))


@pytest.mark.parametrize("register", ["B", "A"])
def test_draw_at_both_ends_of_the_unit_interval(register, rng, monkeypatch):
    # the least and the greatest double of the draw, 0 and 1 - 2^-53, pick
    # the first and the last sector with mass when the end sectors are
    # empty: the greatest must not round up past the last sector with mass
    # in the unnormalized compare of u * total with the cumulative weights
    layout = RegisterLayout(3, 2) if register == "B" else RegisterLayout(2, 3)
    for r in (1, 2, 3):
        last = (1 << r) - 1
        for trial in range(100):
            masks = random_independent_masks(rng, 3, r)
            obs = ParityObservable(register, tuple(gf2.mask_to_bits(m, 3) for m in masks))
            s = StateVector(layout, random_state(layout, rng).amps * 10.0 ** rng.uniform(-5, 5))
            index_codes = np.array(slow_sector_weights(s, obs)[0])
            ends = ([0], [last], [0, last])[trial % 3 if r > 1 else trial % 2]
            s = emptied(s, index_codes, ends)
            with_mass = [c for c in range(last + 1) if c not in ends]
            for u, want in ((0.0, with_mass[0]), (1 - 2**-53, with_mass[-1])):
                monkeypatch.setattr(measure_module, "_uniform", lambda seed, u=u: u)
                rec = measure(s, obs, seed=0)
                assert rec.outcome.code == want
                assert np.array_equal(rec.post_state.amps, np.where(index_codes == want, s.amps, 0))


def test_draw_reads_the_first_double_of_default_rng():
    # the uniform of a draw is the one Generator.random would return; the
    # numpy-floor CI job checks this on the oldest numpy the package takes
    for seed in [*range(10_000), 2**31 - 1, 2**64 + 5, np.int64(2**40 + 3)]:
        assert measure_module._uniform(seed) == np.random.default_rng(seed).random()


@pytest.mark.parametrize("residue", [0.0, 0.9 * STATE_TOL, 1.1 * STATE_TOL])
def test_measure_refuses_the_zero_state_at_its_threshold(residue):
    # a state of norm ``residue``: at most STATE_TOL is the zero state
    s = state_from_terms(L2, [("01", "10", residue)])
    obs = full_observable(L2, "A")
    if residue <= STATE_TOL:
        with pytest.raises(ValueError, match="cannot measure the zero state"):
            measure(s, obs, seed=0)
        return
    rec = measure(s, obs, seed=0)
    assert rec.outcome.bits == (1, 0) and rec.post_state.amplitude("01", "10") == residue


def test_sector_masses_match_manual_sum(rng):
    s = random_state(L2, rng)
    obs = ParityObservable("B", ("11",))
    masses = sector_masses(s, obs)
    manual = {0: 0.0, 1: 0.0}
    for i, amp in enumerate(s.amps):
        label = basis_label(s.layout, i)
        bit = (int(label.b_bits[0]) + int(label.b_bits[1])) % 2
        manual[bit] += abs(amp) ** 2
    assert masses[(0,)] == pytest.approx(manual[0], rel=1e-12)
    assert masses[(1,)] == pytest.approx(manual[1], rel=1e-12)
    assert sum(masses.values()) == pytest.approx(s.norm() ** 2, rel=1e-12)


def test_sector_masses_reject_observable_of_other_width(rng):
    s = random_state(L2, rng)
    with pytest.raises(ValueError, match="does not fit the layout"):
        sector_masses(s, ParityObservable("B", ("111",)))
    with pytest.raises(ValueError, match="does not fit the layout"):
        projector_diagonal(outcome_for(ParityObservable("A", ("1",)), "1"), L2)
    with pytest.raises(ValueError, match="does not fit the layout"):
        project(ParityObservable("A", ("1",)), 1, s)
    with pytest.raises(ValueError, match="does not fit the layout"):
        project(ParityObservable("B", ("101",)), 1, s)


@pytest.mark.parametrize(
    "obs,value",
    [
        (ParityObservable("B", ("1",)), "11"),
        (ParityObservable("B", ("1",)), ""),
        (ParityObservable("A", ("11",)), "1"),
        (ParityObservable("A", ("11",)), "012"),
        (ParityObservable("A", ("11",)), "0b"),
        (ParityObservable("B", ()), "000"),
    ],
)
def test_project_forced_refuses_value_of_other_width(obs, value):
    layout = RegisterLayout(1, 2)
    s = random_state(layout, np.random.default_rng(3))
    with pytest.raises(ValueError, match="is not a value of the"):
        project_forced(obs, value, s)


@pytest.mark.parametrize("residue", [0.0, 0.9 * STATE_TOL])
def test_project_forced_raises_when_the_outcome_annihilates_the_state(residue):
    # the sector of A = 01 holds norm ``residue``, at most STATE_TOL
    s = state_from_terms(L2, [("00", "00", 1), ("01", "01", residue)])
    message = (
        "impossible outcome 01 for A: the projection annihilates the state"
        f" (norm {residue:.3e} <= STATE_TOL = 1e-12)"
    )
    with pytest.raises(InvariantError, match=re.escape(message)):
        project_forced(full_observable(L2, "A"), "01", s)


def test_project_forced_keeps_a_sector_just_above_the_zero_threshold():
    s = state_from_terms(L2, [("00", "00", 1), ("01", "01", 1.1 * STATE_TOL)])
    out = project_forced(full_observable(L2, "A"), "01", s)
    assert out.amplitude("01", "01") == 1.1 * STATE_TOL and out.norm() > STATE_TOL


@pytest.mark.parametrize("n", range(1, 7))
def test_cached_codes_are_the_read_only_parity_codes(n, rng):
    for r in range(n + 1):
        masks = random_independent_masks(rng, n, r)
        obs = ParityObservable("A", tuple(gf2.mask_to_bits(m, n) for m in masks))
        assert np.array_equal(obs.codes, gf2.parity_codes(masks, obs.n_bits))
        assert obs.codes is obs.codes
        with pytest.raises(ValueError):
            obs.codes[0] = 1
        # the cache is no field: equality and hashing ignore it
        fresh = ParityObservable("A", obs.masks)
        assert obs == fresh and hash(obs) == hash(fresh)


@pytest.mark.parametrize("register", ["B", "A"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (1, 4)])
def test_project_equals_diagonal_product_bit_for_bit(shape, register, rng):
    layout = RegisterLayout(*shape)
    n = layout.bits(register)
    amps = random_state(layout, rng).amps.copy()
    amps[::3] = 0
    amps[1::5] = -amps[1::5].real
    s = StateVector(layout, amps)
    for r in range(n + 1):
        masks = random_independent_masks(rng, n, r)
        obs = ParityObservable(register, tuple(gf2.mask_to_bits(m, n) for m in masks))
        for outcome in all_outcomes(obs):
            expected = s.amps * projector_diagonal(outcome, layout)
            assert bitwise_equal(project(obs, outcome.code, s).amps, expected)
        # the forced path, for every register value whose sector has mass
        for value in setting_values(n):
            expected = project(obs, outcome_for(obs, value).code, s)
            if not expected.is_zero():
                assert bitwise_equal(project_forced(obs, value, s).amps, expected.amps)


@pytest.mark.parametrize("register", ["B", "A"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (1, 4)])
def test_projector_and_masses_match_index_oracle(shape, register, rng):
    # oracle: read each joint index's register value and parities one at a time
    layout = RegisterLayout(*shape)
    n = layout.bits(register)
    s = random_state(layout, rng)
    for r in range(n + 1):
        masks = random_independent_masks(rng, n, r)
        obs = ParityObservable(register, tuple(gf2.mask_to_bits(m, n) for m in masks))
        index_bits = []
        for i in range(layout.dim):
            b, a = divmod(i, layout.dim_a)
            value = b if register == "B" else a
            index_bits.append(tuple(gf2.parity(m, value) for m in masks))
        masses = sector_masses(s, obs)
        assert list(masses) == sorted(o.bits for o in all_outcomes(obs))
        for outcome in all_outcomes(obs):
            diag = projector_diagonal(outcome, layout)
            expected = [1.0 if bits == outcome.bits else 0.0 for bits in index_bits]
            assert diag.tolist() == expected
            kept = [amp for amp, bits in zip(s.amps, index_bits) if bits == outcome.bits]
            manual = sum(abs(amp) ** 2 for amp in kept)
            assert masses[outcome.bits] == pytest.approx(manual, rel=1e-12)


# Postponement: a B-parity projector P commutes with the solving unitary U,
# so the initial outcome can be hidden from the solver.  Every copying
# unitary is block-diagonal in B and P is diagonal in B, so the two orders
# give the same floating-point numbers, not merely close ones.

def postponement_deviation(u, outcome, psi: StateVector) -> float:
    """max |U P psi - P U psi| for the projector P of ``outcome``."""
    obs, code = outcome.observable, outcome.code
    first = apply(u, project(obs, code, psi))
    last = project(obs, code, apply(u, psi))
    return float(np.max(np.abs(first.amps - last.amps)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_postponement_exhaustive(n, rng):
    for process in (xor_process(n), grover_process(n)):
        for psi in (process.initial_state, random_state(process.layout, rng)):
            for r in range(n + 1):
                masks = random_independent_masks(rng, n, r)
                obs = ParityObservable("B", tuple(gf2.mask_to_bits(m, n) for m in masks))
                for outcome in all_outcomes(obs):
                    assert postponement_deviation(process.u12, outcome, psi) == 0.0


def test_postponement_identity_unitary():
    outcome = outcome_for(full_observable(L2, "B"), "01")
    assert postponement_deviation(identity_unitary(L2), outcome, INITIAL) == 0


def test_postponement_fails_for_a_unitary_that_mixes_b_sectors():
    # the deviation is no constant zero: a Hadamard on B mixes the sectors
    # of the full B observable
    layout = RegisterLayout(1, 1)
    hadamard_b = UnitaryOp(layout, np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2)))
    initial = uniform_setting_state(layout)
    outcome = outcome_for(full_observable(layout, "B"), "0")
    assert postponement_deviation(hadamard_b, outcome, initial) == pytest.approx(1 / np.sqrt(2))


def test_final_projection_equivalent_on_either_register():
    # on the correlated state, selecting a parity of A equals selecting the
    # same parity of B
    process = xor_process(2)
    for v in (0, 1):
        via_a = project(ParityObservable("A", ("01",)), v, CORRELATED)
        via_b = project(ParityObservable("B", ("01",)), v, CORRELATED)
        assert max_abs_diff(via_a, via_b) <= 1e-12


def test_unitary_leaves_hidden_outcome_density_unaltered():
    # once the setting has been measured (outcome hidden), the ensemble
    # reduced density of B passes through the solving unitary unchanged
    process = xor_process(2)
    obs = full_observable(L2, "B")
    rho_in = sum(
        reduced_density(project(obs, int(b, 2), process.initial_state), "B")
        for b in setting_values(2)
    )
    rho_out = sum(
        reduced_density(apply(process.u12, project(obs, int(b, 2), process.initial_state)), "B")
        for b in setting_values(2)
    )
    assert np.max(np.abs(rho_in - rho_out)) <= 1e-12
    assert np.allclose(rho_in, np.eye(4))
