"""Selection splits, zigzag instances, and superposition recovery."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsq import epr, gf2, measure, tsym
from tsq.cli import parse_split
from tsq.grover import grover_process
from tsq.measure import ParityObservable, project, project_forced, projector_diagonal
from tsq.qcore import (
    BRANCH_MASS_TOL,
    CopyUnitary,
    InvariantError,
    RegisterLayout,
    StateVector,
    apply,
    apply_adjoint,
    identity_unitary,
    max_abs_diff,
    uniform_setting_state,
)
from tsq.tsym import (
    ProcessDescription,
    SelectionSplit,
    ZigzagInstance,
    complete_split,
    copy_process,
    enumerate_splits,
    external_instance,
    recover_superposition,
    selection_is_injective,
    solver_instance,
    uneven_instance,
    xor_process,
)
from conftest import (
    basis_state,
    observable_refusal,
    outcome_bits,
    outcome_for,
    random_state,
    reference_external_walk,
    setting_values,
    span,
    state_from_terms,
    states_close,
)

P2 = xor_process(2)
P3 = xor_process(3)
XOR = {n: xor_process(n) for n in range(1, 7)}
B_L = ParityObservable("B", ("10",))
A_R = ParityObservable("A", ("01",))


def reference_injective(process, split) -> bool:
    """Slow reference for selection_is_injective: the outcome pairs of all
    settings are distinct, the solution of a setting being the setting."""
    seen = set()
    for b in setting_values(process.n):
        key = (outcome_bits(split.initial_part, b), outcome_bits(split.final_part, b))
        if key in seen:
            return False
        seen.add(key)
    return True


def reference_complete_split(process, final_part, initial_bases):
    """Slow reference for complete_split: the first of ``initial_bases`` that
    passes a full-rank check on the masks and then the per-setting loop;
    None if none does."""
    n = process.n
    final_ints = tuple(gf2.bits_to_mask(m) for m in final_part.masks)
    for basis in initial_bases:
        if gf2.rank(final_ints + basis) != n:
            continue
        initial_part = ParityObservable("B", tuple(gf2.mask_to_bits(m, n) for m in basis))
        split = SelectionSplit(initial_part, final_part)
        if reference_injective(process, split):
            return split
    return None


def test_copy_process_refuses_unequal_widths():
    with pytest.raises(ValueError, match="same width"):
        copy_process(CopyUnitary(RegisterLayout(2, 3)))


def test_process_refuses_an_initial_state_of_another_layout():
    # refused where it enters, not later as a mismatch inside a leg or as a
    # setting value that does not fit register B
    state = uniform_setting_state(RegisterLayout(3, 3))
    match = r"initial state layout \(3,3\) does not match the unitary's layout \(2,2\)"
    with pytest.raises(ValueError, match=match):
        ProcessDescription(CopyUnitary(RegisterLayout(2, 2)), state)


def test_non_correlating_network_raises():
    # a network that swaps |00> and |01>: N |00> = |01>, so every setting b
    # reaches |b>|b xor 01> and leaks all its mass; the first setting is named
    swap = np.eye(4)[[1, 0, 2, 3]]
    copy_process(CopyUnitary(P2.layout, np.eye(4)[[0, 2, 1, 3]]))  # fixes |00>
    with pytest.raises(InvariantError, match="setting 00 sharply with solution 00: leaked fraction 1.000e"):
        copy_process(CopyUnitary(P2.layout, swap))


def test_selection_injectivity():
    assert selection_is_injective(P2, SelectionSplit(B_L, A_R))
    # same bit on both sides is redundant: 00 and 10 collide
    redundant = SelectionSplit(ParityObservable("B", ("01",)), A_R)
    assert not selection_is_injective(P2, redundant)


@st.composite
def parity_part(draw, register: str, n: int) -> ParityObservable:
    """Independent masks of width n, as split text admits."""
    masks: list[int] = []
    for m in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=n + 1)):
        if gf2.is_independent(masks + [m]):
            masks.append(m)
    return ParityObservable(register, tuple(gf2.mask_to_bits(m, n) for m in masks))


@st.composite
def splits(draw) -> tuple[int, SelectionSplit]:
    n = draw(st.integers(1, 5))
    return n, SelectionSplit(draw(parity_part("B", n)), draw(parity_part("A", n)))


@given(splits())
def test_selection_injectivity_matches_reference(case):
    n, split = case
    assert selection_is_injective(XOR[n], split) == reference_injective(XOR[n], split)


@st.composite
def final_parts(draw) -> tuple[int, ParityObservable]:
    n = draw(st.integers(1, 6))
    return n, draw(parity_part("A", n))


@given(final_parts())
def test_complete_split_takes_the_first_injective_basis(case):
    # the drawn masks are any basis of the final subspace, mostly not reduced
    n, final_part = case
    want = reference_complete_split(XOR[n], final_part, gf2.subspaces(n, n - final_part.rank))
    assert complete_split(XOR[n], final_part) == want


def fold(masks: list[int]) -> list[int]:
    """Each mask XOR-ed with all masks before it: the same span, another basis."""
    out: list[int] = []
    for m in masks:
        out.append(m ^ out[-1] if out else m)
    return out


@given(final_parts(), st.sampled_from(["drawn", "reversed", "folded", "reduced"]))
def test_parse_split_completes_every_basis_of_a_subspace_alike(case, form):
    n, drawn = case
    masks = [gf2.bits_to_mask(m) for m in drawn.masks]
    masks = {
        "drawn": masks,
        "reversed": masks[::-1],
        "folded": fold(masks),
        "reduced": list(gf2.reduced_basis(masks)),
    }[form]
    final_part = ParityObservable("A", tuple(gf2.mask_to_bits(m, n) for m in masks))
    split = parse_split(XOR[n], f"A:[{','.join(final_part.masks)}]")
    want = reference_complete_split(XOR[n], final_part, gf2.subspaces(n, n - final_part.rank))
    assert split == want
    assert split.initial_part == complete_split(XOR[n], drawn).initial_part


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_splits_matches_rank_then_loop(n):
    # every final subspace of every rank against the scan over sorted bases
    process = XOR[n]
    for r in range(n + 1):
        initial_bases = list(gf2.subspaces(n, r))
        want = [
            reference_complete_split(
                process,
                ParityObservable("A", tuple(gf2.mask_to_bits(m, n) for m in final)),
                initial_bases,
            )
            for final in gf2.subspaces(n, n - r)
        ]
        splits = enumerate_splits(process, r)
        assert splits == want
        # the observables are built unchecked: each part passes the checks of
        # split text, and the two parts span F_2^n; so do uneven_instance's
        for split in splits + [uneven_instance(process, "0" * n, n - r).split]:
            for part in (split.initial_part, split.final_part):
                assert observable_refusal(part.masks) is None
                assert all(len(m) == n for m in part.masks)
                assert part.int_masks == tuple(int(m, 2) for m in part.masks)
            assert len(span(split.initial_part.int_masks + split.final_part.int_masks)) == 1 << n


def gaussian_binomial(n: int, k: int) -> int:
    """[n choose k]_2, the number of k-dimensional subspaces of F_2^n."""
    count = 1
    for i in range(k):
        count = count * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1)
    return count


def test_enumerate_splits_n7_pairs_each_final_part_with_the_units_off_its_pivots():
    # a scaling guard with no timing assert: a scan over the candidate bases
    # takes seconds at this size, the pivot construction a fraction of one
    n, r = 7, 3
    process = xor_process(n)
    splits = enumerate_splits(process, r)
    assert len(splits) == gaussian_binomial(n, n - r) == 11811
    units = [gf2.mask_to_bits(1 << (n - 1 - i), n) for i in range(n)]  # leftmost bit first
    for split in splits:
        pivots = {m.index("1") for m in split.final_part.masks}
        assert split.initial_part.masks == tuple(u for i, u in enumerate(units) if i not in pivots)
    initial_bases = list(gf2.subspaces(n, r))
    for split in random.Random(7).sample(splits, 200):
        assert reference_complete_split(process, split.final_part, initial_bases) == split


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_splits_builds_one_initial_part_per_pivot_set(n):
    # the first complement is the units off the final part's pivots, so the
    # splits of one pivot set share one initial-part object: C(n, r) in all
    for r in range(n + 1):
        by_pivots = {}
        for split in enumerate_splits(XOR[n], r):
            pivots = frozenset(m.index("1") for m in split.final_part.masks)
            assert by_pivots.setdefault(pivots, split.initial_part) is split.initial_part
        assert len({id(part) for part in by_pivots.values()}) == len(by_pivots) == math.comb(n, r)


def test_enumerate_splits_n2_rank1():
    splits = enumerate_splits(P2, 1)
    assert len(splits) == 3
    assert {s.final_part.masks for s in splits} == {("01",), ("10",), ("11",)}
    for s in splits:
        assert s.initial_part.rank == 1
        assert selection_is_injective(P2, s)
    # canonical order is deterministic
    assert [s.name() for s in splits] == [s.name() for s in enumerate_splits(P2, 1)]


def test_enumerate_splits_rank0_and_full():
    full_selection_at_t2 = enumerate_splits(P2, 0)
    assert len(full_selection_at_t2) == 1
    assert full_selection_at_t2[0].final_part.rank == 2
    assert full_selection_at_t2[0].initial_part.rank == 0


def test_enumerate_splits_n4_rank2_count():
    # one split per rank-2 final subspace of F_2^4; cross-check the subspace
    # count by brute-force enumeration
    splits = enumerate_splits(xor_process(4), 2)
    assert len(splits) == len(list(gf2.subspaces(4, 2))) == 35
    assert len({s.final_part.masks for s in splits}) == 35


def test_external_instance_bottom_line():
    inst = external_instance(P2, "01", SelectionSplit(B_L, A_R))
    assert states_close(inst.bottom_line[0], basis_state(P2.layout, "01", "00"))
    assert states_close(inst.bottom_line[1], basis_state(P2.layout, "01", "01"))
    assert inst.name() == "B:[10]/A:[01]@01"
    assert inst.branch_settings() == ("01",)


def test_external_bottom_lines_split_independent():
    for b in setting_values(2):
        bottoms = [
            external_instance(P2, b, split).bottom_line
            for split in enumerate_splits(P2, 1)
        ]
        for inp, out in bottoms:
            assert max_abs_diff(inp, bottoms[0][0]) <= 1e-12
            assert max_abs_diff(out, bottoms[0][1]) <= 1e-12
        assert states_close(bottoms[0][0], basis_state(P2.layout, b, "00"))


def test_external_instance_n3():
    splits = enumerate_splits(P3, 2)
    inst = external_instance(P3, "101", splits[0])
    assert states_close(inst.bottom_line[0], basis_state(P3.layout, "101", "000"))
    assert states_close(inst.bottom_line[1], basis_state(P3.layout, "101", "101"))


def test_solver_instance_pairings():
    pair_of = {}
    for split in enumerate_splits(P2, 1):
        inst = solver_instance(P2, "01", split)
        pair_of[split.final_part.masks] = inst.branch_settings()
    assert pair_of[("01",)] == ("01", "11")
    assert pair_of[("10",)] == ("00", "01")
    assert pair_of[("11",)] == ("01", "10")


def test_solver_instance_bottom_line():
    inst = solver_instance(P2, "01", SelectionSplit(B_L, A_R))
    expected_in = state_from_terms(P2.layout, [("01", "00", 1), ("11", "00", 1)])
    expected_out = state_from_terms(P2.layout, [("01", "01", 1), ("11", "11", 1)])
    assert states_close(inst.bottom_line[0], expected_in)
    assert states_close(inst.bottom_line[1], expected_out)


@pytest.mark.parametrize("process", [P2, P3])
def test_solver_branch_sets_exhaustive(process):
    # branches = settings whose solution shares the final-part parities
    for split in enumerate_splits(process, process.n - process.n // 2):
        for b in setting_values(process.n):
            inst = solver_instance(process, b, split)
            want = tuple(
                sorted(
                    b2
                    for b2 in setting_values(process.n)
                    if outcome_bits(split.final_part, b2) == outcome_bits(split.final_part, b)
                )
            )
            assert inst.branch_settings() == want


def test_trajectory_consistency():
    from tsq.qcore import apply

    for split in enumerate_splits(P2, 1):
        for b in setting_values(2):
            for inst in (solver_instance(P2, b, split), external_instance(P2, b, split)):
                rerun = apply(P2.u12, inst.bottom_line[0])
                assert max_abs_diff(rerun, inst.bottom_line[1]) <= 1e-12


def test_recovery_factor_n2():
    instances = [
        solver_instance(P2, b, split)
        for split in enumerate_splits(P2, 1)
        for b in setting_values(2)
    ]
    report = recover_superposition(instances)
    assert report.proportional
    assert report.factor == pytest.approx(6)
    assert report.max_deviation <= 1e-10


def test_recovery_factor_n3():
    # ceil/floor split: initial part rank 2, final part rank 1; 7 final
    # subspaces, each setting appears in 2^(3-1) = 4 branches per split
    instances = [
        solver_instance(P3, b, split)
        for split in enumerate_splits(P3, 2)
        for b in setting_values(3)
    ]
    report = recover_superposition(instances)
    assert report.proportional
    assert report.factor == pytest.approx(28)


@pytest.mark.parametrize("perspective", [solver_instance, external_instance])
def test_recovery_sums_a_stream_like_its_list(perspective):
    # a generator is summed as it comes, with the same floats as the list
    instances = [perspective(P3, b, split) for split in enumerate_splits(P3, 2) for b in setting_values(3)]
    streamed = recover_superposition(inst for inst in instances)
    assert streamed == recover_superposition(instances)


def test_recovery_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="no instances"):
        recover_superposition(iter([]))


def test_recovery_single_instance():
    # a single instance is proportional to the input iff nothing was selected
    no_selection = uneven_instance(P2, "01", 0)
    assert recover_superposition([no_selection]).proportional
    partial = solver_instance(P2, "01", SelectionSplit(B_L, A_R))
    assert not recover_superposition([partial]).proportional


def test_recovery_rejects_mixed_perspectives():
    split = SelectionSplit(B_L, A_R)
    with pytest.raises(ValueError):
        recover_superposition(
            [solver_instance(P2, "01", split), external_instance(P2, "01", split)]
        )
    # a stream is checked as it comes: the mix shows at its third instance
    mixed = (
        make(P2, b, split)
        for make in (solver_instance, external_instance)
        for b in ("01", "10")
    )
    with pytest.raises(ValueError, match="mix perspectives"):
        recover_superposition(mixed)


def test_recovery_rejects_instances_of_different_processes():
    split3 = enumerate_splits(P3, 2)[0]
    grover3 = grover_process(3)
    with pytest.raises(ValueError, match="mix processes"):
        recover_superposition([solver_instance(P3, "011", split3), solver_instance(grover3, "011", split3)])
    # one layout, one network, another initial state
    other = ProcessDescription(P3.u12, basis_state(P3.layout, "011", "000"))
    with pytest.raises(ValueError, match="mix processes"):
        recover_superposition([solver_instance(P3, "011", split3), solver_instance(other, "011", split3)])
    # n = 2 with n = 3, in a stream
    split2 = SelectionSplit(B_L, A_R)
    mixed = iter([external_instance(P2, "01", split2), external_instance(P3, "011", split3)])
    with pytest.raises(ValueError, match="mix processes"):
        recover_superposition(mixed)


def test_values_holding_arrays_compare_and_hash_by_identity():
    # a state, a unitary or a process holds an array, so == is identity and
    # hash is id: no "truth value of an array" error, for them or for the
    # values that hold them; their value comparisons are max_abs_diff and
    # _same_process
    split = SelectionSplit(B_L, A_R)
    scenario = epr.make_scenario(1)
    builds = [
        lambda: xor_process(2),
        lambda: grover_process(2),
        lambda: uniform_setting_state(P2.layout),
        lambda: CopyUnitary(P2.layout),
        lambda: identity_unitary(P2.layout),
        lambda: external_instance(P2, "01", split),
        lambda: solver_instance(P2, "01", split),
        lambda: epr.make_scenario(1),
        lambda: measure.measure(P2.forward, split.final_part, seed=3),
        lambda: epr.ts_trace(scenario, "01", split),
    ]
    for build in builds:
        first, second = build(), build()
        assert first == first and hash(first) == hash(first)
        assert first != second
    assert max_abs_diff(uniform_setting_state(P2.layout), P2.initial_state) == 0
    assert tsym._same_process(xor_process(2), xor_process(2))


@pytest.mark.parametrize("make", [xor_process, grover_process])
def test_recovery_accepts_separate_builds_of_one_process(make):
    # two builds of one process are equal by value; their instances recover
    # as the instances of one build do
    first, second = make(3), make(3)
    split = enumerate_splits(first, 1)[3]
    one = [solver_instance(first, b, split) for b in setting_values(3)]
    alternating = [solver_instance((first, second)[i % 2], b, split) for i, b in enumerate(setting_values(3))]
    assert first is not second
    report = recover_superposition(alternating)
    assert report.proportional and report == recover_superposition(one)


def test_uneven_instance_ranks():
    full = uneven_instance(P2, "01", 2)
    assert full.branch_settings() == ("01",)
    none = uneven_instance(P2, "01", 0)
    assert none.branch_settings() == ("00", "01", "10", "11")
    assert max_abs_diff(none.bottom_line[0], P2.initial_state) <= 1e-12
    half = uneven_instance(P2, "01", 1)
    assert len(half.branch_settings()) == 2
    with pytest.raises(ValueError):
        uneven_instance(P2, "01", 3)


def test_double_time_symmetrization_is_idempotent():
    # feed a bottom-line input back in as the initial state: the same split
    # reproduces the same bottom line
    split = SelectionSplit(B_L, A_R)
    first = solver_instance(P2, "01", split)
    rerun_process = ProcessDescription(u12=P2.u12, initial_state=first.bottom_line[0])
    second = solver_instance(rerun_process, "01", split)
    assert max_abs_diff(second.bottom_line[0], first.bottom_line[0]) <= 1e-12
    assert max_abs_diff(second.bottom_line[1], first.bottom_line[1]) <= 1e-12


def test_inconsistent_projection_raises():
    # a forced final outcome with no support in the forward state
    bad_initial = basis_state(P2.layout, "00", "00")
    process = ProcessDescription(u12=P2.u12, initial_state=bad_initial)
    with pytest.raises(InvariantError):
        solver_instance(process, "01", SelectionSplit(B_L, A_R))


PROCESSES = {
    f"{kind}-{n}": make(n)
    for kind, make in (("xor", xor_process), ("grover-long", grover_process))
    for n in range(1, 6)
}


@pytest.mark.parametrize("key", PROCESSES)
def test_forward_is_the_applied_initial_state_computed_once(key):
    process = PROCESSES[key]
    forward = process.forward
    assert np.array_equal(forward.amps, apply(process.u12, process.initial_state).amps)
    assert process.forward is forward


def sampled_splits(process):
    """Every split of every rank for n <= 4; for n = 5, six of each rank (or
    all, if fewer), drawn with a fixed seed."""
    rng = random.Random(f"splits/{process.n}")
    for r in range(process.n + 1):
        splits = enumerate_splits(process, r)
        yield from splits if process.n <= 4 else rng.sample(splits, min(6, len(splits)))


@pytest.mark.parametrize("key", PROCESSES)
def test_walks_equal_explicit_legs(key):
    # slow references: every leg an explicit apply, project or apply_adjoint
    # call; the external walk applies U_12 to its selected t1 state, which
    # must equal, bit for bit, the forward leg masked on B
    process = PROCESSES[key]
    u, s0 = process.u12, process.initial_state
    for split in sampled_splits(process):
        for b in setting_values(process.n):
            final = split.final_part
            forward = apply(u, s0)
            selected = project(final, outcome_for(final, b).code, forward)
            solver_want = (s0, None, forward, selected, apply_adjoint(u, selected))
            for inst, want in (
                (solver_instance(process, b, split), solver_want),
                (external_instance(process, b, split), reference_external_walk(process, b, split)),
            ):
                for got, ref in zip(inst.walk, want, strict=True):
                    assert (got is None) == (ref is None)
                    assert got is None or np.array_equal(got.amps, ref.amps)


def reference_branch_settings(state) -> tuple[str, ...]:
    """Slow reference for branch_settings: |amplitude|^2 summed per setting."""
    layout = state.layout
    mass = (np.abs(state.amps.reshape(layout.dim_b, layout.dim_a)) ** 2).sum(axis=1)
    kept = np.nonzero(mass > BRANCH_MASS_TOL * mass.sum())[0]
    return tuple(format(b, f"0{layout.n_b}b") for b in kept)


def bottom_line_instance(state) -> ZigzagInstance:
    """An instance whose backward leg, its bottom-line input, is ``state``
    (with no process, so neither its t2 selection nor its walk can be read)."""
    split = SelectionSplit(ParityObservable("B", ()), ParityObservable("A", ()))
    return ZigzagInstance(None, split, "", "solver", backward=state)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (5, 5)])
def test_branch_settings_match_reference_on_random_states(shape, rng):
    layout = RegisterLayout(*shape)
    for _ in range(20):
        state = random_state(layout, rng)
        # silence a random half of the settings, and scale the rest over decades
        kept = rng.random((layout.dim_b, 1)) < 0.5
        amps = state.amps.reshape(layout.dim_b, layout.dim_a) * kept
        amps = amps * 10.0 ** rng.uniform(-5, 0, size=(layout.dim_b, 1))
        state = StateVector(layout, amps.reshape(-1))
        assert bottom_line_instance(state).branch_settings() == reference_branch_settings(state)


@pytest.mark.parametrize("side", [1 + 1e-6, 1 - 1e-6])
def test_branch_settings_at_the_mass_threshold(side, rng):
    # setting 10 carries a fraction BRANCH_MASS_TOL * side of the total mass,
    # spread over its A values and over real and imaginary parts
    layout = RegisterLayout(2, 2)
    fraction = BRANCH_MASS_TOL * side
    amps = np.zeros((layout.dim_b, layout.dim_a), dtype=np.complex128)
    amps[0] = random_state(RegisterLayout(1, 1), rng).amps
    small = random_state(RegisterLayout(1, 1), rng).amps
    big = np.vdot(amps[0], amps[0]).real
    small = small * np.sqrt(fraction / (1 - fraction) * big / np.vdot(small, small).real)
    amps[2] = small
    state = StateVector(layout, amps.reshape(-1))
    want = ("00", "10") if side > 1 else ("00",)
    assert reference_branch_settings(state) == want
    assert bottom_line_instance(state).branch_settings() == want


def count_selections(monkeypatch) -> tuple[list, list]:
    """Record every ``measure.project`` call (its code) and every sector keep
    that ``measure`` builds (register and code), the ones of ``project`` included."""
    projected, kept = [], []
    project, keep = measure.project, measure._keep
    monkeypatch.setattr(measure, "project", lambda *args: projected.append(args[1]) or project(*args))
    monkeypatch.setattr(measure, "_keep", lambda *args: kept.append((args[0].register, args[2])) or keep(*args))
    return projected, kept


@pytest.mark.parametrize("key", PROCESSES)
def test_every_leg_selection_goes_through_project(key, monkeypatch):
    # every selection masks with measure's one sector keep.  A solver instance
    # keeps its forced A sector (no project call), and its first walk read
    # keeps it again for the walk's t2 selection.  An external one makes no
    # keep at construction: it reads b's B sector's rows and the A keeps
    # moved along them straight off the sector tables.  Its first walk read
    # keeps b's A and B sectors for the grid and makes its t1 selection and
    # t2 state by project on code_b.  A later read of the walk, the
    # trajectory, the t2 selection or the bottom line selects nothing
    projected, kept = count_selections(monkeypatch)
    process = PROCESSES[key]
    split = enumerate_splits(process, 1)[0]
    b = setting_values(process.n)[-1]
    code_b, code_a = outcome_for(split.initial_part, b).code, outcome_for(split.final_part, b).code
    solver = solver_instance(process, b, split)
    assert (projected, kept) == ([], [("A", code_a)])
    kept.clear()
    solver.walk
    assert (projected, kept) == ([], [("A", code_a)])
    kept.clear()
    solver.walk, solver.trajectory, solver.t2_selected, solver.bottom_line
    assert (projected, kept) == ([], [])
    inst = external_instance(process, b, split)
    assert (projected, kept) == ([], [])
    inst.walk
    assert (projected, kept) == (
        [code_b, code_b], [("A", code_a), ("B", code_b), ("B", code_b), ("B", code_b)]
    )
    projected.clear()
    kept.clear()
    inst.walk, inst.trajectory, inst.t2_selected, inst.bottom_line
    assert (projected, kept) == ([], [])


@pytest.mark.parametrize("perspective", [solver_instance, external_instance])
def test_an_unread_t2_selection_is_masked_afresh_at_every_read(perspective, monkeypatch):
    # before the walk is read, each read of the t2 selection (directly or
    # through the bottom line) keeps the instance's sectors once, calls no
    # project, and stores nothing in the instance
    process = PROCESSES["grover-long-3"]
    split = enumerate_splits(process, 1)[1]
    b = "110"
    code_b, code_a = outcome_for(split.initial_part, b).code, outcome_for(split.final_part, b).code
    inst = perspective(process, b, split)
    stored = dict(vars(inst))
    projected, kept = count_selections(monkeypatch)
    first, second = inst.t2_selected, inst.bottom_line[1]
    keeps = [("A", code_a)] if perspective is solver_instance else [("A", code_a), ("B", code_b)]
    assert (projected, kept) == ([], keeps * 2)
    assert first is not second and first.amps.tobytes() == second.amps.tobytes()
    assert vars(inst) == stored


@pytest.mark.parametrize("key", ["xor-3", "grover-long-4"])
def test_bottom_line_reads_of_external_instances_build_no_walk(key, monkeypatch):
    # branch_settings and recovery read the stored backward leg alone: no
    # keep and no project.  A bottom-line read re-masks its t2 end (one A and
    # one B keep) and builds no walk
    process = PROCESSES[key]
    split = enumerate_splits(process, 2)[-1]
    instances = [external_instance(process, b, split) for b in setting_values(process.n)]
    projected, kept = count_selections(monkeypatch)
    for inst in instances:
        assert inst.branch_settings() == (inst.outcome,)
    assert recover_superposition(instances).proportional
    assert (projected, kept) == ([], [])
    for inst in instances:
        backward, t2_selected = inst.bottom_line
        assert backward is inst.backward
        assert t2_selected.amps.tobytes() == inst.t2_selected.amps.tobytes()
    assert projected == [] and len(kept) == 4 * len(instances)
    assert all("walk" not in vars(inst) for inst in instances)


def test_solver_branch_settings_and_recovery_make_no_keep(monkeypatch):
    process = PROCESSES["grover-long-4"]
    split = enumerate_splits(process, 2)[-1]
    instances = [solver_instance(process, b, split) for b in setting_values(process.n)]
    projected, kept = count_selections(monkeypatch)
    for inst in instances:
        code = outcome_bits(split.final_part, inst.outcome)
        want = tuple(s for s in setting_values(process.n) if outcome_bits(split.final_part, s) == code)
        assert inst.branch_settings() == want
    assert recover_superposition(instances).proportional
    assert (projected, kept) == ([], [])
    assert all("walk" not in vars(inst) for inst in instances)


@pytest.mark.parametrize("perspective", [solver_instance, external_instance])
def test_a_second_walk_read_returns_the_same_states(perspective):
    # once the walk is read, the t2 selection and the bottom line are its
    # states, so a report that shows both shows one state
    inst = perspective(P3, "101", enumerate_splits(P3, 1)[2])
    unread = inst.t2_selected
    walk = inst.walk
    assert inst.walk is walk
    assert walk[0] is P3.initial_state
    assert walk[3] is inst.t2_selected and walk[4] is inst.backward
    assert walk[3].amps.tobytes() == unread.amps.tobytes()
    assert all(s is t for s, t in zip(inst.bottom_line, (walk[4], walk[3])))
    assert all(s is t for (_, s), t in zip(inst.trajectory, (s for s in walk if s is not None)))


@given(
    n=st.integers(1, 4),
    kind=st.sampled_from(["xor", "grover-long"]),
    data=st.data(),
    bottom_line_first=st.booleans(),
)
def test_deferred_external_walk_equals_the_reference(n, kind, data, bottom_line_first):
    # any split, any setting and both unitaries: the walk is the same read
    # before or after the bottom line, and equals the explicit legs
    process = PROCESSES[f"{kind}-{n}"]
    split = data.draw(st.sampled_from(list(sampled_splits(process))))
    b = data.draw(st.sampled_from(setting_values(n)))
    inst = external_instance(process, b, split)
    if bottom_line_first:
        unread = inst.bottom_line
        assert "walk" not in vars(inst)
    walk = inst.walk
    for got, ref in zip(walk, reference_external_walk(process, b, split), strict=True):
        assert np.array_equal(got.amps, ref.amps)
    assert all(s is t for s, t in zip(inst.bottom_line, (walk[4], walk[3])))
    if bottom_line_first:
        assert unread[0] is walk[4] and unread[1].amps.tobytes() == walk[3].amps.tobytes()


@pytest.mark.parametrize("perspective", [solver_instance, external_instance])
@pytest.mark.parametrize("key", PROCESSES)
def test_an_unread_instance_holds_one_dense_state(key, perspective):
    # the backward leg is the one 4^n-amplitude state an instance stores
    # (its process, shared by every instance, holds the forward leg)
    process = PROCESSES[key]
    inst = perspective(process, setting_values(process.n)[-1], enumerate_splits(process, 1)[0])
    inst.bottom_line, inst.branch_settings(), inst.t2_selected
    dense = [
        value
        for value in vars(inst).values()
        if isinstance(value, (StateVector, np.ndarray))
        and np.asarray(getattr(value, "amps", value)).size == process.layout.dim
    ]
    assert len(dense) == 1 and dense[0] is inst.backward


def stored_t2_selection(process, b, split, perspective) -> StateVector:
    """The t2 selection an instance stored before it kept one dense state:
    ``project_forced`` of the final part on the forward leg for the solver,
    the forward leg times the grid of b's B rows and A columns for the
    external one, both 0/1 diagonals built by ``projector_diagonal``."""
    forward = process.forward
    if perspective == "solver":
        return project_forced(split.final_part, b, forward)
    layout = process.layout
    grid = projector_diagonal(outcome_for(split.initial_part, b), layout) * projector_diagonal(
        outcome_for(split.final_part, b), layout
    )
    return StateVector(layout, forward.amps * grid)


@pytest.mark.parametrize("key", PROCESSES)
def test_t2_selection_is_the_stored_selection_byte_for_byte(key):
    # every split for n <= 4 and a sample at n = 5, every setting, both
    # perspectives: the re-masked selection, read before and after the walk
    process = PROCESSES[key]
    for split in sampled_splits(process):
        for b in setting_values(process.n):
            for perspective in ("solver", "external"):
                want = stored_t2_selection(process, b, split, perspective).amps.tobytes()
                inst = (solver_instance if perspective == "solver" else external_instance)(process, b, split)
                assert inst.t2_selected.amps.tobytes() == want
                assert inst.bottom_line[1].amps.tobytes() == want
                assert inst.walk[3].amps.tobytes() == want


@pytest.mark.parametrize(
    "terms, register, norm",
    [
        ([("10", "00", 1)], "B_l", "0.000e+00"),
        ([("10", "00", 1), ("01", "00", 1e-13)], "B_l", "1.000e-13"),
        ([("00", "00", 1)], "A_r", "0.000e+00"),
        ([("00", "00", 1), ("01", "00", 3e-13)], "A_r", "3.000e-13"),
    ],
)
def test_external_instance_names_the_register_whose_selection_annihilates(terms, register, norm):
    # setting 01 of B:[10]/A:[01]: 10 lies outside its B sector (left bit 0);
    # 00 lies inside, but copied to A it lies outside its A sector (right bit 1).
    # The messages are the ones of the selections made one at a time
    process = ProcessDescription(P2.u12, state_from_terms(P2.layout, terms))
    message = (
        f"impossible outcome 01 for {register}: the projection annihilates the state"
        f" (norm {norm} <= STATE_TOL = 1e-12)"
    )
    with pytest.raises(InvariantError) as caught:
        external_instance(process, "01", SelectionSplit(B_L, A_R))
    assert str(caught.value) == message


def external_verdict(state, b: str) -> bool:
    """Whether the sharpness check of ``external_instance`` accepts ``state``
    as the bottom line of setting ``b``."""
    try:
        tsym._check_sharp(state, b)
    except InvariantError:
        return False
    return True


def state_of_row_masses(masses, rng) -> StateVector:
    """A state of RegisterLayout(n, n) whose setting row r carries ``masses[r]``,
    spread over its A values and over real and imaginary parts."""
    n = len(masses).bit_length() - 1
    layout = RegisterLayout(n, n)
    rows = rng.standard_normal((layout.dim_b, layout.dim_a)) + 1j * rng.standard_normal(
        (layout.dim_b, layout.dim_a)
    )
    rows *= np.sqrt(np.asarray(masses) / (np.abs(rows) ** 2).sum(axis=1))[:, np.newaxis]
    return StateVector(layout, rows.reshape(-1))


@given(
    n=st.integers(1, 3),
    data=st.data(),
    b_exponent=st.floats(-12, 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_external_acceptance_matches_the_per_row_predicate(n, data, b_exponent, seed):
    # row b carries 10^b_exponent; every other row is empty or carries
    # 10^offset times that, offsets on both sides of log10(BRANCH_MASS_TOL)
    # and often just under it, so that rows each under the threshold can sum
    # above half of it and the per-row mask decides
    offset = st.one_of(st.none(), st.floats(-14, 2), st.floats(-7, -6))
    offsets = data.draw(st.lists(offset, min_size=1 << n, max_size=1 << n))
    b = data.draw(st.integers(0, (1 << n) - 1))
    masses = [0.0 if o is None else 10.0 ** (b_exponent + o) for o in offsets]
    masses[b] = 10.0**b_exponent
    state = state_of_row_masses(masses, np.random.default_rng(seed))
    setting = format(b, f"0{n}b")
    assert external_verdict(state, setting) == (reference_branch_settings(state) == (setting,))


@pytest.mark.parametrize("fraction", [0.55, 0.9, 2.0, 4.5])
def test_external_off_branch_mass_spread_below_the_row_threshold_is_sharp(fraction, rng, monkeypatch):
    # n = 3: the seven rows off b = 101 share an off-branch fraction of
    # ``fraction`` * BRANCH_MASS_TOL equally, each under the threshold; above
    # half the threshold the two sums cannot accept, and the per-row mask does
    masses = [fraction * BRANCH_MASS_TOL / 7] * 8
    masses[0b101] = 1 - fraction * BRANCH_MASS_TOL
    state = state_of_row_masses(masses, rng)
    assert reference_branch_settings(state) == ("101",)
    calls = []
    original = tsym._branch_mask
    monkeypatch.setattr(tsym, "_branch_mask", lambda s: calls.append(s) or original(s))
    assert external_verdict(state, "101")
    assert len(calls) == 1


@pytest.mark.parametrize("key", PROCESSES)
def test_passing_external_instances_build_no_branch_mask(key, monkeypatch):
    calls = []
    monkeypatch.setattr(tsym, "_branch_mask", lambda s: calls.append(s))
    process = PROCESSES[key]
    for split in sampled_splits(process):
        for b in setting_values(process.n):
            external_instance(process, b, split)
    assert calls == []
