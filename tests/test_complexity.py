"""Decision-tree query complexity and the advance-knowledge predictions."""

import copy
import inspect
import re
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tsq import complexity, gf2
from tsq.complexity import (
    NO_SPLIT,
    ComplexityReport,
    OracleProblemSpec,
    SearchCapError,
    _DecisionTree,
    _advice_rank,
    advanced_knowledge_prediction,
    advice_classes,
    decision_tree_complexity,
    grover_problem,
    k_sweep,
)
from tsq.cli import load_problem
from tsq.grover import SearchOracle, run_long
from tsq.tsym import enumerate_splits, solver_instance, xor_process
from conftest import drawer_problem, setting_values

DATA = Path(__file__).parent / "data"


def reference_complexity(problem: OracleProblemSpec, candidates) -> int:
    """The bare minimax over frozensets: the slow reference for the bitmask engine."""
    candidates = frozenset(candidates)
    if len({problem.solution[b] for b in candidates}) == 1:
        return 0
    best = None
    for q in problem.queries:
        branches: dict[str, set] = {}
        for b in candidates:
            branches.setdefault(problem.answer[(b, q)], set()).add(b)
        if len(branches) == 1:
            continue  # query does not split this set
        worst = max(reference_complexity(problem, part) for part in branches.values())
        if best is None or worst < best:
            best = worst
            if best == 0:
                break
    if best is None:
        raise ValueError(NO_SPLIT)
    return 1 + best


def random_problem(rng, n_settings: int) -> OracleProblemSpec:
    width = max(2, (n_settings - 1).bit_length())
    settings = tuple(format(i, f"0{width}b") for i in range(n_settings))
    queries = tuple(f"q{j}" for j in range(4))
    answer = {
        (b, q): str(rng.integers(0, 3)) for b in settings for q in queries
    }
    # make the problem solvable: one query separates everything
    queries = queries + ("probe",)
    answer.update({(b, "probe"): b for b in settings})
    return OracleProblemSpec("random", settings, queries, answer, {b: b for b in settings})


def test_problem_validation():
    with pytest.raises(ValueError):
        grover_problem(2).__class__(
            "bad", ("00",), ("00",), {("00", "00"): "1"}, {"00": "00"}
        )
    with pytest.raises(ValueError):
        OracleProblemSpec("bad", ("00", "01"), ("00",), {("00", "00"): "1"}, {"00": "0", "01": "0"})


def test_grover_problem_shape():
    p = grover_problem(2)
    assert p.n == 2
    assert len(p.settings) == 4
    assert p.answer[("01", "01")] == "1"
    assert p.answer[("01", "10")] == "0"


@pytest.mark.parametrize("n", [0, -3, -100])
def test_grover_problem_needs_one_bit(n):
    # refused before the dimension cap, with a message about the drawers
    with pytest.raises(ValueError, match=f"needs at least one bit, got n={n}"):
        grover_problem(n)


def test_decision_tree_base_cases():
    p = grover_problem(2)
    assert decision_tree_complexity(p, ["01"]) == 0
    assert decision_tree_complexity(p, ["01", "11"]) == 1
    assert decision_tree_complexity(p, p.settings) == 3


def test_decision_tree_grover_closed_form():
    # opening drawers one at a time: m candidates always need m - 1 queries
    p = grover_problem(4)
    rng = np.random.default_rng(7)
    for m in range(1, 13):
        subset = rng.choice(p.settings, size=m, replace=False)
        assert decision_tree_complexity(p, subset) == m - 1


def test_decision_tree_cap(monkeypatch):
    # 32 candidates count 31 in 30 steps, one per set of 32 down to 3
    # settings (a pair counts in closed form): no size is refused up front,
    # and the step past the budget raises, naming where the steps went
    p = drawer_problem(setting_values(5))
    assert decision_tree_complexity(p, p.settings) == 31
    monkeypatch.setattr(complexity, "DEFAULT_SEARCH_BUDGET", 30)
    assert decision_tree_complexity(p, p.settings) == 31
    monkeypatch.setattr(complexity, "DEFAULT_SEARCH_BUDGET", 29)
    message = "search budget of 29 steps spent (candidate sets counted: 29, advice bases scanned: 0)"
    with pytest.raises(SearchCapError, match=re.escape(message)):
        decision_tree_complexity(p, p.settings)


def flipped_drawer(rng, settings) -> OracleProblemSpec:
    """A drawer problem with 1-3 of its answers flipped at random."""
    pairs = [(b, q) for b in settings for q in settings]
    picks = rng.choice(len(pairs), size=int(rng.integers(1, 4)), replace=False)
    return drawer_problem(settings, {pairs[i] for i in picks})


def test_memoized_matches_unmemoized():
    rng = np.random.default_rng(11)
    problems = [random_problem(rng, int(rng.integers(3, 11))) for _ in range(5)]
    # near-drawer tables, where the elimination bound is tight and the scan
    # of most candidate sets stops at their first splitting query
    problems += [flipped_drawer(rng, setting_values(3)[:7]) for _ in range(6)]
    for p in problems:
        with_memo = outcome(decision_tree_complexity, p, p.settings)
        without = outcome(reference_complexity, p, p.settings)
        assert with_memo == without


def test_advice_classes():
    p = grover_problem(2)
    classes = advice_classes(p, ("01",))
    members = {c.members for c in classes}
    assert members == {("00", "10"), ("01", "11")}
    assert [c.members for c in advice_classes(p, ())] == [p.settings]
    singletons = advice_classes(p, ("10", "01"))
    assert all(len(c.members) == 1 for c in singletons)
    with pytest.raises(ValueError):
        advice_classes(p, ("01", "01"))


def two_settings(n: int) -> OracleProblemSpec:
    """All zeros and all ones, n bits each, told apart by one query."""
    zero, one = "0" * n, "1" * n
    return OracleProblemSpec(
        name="two",
        settings=(zero, one),
        queries=("q",),
        answer={(zero, "q"): "0", (one, "q"): "1"},
        solution={zero: "a", one: "b"},
    )


def test_prediction_with_long_settings():
    # two 40-bit settings: the advice classes come from the settings alone,
    # never from a table over all 2^40 values
    problem = two_settings(40)
    assert advanced_knowledge_prediction(problem, 0.0).worst_case == 1
    full = advanced_knowledge_prediction(problem, 1.0)
    assert (full.advice_rank, full.worst_case) == (40, 0)
    assert [bits for bits, _ in full.per_class] == [(0,) * 40, (1,) * 40]


def test_prediction_n2():
    p = grover_problem(2)
    assert advanced_knowledge_prediction(p, 0.5).predicted_quantum == 1
    assert advanced_knowledge_prediction(p, 1.0).predicted_quantum == 0
    assert advanced_knowledge_prediction(p, 0.0).predicted_quantum == 3


def test_prediction_n4():
    p = grover_problem(4)
    report = advanced_knowledge_prediction(p, 0.5)
    assert report.advice_rank == 2
    assert report.predicted_quantum == 3 == 2 ** (p.n // 2) - 1


@pytest.mark.parametrize("n, k, rank", [(3, 0.5, 2), (5, 0.5, 2), (7, 0.5, 4), (9, 0.5, 4), (2, 0.75, 2)])
def test_advice_rank_rounds_halves_to_even(n, k, rank):
    # round(k * n) takes 1.5 and 3.5 up but 2.5 and 4.5 down
    assert _advice_rank(two_settings(n), k) == rank


def test_prediction_k_bounds():
    with pytest.raises(ValueError):
        advanced_knowledge_prediction(grover_problem(2), 1.5)


def test_k_sweep_values():
    counts2 = [r.worst_case for r in k_sweep(grover_problem(2), [0, 0.5, 1])]
    assert counts2 == [3, 1, 0]
    counts4 = [r.worst_case for r in k_sweep(grover_problem(4), [0, 0.5, 1])]
    assert counts4 == [15, 3, 0]


def test_k_sweep_monotone_dense():
    reports = k_sweep(grover_problem(4), [i / 8 for i in range(9)])
    counts = [r.worst_case for r in reports]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 15 and counts[-1] == 0


def test_prediction_never_exceeds_realized_search():
    for n in (2, 4):
        predicted = advanced_knowledge_prediction(grover_problem(n), 0.5).predicted_quantum
        realized = run_long(SearchOracle(n, "0" * n)).query_count
        assert predicted <= realized


@st.composite
def small_problems(draw, max_settings: int = 10, max_symbols: int = 3):
    """Random problems: up to ``max_settings`` settings of n bits, 1-5 queries
    with 2 to ``max_symbols`` answer values, and solutions that settings may
    share."""
    n = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.integers(0, (1 << n) - 1), min_size=2, max_size=min(max_settings, 1 << n), unique=True,
    ))
    points = tuple(format(b, f"0{n}b") for b in values)
    queries = tuple(f"q{j}" for j in range(draw(st.integers(1, 5))))
    symbols = "0123"[: draw(st.integers(2, max_symbols))]
    answer = {(b, q): draw(st.sampled_from(symbols)) for b in points for q in queries}
    solution = {b: draw(st.sampled_from("wxyz")) for b in points}
    return OracleProblemSpec("random", points, queries, answer, solution)


def outcome(f, *args):
    """``f(*args)``, or the ValueError it raises (a confusable candidate set)."""
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@settings(max_examples=100, deadline=None)
@given(small_problems())
def test_parity_mask_split_matches_advice_classes(problem):
    # settings a strict subset of the 2^n values, in any order: every class
    # of every basis, empty ones dropped, in the reference's code order
    n = problem.n
    assume(len(problem.settings) < 1 << n)
    split = _DecisionTree(problem)
    for r in range(n + 1):
        for basis in gf2.subspaces(n, r):
            masks = tuple(gf2.mask_to_bits(m, n) for m in basis)
            want = [
                (tuple(bit for _, bit in cls.constraints), cls.members)
                for cls in advice_classes(problem, masks)
            ]
            got = [
                (bits, tuple(sorted(b for i, b in enumerate(problem.settings) if cell >> i & 1)))
                for bits, cell in split.classes(basis)
            ]
            assert got == want
            assert split.cells(basis) == [cell for _, cell in split.classes(basis)]


@settings(max_examples=200, deadline=None)
@given(small_problems(), st.data())
def test_bitmask_engine_matches_frozenset_recursion(problem, data):
    subset = data.draw(st.lists(st.sampled_from(problem.settings), min_size=1, unique=True))
    for candidates in (problem.settings, subset):
        fast = outcome(decision_tree_complexity, problem, candidates)
        slow = outcome(reference_complexity, problem, candidates)
        assert fast == slow


@settings(max_examples=200, deadline=None)
@given(small_problems())
def test_singletons_and_pairs_match_frozenset_recursion(problem):
    # the closed forms: one setting counts 0, and a pair 0 if its settings
    # share a solution, else 1 unless the problem is confusable, where the
    # search runs and a pair that no query separates raises
    points = problem.settings
    sets = [(b,) for b in points]
    sets += [(b, c) for i, b in enumerate(points) for c in points[i + 1:]]
    for candidates in sets:
        fast = outcome(decision_tree_complexity, problem, candidates)
        assert fast == outcome(reference_complexity, problem, candidates)


@settings(max_examples=200, deadline=None)
@given(small_problems(max_symbols=4))
def test_bounds_table_is_bound_and_never_decreases(problem):
    # the per-size table the search indexes, and the monotonicity the
    # pigeonhole floor relies on
    table = problem._table
    assert len(table.bounds) == len(problem.settings) + 1
    assert all(table.bounds[m] == table.bound(m) for m in range(len(table.bounds)))
    assert all(a <= b for a, b in zip(table.bounds, table.bounds[1:]))


@settings(max_examples=200, deadline=None)
@given(small_problems(max_symbols=4))
def test_bound_is_admissible(problem):
    # no solvable candidate set needs fewer queries than its bound
    table = problem._table
    for members in range(1, 1 << len(problem.settings)):
        subset = [b for i, b in enumerate(problem.settings) if members >> i & 1]
        exact = outcome(reference_complexity, problem, subset)
        if exact != NO_SPLIT:
            assert table.bound(members.bit_count()) <= exact


def test_solver_branch_is_the_advice_class_of_its_count():
    # the two halves of the claim: the solver's bottom-line branch for a
    # final part of rank r is b's advice class under that part's masks, and
    # the drawer search over that class needs 2^(n-r) - 1 queries
    for n in range(1, 5):
        process, problem = xor_process(n), grover_problem(n)
        for r in range(n + 1):
            for split in enumerate_splits(process, n - r):
                classes = advice_classes(problem, split.final_part.masks)
                for b in problem.settings:
                    (members,) = [c.members for c in classes if b in c.members]
                    assert solver_instance(process, b, split).branch_settings() == members
                    assert decision_tree_complexity(problem, members) == 2 ** (n - r) - 1


def basis_scores(problem: OracleProblemSpec, r: int, complexity=reference_complexity):
    """(masks, per_class rows, worst case) of every rank-r basis in sorted
    order, each class of ``advice_classes`` counted by ``complexity`` (the
    frozenset recursion by default), with no cut."""
    n = problem.n
    for basis in gf2.subspaces(n, r):
        masks = tuple(gf2.mask_to_bits(m, n) for m in basis)
        per_class = tuple(
            (tuple(bit for _, bit in cls.constraints), complexity(problem, cls.members))
            for cls in advice_classes(problem, masks)
        )
        yield masks, per_class, max(count for _, count in per_class)


def exhaustive_prediction(
    problem: OracleProblemSpec, k: float, complexity=reference_complexity
) -> ComplexityReport:
    """Every basis scored in full by ``basis_scores``; the first of equal
    bases wins."""
    r = round(k * problem.n)
    best = None
    for masks, per_class, worst in basis_scores(problem, r, complexity):
        if best is None or worst < best.worst_case:
            best = ComplexityReport(r, k, masks, per_class, worst)
    return best


@settings(max_examples=60, deadline=None)
@given(small_problems(max_settings=8))
def test_no_basis_is_below_the_pigeonhole_floor(problem):
    # some class of a rank-r basis holds ceil(N / 2^r) of the N settings, and
    # the bound never falls as a set grows, so no worst case is below the
    # bound of that size
    total = len(problem.settings)
    for r in range(problem.n + 1):
        floor = problem._table.bound(-(-total // 2**r))
        scores = outcome(lambda: list(basis_scores(problem, r)))
        if scores == NO_SPLIT:
            continue
        assert all(worst >= floor for _, _, worst in scores)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_drawer_scan_stops_at_its_first_basis(n, monkeypatch):
    # the elimination bound is exact on the drawer, so the first basis of
    # every rank meets the floor 2^(n-r) - 1 and no other basis is split
    split_bases = []
    cells = _DecisionTree.cells

    def counted(self, basis):
        split_bases.append(basis)
        return cells(self, basis)

    drawn = []
    stream = gf2.subspaces

    def counted_stream(*args):
        for basis in stream(*args):
            drawn.append(basis)
            yield basis

    monkeypatch.setattr(_DecisionTree, "cells", counted)
    monkeypatch.setattr(gf2, "subspaces", counted_stream)
    problem = grover_problem(n)
    for r in range(n + 1):
        split_bases.clear()
        drawn.clear()
        report = advanced_knowledge_prediction(problem, r / n)
        assert (report.advice_rank, report.worst_case) == (r, 2 ** (n - r) - 1)
        first = list(stream(n, r))[0]
        assert split_bases == drawn == [first]  # one basis built, and one read


@settings(max_examples=60, deadline=None)
@given(small_problems(max_settings=8), st.integers(0, 4))
def test_prediction_matches_exhaustive_reference(problem, numerator):
    k = min(numerator / problem.n, 1.0)
    fast = outcome(advanced_knowledge_prediction, problem, k)
    assert fast == outcome(exhaustive_prediction, problem, k)


def test_pair_class_at_the_limit_drops_its_basis():
    # Six settings with solutions z z z w z x; q2 tells 011 apart and q1
    # tells 101 apart.  Every rank-2 basis has worst case 1, so the first,
    # (010, 001), is reported.  The second, (100, 001), has a pair class
    # {001, 011} that counts 1 in closed form: it meets the limit of 1 and
    # must drop the basis like any count, though its bound (0) does not.
    settings = setting_values(3)[:6]
    queries = ("q0", "q1", "q2")
    answer = {(b, q): "0" for b in settings for q in queries}
    answer[("011", "q2")] = answer[("101", "q1")] = "1"
    problem = OracleProblemSpec("pair-at-limit", settings, queries, answer, dict(zip(settings, "zzzwzx")))
    report = advanced_knowledge_prediction(problem, 0.5)
    assert report.masks == ("010", "001")
    assert report == exhaustive_prediction(problem, 0.5)


@settings(max_examples=60, deadline=None)
@given(small_problems(max_settings=7, max_symbols=4), st.data())
def test_limited_count_is_exact_below_its_limit(problem, data):
    # count(M, L) is the exact count of M when that is below L, and
    # otherwise a lower bound of at least L, whatever limited counts the
    # same tree made before (limits in a drawn order); a set no query can
    # settle may raise instead.  Exact counts made afterwards are unchanged.
    total = len(problem.settings)
    subsets = {
        members: [b for i, b in enumerate(problem.settings) if members >> i & 1]
        for members in range(1, 1 << total)
    }
    exact = {members: outcome(reference_complexity, problem, s) for members, s in subsets.items()}
    tree = _DecisionTree(problem)
    for limit in data.draw(st.permutations(range(1, total + 1))):
        for members, want in exact.items():
            got = outcome(tree.solve, members, limit)
            if want == NO_SPLIT:
                assert got == NO_SPLIT or got >= limit
            elif want < limit:
                assert got == want
            else:
                assert limit <= got <= want
    exact_counts = {members: outcome(tree.solve, members, members.bit_count() + 1) for members in subsets}
    assert exact_counts == exact


def random_binary_table(rng, n: int = 4, queries: int = 8) -> OracleProblemSpec:
    """The benchmark's random tables: every n-bit setting, binary queries,
    solution = setting, rows drawn again until no two settings answer alike."""
    settings = tuple(setting_values(n))
    names = tuple(f"q{j}" for j in range(queries))
    while True:
        rows = rng.integers(0, 2, size=(len(settings), queries))
        if len({tuple(row) for row in rows}) == len(settings):
            break
    answer = {(b, q): str(rows[i, j]) for i, b in enumerate(settings) for j, q in enumerate(names)}
    return OracleProblemSpec("random", settings, names, answer, {b: b for b in settings})


def test_bound_first_cut_matches_uncut_reference_on_benchmark_tables():
    # 16 settings and 8 binary queries, where the cut drops most bases; the
    # frozenset recursion is too slow here, so the bitmask engine scores
    # every class of every basis
    rng = np.random.default_rng(2002)
    problems = [load_problem(DATA / "random-16x8.json")]
    problems += [random_binary_table(rng) for _ in range(19)]
    for problem in problems:
        for k in (0.0, 0.25, 0.5, 0.75, 1.0):
            want = exhaustive_prediction(problem, k, decision_tree_complexity)
            assert advanced_knowledge_prediction(problem, k) == want


def test_prediction_tie_break_first_sorted_basis():
    # at rank 1 every basis of the n=2 drawer gives two classes of 2 settings
    # (1 query each): the first basis in sorted order, 01, is reported
    report = advanced_knowledge_prediction(grover_problem(2), 0.5)
    assert list(gf2.subspaces(2, 1))[0] == (0b01,)
    assert report.masks == ("01",)
    assert report == exhaustive_prediction(grover_problem(2), 0.5)


@settings(max_examples=30, deadline=None)
@given(small_problems(max_settings=8), st.lists(st.integers(0, 8), min_size=1, max_size=6))
def test_k_sweep_shares_ranks_like_single_predictions(problem, eighths):
    # k values of one rank repeat, so each rank is solved once and copied
    ks = [e / 8 for e in eighths]
    singles = outcome(lambda: [advanced_knowledge_prediction(problem, k) for k in ks])
    assert outcome(k_sweep, problem, ks) == singles


@settings(max_examples=40, deadline=None)
@given(small_problems(max_settings=8), st.permutations(range(5)))
def test_problem_table_is_built_once_and_never_changed(problem, numerators):
    # one problem object queried at k values in shuffled order
    table = problem._table
    snapshot = copy.deepcopy(vars(table))
    for numerator in numerators:
        k = min(numerator / problem.n, 1.0)
        got = outcome(advanced_knowledge_prediction, problem, k)
        assert got == outcome(exhaustive_prediction, problem, k)
        fresh = OracleProblemSpec(*(getattr(problem, f.name) for f in fields(problem)))
        assert got == outcome(advanced_knowledge_prediction, fresh, k)
    assert problem._table is table
    assert vars(table) == snapshot
    # counts and odd settings live in one tree, made per call
    first, second = _DecisionTree(problem), _DecisionTree(problem)
    counted = outcome(first.count, table.full, len(problem.settings) + 1)
    first.cells(gf2.unit_basis(problem.n))
    assert first.table is second.table
    assert first.memo is not second.memo and first.odd is not second.odd
    assert second.memo == {} and second.odd == {}
    assert counted == NO_SPLIT or first.memo[table.full] == counted


def test_capped_problem_builds_no_table():
    # the drawer's answer table is 2^n x 2^n, the joint dimension of two
    # n-bit registers: past its cap (n = 9 by default) it is refused before
    # the settings, let alone the 4^n answers, are listed
    tracemalloc.start()
    try:
        for n in (9, 40):
            with pytest.raises(ValueError, match=rf"joint dimension 2\^{2 * n} exceeds the cap"):
                grover_problem(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert len(grover_problem(8).answer) == 1 << 16


def test_wide_settings_stop_at_the_first_advice_basis(monkeypatch):
    # two 10-bit settings have [10 choose 5]_2 = 109,221,651 rank-5 bases,
    # and the first one already splits them: the floor of 0 is met at once
    problem = load_problem(DATA / "wide-10.json")
    drawn = []
    stream = gf2.subspaces
    monkeypatch.setattr(gf2, "subspaces", lambda n, r: (drawn.append(b) or b for b in stream(n, r)))
    assert [r.worst_case for r in k_sweep(problem, [0, 0.5, 1])] == [1, 0, 0]
    assert len(drawn) == 3


def flipped_24_drawer(seed: int) -> OracleProblemSpec:
    """The first 24 five-bit values as drawers, with 29 of the 576 answers
    flipped at (setting, query) pairs drawn with ``seed``: a table without
    the drawer's structure, which the lower bounds do not settle."""
    settings = setting_values(5)[:24]
    pairs = [(b, q) for b in settings for q in settings]
    picks = np.random.default_rng(seed).choice(len(pairs), size=29, replace=False)
    return drawer_problem(settings, {pairs[i] for i in picks})


def budget_error(problem: OracleProblemSpec, k: float, seconds: float) -> str:
    started = time.perf_counter()
    with pytest.raises(SearchCapError) as refused:
        advanced_knowledge_prediction(problem, k)
    assert time.perf_counter() - started < seconds
    return str(refused.value)


@pytest.mark.parametrize("seed, worst", [(1, 6), (6, 7)])
def test_flipped_drawer_ends_within_the_budget(seed, worst):
    # k = 0 needs 152,629 and 241,052 steps, past the budget; k = 0.2 needs
    # under 15k
    problem = flipped_24_drawer(seed)
    budget = complexity.DEFAULT_SEARCH_BUDGET
    assert budget_error(problem, 0, 5.0) == (
        f"search budget of {budget} steps spent (candidate sets counted: {budget - 1},"
        " advice bases scanned: 1)"
    )
    assert advanced_knowledge_prediction(problem, 0.2).worst_case == worst


def test_flipped_24_file_is_the_seed_4_drawer():
    # the digest runs this table from its file
    problem, want = load_problem(DATA / "flipped-24.json"), flipped_24_drawer(4)
    assert problem == replace(want, name="flipped-24")


@pytest.mark.parametrize("seed, worst", [(4, 11), (7, 10), (8, 9)])
def test_flipped_drawer_at_zero_ends_within_the_budget(seed, worst):
    # every count carries a limit, so the one k = 0 class prunes its
    # branches too: 84,727, 33,485 and 8,389 steps, within the budget
    assert advanced_knowledge_prediction(flipped_24_drawer(seed), 0).worst_case == worst


@pytest.mark.parametrize("seed, worst", [(1, 6), (4, 6), (6, 7)])
def test_flipped_drawer_at_one_fifth_counts_classes_only_to_the_limit(seed, worst, monkeypatch):
    # k = 0.2 takes 1,541, 1,986 and 14,907 steps when each class is counted
    # only as far as it can beat the best basis, against 19,359, 30,962 and
    # 37,465 when every class is counted exactly
    monkeypatch.setattr(complexity, "DEFAULT_SEARCH_BUDGET", 20_000)
    assert advanced_knowledge_prediction(flipped_24_drawer(seed), 0.2).worst_case == worst


def test_random_wide_settings_end_within_the_budget():
    # 24 random 10-bit drawers at k = 1/2: no early rank-5 basis splits all
    # 24 settings to meet the floor of 0, so the scan runs out of steps
    values = np.random.default_rng(1).choice(1 << 10, size=24, replace=False)
    problem = drawer_problem(format(v, "010b") for v in values)
    message = budget_error(problem, 0.5, 10.0)
    counted, scanned = map(int, re.findall(r": (\d+)", message))
    assert counted + scanned == complexity.DEFAULT_SEARCH_BUDGET and scanned > counted


def test_budget_message_is_the_same_on_two_runs(monkeypatch):
    monkeypatch.setattr(complexity, "DEFAULT_SEARCH_BUDGET", 5000)
    first, second = (budget_error(flipped_24_drawer(1), 0, 5.0) for _ in range(2))
    assert first == second == (
        "search budget of 5000 steps spent (candidate sets counted: 4999, advice bases scanned: 1)"
    )


def test_search_too_deep_for_the_interpreter_is_refused():
    # the count recursion nests one set a level, 254 on the 256-setting
    # drawer at k = 0, so a drawer file of about 1,000 settings passes the
    # default limit of 1,000 frames; here the limit is 100 frames past the test
    problem = grover_problem(8)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(SearchCapError, match="search nested deeper than the recursion limit"):
            advanced_knowledge_prediction(problem, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert advanced_knowledge_prediction(problem, 0).worst_case == 255


def test_confusable_pair_raises_even_where_the_cut_off_skips_it():
    # Answers to (q0, q1): 00 -> 00, 01 -> 10, 10 -> 01, 11 -> 01, so 10 and
    # 11 answer every query alike.  Basis 01 separates them (worst case 1);
    # basis 10 puts them together in its second class, after a first class
    # that already needs 1 query, so the cut-off never scores it.
    problem = load_problem(DATA / "confusable-4x2.json")
    assert problem._table.confusable
    assert outcome(decision_tree_complexity, problem, ["10", "11"]) == NO_SPLIT
    with pytest.raises(ValueError, match="no query distinguishes"):
        exhaustive_prediction(problem, 0.5)
    with pytest.raises(ValueError, match="no query distinguishes"):
        advanced_knowledge_prediction(problem, 0.5)
    assert advanced_knowledge_prediction(problem, 1.0).worst_case == 0
