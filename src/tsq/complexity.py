"""Advanced-knowledge query complexity by exhaustive decision-tree search.

The engine computes the exact deterministic worst-case number of oracle
queries needed to identify the solution of a finite oracle problem, given
advice in the form of GF(2) parity constraints on the setting string.  The
headline quantity: with advice rank r = round(k * n), the minimum over
admissible rank-r parity bases of the worst-case per-class complexity is
the predicted optimal quantum query count at retrocausality fraction k.

The search runs on int bitmasks over the setting indices: each query is
precomputed as its answer partition of the settings, once per problem, and
each candidate set's count is memoized by its mask for the length of one
call.  Every count carries a limit: it is exact below the limit and
otherwise only proved to reach it, and it passes its best worst branch on
as the limit of its branches, so a query is abandoned once one of its
branches reaches the best count found so far (alpha-beta pruning: Knuth &
Moore, "An analysis of alpha-beta pruning", AI 1975).  The memo keeps such
a proof as a bound beside the exact counts.  No count reaches a limit above
its set's size, so such a limit asks for the exact count.  Only "does this
class beat the best?" matters for an advice basis, so each class is counted
with the best worst case as its limit, N until a first basis is scored,
and a basis is dropped once the lower bound below, or else the count, of
one of its classes reaches it.  Every class, and every set counted from
outside the search, gets its count from ``_DecisionTree.solve``: solved
sets and the pairs of a problem that is not confusable (below) in closed
form, then the bound and the memo, all with no step, and only then a
search; a search's own branches make the same checks inline.  A basis's
classes are cut from the settings by per-bit parity masks, so no table
over the 2^n values is built; one ``_DecisionTree`` per call keeps both
the counts and each mask's odd settings.  The tests keep the frozenset
recursion and ``advice_classes`` as the slow references.

Sets of one or two settings are counted in closed form, with no scan of the
queries.  One setting is solved: count 0.  A pair whose settings share a
solution is solved too.  Otherwise the pair counts at least 1, and exactly
1 unless the problem is confusable: in a problem that is not, the common
refinement of all query partitions puts settings of different solutions in
different cells, so some query separates the two, and both its branches
are single settings.  A confusable problem's pairs keep the general
search, which raises for a pair that no query separates.

Two lower bounds on the count of a solvable candidate set M prune the
search without changing any count (Buhrman & de Wolf, "Complexity measures
and decision tree complexity: a survey", TCS 2002):

- Leaves: a tree of depth t whose queries have at most a answers has at
  most a^t leaves, and each leaf holds one solution, so t >= log_a s(M),
  where s(M), the number of distinct solutions in M, is at least
  |M| / c for c the size of the largest same-solution class.
- Elimination: the worst branch of a query q keeps at least |M| - E_q(M)
  settings, where E_q(M) = min_i |M minus P_i| over q's parts P_i.  E_q
  never grows on a subset, so it is at most e = max_q (N - largest part of
  q) on every set, and the worst path of the tree removes at most e
  settings a query.  It ends in a solved set, which holds at most c
  settings, so t >= (|M| - c) / e.

On the drawer problem (a = 2, e = 1, c = 1) the second bound is m - 1, the
exact count, so every count is found from its first splitting query.

Both bounds depend on |M| alone, so they are read from a table of their
value at every size 0..N, built once per problem.  They never fall as |M|
grows, which gives a floor under every advice basis of rank r: its parities
split the N settings into at most 2^r classes, so by pigeonhole one class
holds at least ceil(N / 2^r) settings, and the basis's worst case is at
least the bound of that size.  Once the best basis found meets the floor,
no later one can beat it, and the scan of bases stops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from . import gf2
from .qcore import InvariantError, RegisterLayout

# the most steps one search may take: a step is one candidate set counted
# or one advice basis scanned; a memo hit, and a set its caller takes in
# closed form, costs none
DEFAULT_SEARCH_BUDGET = 1 << 17
NO_SPLIT = "no query distinguishes the remaining candidates"


class SearchCapError(ValueError):
    """Search past its step budget."""


@dataclass(frozen=True)
class OracleProblemSpec:
    """Fully enumerated oracle problem over bitstring settings."""

    name: str
    settings: tuple[str, ...]
    queries: tuple[str, ...]
    answer: Mapping[tuple[str, str], str]
    solution: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "queries", tuple(self.queries))
        if len(self.settings) < 2:
            raise ValueError("need at least two settings")
        if len(set(self.settings)) != len(self.settings):
            raise ValueError("duplicate settings")
        if len({len(s) for s in self.settings}) != 1 or any(s.strip("01") for s in self.settings):
            raise ValueError("settings must be bitstrings of equal length")
        missing = [
            (b, q) for b in self.settings for q in self.queries if (b, q) not in self.answer
        ]
        if missing:
            raise ValueError(f"answer table missing entry for (setting, query) {missing[0]}")
        for b in self.settings:
            if b not in self.solution:
                raise ValueError(f"solution missing for setting {b}")

    @property
    def n(self) -> int:
        return len(self.settings[0])

    @cached_property
    def _table(self) -> "_ProblemTable":
        """The search's fixed structure, built on first use and kept with
        the problem."""
        return _ProblemTable(self)


def grover_problem(n: int) -> OracleProblemSpec:
    """Ball in one of 2^n drawers; a query opens one drawer.  The 2^n x 2^n
    answer table is refused past the dimension cap of two n-bit registers
    (``RegisterLayout(n, n)``), before the 4^n answers are tabulated."""
    if n < 1:
        raise ValueError(f"the drawer problem needs at least one bit, got n={n}")
    RegisterLayout(n, n)
    settings = tuple(format(b, f"0{n}b") for b in range(1 << n))
    return OracleProblemSpec(
        name=f"grover-n{n}",
        settings=settings,
        queries=settings,
        answer={(b, q): "1" if b == q else "0" for b in settings for q in settings},
        solution={b: b for b in settings},
    )


def decision_tree_complexity(problem: OracleProblemSpec, candidates) -> int:
    """Exact worst-case deterministic query count to pin down the solution.

    0 if the solution is already constant on the candidate set, otherwise
    1 + min over queries of the max over answer branches, found by the
    bitmask engine with a memo table made for this call, at the limit m + 1
    that no count of m candidates reaches.
    """
    candidates = frozenset(candidates)
    if not candidates:
        raise ValueError("candidate set is empty")
    tree = _DecisionTree(problem)
    return tree.solve(sum(1 << tree.table.index[b] for b in candidates), len(candidates) + 1)


class _ProblemTable:
    """What the search needs of a problem and never changes, as int masks
    over its setting indices.

    Each query is stored as its answer partition of all settings (queries
    that split nothing, and repeats of a partition, are dropped), each
    setting with the mask of the settings sharing its solution, the
    constants of ``bound`` and its value ``bounds[m]`` at every size m,
    ``bit_odd[j]``, the mask of the settings whose value has bit j set, and
    whether the problem is ``confusable``.  None of it depends on k, so a
    problem builds it once (``OracleProblemSpec._table``) and nothing
    changes it; counts and odd settings are kept per call by
    ``_DecisionTree``.
    """

    def __init__(self, problem: OracleProblemSpec):
        self.index = {b: i for i, b in enumerate(problem.settings)}
        total = len(self.index)
        self.full = (1 << total) - 1
        partitions = {}
        for q in problem.queries:
            parts: dict[str, int] = {}
            for b, i in self.index.items():
                symbol = problem.answer[(b, q)]
                parts[symbol] = parts.get(symbol, 0) | 1 << i
            if len(parts) > 1:
                partitions.setdefault(tuple(sorted(parts.values())), None)
        self.partitions = tuple(partitions)
        by_solution: dict[str, int] = {}
        for b, i in self.index.items():
            s = problem.solution[b]
            by_solution[s] = by_solution.get(s, 0) | 1 << i
        self.same_solution = tuple(by_solution[problem.solution[b]] for b in problem.settings)
        # The constants of ``bound``: a, the most answers of one query; e,
        # the most settings one query removes from its largest part; c, the
        # largest same-solution class.
        arity = max(map(len, self.partitions), default=2)
        self.removed = max(
            (total - max(map(int.bit_count, parts)) for parts in self.partitions), default=1
        )
        self.largest_class = max(map(int.bit_count, self.same_solution))
        # depth[s]: the least t with arity^t >= s
        depth = [0] * (total + 1)
        for s in range(2, total + 1):
            depth[s] = depth[-(-s // arity)] + 1
        self.depth = tuple(depth)
        self.bounds = tuple(map(self.bound, range(total + 1)))
        values = [int(b, 2) for b in problem.settings]
        self.bit_odd = tuple(
            sum(1 << i for i, v in enumerate(values) if v >> j & 1) for j in range(problem.n)
        )
        # confusable: two settings with different solutions answer every query alike
        cells = [self.full]
        for parts in self.partitions:
            cells = [cell & part for cell in cells for part in parts if cell & part]
        self.confusable = not all(map(self.solved, cells))

    def solved(self, members: int) -> bool:
        """Whether every setting in ``members`` has the same solution."""
        return not members & ~self.same_solution[(members & -members).bit_length() - 1]

    def bound(self, size: int) -> int:
        """max(ceil(log_a ceil(m / c)), ceil((m - c) / e)), the two lower
        bounds of the module docstring on the count of a solvable set of
        m = ``size`` settings.  It never falls as ``size`` grows."""
        solutions = -(-size // self.largest_class)
        return max(self.depth[solutions], -((self.largest_class - size) // self.removed))


class _DecisionTree:
    """The minimax on int bitmasks over the problem's setting indices, and
    the advice classes of a basis as such masks.

    Built for one call and dropped with it: it reads the problem's
    ``_ProblemTable``, keeps every count, or lower bound, found in ``memo``
    and the odd settings of each advice mask in ``odd``, which no other
    call sees, and counts in ``steps`` the work it has done.
    """

    def __init__(self, problem: OracleProblemSpec):
        self.table = problem._table
        self.memo: dict[int, int] = {}
        self.odd: dict[int, int] = {}
        self.steps = self.bases = 0

    def odd_settings(self, m: int) -> int:
        """The settings of odd parity under the mask m: the XOR of the
        problem's ``bit_odd`` over the set bits of m."""
        odd = self.odd.get(m)
        if odd is None:
            odd, bits = 0, m
            while bits:
                low = bits & -bits
                odd ^= self.table.bit_odd[low.bit_length() - 1]
                bits ^= low
            self.odd[m] = odd
        return odd

    def cells(self, basis: tuple[int, ...]) -> list[int]:
        """The settings masks of ``classes``, with no parity bits: what the
        scan reads of every basis."""
        cells = [self.table.full]
        for m in basis:
            odd = self.odd_settings(m)
            split = []
            for cell in cells:
                even = cell & ~odd
                if even:
                    split.append(even)
                if even != cell:
                    split.append(cell & odd)
            cells = split
        return cells

    def classes(self, basis: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """(parity bits, settings mask) of each nonempty class, first mask's
        bit first, in bit-tuple order.

        Each mask splits every cell into its even then its odd settings and
        empty cells are dropped, so there are never more cells than
        settings, whatever the rank.
        """
        classes = [((), self.table.full)]
        for m in basis:
            odd = self.odd_settings(m)
            split = []
            for bits, cell in classes:
                even = cell & ~odd
                if even:
                    split.append((bits + (0,), even))
                if even != cell:
                    split.append((bits + (1,), cell & odd))
            classes = split
        return classes

    def refuse(self) -> None:
        """Raise for the step past ``DEFAULT_SEARCH_BUDGET``, saying where
        the steps went: a step is a basis scanned or else a set counted."""
        raise SearchCapError(
            f"search budget of {self.steps} steps spent (candidate sets counted:"
            f" {self.steps - self.bases}, advice bases scanned: {self.bases})"
        )

    def solve(self, members: int, limit: int) -> int:
        """The count of ``members`` under ``limit``, as ``count`` gives it,
        with what needs no search taken first, at no step: a solved set
        counts 0, an unsolved pair of a problem that is not ``confusable``
        counts 1, a set whose ``bound`` reaches the limit returns that bound,
        and a set the memo settles is read from it.  Only a set left is
        counted.  ``count`` nests one set a level, so a recursion too deep
        for the interpreter is refused like the budget."""
        table = self.table
        size = members.bit_count()
        if table.solved(members):
            return 0
        if size == 2 and not table.confusable:
            return 1
        if table.bounds[size] >= limit:
            return table.bounds[size]
        known = self.memo.get(members)
        if known is not None and (known >= 0 or -known >= limit):
            return abs(known)
        try:
            return self.count(members, limit)
        except RecursionError:
            raise SearchCapError("search nested deeper than the recursion limit") from None

    def count(self, members: int, limit: int) -> int:
        """Query count of the candidate set ``members``: exact below
        ``limit`` (at least 1), and otherwise a lower bound of at least
        ``limit``.  A limit above the set's size makes the count exact.

        The count is 1 + the least worst branch over the queries.  It is
        taken only of a set with no closed form, as ``solve`` and the branch
        loop here take them: a solved set (one setting is solved) counts 0,
        and an unsolved pair counts 1 unless the problem is ``confusable``,
        since then the pair's two solutions lie in two cells of the common
        refinement of all queries, so some query separates them.  No count
        is below its ``bound``, so two cuts cannot change it:
        - a query is abandoned once the count of a branch, or the bound of a
          branch not yet counted, reaches the cut: the best worst branch
          found so far, or ``limit - 1`` if that is smaller, since its worst
          branch is no smaller;
        - the scan stops once the best worst branch reaches
          ``bounds[|members|] - 1``, since no query can do better.
        The cut is passed as the limit of each branch, so a branch is
        searched only as far as it can lower the cut.  If no query comes in
        under a limit, the count is at least the limit.  A query whose first
        nonempty branch is the whole set does not split it.  A set of m
        settings needs at most m - 1 queries and has a bound below m, so m
        stands for "no splitting query yet": with a limit above m, the first
        splitting query is counted in full, and a set holding two settings
        that no query tells apart raises.

        ``memo`` keeps each exact count c as c and each lower bound L as -L,
        so an exact count is never searched twice and a bound only for a
        higher limit; a bound is at most the set's size, so an exact count
        never takes one.  The caller reads the memo first (``solve`` does):
        a set counted here is one the memo does not settle, and a step.
        """
        if self.steps >= DEFAULT_SEARCH_BUDGET:
            self.refuse()
        self.steps += 1
        memo, table = self.memo, self.table
        same, bounds = table.same_solution, table.bounds
        separable = not table.confusable  # some query splits every unsolved pair
        size = members.bit_count()
        best = size
        cut = size if limit > size else limit - 1
        floor = bounds[size] - 1
        count = self.count
        for parts in table.partitions:
            worst = 0
            for part in parts:
                branch = members & part
                if not branch:
                    continue
                if branch == members:
                    break  # the query does not split this set
                low = branch & -branch
                if branch == low or not branch & ~same[low.bit_length() - 1]:
                    continue  # one setting, or a solved set: counts 0
                m = branch.bit_count()
                if m == 2 and separable:
                    c = 1
                else:
                    c = memo.get(branch)  # a hit costs no call
                    if c is None or c < 0 and -c < cut:
                        if bounds[m] >= cut:
                            break  # a bound that reaches the cut needs no count
                        c = count(branch, cut)
                    elif c < 0:
                        c = -c
                if c > worst:
                    worst = c
                    if worst >= cut:
                        break
            else:  # the query splits the set, with a worst branch below the cut
                best = cut = worst
                if best <= floor:
                    break
        if best < size:
            memo[members] = 1 + best
            return 1 + best
        if cut == size:
            raise ValueError(NO_SPLIT)
        memo[members] = -limit  # no query comes in under the limit
        return limit


@dataclass(frozen=True)
class AdviceClass:
    """Settings compatible with one joint outcome of the advice parities."""

    constraints: tuple[tuple[str, int], ...]  # (mask bits, parity bit)
    members: tuple[str, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("advice class must be nonempty")


def advice_classes(problem: OracleProblemSpec, masks: tuple[str, ...]) -> list[AdviceClass]:
    """Partition of the settings by the parity bits of ``masks``."""
    ints = [gf2.bits_to_mask(m) for m in masks]
    if not gf2.is_independent(ints):
        raise ValueError("advice masks must be GF(2)-linearly independent")
    groups: dict[tuple[int, ...], list[str]] = {}
    for b in problem.settings:
        bits = tuple(gf2.parity(m, int(b, 2)) for m in ints)
        groups.setdefault(bits, []).append(b)
    return [
        AdviceClass(tuple(zip(masks, bits)), tuple(sorted(members)))
        for bits, members in sorted(groups.items())
    ]


@dataclass(frozen=True)
class ComplexityReport:
    advice_rank: int
    k: float
    masks: tuple[str, ...]
    per_class: tuple[tuple[tuple[int, ...], int], ...]  # (parity bits, query count)
    worst_case: int

    @property
    def predicted_quantum(self) -> int:
        return self.worst_case


def _advice_rank(problem: OracleProblemSpec, k: float) -> int:
    """round(k * n), the number of advice parities at fraction k.

    Python's ``round`` takes a half to the even neighbour, so at k = 1/2 the
    rank rounds up at n = 3 and 7 (ranks 2 and 4) and down at n = 5 and 9
    (ranks 2 and 4), and k = 3/4 at n = 2 gives rank 2, full knowledge.
    """
    if not 0 <= k <= 1:
        raise ValueError("k must lie in [0, 1]")
    return round(k * problem.n)


def advanced_knowledge_prediction(problem: OracleProblemSpec, k: float) -> ComplexityReport:
    """Optimal quantum query count predicted from k*n bits of advance knowledge.

    Minimizes the worst-case class complexity over all advice bases of rank
    round(k * n).  Every one is admissible: each GF(2) subspace has a
    complement, with which it forms a full-rank selection.  Bases are tried
    in sorted order and only a strictly smaller worst case replaces the
    best, so a class needs counting only as far as it can beat the best
    worst case found so far.  Every class is counted with the best worst
    case as its limit (see ``_DecisionTree.count``), from N, which no count
    reaches, so the first basis is counted exactly; a basis is dropped at
    its first class whose bound (``bounds`` at its size) or, failing that,
    whose count reaches that limit: no count is below its bound, so the
    bound drops exactly the bases the count would, before the class is
    searched.  A solved class counts 0 and an unsolved pair of a problem
    that is not ``confusable`` counts 1, taken by ``_DecisionTree.solve``
    with no count and no step, and compared with the best like any other
    count.  The counts memo keeps the exact counts and the "at least limit"
    bounds side by side, so a class met again in a later basis, or as a
    branch, is searched again only for a higher limit.  A basis's classes
    come from per-bit parity masks (``_DecisionTree.cells``), never from a
    table over all 2^n values.  The scan stops once the best worst case is at most the floor
    ``bounds[ceil(N / 2^r)]``: a basis's at most 2^r classes share the N
    settings, so by pigeonhole one of them holds ceil(N / 2^r) or more, and
    ``bound`` never falls as the size grows, so no basis has a worst case
    below the floor.  The report is the one the full scan gives, since a
    later basis replaces the best only with a strictly smaller worst case,
    and every count of the best basis is below the limit it was counted
    with, so exact; it is built once, after the scan.  The problem's
    ``_ProblemTable`` is built on its first call and read by every later
    one; one count memo, made for this call, serves every basis.  The bases
    are drawn from the ``gf2.subspaces`` stream, so a scan that stops early
    builds only the bases it read.  Each basis drawn and each class counted
    spends a step of the one ``DEFAULT_SEARCH_BUDGET``.
    """
    r = _advice_rank(problem, k)
    n = problem.n
    table = problem._table
    # Below full rank some class of some basis holds any given pair of
    # settings, and a confusable pair has no count: raise whichever bases
    # the cut-off skips.
    if r < n and table.confusable:
        raise ValueError(NO_SPLIT)
    tree = _DecisionTree(problem)
    # some class of every basis holds ceil(N / 2^r) of the N settings
    floor = table.bounds[-(-len(problem.settings) >> r)]
    # no class counts N or more, so the first basis's counts are exact
    best_worst = len(problem.settings)
    for basis in gf2.subspaces(n, r):
        if tree.steps >= DEFAULT_SEARCH_BUDGET:
            tree.refuse()
        tree.steps += 1
        tree.bases += 1
        counts = []
        for members in tree.cells(basis):
            count = tree.solve(members, best_worst)
            if count >= best_worst:
                break
            counts.append(count)
        else:
            best_worst = max(counts)
            best, best_counts = basis, counts
            if best_worst <= floor:
                break  # no later basis can have a smaller worst case
    rows = tuple((bits, count) for (bits, _), count in zip(tree.classes(best), best_counts))
    masks = tuple(gf2.mask_to_bits(m, n) for m in best)
    return ComplexityReport(r, k, masks, rows, best_worst)


def k_sweep(problem: OracleProblemSpec, ks) -> list[ComplexityReport]:
    """One report per k, in the order given; each advice rank is solved once
    and shared by its k values.  The worst case must not grow with k, which
    is checked in ascending k, whatever the order given."""
    by_rank: dict[int, ComplexityReport] = {}
    reports = []
    for k in ks:
        r = _advice_rank(problem, k)
        if r not in by_rank:
            by_rank[r] = advanced_knowledge_prediction(problem, k)
        reports.append(replace(by_rank[r], k=k))
    ascending = sorted(reports, key=lambda report: report.k)
    for earlier, later in zip(ascending, ascending[1:]):
        if later.worst_case > earlier.worst_case:
            raise InvariantError(
                f"worst-case count increased with k: {later.worst_case} at k={later.k}"
                f" > {earlier.worst_case} at k={earlier.k}"
            )
    return reports
