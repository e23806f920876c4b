"""Advanced-knowledge query complexity by exhaustive decision-tree search.

The engine computes the exact deterministic worst-case number of oracle
queries needed to identify the solution of a finite oracle problem, given
advice in the form of GF(2) parity constraints on the setting string.  The
headline quantity: with advice rank r = round(k * n), the minimum over
admissible rank-r parity bases of the worst-case per-class complexity is
the predicted optimal quantum query count at retrocausality fraction k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import gf2
from .qcore import InvariantError

DEFAULT_SEARCH_CAP = 24


class SearchCapError(ValueError):
    """Instance too large for exact search."""


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
        if len({len(s) for s in self.settings}) != 1:
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


def grover_problem(n: int) -> OracleProblemSpec:
    """Ball in one of 2^n drawers; a query opens one drawer."""
    settings = tuple(format(b, f"0{n}b") for b in range(1 << n))
    return OracleProblemSpec(
        name=f"grover-n{n}",
        settings=settings,
        queries=settings,
        answer={(b, q): "1" if b == q else "0" for b in settings for q in settings},
        solution={b: b for b in settings},
    )


def decision_tree_complexity(
    problem: OracleProblemSpec,
    candidates,
    cap: int = DEFAULT_SEARCH_CAP,
    memo: Optional[dict] = None,
    memoize: bool = True,
) -> int:
    """Exact worst-case deterministic query count to pin down the solution.

    0 if the solution is already constant on the candidate set, otherwise
    1 + min over queries of the max over answer branches.  A memo table is
    created per call unless one is passed in for sharing across calls;
    ``memoize=False`` runs the bare recursion (the independent cross-check
    used in tests, exponentially slower).
    """
    candidates = frozenset(candidates)
    if not candidates:
        raise ValueError("candidate set is empty")
    if len(candidates) > cap:
        raise SearchCapError(
            f"instance too large for exact search ({len(candidates)} candidates > cap {cap})"
        )
    if not memoize:
        return _dtc(problem, candidates, None)
    return _dtc(problem, candidates, {} if memo is None else memo)


def _dtc(problem: OracleProblemSpec, candidates: frozenset, memo) -> int:
    if memo is not None and candidates in memo:
        return memo[candidates]
    if len({problem.solution[b] for b in candidates}) == 1:
        result = 0
    else:
        best = None
        for q in problem.queries:
            branches: dict[str, set] = {}
            for b in candidates:
                branches.setdefault(problem.answer[(b, q)], set()).add(b)
            if len(branches) == 1:
                continue  # query does not split this set
            worst = max(_dtc(problem, frozenset(part), memo) for part in branches.values())
            if best is None or worst < best:
                best = worst
                if best == 0:
                    break
        if best is None:
            raise ValueError("no query distinguishes the remaining candidates")
        result = 1 + best
    if memo is not None:
        memo[candidates] = result
    return result


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
    problem: str
    advice_rank: int
    k: float
    masks: tuple[str, ...]
    per_class: tuple[tuple[tuple[int, ...], int], ...]  # (parity bits, query count)
    worst_case: int

    @property
    def predicted_quantum(self) -> int:
        return self.worst_case


def advanced_knowledge_prediction(
    problem: OracleProblemSpec, k: float, cap: int = DEFAULT_SEARCH_CAP
) -> ComplexityReport:
    """Optimal quantum query count predicted from k*n bits of advance knowledge.

    Minimizes the worst-case class complexity over all advice bases of rank
    round(k * n).  Every one is admissible: each GF(2) subspace has a
    complement, with which it forms a full-rank selection.
    """
    if not 0 <= k <= 1:
        raise ValueError("k must lie in [0, 1]")
    if len(problem.settings) > cap:
        raise SearchCapError(
            f"instance too large for exact search ({len(problem.settings)} settings > cap {cap})"
        )
    n = problem.n
    r = round(k * n)
    best: Optional[ComplexityReport] = None
    memo: dict = {}
    for basis in gf2.subspaces(n, r):
        masks = tuple(gf2.mask_to_bits(m, n) for m in basis)
        classes = advice_classes(problem, masks)
        per_class = tuple(
            (
                tuple(bit for _, bit in cls.constraints),
                decision_tree_complexity(problem, cls.members, cap=cap, memo=memo),
            )
            for cls in classes
        )
        worst = max(count for _, count in per_class)
        if best is None or worst < best.worst_case:
            best = ComplexityReport(problem.name, r, k, masks, per_class, worst)
    return best


def k_sweep(problem: OracleProblemSpec, ks, cap: int = DEFAULT_SEARCH_CAP) -> list[ComplexityReport]:
    reports = [advanced_knowledge_prediction(problem, k, cap=cap) for k in ks]
    for earlier, later in zip(reports, reports[1:]):
        if earlier.k <= later.k and later.worst_case > earlier.worst_case:
            raise InvariantError("worst-case count increased with k")
    return reports
