"""Reference results computed without the code under test.

Each workload checks the program's output against what is computed here:
GF(2) subspaces and complements, parity classes, the exact decision-tree
query count, and the closed forms of the drawer problem and of Grover
search.  Nothing in this module imports ``tsq``.
"""

from __future__ import annotations

import math
from functools import lru_cache


def parity(mask: int, value: int) -> int:
    return bin(mask & value).count("1") & 1


def bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def rref(vectors) -> tuple[int, ...]:
    """Reduced row echelon basis of the span over GF(2), rows in descending order."""
    rows: dict[int, int] = {}  # pivot bit -> row
    for v in vectors:
        for pivot in sorted(rows, reverse=True):
            if v & pivot:
                v ^= rows[pivot]
        if v:
            pivot = 1 << (v.bit_length() - 1)
            for p, row in rows.items():
                if row & pivot:
                    rows[p] = row ^ v
            rows[pivot] = v
    return tuple(sorted(rows.values(), reverse=True))


def gf2_rank(vectors) -> int:
    return len(rref(vectors))


@lru_cache(maxsize=None)
def subspaces(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All rank-r subspaces of F_2^n as reduced bases, sorted.

    Grown one dimension at a time from sets of members, which is a different
    route from the program's brute force over vector combinations.
    """
    level = {frozenset([0])}
    for _ in range(r):
        grown = set()
        for space in level:
            for v in range(1, 1 << n):
                if v not in space:
                    grown.add(space | {x ^ v for x in space})
        level = grown
    return tuple(sorted(rref(space) for space in level))


@lru_cache(maxsize=None)
def first_complement(n: int, basis: tuple[int, ...]) -> tuple[int, ...]:
    """First subspace, in sorted basis order, that completes ``basis`` to F_2^n."""
    for cand in subspaces(n, n - len(basis)):
        if gf2_rank(basis + cand) == n:
            return cand
    raise ValueError(f"no complement of {basis}")


def parity_class(settings, masks, b: str) -> set[str]:
    """Settings whose parities under ``masks`` equal those of ``b``."""
    key = [parity(m, int(b, 2)) for m in masks]
    return {s for s in settings if [parity(m, int(s, 2)) for m in masks] == key}


def advice_rank(k: float, n: int) -> int:
    return round(k * n)


def drawer_count(n: int, r: int) -> int:
    """Worst-case queries for 2^n drawers with r advice parities: 2^(n-r) - 1."""
    return (1 << (n - r)) - 1


class DecisionTree:
    """Exact worst-case query counts of one oracle table, over bitmask candidate sets."""

    def __init__(self, settings, queries, answer, solution):
        self.settings = list(settings)
        self.solution = [solution[s] for s in self.settings]
        self.parts = []
        for q in queries:
            groups: dict[str, int] = {}
            for i, s in enumerate(self.settings):
                groups[answer[(s, q)]] = groups.get(answer[(s, q)], 0) | (1 << i)
            self.parts.append(tuple(groups.values()))
        self.memo: dict[int, int] = {}

    def count(self, members: int) -> int:
        if members in self.memo:
            return self.memo[members]
        if len({self.solution[i] for i in range(len(self.settings)) if members >> i & 1}) == 1:
            result = 0
        else:
            best = None
            for parts in self.parts:
                split = [members & p for p in parts if members & p]
                if len(split) < 2:
                    continue
                worst = 0
                for sub in split:
                    worst = max(worst, self.count(sub))
                    if best is not None and worst >= best:
                        break
                if best is None or worst < best:
                    best = worst
                    if best == 0:
                        break
            if best is None:
                raise ValueError("candidates cannot be told apart")
            result = 1 + best
        self.memo[members] = result
        return result

    def class_counts(self, masks) -> dict[tuple[int, ...], int]:
        """Query count of every parity class of the settings under ``masks``."""
        classes: dict[tuple[int, ...], int] = {}
        for i, s in enumerate(self.settings):
            key = tuple(parity(m, int(s, 2)) for m in masks)
            classes[key] = classes.get(key, 0) | (1 << i)
        return {key: self.count(mask) for key, mask in classes.items()}

    def prediction(self, n: int, r: int) -> int:
        """Minimum over rank-r advice bases of the worst class count."""
        return min(max(self.class_counts(basis).values()) for basis in subspaces(n, r))


def grover_theta(n: int) -> float:
    return math.asin(1 / math.sqrt(1 << n))


def grover_iterations(n: int) -> int:
    """Optimal iteration count of standard pi-phase search."""
    theta = grover_theta(n)
    return max(1, round((math.pi / 2 - theta) / (2 * theta)))


def grover_success(n: int) -> float:
    """Success probability sin^2((2j + 1) theta) of standard search."""
    return math.sin((2 * grover_iterations(n) + 1) * grover_theta(n)) ** 2


def long_iterations(n: int) -> int:
    """Iteration count of the zero-failure variant: the ceiling of the optimal count."""
    theta = grover_theta(n)
    return max(1, math.ceil((math.pi / 2 - theta) / (2 * theta) - 1e-12))
