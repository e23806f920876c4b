"""GF(2) linear algebra on bitmask-encoded vectors.

Vectors live in F_2^n and are encoded as Python ints (bit i set = coordinate
i is 1).  Bitstrings like "10" map to ints with the leftmost character as the
most significant bit.
"""

from __future__ import annotations

import functools
from itertools import combinations, product

import numpy as np


def parity(mask: int, value: int) -> int:
    """Dot product mask . value over GF(2)."""
    return (mask & value).bit_count() & 1


def parity_codes(masks, n: int) -> np.ndarray:
    """Sector code of every value 0..2^n - 1: bit len(masks) - 1 - i holds the
    parity under masks[i].  Codes are linear over GF(2), so the values with
    bit j set have the codes of the values below 2^j XORed with the code of
    2^j, column j of the masks."""
    codes = np.zeros(1, dtype=np.int64)
    for j in range(n):
        column = 0
        for mask in masks:
            column = column << 1 | mask >> j & 1
        codes = np.concatenate((codes, codes ^ column))
    return codes


@functools.cache
def _bit_tuples(width: int) -> tuple[tuple[int, ...], ...]:
    """Every value of a ``width``-bit code as its tuple of bits, most
    significant first, indexed by value."""
    return tuple(product((0, 1), repeat=width))


def code_bits(code: int, r: int) -> tuple[int, ...]:
    """The r bits of a sector code (see ``parity_codes``), first mask first.

    Read from per-width tables, a byte at a time past the first r mod 8
    bits, so no table has more than 2^8 rows whatever the rank: a problem's
    settings, and so its advice rank, may be any width.
    """
    head = r % 8
    bits = _bit_tuples(head)[code >> (r - head)]
    for shift in range(r - head - 8, -1, -8):
        bits += _bit_tuples(8)[code >> shift & 0xFF]
    return bits


def rank(vectors) -> int:
    """Rank of the span of ``vectors`` (Gaussian elimination on ints)."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def is_independent(vectors) -> bool:
    vectors = list(vectors)
    return rank(vectors) == len(vectors)


def reduced_basis(vectors) -> tuple[int, ...]:
    """Canonical (reduced row echelon) basis of the span, rows descending.

    Two vector sets span the same subspace iff their reduced bases are equal,
    so this doubles as a subspace signature.
    """
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    # back-substitute: clear every pivot bit from the other rows
    for i, r in enumerate(rows):
        pivot = 1 << (r.bit_length() - 1)
        rows = [row ^ r if (j != i and row & pivot) else row for j, row in enumerate(rows)]
    return tuple(sorted(rows, reverse=True))


def span(vectors) -> frozenset[int]:
    """All GF(2) combinations of ``vectors`` (includes 0)."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def subspaces(n: int, r: int) -> list[tuple[int, ...]]:
    """All rank-r subspaces of F_2^n as canonical bases, sorted.

    Each subspace has one reduced basis, and each reduced basis is built
    directly: choose r pivot bits; the row of pivot p is bit p plus any
    subset of the non-pivot bits below p.  That gives the Gaussian binomial
    [n choose r]_2 bases, each once.
    """
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range for n={n}")
    out = []
    for pivots in combinations(range(n - 1, -1, -1), r):
        taken = sum(1 << p for p in pivots)
        rows = []
        for p in pivots:
            choices = [1 << p]
            for bit in range(p):
                if not taken >> bit & 1:
                    choices += [row | 1 << bit for row in choices]
            rows.append(choices)
        out.extend(product(*rows))
    return sorted(out)


def subspace_count(n: int, r: int) -> int:
    """The number of rank-r subspaces of F_2^n, without building them: the
    Gaussian binomial [n choose r]_2 = prod_{i<r} (2^(n-i) - 1) / (2^(i+1) - 1)."""
    count = 1
    for i in range(r):
        count = count * ((1 << (n - i)) - 1) // ((1 << (i + 1)) - 1)
    return count


def complement_bases(n: int, basis) -> list[tuple[int, ...]]:
    """Canonical bases of all rank-(n - len(basis)) complements of ``basis``.

    A complement W satisfies span(basis) + W = F_2^n with trivial overlap.
    """
    basis = tuple(basis)
    r = n - len(basis)
    out = []
    for cand in subspaces(n, r):
        if rank(basis + cand) == n:
            out.append(cand)
    return out


def mask_to_bits(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")


def bits_to_mask(bits: str) -> int:
    return int(bits, 2) if bits else 0
