"""GF(2) linear algebra on bitmask-encoded vectors.

Vectors live in F_2^n and are encoded as Python ints (bit i set = coordinate
i is 1).  Bitstrings like "10" map to ints with the leftmost character as the
most significant bit.
"""

from __future__ import annotations

import functools
from itertools import chain, islice
from typing import Iterable, Iterator

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


def code_bits(code: int, r: int) -> tuple[int, ...]:
    """The r bits of a sector code (see ``parity_codes``), first mask first."""
    return tuple(code >> j & 1 for j in range(r - 1, -1, -1))


def rank(vectors) -> int:
    """Rank of the span of ``vectors``: the length of its reduced basis."""
    return len(reduced_basis(vectors))


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


# The longest tail list one ``subspaces`` stream keeps: a longer tail is
# streamed again on each visit, so a full scan holds no list of its bases.
_TAIL_CACHE_CAP = 1 << 12


def subspaces(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Every rank-r subspace of F_2^n as its reduced basis, in sorted order,
    from a generator: a scan that stops early builds only the bases it read.

    Each subspace has one reduced basis (see ``reduced_basis``): rows
    descending, each row's top bit its pivot, and no pivot set in another
    row.  Sorted order is the order of the first row v, then of the rest,
    so the bases are built row by row: v goes in ascending order (its pivot
    p, then its low bits), and the later rows are a rank-(r - 1) reduced
    basis whose pivots are the bits below p that are zero in v, built the
    same way.  That gives the Gaussian binomial [n choose r]_2 bases, each
    once.  Tails are cached for the life of the stream, keyed by their rank
    and allowed pivot bits, up to ``_TAIL_CACHE_CAP`` bases a tail, and a
    tail whose allowed pivots are exactly its low ``rank`` bits, as the
    tail of every rank's first basis is, is the unit vectors, built with no
    recursion.  The rank is checked at the call.
    """
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range for n={n}")
    return chain.from_iterable(_basis_chunks(r, (1 << n) - 1, {}))


def _basis_chunks(rank: int, allowed: int, cache: dict) -> Iterator[Iterable[tuple[int, ...]]]:
    """The reduced bases of rank ``rank`` whose pivots are bits of
    ``allowed``, in sorted order, in chunks: one per first row, or at rank 1
    one per pivot."""
    if not rank:
        yield ((),)
        return
    need = rank - 1
    p = 0
    while allowed >> p:
        if allowed >> p & 1:
            if not need:
                yield zip(range(1 << p, 2 << p))
            else:
                below = allowed & ((1 << p) - 1)
                top = 1 << p
                low = 0 if below.bit_count() >= need else top
                while low < top:
                    rest = below & ~low
                    if rest.bit_count() >= need:
                        yield map((top | low,).__add__, _tails(need, rest, cache))
                        low += 1
                    else:
                        # every low up to the carry past this one's lowest
                        # allowed bit keeps all its allowed bits: skip them
                        taken = low & below
                        low = (low | ((taken & -taken) - 1)) + 1
        p += 1


@functools.cache
def unit_basis(rank: int) -> tuple[int, ...]:
    """The unit vectors at the low ``rank`` bits, rows descending: the
    reduced basis of the whole of F_2^rank, leftmost bit first."""
    return tuple(1 << j for j in range(rank - 1, -1, -1))


def _tails(rank: int, allowed: int, cache: dict) -> Iterable[tuple[int, ...]]:
    """``_basis_chunks(rank, allowed)`` as one sorted iterable: the list kept
    in ``cache``, or a fresh stream once the tail has proved longer than
    ``_TAIL_CACHE_CAP`` (marked False).  A tail whose allowed pivots are
    exactly the low ``rank`` bits is forced: every one of those bits is a
    pivot, and no row may set another's pivot, so its one basis is the unit
    vectors, returned with no recursion."""
    if allowed == (1 << rank) - 1:
        return (unit_basis(rank),)
    key = rank, allowed
    tails = cache.get(key)
    if tails is None:
        stream = chain.from_iterable(_basis_chunks(rank, allowed, cache))
        tails = list(islice(stream, _TAIL_CACHE_CAP + 1))
        if len(tails) > _TAIL_CACHE_CAP:
            cache[key] = False
            return chain(tails, stream)
        cache[key] = tails
    elif tails is False:
        return chain.from_iterable(_basis_chunks(rank, allowed, cache))
    return tails


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
