"""GF(2) linear algebra building blocks."""

from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsq import gf2
from conftest import random_independent_masks, span


def test_parity_examples():
    assert gf2.parity(0b10, 0b01) == 0
    assert gf2.parity(0b10, 0b11) == 1
    assert gf2.parity(0b11, 0b01) == 1
    assert gf2.parity(0b11, 0b11) == 0


@given(st.integers(0, 255), st.integers(0, 255))
def test_parity_is_linear(v1, v2):
    mask = 0b10110101
    assert gf2.parity(mask, v1 ^ v2) == gf2.parity(mask, v1) ^ gf2.parity(mask, v2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_parity_codes_match_scalar_parity(n):
    # oracle: bit r - 1 - i of a value's code is its parity under masks[i]
    rng = np.random.default_rng(100 + n)
    for r in range(n + 1):
        for _ in range(3):
            masks = random_independent_masks(rng, n, r)
            codes = gf2.parity_codes(masks, n)
            assert codes.shape == (1 << n,)
            for value in range(1 << n):
                bits = tuple((int(codes[value]) >> (r - 1 - i)) & 1 for i in range(r))
                assert bits == tuple(gf2.parity(m, value) for m in masks)


@pytest.mark.parametrize("n", range(11))
def test_parity_codes_up_to_ten_bits(n):
    # no masks: every value is in the one sector 0, whatever n
    empty = gf2.parity_codes([], n)
    assert empty.shape == (1 << n,) and not empty.any()
    # every value at once against the scalar parity, masks in random order
    rng = np.random.default_rng(200 + n)
    for r in range(1, n + 1):
        masks = random_independent_masks(rng, n, r)
        want = [
            sum(gf2.parity(m, value) << (r - 1 - i) for i, m in enumerate(masks))
            for value in range(1 << n)
        ]
        assert gf2.parity_codes(masks, n).tolist() == want


def test_rank_and_independence():
    assert gf2.rank([]) == 0
    assert gf2.rank([0b01, 0b10]) == 2
    assert gf2.rank([0b01, 0b10, 0b11]) == 2
    assert gf2.is_independent([0b01, 0b10])
    assert not gf2.is_independent([0b01, 0b10, 0b11])
    assert not gf2.is_independent([0])


@given(st.lists(st.integers(0, 63), max_size=6))
def test_rank_counts_the_span(vs):
    # oracle independent of the elimination: the span has 2^rank vectors
    r = gf2.rank(vs)
    assert 1 << r == len(span(vs))
    assert gf2.is_independent(vs) == (r == len(vs))


def test_reduced_basis_is_a_subspace_signature():
    # both sets span the same plane in F_2^2
    assert gf2.reduced_basis([0b01, 0b11]) == gf2.reduced_basis([0b10, 0b01])
    assert gf2.reduced_basis([0b11]) == (0b11,)


def test_span():
    assert span([0b01, 0b10]) == frozenset({0b00, 0b01, 0b10, 0b11})
    assert span([]) == frozenset({0})


def reference_subspaces(n: int, r: int) -> list[tuple[int, ...]]:
    """Slow reference for ``gf2.subspaces``: the reduced bases of every
    pivot set, each row its pivot bit plus any subset of the non-pivot bits
    below it, as one list, sorted."""
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


def test_subspace_counts():
    # Gaussian binomial coefficients [n choose r]_2
    assert len(list(gf2.subspaces(2, 1))) == 3
    assert len(list(gf2.subspaces(3, 1))) == 7
    assert len(list(gf2.subspaces(3, 2))) == 7
    assert len(list(gf2.subspaces(4, 2))) == 35
    assert list(gf2.subspaces(3, 0)) == [()]


def test_subspaces_match_direct_enumeration():
    # independent oracle: group all rank-2 triples of F_2^3 by their span
    spans = set()
    for combo in combinations(range(1, 8), 2):
        if gf2.is_independent(combo):
            spans.add(span(combo))
    assert len(spans) == len(list(gf2.subspaces(3, 2)))


def gaussian_binomial(n: int, r: int) -> int:
    num = den = 1
    for i in range(r):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subspaces_equal_combination_brute_force(n):
    # oracle: reduce every independent r-combination of nonzero vectors
    for r in range(n + 1):
        brute = {gf2.reduced_basis(c) for c in combinations(range(1, 1 << n), r) if gf2.is_independent(c)}
        direct = list(gf2.subspaces(n, r))
        assert direct == sorted(brute) == reference_subspaces(n, r)
        assert len(direct) == gaussian_binomial(n, r)


@pytest.mark.parametrize("n, r", [(n, r) for n in range(8) for r in range(n + 1)] + [(8, 4)])
def test_subspace_stream_equals_the_sorted_list(n, r):
    # at (8, 4) some rank-3 tails pass the cache cap and are streamed again
    assert list(gf2.subspaces(n, r)) == reference_subspaces(n, r)


@pytest.mark.parametrize("n", range(7))
def test_subspace_stream_without_its_tail_cache(n, monkeypatch):
    # every tail longer than 2 bases is streamed again on each visit
    monkeypatch.setattr(gf2, "_TAIL_CACHE_CAP", 2)
    for r in range(n + 1):
        assert list(gf2.subspaces(n, r)) == reference_subspaces(n, r)


def test_subspace_stream_starts_at_once_past_the_basis_cap():
    # [10 choose 5]_2 is about 1.1e8 bases, more than any search budget
    # scans; the first 2,000 come at once and in order,
    # each its own reduced basis of rank 5
    head = list(islice(gf2.subspaces(10, 5), 2000))
    assert len(head) == 2000
    assert all(a < b for a, b in zip(head, head[1:]))
    assert all(len(basis) == 5 and gf2.reduced_basis(basis) == basis for basis in head)


def test_complement_bases():
    comps = gf2.complement_bases(2, (0b01,))
    assert all(gf2.rank((0b01,) + c) == 2 for c in comps)
    assert len(comps) == 2  # {10} and {11}
    assert gf2.complement_bases(2, (0b01, 0b10)) == [()]


def test_mask_bit_round_trip():
    assert gf2.mask_to_bits(0b101, 3) == "101"
    assert gf2.bits_to_mask("101") == 0b101
    assert gf2.bits_to_mask("") == 0


@pytest.mark.parametrize("n", range(8))
def test_subspace_count_is_the_number_of_subspaces(n):
    for r in range(n + 1):
        assert gaussian_binomial(n, r) == len(list(gf2.subspaces(n, r)))
    assert gaussian_binomial(10, 5) == 109_221_651


def test_code_bits_of_every_width():
    # a code's bits, first mask first, from byte tables up to rank 40
    rng = np.random.default_rng(23)
    for r in range(41):
        drawn = [int(rng.integers(0, 1 << 62)) % (1 << r) for _ in range(5)]
        for code in (0, (1 << r) - 1, *drawn):
            assert gf2.code_bits(code, r) == tuple(code >> (r - 1 - j) & 1 for j in range(r))


def test_subspaces_rank_bounds():
    # refused at the call, before the first basis is drawn
    with pytest.raises(ValueError):
        gf2.subspaces(3, 4)
    with pytest.raises(ValueError):
        gf2.subspaces(3, -1)
