"""GF(2) linear algebra building blocks."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsq import gf2
from conftest import random_independent_masks


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


def test_reduced_basis_is_a_subspace_signature():
    # both sets span the same plane in F_2^2
    assert gf2.reduced_basis([0b01, 0b11]) == gf2.reduced_basis([0b10, 0b01])
    assert gf2.reduced_basis([0b11]) == (0b11,)


def test_span():
    assert gf2.span([0b01, 0b10]) == frozenset({0b00, 0b01, 0b10, 0b11})
    assert gf2.span([]) == frozenset({0})


def test_subspace_counts():
    # Gaussian binomial coefficients [n choose r]_2
    assert len(gf2.subspaces(2, 1)) == 3
    assert len(gf2.subspaces(3, 1)) == 7
    assert len(gf2.subspaces(3, 2)) == 7
    assert len(gf2.subspaces(4, 2)) == 35
    assert gf2.subspaces(3, 0) == [()]


def test_subspaces_match_direct_enumeration():
    # independent oracle: group all rank-2 triples of F_2^3 by their span
    spans = set()
    for combo in combinations(range(1, 8), 2):
        if gf2.is_independent(combo):
            spans.add(gf2.span(combo))
    assert len(spans) == len(gf2.subspaces(3, 2))


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
        direct = gf2.subspaces(n, r)
        assert direct == sorted(brute)
        assert len(direct) == gaussian_binomial(n, r)


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
        assert gf2.subspace_count(n, r) == len(gf2.subspaces(n, r))
    assert gf2.subspace_count(10, 5) == 109_221_651


def test_code_bits_of_every_width():
    # a code's bits, first mask first, from byte tables up to rank 40
    rng = np.random.default_rng(23)
    for r in range(41):
        drawn = [int(rng.integers(0, 1 << 62)) % (1 << r) for _ in range(5)]
        for code in (0, (1 << r) - 1, *drawn):
            assert gf2.code_bits(code, r) == tuple(code >> (r - 1 - j) & 1 for j in range(r))


def test_subspaces_rank_bounds():
    with pytest.raises(ValueError):
        gf2.subspaces(3, 4)
