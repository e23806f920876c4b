"""Projective measurements of GF(2) parity observables on one register.

A partial measurement is a set of parity masks over the bits of register B
or A: rank n measures the full register content, one mask a one-bit parity
(left bit, right bit, XOR of the two, ...).  Each register value lies in
one parity sector, coded by ``gf2.parity_codes``; projectors and sector
masses are computed on the 2^n codes of the observed register and spread
over the other.  Every selection reads the observable's ``SectorTable``:
the code of every value, the 0/1 keep of every code and the values of
every code.  ``_table`` is the one way to it; it builds the table once per
observable, on first use, and shares one rank-0 table per register width.
An outcome is its sector code, and every selection of an outcome masks the
state one way: the table's keep of its sector (``_keep``), multiplied in
(``_masked``).  ``project`` selects a code, ``project_forced`` the code of
a register value, and a zigzag's joint selection on B and A multiplies one
grid of two keeps.  All projectors are diagonal in the computational
basis, so any two such observables commute.  Projected states are left
unrenormalized; renormalization is the caller's choice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import gf2
from .qcore import STATE_TOL, InvariantError, RegisterLayout, StateVector, _bit_strings


class SectorTable(NamedTuple):
    """The sectors of one observable at one register width, read-only:
    ``codes[v]`` is the sector code of value v, ``keeps[c]`` the 0/1 keep of
    sector c over the values, and ``values[c]`` its values, ascending (each
    of the 2^rank sectors holds 2^(width - rank) values, as the masks are
    independent)."""

    codes: np.ndarray
    keeps: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ParityObservable:
    """Parity masks over one register, as n-bit strings (leftmost character
    the most significant bit); rank 0 = trivial observable.

    Only the register is checked here.  The masks must be nonzero, of one
    width and GF(2)-independent: ``cli.parse_split`` checks this for split
    text, and the package's own builders (``full_observable`` and the splits
    of ``tsym``) hold it by construction.
    """

    register: str
    masks: tuple[str, ...]

    def __post_init__(self):
        if self.register not in ("B", "A"):
            raise ValueError("register must be 'B' or 'A'")

    @property
    def rank(self) -> int:
        return len(self.masks)

    @property
    def n_bits(self) -> int:
        return len(self.masks[0]) if self.masks else 0

    @cached_property
    def int_masks(self) -> tuple[int, ...]:
        """The masks as ints, read once."""
        return tuple(int(m, 2) for m in self.masks)

    @cached_property
    def _sectors(self) -> SectorTable:
        """The sector table at the masks' width, built on first use and kept
        (no field, so equality and hashing ignore it); read by ``_table``."""
        return _sector_table(gf2.parity_codes(self.int_masks, self.n_bits), self.rank)

    def name(self) -> str:
        """Short display name: B, B_l, B_r, or B[masks] in the general case."""
        n, ints = self.n_bits, self.int_masks
        if self.rank == 0:
            return f"{self.register}(trivial)"
        if ints == gf2.unit_basis(n):
            return self.register
        if n == 2 and ints == (0b10,):
            return f"{self.register}_l"
        if n == 2 and ints == (0b01,):
            return f"{self.register}_r"
        return f"{self.register}[{','.join(self.masks)}]"


def _sector_table(codes: np.ndarray, rank: int) -> SectorTable:
    """The table of the sector ``codes`` of 2^rank sectors, marked read-only."""
    keeps = codes == np.arange(1 << rank)[:, np.newaxis]
    values = codes.argsort(kind="stable").reshape(1 << rank, -1)
    for part in (codes, keeps, values):
        part.setflags(write=False)
    return SectorTable(codes, keeps, values)


@cache
def _trivial_table(width: int) -> SectorTable:
    """The table of a rank-0 observable at register width ``width``."""
    return _sector_table(gf2.parity_codes((), width), 0)


def _observable(register: str, basis: tuple[int, ...], n: int) -> ParityObservable:
    """The observable of an independent ``basis``, its mask text read from the
    per-width string table that state rendering shares."""
    return ParityObservable(register, tuple(map(_bit_strings(n).__getitem__, basis)))


def full_observable(layout: RegisterLayout, register: str) -> ParityObservable:
    """Rank-n observable whose outcome bits spell the register content."""
    n = layout.bits(register)
    return _observable(register, gf2.unit_basis(n), n)


@dataclass(frozen=True)
class ParityOutcome:
    observable: ParityObservable
    code: int  # sector code (see gf2.parity_codes): the first mask's bit is the most significant

    @property
    def bits(self) -> tuple[int, ...]:
        """One 0 or 1 per mask, in mask order."""
        return gf2.code_bits(self.code, self.observable.rank)


def _table(obs: ParityObservable, layout: RegisterLayout) -> SectorTable:
    """The sector table of ``obs`` at the width of the observed register,
    the one way to a table: built once per observable and kept.  An
    observable of rank 1 or more fits its masks' width alone (ValueError);
    rank 0 fits every width, one sector holding every value, and the rank-0
    tables are shared, one per width."""
    width = layout.bits(obs.register)
    if not obs.masks:
        return _trivial_table(width)
    if width != obs.n_bits:
        raise ValueError("observable does not fit the layout")
    return obs._sectors


def projector_diagonal(outcome: ParityOutcome, layout: RegisterLayout) -> np.ndarray:
    """0/1 diagonal of the projector keeping labels that satisfy all parities:
    the sector's ``_keep`` spread over the joint index b * dim_a + a."""
    obs = outcome.observable
    keep = _keep(obs, _table(obs, layout), outcome.code)
    return np.broadcast_to(keep, (layout.dim_b, layout.dim_a)).astype(np.float64).reshape(-1)


def _keep(obs: ParityObservable, table: SectorTable, code: int) -> np.ndarray:
    """Which values of the observed register lie in sector ``code``, read off
    ``table``: a column over the rows of the (dim_b, dim_a) grid for B, a row
    over its columns for A.  Two keeps of B and A combine into one grid with
    ``&``."""
    keep = table.keeps[code]
    return keep[:, np.newaxis] if obs.register == "B" else keep


def _masked(s: StateVector, keep: np.ndarray) -> StateVector:
    """``s`` with its (dim_b, dim_a) amplitudes times ``keep``, in one multiply."""
    layout = s.layout
    return StateVector._fresh(layout, (s.amps.reshape(layout.dim_b, layout.dim_a) * keep).reshape(-1))


def project(obs: ParityObservable, code: int, s: StateVector) -> StateVector:
    """Keep the amplitudes whose observed register value lies in sector ``code``
    of ``obs``: the (dim_b, dim_a) amplitudes times its keep along the
    observed axis."""
    return _masked(s, _keep(obs, _table(obs, s.layout), code))


def _value_code(obs: ParityObservable, value_bits: str, layout: RegisterLayout) -> tuple[SectorTable, int]:
    """The sector table of ``obs`` and the code of register value
    ``value_bits``, ``codes[value]``; ValueError when ``value_bits`` is not a
    value of the observed register."""
    n = layout.bits(obs.register)
    if len(value_bits) != n or value_bits.strip("01"):
        raise ValueError(f"{value_bits!r} is not a value of the {n}-bit register {obs.register}")
    table = _table(obs, layout)
    return table, int(table.codes[int(value_bits, 2)])


def _value_keep(obs: ParityObservable, value_bits: str, layout: RegisterLayout) -> np.ndarray:
    """The ``_keep`` of the sector of register value ``value_bits``
    (``_value_code``)."""
    return _keep(obs, *_value_code(obs, value_bits, layout))


def project_forced(obs: ParityObservable, value_bits: str, s: StateVector) -> StateVector:
    """Project ``s`` onto the outcome of ``obs`` for register value ``value_bits``.

    That outcome is the sector code of the value, ``codes[value]``, and its
    mask the table's keep of that code.  Raises ValueError when
    ``value_bits`` is not a value of the observed register, and
    InvariantError when the outcome has no support in ``s``.
    """
    out = _masked(s, _value_keep(obs, value_bits, s.layout))
    if out.is_zero():
        raise InvariantError(
            f"impossible outcome {value_bits} for {obs.name()}: the projection annihilates the state"
            f" (norm {out.norm():.3e} <= STATE_TOL = {STATE_TOL:.0e})"
        )
    return out


def _sector_weights(s: StateVector, obs: ParityObservable) -> list[float]:
    """Born weight of every parity sector, indexed by its code."""
    squares = (s.amps.view(np.float64) ** 2).reshape(s.layout.dim_b, -1, 2)
    per_value = squares.sum(axis=(1, 2) if obs.register == "B" else (0, 2))
    return np.bincount(_table(obs, s.layout).codes, per_value, minlength=1 << obs.rank).tolist()


def sector_masses(s: StateVector, obs: ParityObservable) -> dict[tuple[int, ...], float]:
    """Born weight (squared-amplitude mass) of all 2^rank parity sectors, in code order."""
    return {gf2.code_bits(code, obs.rank): w for code, w in enumerate(_sector_weights(s, obs))}


@dataclass(frozen=True)
class MeasurementRecord:
    outcome: ParityOutcome
    post_state: StateVector


def _uniform(seed) -> float:
    """The first double of PCG64(SeedSequence(seed)), its first output's top
    53 bits: the number that ``np.random.default_rng(seed).random()`` returns."""
    return (np.random.PCG64(seed).random_raw() >> 11) * 2.0**-53


def measure(s: StateVector, obs: ParityObservable, *, seed: int) -> MeasurementRecord:
    """Measure ``obs`` on ``s``: draw a sector by the Born rule, from a
    generator seeded so that runs are reproducible, and project onto it.
    ``seed`` is a seed that ``np.random.default_rng`` takes, except that a
    ``Generator`` or bit generator raises TypeError (the draw would depend on
    its state) and None ValueError (it would seed from the operating system).
    A chosen outcome is ``project_forced``."""
    if seed is None:
        raise ValueError("measure needs a seed: seed=None would make the draw irreproducible")
    cdf = list(accumulate(_sector_weights(s, obs)))
    total = cdf[-1]
    if total <= STATE_TOL**2:  # s.is_zero() without the square root
        raise ValueError("cannot measure the zero state")
    # the inverse CDF at the first double of PCG64(SeedSequence(seed)), left
    # unnormalized: u <= 1 - 2^-53 gives u * total < total = cdf[-1] for any
    # total above STATE_TOL^2, so the code found is that of a sector with mass
    code = bisect_right(cdf, _uniform(seed) * total)
    return MeasurementRecord(ParityOutcome(obs, code), project(obs, code, s))
