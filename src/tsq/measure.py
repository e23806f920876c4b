"""Projective measurements of GF(2) parity observables on one register.

A partial measurement is a set of parity masks over the bits of register B
or A: rank n measures the full register content, one mask a one-bit parity
(left bit, right bit, XOR of the two, ...).  Each register value lies in
one parity sector, coded by ``gf2.parity_codes``; projectors and sector
masses are computed on the 2^n codes of the observed register and spread
over the other.  An outcome is its sector code, and every selection of an
outcome masks the state one way: the 0/1 keep of its sector's register
values (``_keep``), multiplied in (``_masked``).  ``project`` selects a
code, ``project_forced`` the code of a register value, and a zigzag's
joint selection on B and A multiplies one grid of two keeps.  All
projectors are diagonal in the computational basis, so any two such
observables commute.  Projected states are left unrenormalized;
renormalization is the caller's choice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import gf2
from .qcore import STATE_TOL, InvariantError, RegisterLayout, StateVector, _bit_strings


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
    def codes(self) -> np.ndarray:
        """Read-only sector code of every value of n_bits bits (see gf2.parity_codes)."""
        codes = gf2.parity_codes(self.int_masks, self.n_bits)
        codes.setflags(write=False)
        return codes

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


def _register_codes(obs: ParityObservable, layout: RegisterLayout) -> np.ndarray:
    """Sector code of every value of the observed register."""
    n = layout.bits(obs.register)
    if not obs.masks:
        return np.zeros(1 << n, dtype=np.int64)
    if obs.n_bits != n:
        raise ValueError("observable does not fit the layout")
    return obs.codes


def projector_diagonal(outcome: ParityOutcome, layout: RegisterLayout) -> np.ndarray:
    """0/1 diagonal of the projector keeping labels that satisfy all parities."""
    keep = (_register_codes(outcome.observable, layout) == outcome.code).astype(np.float64)
    # spread over the joint index b * dim_a + a
    if outcome.observable.register == "B":
        return np.repeat(keep, layout.dim_a)
    return np.tile(keep, layout.dim_b)


def _keep(obs: ParityObservable, codes: np.ndarray, code: int) -> np.ndarray:
    """Which values of the observed register lie in sector ``code``, given
    their ``codes``: a column over the rows of the (dim_b, dim_a) grid for B,
    a row over its columns for A.  Two keeps of B and A combine into one grid
    with ``&``."""
    keep = codes == code
    return keep[:, np.newaxis] if obs.register == "B" else keep


def _masked(s: StateVector, keep: np.ndarray) -> StateVector:
    """The (dim_b, dim_a) amplitudes of ``s`` times ``keep``, in one multiply."""
    psi = s.amps.reshape(s.layout.dim_b, s.layout.dim_a)
    return StateVector._fresh(s.layout, (psi * keep).reshape(-1))


def project(obs: ParityObservable, code: int, s: StateVector) -> StateVector:
    """Keep the amplitudes whose observed register value lies in sector ``code``
    of ``obs``: the (dim_b, dim_a) amplitudes times ``codes == code`` along
    the observed axis."""
    return _masked(s, _keep(obs, _register_codes(obs, s.layout), code))


def _value_codes(obs: ParityObservable, value_bits: str, layout: RegisterLayout) -> tuple[np.ndarray, int]:
    """The codes of the observed register and the sector code of its value
    ``value_bits``, ``codes[value]``; ValueError when ``value_bits`` is not a
    value of that register."""
    n = layout.bits(obs.register)
    if len(value_bits) != n or value_bits.strip("01"):
        raise ValueError(f"{value_bits!r} is not a value of the {n}-bit register {obs.register}")
    codes = _register_codes(obs, layout)
    return codes, int(codes[int(value_bits, 2)])


def _value_keep(obs: ParityObservable, value_bits: str, layout: RegisterLayout) -> np.ndarray:
    """The ``_keep`` of the sector of register value ``value_bits``."""
    return _keep(obs, *_value_codes(obs, value_bits, layout))


def project_forced(obs: ParityObservable, value_bits: str, s: StateVector) -> StateVector:
    """Project ``s`` onto the outcome of ``obs`` for register value ``value_bits``.

    That outcome is the sector code of the value, ``codes[value]``; the codes
    are read once, for the code and the mask.  Raises ValueError when
    ``value_bits`` is not a value of the observed register, and
    InvariantError when the outcome has no support in ``s``.
    """
    out = _masked(s, _value_keep(obs, value_bits, s.layout))
    parts = out.amps.view(np.float64)
    if parts.dot(parts) <= STATE_TOL**2:  # out.is_zero() without the square root
        raise InvariantError(
            f"impossible outcome {value_bits} for {obs.name()}: the projection annihilates the state"
            f" (norm {out.norm():.3e} <= STATE_TOL = {STATE_TOL:.0e})"
        )
    return out


def _sector_weights(s: StateVector, obs: ParityObservable) -> list[float]:
    """Born weight of every parity sector, indexed by its code."""
    squares = (s.amps.view(np.float64) ** 2).reshape(s.layout.dim_b, -1, 2)
    per_value = squares.sum(axis=(1, 2) if obs.register == "B" else (0, 2))
    return np.bincount(_register_codes(obs, s.layout), per_value, minlength=1 << obs.rank).tolist()


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
