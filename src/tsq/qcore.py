"""Complex state vectors and unitaries over a two-register basis.

Registers are named B (problem setter / first subsystem) and A (problem
solver / second subsystem).  The joint computational basis is ordered with
the B bits as the most significant block: index(|b>|a>) = b * 2^n_a + a.

A state is a dense amplitude vector.  A unitary is either a dense d x d
matrix (``UnitaryOp``) or a solving unitary that copies the setting b into
register A (``CopyUnitary``): X_b N Z_b on setting b, stored as the
one 2^n_a x 2^n_a network N with an XOR gather and signs.  A copying
unitary is controlled on B: it maps each setting row of the (dim_b, dim_a)
amplitudes to the same row, so it commutes with every projection on B.
Both forms check their matrix in ``_checked_unitary``, which returns it
with its conjugate; each stores that conjugate once, and ``apply_adjoint``
multiplies the amplitudes by it, conjugating no matrix.

Amplitudes are stored unnormalized throughout; the norm is queried
explicitly where it matters.  All values are immutable after construction
and every operation is a pure function.

Validation happens where values enter the package, not on every result.
The public ``StateVector`` constructor copies its input and checks its shape
and that its squared norm, summed unscaled by ``np.vdot``, is finite.  That
one reduction refuses NaN and inf, and it bounds the norm |v| below
sqrt(max float) ~ 1.34e154.  Both unitary forms check their k x k matrix for
unitarity (refusing NaN), so no entry exceeds 1 + OP_TOL in modulus, and
every partial sum of a product with it is at most (1 + OP_TOL) * sqrt(k) * |v|:
below 1e164 for any k up to 2^64, far from overflow.  The signs and the XOR
gather of a ``CopyUnitary`` are exact, and its only product is with N, so
the bound holds with k = dim_a.  The product keeps the norm to within k
rounding errors, and a 0/1 projection only zeroes amplitudes.  So ``apply``,
``apply_adjoint`` and the projections in ``measure`` wrap their fresh arrays
with ``StateVector._fresh``, which marks them read-only and neither copies
nor re-checks them.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

# Tolerance policy: every numerical threshold of the package, with its reason.
# Relative thresholds are scaled by max(norm, 1) (or by the total mass) where
# they are used.
OP_TOL = 1e-10           # operator checks (unitarity): a product
                         # with a k x k matrix (k <= d) accumulates k rounding errors
STATE_TOL = 1e-12        # state equality and the zero state: a few ulps per amplitude
RESIDUAL_TOL = 1e-10     # recovery residuals: a few applications
                         # of a unitary, so an operator-level error budget
RENDER_TOL = 1e-9        # printing: amplitudes below it are dropped and coefficients
                         # within it of an integer print as that integer
BRANCH_MASS_TOL = 1e-6   # mass fraction below which a setting branch counts as
                         # absent; well above the CERTAINTY_EPS leak of the
                         # lifted search networks
CORRELATION_TOL = 1e-9   # mass fraction a solving unitary may leak off the
                         # solution; admits the CERTAINTY_EPS search networks
CERTAINTY_EPS = 1e-9     # failure probability the zero-failure search must reach

DEFAULT_DIM_CAP = 1 << 16


class InvariantError(Exception):
    """A numerical invariant the formalism relies on failed to hold."""


def dim_cap() -> int:
    """Hard cap on the joint dimension; env var TSQ_DIM_CAP overrides."""
    raw = os.environ.get("TSQ_DIM_CAP")
    return int(raw) if raw else DEFAULT_DIM_CAP


@dataclass(frozen=True)
class RegisterLayout:
    """Bit counts of registers B and A."""

    n_b: int
    n_a: int

    def __post_init__(self):
        if self.n_b < 1 or self.n_a < 1:
            raise ValueError("each register needs at least one bit")
        if self.dim > dim_cap():
            raise ValueError(
                f"joint dimension 2^{self.n_b + self.n_a} exceeds the cap {dim_cap()}"
            )

    @property
    def dim_b(self) -> int:
        return 1 << self.n_b

    @property
    def dim_a(self) -> int:
        return 1 << self.n_a

    @property
    def dim(self) -> int:
        return 1 << (self.n_b + self.n_a)

    def bits(self, register: str) -> int:
        return self.n_b if register == "B" else self.n_a

    def index(self, b_bits: str, a_bits: str) -> int:
        if len(b_bits) != self.n_b or len(a_bits) != self.n_a:
            raise ValueError(
                f"label |{b_bits}>|{a_bits}> does not fit layout ({self.n_b},{self.n_a})"
            )
        return int(b_bits, 2) * self.dim_a + int(a_bits, 2)


class BasisLabel(NamedTuple):
    b_bits: str
    a_bits: str


@functools.cache
def _bit_strings(width: int) -> tuple[str, ...]:
    """Every value of a ``width``-bit register as its bit string, indexed by
    value: the labels of rendered states and the text of parity masks.
    Widths are bounded by the dimension cap, so the tables are few."""
    return tuple(format(v, f"0{width}b") for v in range(1 << width))


@dataclass(frozen=True)
class StateVector:
    """Unnormalized complex amplitudes over the joint basis, canonical order."""

    layout: RegisterLayout
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.amps, dtype=np.complex128)
        if arr.shape != (self.layout.dim,):
            raise ValueError(f"expected {self.layout.dim} amplitudes, got {arr.shape}")
        if not np.isfinite(np.vdot(arr, arr).real):
            raise ValueError("amplitudes must be finite, with a norm below 1.34e154")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    @classmethod
    def _fresh(cls, layout: RegisterLayout, amps: np.ndarray) -> "StateVector":
        """The state on ``amps``, a complex128 array of shape (dim,) that the
        package just computed from checked inputs and holds the only reference
        to: marked read-only, neither copied nor re-checked (module docstring)."""
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        object.__setattr__(state, "amps", amps)
        return state

    def norm(self) -> float:
        # the sum np.linalg.norm takes of a complex vector, without its wrapper
        re, im = self.amps.real, self.amps.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def amplitude(self, b_bits: str, a_bits: str) -> complex:
        return complex(self.amps[self.layout.index(b_bits, a_bits)])

    def terms(self):
        """Yield (BasisLabel, amplitude) for every term above RENDER_TOL * max(norm, 1)."""
        scale = max(self.norm(), 1.0)
        kept = np.flatnonzero(np.abs(self.amps) > RENDER_TOL * scale)
        b_bits, a_bits = _bit_strings(self.layout.n_b), _bit_strings(self.layout.n_a)
        n_a, a_mask = self.layout.n_a, self.layout.dim_a - 1
        for i, amp in zip(kept.tolist(), self.amps[kept].tolist()):
            yield BasisLabel(b_bits[i >> n_a], a_bits[i & a_mask]), amp

    def is_zero(self) -> bool:
        return self.norm() <= STATE_TOL


def uniform_setting_state(layout: RegisterLayout) -> StateVector:
    """Equal amplitude 1 on every |b>_B |0...0>_A (setting fully indeterminate)."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[:: layout.dim_a] = 1.0
    return StateVector(layout, amps)


def max_abs_diff(s1: StateVector, s2: StateVector) -> float:
    if s1.layout != s2.layout:
        raise ValueError("layout mismatch")
    return float(np.max(np.abs(s1.amps - s2.amps)))


def proportionality(s: StateVector, reference: StateVector) -> tuple[complex, float]:
    """Best factor c with s ~= c * reference and the max-norm residual."""
    if s.layout != reference.layout:
        raise ValueError("layout mismatch")
    denom = np.vdot(reference.amps, reference.amps)
    if abs(denom) == 0:
        raise ValueError("reference state is zero")
    c = complex(np.vdot(reference.amps, s.amps) / denom)
    resid = float(np.max(np.abs(s.amps - c * reference.amps)))
    return c, resid


def hadamard(d: int, dtype=int) -> np.ndarray:
    """Sylvester's Hadamard matrix of order d, a power of two: H[i, j] = (-1)^popcount(i & j)."""
    h = np.empty((d, d), dtype=dtype)
    h[0, 0] = 1
    k = 1
    while k < d:  # double the top-left k x k block in place
        h[:k, k : 2 * k] = h[k : 2 * k, :k] = h[:k, :k]
        np.negative(h[:k, :k], out=h[k : 2 * k, k : 2 * k])
        k *= 2
    return h


def unitarity_deviation(m: np.ndarray) -> float:
    """max |U^H U - I| over the entries of a square matrix U."""
    gram = m.conj().T @ m
    gram -= np.eye(len(m))
    return float(np.max(np.abs(gram)))


def _checked_unitary(matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A read-only complex copy of ``matrix``, once it is a k x k unitary,
    and its read-only conjugate, which the backward leg multiplies by."""
    m = np.array(matrix, dtype=np.complex128)
    if m.shape != (k, k):
        raise ValueError(f"expected a {k} x {k} matrix, got {m.shape}")
    dev = unitarity_deviation(m)
    if not dev <= OP_TOL:
        raise InvariantError(
            f"matrix is not unitary: max |U+U - I| = {dev:.3e} > OP_TOL = {OP_TOL:.0e}"
        )
    conj = m.conj()
    m.setflags(write=False)
    conj.setflags(write=False)
    return m, conj


@dataclass(frozen=True)
class UnitaryOp:
    """Dense d x d unitary on the joint space; unitarity checked on construction."""

    layout: RegisterLayout
    matrix: np.ndarray = field(repr=False)
    _conj: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix, conj = _checked_unitary(self.matrix, self.layout.dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_conj", conj)

    def _apply(self, psi: np.ndarray) -> np.ndarray:
        return self.matrix @ psi

    def _apply_adjoint(self, psi: np.ndarray) -> np.ndarray:
        return psi @ self._conj  # U^H psi


@dataclass(frozen=True)
class CopyUnitary:
    """Solving unitary that copies the setting b of B into register A.

    On setting b it acts on A as X_b N Z_b, where X_b |a> = |a xor b>,
    Z_b |a> = (-1)^popcount(a and b) |a> and N, ``matrix``, is one
    2^n_a x 2^n_a network.  N maps |0...0> to |0...0> exactly when the
    unitary copies every setting sharply.  With no network it is X_b alone,
    the XOR copy: the canonical solving unitary and its own inverse.  The
    XOR gather, and for a network the signs and conj(N), which the backward
    leg multiplies by, are built once; the signs multiply the real and
    imaginary parts by +-1.0, an exact negation.
    """

    layout: RegisterLayout
    matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _xor: np.ndarray = field(init=False, repr=False, compare=False)
    _signs: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _conj: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = self.layout
        if layout.n_b != layout.n_a:
            raise ValueError("setting and solution registers need the same width")
        matrix = conj = signs = None
        if self.matrix is not None:
            matrix, conj = _checked_unitary(self.matrix, layout.dim_a)
            # row b: Z_b, once per real and imaginary part
            signs = np.repeat(hadamard(layout.dim_a, dtype=float), 2, axis=1)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_conj", conj)
        object.__setattr__(self, "_signs", signs)
        # joint index b * dim_a + (a xor b) at b * dim_a + a: the gather of X_b, its own inverse
        i = np.arange(layout.dim)
        object.__setattr__(self, "_xor", i ^ (i >> layout.n_a))

    def _apply(self, psi: np.ndarray) -> np.ndarray:
        x = psi.reshape(self.layout.dim_b, self.layout.dim_a)
        if self.matrix is not None:
            x = (x.view(np.float64) * self._signs).view(np.complex128) @ self.matrix.T
        return x.reshape(-1)[self._xor]

    def _apply_adjoint(self, psi: np.ndarray) -> np.ndarray:
        x = psi[self._xor].reshape(self.layout.dim_b, self.layout.dim_a)
        if self._conj is not None:
            x = x @ self._conj  # N^H on each row
            parts = x.view(np.float64)
            parts *= self._signs
        return x.reshape(-1)


def apply(u: UnitaryOp | CopyUnitary, s: StateVector) -> StateVector:
    """U s."""
    if u.layout != s.layout:
        raise ValueError("layout mismatch between unitary and state")
    return StateVector._fresh(s.layout, u._apply(s.amps))


def apply_adjoint(u: UnitaryOp | CopyUnitary, s: StateVector) -> StateVector:
    """U^H s."""
    if u.layout != s.layout:
        raise ValueError("layout mismatch between unitary and state")
    return StateVector._fresh(s.layout, u._apply_adjoint(s.amps))


def identity_unitary(layout: RegisterLayout) -> UnitaryOp:
    return UnitaryOp(layout, np.eye(layout.dim))
