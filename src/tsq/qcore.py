"""Dense complex state vectors and unitaries over a two-register basis.

Registers are named B (problem setter / first subsystem) and A (problem
solver / second subsystem).  The joint computational basis is ordered with
the B bits as the most significant block: index(|b>|a>) = b * 2^n_a + a.

Amplitudes are stored unnormalized throughout; the norm is queried
explicitly where it matters.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Tolerance policy: every numerical threshold of the package, with its reason.
# Relative thresholds are scaled by max(norm, 1) (or by the total mass) where
# they are used.
OP_TOL = 1e-10           # operator checks (unitarity, hermiticity, PSD): dense
                         # products of d x d unitaries accumulate d rounding errors
STATE_TOL = 1e-12        # state equality and the zero state: a few ulps per amplitude
RESIDUAL_TOL = 1e-10     # recovery and postponement residuals: a few applications
                         # of a dense unitary, so an operator-level error budget
RENDER_TOL = 1e-9        # printing: amplitudes below it are dropped and coefficients
                         # within it of an integer print as that integer
BRANCH_MASS_TOL = 1e-6   # mass fraction below which a setting branch counts as
                         # absent; well above the CERTAINTY_EPS leak of the
                         # lifted search networks
CORRELATION_TOL = 1e-9   # mass fraction a solving unitary may leak off the
                         # solution; admits the CERTAINTY_EPS search networks
SHARP_TOL = 1e-9         # mass fraction outside the top sector for which an
                         # outcome still counts as deterministic
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

    def label(self, index: int) -> "BasisLabel":
        b, a = divmod(index, self.dim_a)
        return BasisLabel(format(b, f"0{self.n_b}b"), format(a, f"0{self.n_a}b"))


class BasisLabel(NamedTuple):
    b_bits: str
    a_bits: str


@dataclass(frozen=True)
class StateVector:
    """Unnormalized complex amplitudes over the joint basis, canonical order."""

    layout: RegisterLayout
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=np.complex128)
        if arr.shape != (self.layout.dim,):
            raise ValueError(f"expected {self.layout.dim} amplitudes, got {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, b_bits: str, a_bits: str) -> complex:
        return complex(self.amps[self.layout.index(b_bits, a_bits)])

    def terms(self, tol: float = STATE_TOL):
        """Yield (BasisLabel, amplitude) for every non-negligible term."""
        scale = max(self.norm(), 1.0)
        for i, amp in enumerate(self.amps):
            if abs(amp) > tol * scale:
                yield self.layout.label(i), complex(amp)

    def is_zero(self) -> bool:
        return self.norm() <= STATE_TOL


def basis_state(layout: RegisterLayout, b_bits: str, a_bits: str) -> StateVector:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index(b_bits, a_bits)] = 1.0
    return StateVector(layout, amps)


def uniform_setting_state(layout: RegisterLayout, blank_a: str) -> StateVector:
    """Equal amplitude 1 on every |b>_B |blank_a>_A (setting fully indeterminate)."""
    if len(blank_a) != layout.n_a:
        raise ValueError(f"blank register value {blank_a!r} does not fit n_a={layout.n_a}")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    a = int(blank_a, 2)
    amps[a :: layout.dim_a] = 1.0
    return StateVector(layout, amps)


def max_abs_diff(s1: StateVector, s2: StateVector) -> float:
    if s1.layout != s2.layout:
        raise ValueError("layout mismatch")
    return float(np.max(np.abs(s1.amps - s2.amps)))


def states_close(s1: StateVector, s2: StateVector) -> bool:
    return max_abs_diff(s1, s2) <= STATE_TOL * max(s1.norm(), s2.norm(), 1.0)


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


@dataclass(frozen=True)
class UnitaryOp:
    """Dense unitary on the joint space; unitarity checked on construction."""

    layout: RegisterLayout
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got {m.shape}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(d)))
        if dev > OP_TOL:
            raise InvariantError(f"matrix is not unitary: max |U+U - I| = {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "UnitaryOp") -> "UnitaryOp":
        """self applied after other."""
        if self.layout != other.layout:
            raise ValueError("layout mismatch")
        return UnitaryOp(self.layout, self.matrix @ other.matrix)

    def adjoint(self) -> "UnitaryOp":
        return UnitaryOp(self.layout, self.matrix.conj().T)


def apply(u: UnitaryOp, s: StateVector) -> StateVector:
    if u.layout != s.layout:
        raise ValueError("layout mismatch between unitary and state")
    return StateVector(s.layout, u.matrix @ s.amps)


def apply_adjoint(u: UnitaryOp, s: StateVector) -> StateVector:
    if u.layout != s.layout:
        raise ValueError("layout mismatch between unitary and state")
    return StateVector(s.layout, u.matrix.conj().T @ s.amps)


def identity_unitary(layout: RegisterLayout) -> UnitaryOp:
    return UnitaryOp(layout, np.eye(layout.dim))


def xor_copy_unitary(layout: RegisterLayout) -> UnitaryOp:
    """Permutation |b>_B |a>_A -> |b>_B |a xor b>_A.

    The canonical solving unitary: it copies the setting into a blank A
    register and is its own inverse.
    """
    if layout.n_b != layout.n_a:
        raise ValueError("xor copy needs n_b == n_a")
    d = layout.dim
    m = np.zeros((d, d))
    for i in range(d):
        b, a = divmod(i, layout.dim_a)
        m[b * layout.dim_a + (a ^ b), i] = 1.0
    return UnitaryOp(layout, m)


@dataclass(frozen=True)
class DensityOperator:
    """Reduced density matrix of one register (unnormalized, like the states)."""

    register: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.register not in ("B", "A"):
            raise ValueError("register must be 'B' or 'A'")
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(float(np.max(np.abs(m))), 1.0)
        if np.max(np.abs(m - m.conj().T)) > OP_TOL * scale:
            raise InvariantError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs.min() < -OP_TOL * scale:
            raise InvariantError("density matrix is not positive semidefinite")
        if m.trace().real <= 0:
            raise InvariantError("density matrix has non-positive trace")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        tr = self.matrix.trace().real
        return float(np.trace(self.matrix @ self.matrix).real / tr**2)


def reduced_density(s: StateVector, register: str) -> DensityOperator:
    """Partial trace of |s><s| over the other register."""
    psi = s.amps.reshape(s.layout.dim_b, s.layout.dim_a)
    if register == "B":
        rho = np.einsum("ij,kj->ik", psi, psi.conj())
    elif register == "A":
        rho = np.einsum("ji,jk->ik", psi, psi.conj())
    else:
        raise ValueError("register must be 'B' or 'A'")
    return DensityOperator(register, rho)
