"""Complex state vectors and block-diagonal unitaries over a two-register basis.

Registers are named B (problem setter / first subsystem) and A (problem
solver / second subsystem).  The joint computational basis is ordered with
the B bits as the most significant block: index(|b>|a>) = b * 2^n_a + a.

A state is a dense amplitude vector.  A unitary is stored as the stack of
its diagonal blocks: one block for a dense operator, one dim_a x dim_a block
per setting for a setting-controlled one (the solving unitaries).

Amplitudes are stored unnormalized throughout; the norm is queried
explicitly where it matters.  All values are immutable after construction
and every operation is a pure function.

Validation happens where values enter the package, not on every result.
The public ``StateVector`` constructor copies its input and checks its shape
and that its squared norm, summed unscaled by ``np.vdot``, is finite.  That
one reduction refuses NaN and inf, and it bounds the norm |v| below
sqrt(max float) ~ 1.34e154.  ``UnitaryOp`` checks unitarity (refusing NaN),
so no entry of a block exceeds 1 + OP_TOL in modulus, and every partial sum
of a block product is at most (1 + OP_TOL) * sqrt(k) * |v|: below 1e164
for any block size k up to 2^64, far from overflow.  The product keeps the
norm to within k rounding errors, and a 0/1 projection only zeroes
amplitudes.  So ``apply``, ``apply_adjoint`` and the projections in
``measure`` wrap their fresh arrays with ``StateVector._fresh``, which marks
them read-only and neither copies nor re-checks them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Tolerance policy: every numerical threshold of the package, with its reason.
# Relative thresholds are scaled by max(norm, 1) (or by the total mass) where
# they are used.
OP_TOL = 1e-10           # operator checks (unitarity, hermiticity, PSD): a product
                         # of k x k blocks (k <= d) accumulates k rounding errors
STATE_TOL = 1e-12        # state equality and the zero state: a few ulps per amplitude
RESIDUAL_TOL = 1e-10     # recovery and postponement residuals: a few applications
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
        return float(np.linalg.norm(self.amps))

    def amplitude(self, b_bits: str, a_bits: str) -> complex:
        return complex(self.amps[self.layout.index(b_bits, a_bits)])

    def terms(self, tol: float = STATE_TOL):
        """Yield (BasisLabel, amplitude) for every non-negligible term."""
        scale = max(self.norm(), 1.0)
        kept = np.flatnonzero(np.abs(self.amps) > tol * scale)
        for i, amp in zip(kept.tolist(), self.amps[kept].tolist()):
            yield self.layout.label(i), amp

    def is_zero(self) -> bool:
        return self.norm() <= STATE_TOL


def basis_state(layout: RegisterLayout, b_bits: str, a_bits: str) -> StateVector:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index(b_bits, a_bits)] = 1.0
    return StateVector(layout, amps)


def uniform_setting_state(layout: RegisterLayout) -> StateVector:
    """Equal amplitude 1 on every |b>_B |0...0>_A (setting fully indeterminate)."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[:: layout.dim_a] = 1.0
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


def unitarity_deviation(blocks: np.ndarray) -> float:
    """max |U_i^H U_i - I| over a stack of k x k blocks U_i.

    The off-diagonal blocks of U^H U are exact zeros, so this is the
    deviation of the whole block-diagonal operator.
    """
    gram = blocks.conj().transpose(0, 2, 1) @ blocks
    gram -= np.eye(blocks.shape[1])
    return float(np.max(np.abs(gram)))


@dataclass(frozen=True)
class UnitaryOp:
    """Block-diagonal unitary on the joint space; unitarity checked on construction.

    ``matrix`` is the stack of the m diagonal k x k blocks, m * k = d: block i
    acts on the joint indices [i*k, (i+1)*k).  A 2-D d x d matrix is taken as
    the single block of a dense operator.
    """

    layout: RegisterLayout
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim == 2:
            m = m[np.newaxis]
        d = self.layout.dim
        if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] * m.shape[1] != d:
            raise ValueError(f"expected a stack of k x k blocks covering dimension {d}, got {m.shape}")
        dev = unitarity_deviation(m)
        if not dev <= OP_TOL:
            raise InvariantError(
                f"matrix is not unitary: max |U+U - I| = {dev:.3e} > OP_TOL = {OP_TOL:.0e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "UnitaryOp") -> "UnitaryOp":
        """self applied after other, multiplied block by block at the larger block size."""
        if self.layout != other.layout:
            raise ValueError("layout mismatch")
        k = max(self.matrix.shape[1], other.matrix.shape[1])
        return UnitaryOp(self.layout, _regroup(self.matrix, k) @ _regroup(other.matrix, k))

    def adjoint(self) -> "UnitaryOp":
        return UnitaryOp(self.layout, self.matrix.conj().transpose(0, 2, 1))


def _regroup(blocks: np.ndarray, k: int) -> np.ndarray:
    """The same block-diagonal operator as a stack of k x k blocks, k a multiple
    of the current block size: each run of consecutive blocks becomes one."""
    m, k0, _ = blocks.shape
    j = k // k0
    runs = blocks.reshape(m // j, j, k0, k0)
    out = np.zeros((m // j, j, k0, j, k0), dtype=blocks.dtype)
    for i in range(j):
        out[:, i, :, i, :] = runs[:, i]
    return out.reshape(m // j, k, k)


def _block_shape(u: UnitaryOp, s: StateVector) -> tuple[int, int]:
    """(m, k) of ``u``'s block stack, once ``s`` is checked to share its layout."""
    if u.layout != s.layout:
        raise ValueError("layout mismatch between unitary and state")
    return u.matrix.shape[:2]


def apply(u: UnitaryOp, s: StateVector) -> StateVector:
    """Multiply each k-amplitude slice of ``s`` by its block."""
    m, k = _block_shape(u, s)
    return StateVector._fresh(s.layout, (u.matrix @ s.amps.reshape(m, k, 1)).reshape(-1))


def apply_adjoint(u: UnitaryOp, s: StateVector) -> StateVector:
    """U^H s as the conjugate of the row product s^H U, reading the blocks in place.

    The conjugate is taken as 0.0 - imag: a zero imaginary part comes out +0.0,
    as from the product with the conjugated blocks, where .conj() gives -0.0.
    """
    m, k = _block_shape(u, s)
    w = (s.amps.conj().reshape(m, 1, k) @ u.matrix).reshape(-1)
    im = w.imag
    np.subtract(0.0, im, out=im)
    return StateVector._fresh(s.layout, w)


def identity_unitary(layout: RegisterLayout) -> UnitaryOp:
    return UnitaryOp(layout, np.ones((layout.dim, 1, 1)))


def xor_copy_unitary(layout: RegisterLayout) -> UnitaryOp:
    """Permutation |b>_B |a>_A -> |b>_B |a xor b>_A, one block per setting b.

    The canonical solving unitary: it copies the setting into a blank A
    register and is its own inverse.
    """
    if layout.n_b != layout.n_a:
        raise ValueError("xor copy needs n_b == n_a")
    a = np.arange(layout.dim_a)
    b = a[:, np.newaxis]
    blocks = np.zeros((layout.dim_b, layout.dim_a, layout.dim_a))
    blocks[b, a ^ b, a] = 1.0
    return UnitaryOp(layout, blocks)


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
        tol = OP_TOL * scale
        dev = np.max(np.abs(m - m.conj().T))
        if not dev <= tol:
            raise InvariantError(
                f"density matrix is not Hermitian: max |rho - rho+| = {dev:.3e}"
                f" > OP_TOL * max(max |rho|, 1) = {tol:.3e}"
            )
        low = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
        if not low >= -tol:
            raise InvariantError(
                f"density matrix is not positive semidefinite: least eigenvalue {low:.3e}"
                f" < -OP_TOL * max(max |rho|, 1) = {-tol:.3e}"
            )
        trace = np.trace(m).real
        if not trace > 0:
            raise InvariantError(f"density matrix has non-positive trace: {trace:.3e} <= 0")
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
