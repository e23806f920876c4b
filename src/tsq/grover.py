"""Quantum search networks: standard Grover iterations and the zero-failure
phase-matched variant.

The generalized iteration applies a selective phase alpha to the marked item
(the oracle call) followed by a phase-beta generalized inversion about the
uniform state; alpha = beta = pi is the textbook algorithm.  The certainty
variant picks the iteration count J = ceil of the standard optimal count and
matches both phases in closed form so the success probability reaches
1 - eps with eps <= ``qcore.CERTAINTY_EPS``.  Oracle and diffusion keep the
plane of the target and the uniform state and act as -1 off it, so each run
is computed as a power of one 2x2 matrix.

``as_process_unitary`` lifts the family of single-target networks to a
setting-controlled unitary on the joint B (x) A space, giving the
time-symmetrization engine a physically realized solving unitary to consume
in place of the canonical XOR copy.  As the diffusion commutes with X_b and
H X_b = Z_b H, the network for target b is X_b N_0 Z_b, N_0 targeting 0...0,
and the lift stores N_0 alone as a ``qcore.CopyUnitary``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    CERTAINTY_EPS,
    CopyUnitary,
    InvariantError,
    RegisterLayout,
    dim_cap,
    hadamard,
)
from .tsym import ProcessDescription, copy_process


@dataclass(frozen=True)
class SearchOracle:
    """Single marked item: n bits, target bitstring (the drawer with the ball).

    A search space of 2^n above ``qcore.dim_cap()`` is refused before any
    state is allocated.
    """

    n: int
    target: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one bit")
        if len(self.target) != self.n or set(self.target) - {"0", "1"}:
            raise ValueError(f"target {self.target!r} must be {self.n} characters of 0 and 1")
        if self.dim > dim_cap():
            raise ValueError(f"search space 2^{self.n} exceeds the cap {dim_cap()}")

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def target_index(self) -> int:
        return int(self.target, 2)


@dataclass(frozen=True)
class SearchRun:
    variant: str  # "grover" | "long"
    iterations: int
    phase: float  # radians; pi for the standard variant
    success_probability: float

    @property
    def query_count(self) -> int:
        return self.iterations


def grover_iterate(state: np.ndarray, oracle: SearchOracle, phase_pair: tuple[float, float]) -> np.ndarray:
    """One generalized iteration: oracle phase alpha, then diffusion phase beta.
    ``state`` may also be a matrix, whose columns are iterated at once.  The
    reference iteration over all 2^n amplitudes; the package runs the search
    on its invariant plane (``_plane``)."""
    alpha, beta = phase_pair
    state = np.asarray(state, dtype=np.complex128)
    if state.shape[:1] != (oracle.dim,):
        raise ValueError(f"state must have {oracle.dim} amplitudes")
    out = state.copy()
    out[oracle.target_index] *= np.exp(1j * alpha)
    # D(beta) = (1 - e^{i beta}) |u><u| - I ; beta = pi gives 2|u><u| - I
    mean = out.mean(axis=0)
    return (1 - np.exp(1j * beta)) * mean - out


def _theta(n: int) -> float:
    return math.asin(1 / math.sqrt(1 << n))


def _uniform(d: int) -> tuple[float, float]:
    """The uniform state in (|t>, |r>): (sin theta, cos theta)."""
    return 1 / math.sqrt(d), math.sqrt((d - 1) / d)


def _plane(oracle: SearchOracle, iterations: int, phase: float) -> tuple:
    """Matrix of ``iterations`` iterations in the basis (|t>, |r>), |r> the
    uniform state of the other d - 1 items.  Oracle and diffusion both keep
    this plane and act as -1 off it, so the run is a power of one 2x2 matrix,
    taken here by squaring."""
    s, c = _uniform(oracle.dim)
    e = cmath.exp(1j * phase)
    w = 1 - e
    # D(phase) O(phase) with D = w |u><u| - I and O = diag(e, 1)
    step = ((w * s * s - 1) * e, w * s * c), (w * s * c * e, w * c * c - 1)
    out = (1, 0), (0, 1)
    j = iterations
    while j:
        if j & 1:
            out = _mul(out, step)
        step = _mul(step, step)
        j >>= 1
    return out


def _mul(a: tuple, b: tuple) -> tuple:
    """Product of two 2x2 matrices held as row tuples."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def _success(oracle: SearchOracle, iterations: int, phase: float) -> float:
    """Success probability of the run: |a_t|^2 over the norm of (a_t, a_r),
    the plane coordinates reached from the uniform state; no state of 2^n
    amplitudes is built."""
    (m00, m01), (m10, m11) = _plane(oracle, iterations, phase)
    s, c = _uniform(oracle.dim)
    a_t, a_r = m00 * s + m01 * c, m10 * s + m11 * c
    return abs(a_t) ** 2 / (abs(a_t) ** 2 + abs(a_r) ** 2)


def optimal_iterations(n: int) -> int:
    """Ceiling of the standard optimal iteration count (pi/2 - theta)/(2 theta)."""
    theta = _theta(n)
    return max(1, math.ceil((math.pi / 2 - theta) / (2 * theta) - 1e-12))


def matched_phase(n: int, iterations: int) -> float:
    """Phase-matching angle making ``iterations`` steps reach certainty."""
    theta = _theta(n)
    arg = math.sin(math.pi / (4 * iterations + 2)) / math.sin(theta)
    if arg > 1:
        raise ValueError(f"{iterations} iterations cannot reach certainty for n={n}")
    return 2 * math.asin(arg)


def run_grover(oracle: SearchOracle) -> SearchRun:
    """Standard pi-phase Grover at the optimal iteration count."""
    theta = _theta(oracle.n)
    j = max(1, round((math.pi / 2 - theta) / (2 * theta)))
    return SearchRun("grover", j, math.pi, _success(oracle, j, math.pi))


def run_long(oracle: SearchOracle) -> SearchRun:
    """Zero-failure search at the closed-form matched phase; 1 - p > CERTAINTY_EPS raises."""
    j = optimal_iterations(oracle.n)
    phi = matched_phase(oracle.n, j)
    p = _success(oracle, j, phi)
    if 1 - p > CERTAINTY_EPS:
        raise InvariantError(
            f"certainty not reached for n={oracle.n}: success {p!r},"
            f" 1 - p = {1 - p:.3e} > CERTAINTY_EPS = {CERTAINTY_EPS:.0e}"
        )
    return SearchRun("long", j, phi, p)


def search_network(oracle: SearchOracle) -> np.ndarray:
    """Matrix of the full certainty network on register A: Hadamards then
    the phase-matched iterations.  Maps |0..0> to ~|target|.

    With B = [|t>, |r>] and sign s = (-1)^J off the plane, the iterations
    are s I + B (M - s I) B^H, so the network is the Hadamard matrix plus
    one rank-2 update: N = s H/sqrt(d) + B (M - s I) B^H H/sqrt(d)."""
    run = run_long(oracle)
    d, t = oracle.dim, oracle.target_index
    sign = -1 if run.iterations & 1 else 1
    (m00, m01), (m10, m11) = _plane(oracle, run.iterations, run.phase)
    m = hadamard(d, dtype=np.complex128) * (sign / math.sqrt(d))
    # rows of B^H H/sqrt(d): row t of H/sqrt(d), and (sqrt(d) e_0 - row t)/sqrt(d - 1),
    # as the columns of H sum to d e_0
    row_t = sign * m[t]
    row_r = -row_t
    row_r[0] += math.sqrt(d)
    row_r /= math.sqrt(d - 1)
    k_t = (m00 - sign) * row_t + m01 * row_r
    k_r = m10 * row_t + (m11 - sign) * row_r
    # B (k_t; k_r): |r> is 1/sqrt(d - 1) on every item but t
    k_r /= math.sqrt(d - 1)
    m += k_r
    m[t] += k_t - k_r
    return m


def as_process_unitary(n: int) -> CopyUnitary:
    """Setting-controlled lift: on setting b the returned operator acts as the
    network for target b, X_b N_0 Z_b, so the search runs once, for N_0.
    The layout is built first, so a size past the cap is refused before the
    2^n x 2^n network is."""
    layout = RegisterLayout(n, n)
    return CopyUnitary(layout, search_network(SearchOracle(n, "0" * n)))


def grover_process(n: int) -> ProcessDescription:
    """ProcessDescription backed by the lifted certainty network."""
    return copy_process(as_process_unitary(n))
