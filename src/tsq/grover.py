"""Quantum search networks: standard Grover iterations and the zero-failure
phase-matched variant.

The generalized iteration applies a selective phase alpha to the marked item
(the oracle call) followed by a phase-beta generalized inversion about the
uniform state; alpha = beta = pi is the textbook algorithm.  The certainty
variant picks the iteration count J = ceil of the standard optimal count and
matches both phases in closed form so the success probability reaches
1 - eps with eps <= ``qcore.CERTAINTY_EPS``.

``as_process_unitary`` lifts the family of single-target networks to a
setting-controlled unitary on the joint B (x) A space, giving the
time-symmetrization engine a physically realized solving unitary to consume
in place of the canonical XOR copy.  As the diffusion commutes with X_b and
H X_b = Z_b H, the network for target b is X_b N_0 Z_b, N_0 targeting 0...0,
and the lift stores N_0 alone as a ``qcore.CopyUnitary``.
"""

from __future__ import annotations

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
            raise ValueError(f"target {self.target!r} is not an {self.n}-bit string")
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
    oracle: SearchOracle
    variant: str  # "grover" | "long"
    iterations: int
    phase: float  # radians; pi for the standard variant
    final_state: np.ndarray
    success_probability: float

    @property
    def query_count(self) -> int:
        return self.iterations


def uniform_search_state(n: int) -> np.ndarray:
    d = 1 << n
    return np.full(d, 1 / math.sqrt(d), dtype=np.complex128)


def grover_iterate(state: np.ndarray, oracle: SearchOracle, phase_pair: tuple[float, float]) -> np.ndarray:
    """One generalized iteration: oracle phase alpha, then diffusion phase beta.
    ``state`` may also be a matrix, whose columns are iterated at once."""
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


def _success(oracle: SearchOracle, iterations: int, phase: float) -> tuple[np.ndarray, float]:
    state = uniform_search_state(oracle.n)
    for _ in range(iterations):
        state = grover_iterate(state, oracle, (phase, phase))
    p = float(abs(state[oracle.target_index]) ** 2 / np.vdot(state, state).real)
    return state, p


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
    state, p = _success(oracle, j, math.pi)
    return SearchRun(oracle, "grover", j, math.pi, state, p)


def run_long(oracle: SearchOracle) -> SearchRun:
    """Zero-failure search at the closed-form matched phase; 1 - p > CERTAINTY_EPS raises."""
    j = optimal_iterations(oracle.n)
    phi = matched_phase(oracle.n, j)
    state, p = _success(oracle, j, phi)
    if 1 - p > CERTAINTY_EPS:
        raise InvariantError(
            f"certainty not reached for n={oracle.n}: success {p!r},"
            f" 1 - p = {1 - p:.3e} > CERTAINTY_EPS = {CERTAINTY_EPS:.0e}"
        )
    return SearchRun(oracle, "long", j, phi, state, p)


def search_network(oracle: SearchOracle) -> np.ndarray:
    """Matrix of the full certainty network on register A: Hadamards then
    the phase-matched iterations.  Maps |0..0> to ~|target|."""
    run = run_long(oracle)
    m = hadamard(oracle.dim, dtype=np.complex128) / math.sqrt(oracle.dim)
    for _ in range(run.iterations):
        m = grover_iterate(m, oracle, (run.phase, run.phase))
    return m


def as_process_unitary(n: int) -> CopyUnitary:
    """Setting-controlled lift: on setting b the returned operator acts as the
    network for target b, X_b N_0 Z_b, so the search runs once, for N_0."""
    network = search_network(SearchOracle(n, "0" * n))
    return CopyUnitary(RegisterLayout(n, n), network, signed=True)


def grover_process(n: int) -> ProcessDescription:
    """ProcessDescription backed by the lifted certainty network."""
    return copy_process(as_process_unitary(n))
