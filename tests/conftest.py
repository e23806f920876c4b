import numpy as np
import pytest
from scipy.linalg import block_diag

from tsq import gf2
from tsq.qcore import RegisterLayout, StateVector, UnitaryOp


def state_from_terms(layout: RegisterLayout, terms) -> StateVector:
    """Build a state from (b_bits, a_bits, amplitude) triples."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for b, a, c in terms:
        amps[layout.index(b, a)] += c
    return StateVector(layout, amps)


def setting_values(n: int) -> list[str]:
    """Every value of an n-bit register, in numeric order."""
    return [format(b, f"0{n}b") for b in range(1 << n)]


def random_state(layout: RegisterLayout, rng) -> StateVector:
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps)


def random_independent_masks(rng, n: int, r: int) -> list[int]:
    """r GF(2)-independent nonzero n-bit masks, drawn at random (in random order)."""
    while True:
        masks = [int(m) for m in rng.integers(1, 1 << n, size=r)]
        if gf2.is_independent(masks):
            return masks


def bitwise_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal complex arrays whose real and imaginary parts also agree in sign, zeros included."""
    return (
        np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))
    )


def dense(u: UnitaryOp) -> np.ndarray:
    """The d x d matrix of ``u``, built from its diagonal blocks."""
    return block_diag(*u.matrix)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
