from typing import Optional

import numpy as np
import pytest
from scipy.linalg import block_diag

from tsq import gf2
from tsq.complexity import OracleProblemSpec
from tsq.measure import ParityObservable, ParityOutcome, project_forced
from tsq.qcore import (
    STATE_TOL,
    BasisLabel,
    CopyUnitary,
    RegisterLayout,
    StateVector,
    UnitaryOp,
    apply,
    apply_adjoint,
    hadamard,
    max_abs_diff,
)
from tsq.tsym import ProcessDescription, SelectionSplit


def state_from_terms(layout: RegisterLayout, terms) -> StateVector:
    """Build a state from (b_bits, a_bits, amplitude) triples."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for b, a, c in terms:
        amps[layout.index(b, a)] += c
    return StateVector(layout, amps)


def basis_label(layout: RegisterLayout, index: int) -> BasisLabel:
    """The bit strings of joint index ``index``: b * dim_a + a."""
    b, a = divmod(index, layout.dim_a)
    return BasisLabel(format(b, f"0{layout.n_b}b"), format(a, f"0{layout.n_a}b"))


def outcome_bits(obs: ParityObservable, register_bits: str) -> tuple[int, ...]:
    """The parity of ``register_bits`` under each mask of ``obs``, in mask order."""
    value = int(register_bits, 2)
    return tuple(gf2.parity(m, value) for m in obs.int_masks)


def outcome_for(obs: ParityObservable, register_bits: str) -> ParityOutcome:
    """The outcome of ``obs`` on register value ``register_bits``, its code
    built mask by mask, independently of ``gf2.parity_codes``."""
    value, code = int(register_bits, 2), 0
    for m in obs.int_masks:
        code = code << 1 | gf2.parity(m, value)
    return ParityOutcome(obs, code)


def basis_state(layout: RegisterLayout, b_bits: str, a_bits: str) -> StateVector:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index(b_bits, a_bits)] = 1.0
    return StateVector(layout, amps)


def states_close(s1: StateVector, s2: StateVector) -> bool:
    return max_abs_diff(s1, s2) <= STATE_TOL * max(s1.norm(), s2.norm(), 1.0)


def xor_decode(s: StateVector) -> StateVector:
    """Collapse each 2-bit register to the XOR of its bits.

    The amplitude of |x>_B |y>_A is the sum over labels with B-parity x and
    A-parity y, the parities under mask 11.
    """
    if (s.layout.n_b, s.layout.n_a) != (2, 2):
        raise ValueError("xor decode expects 2-bit registers")
    x = gf2.parity_codes([0b11], 2)
    amps = np.zeros(4, dtype=np.complex128)
    np.add.at(amps, (2 * x[:, None] + x).ravel(), s.amps)
    return StateVector(RegisterLayout(1, 1), amps)


def span(vectors) -> frozenset[int]:
    """All GF(2) combinations of ``vectors`` (includes 0)."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def setting_values(n: int) -> list[str]:
    """Every value of an n-bit register, in numeric order."""
    return [format(b, f"0{n}b") for b in range(1 << n)]


def drawer_problem(settings, flips=()) -> OracleProblemSpec:
    """The drawer problem over ``settings``: query q answers 1 on setting q
    only, and the solution is the setting.  Each (setting, query) pair in
    ``flips`` has its answer flipped."""
    settings = tuple(settings)
    answer = {(b, q): str(int(b == q) ^ ((b, q) in flips)) for b in settings for q in settings}
    return OracleProblemSpec("drawer", settings, settings, answer, {b: b for b in settings})


def reference_external_walk(process: ProcessDescription, b: str, split: SelectionSplit) -> tuple:
    """Slow reference for ``tsym.external_instance``'s walk: every leg an
    explicit call, the t2 state U_12 applied to the selected t1 state."""
    s0 = process.initial_state
    s1 = project_forced(split.initial_part, b, s0)
    s2 = apply(process.u12, s1)
    s3 = project_forced(split.final_part, b, s2)
    return s0, s1, s2, s3, apply_adjoint(process.u12, s3)


def random_state(layout: RegisterLayout, rng) -> StateVector:
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps)


def reduced_density(s: StateVector, register: str) -> np.ndarray:
    """Partial trace of |s><s| over the other register (unnormalized, like the states)."""
    psi = s.amps.reshape(s.layout.dim_b, s.layout.dim_a)
    if register == "B":
        return np.einsum("ij,kj->ik", psi, psi.conj())
    return np.einsum("ji,jk->ik", psi, psi.conj())


def random_independent_masks(rng, n: int, r: int) -> list[int]:
    """r GF(2)-independent nonzero n-bit masks, drawn at random (in random order)."""
    while True:
        masks = [int(m) for m in rng.integers(1, 1 << n, size=r)]
        if gf2.is_independent(masks):
            return masks


def observable_refusal(masks) -> Optional[str]:
    """The message with which a parity observable of ``masks`` (bit strings)
    is refused, or None: the constructor checks that ``cli.parse_split`` now
    makes for split text and the package's builders hold by construction,
    replayed in their old order."""
    ints = [int(m, 2) for m in masks]
    if 0 in ints:
        return "parity masks must be nonzero"
    if len({len(m) for m in masks}) > 1:
        return "parity masks must all have the same length"
    if len(span(ints)) != 1 << len(ints):
        return "parity masks must be GF(2)-linearly independent"
    return None


def bitwise_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal complex arrays whose real and imaginary parts also agree in sign, zeros included."""
    return (
        np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(x.imag), np.signbit(y.imag))
    )


def copy_blocks(layout: RegisterLayout, network=None) -> np.ndarray:
    """Slow reference for a copying unitary: the stack of its blocks X_b N Z_b,
    one 2^n x 2^n block per setting b.

    With no network these are the 0/1 xor-copy blocks, block b mapping |a> to
    |a xor b>.  Otherwise block b is N with its rows permuted by i xor b and
    its columns signed by (-1)^popcount(b and j): for the search network N_0
    of target 0...0, the network for target b.
    """
    a = np.arange(layout.dim_a)
    b = a[:, np.newaxis]
    if network is None:
        blocks = np.zeros((layout.dim_b, layout.dim_a, layout.dim_a))
        blocks[b, a ^ b, a] = 1.0
    else:
        blocks = np.asarray(network)[a ^ b] * hadamard(layout.dim_a)[:, np.newaxis, :]
    return blocks


def dense(u: UnitaryOp | CopyUnitary) -> np.ndarray:
    """The d x d matrix of ``u``; a copying unitary is expanded from its blocks."""
    if isinstance(u, UnitaryOp):
        return u.matrix
    return block_diag(*copy_blocks(u.layout, u.matrix))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
