"""States, unitaries, and reduced densities on the two-register basis."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import block_diag

from tsq import complexity, gf2, tsym
from tsq.complexity import ComplexityReport, grover_problem, k_sweep
from tsq.grover import SearchOracle, grover_process, matched_phase, run_long
from tsq.measure import (
    ParityObservable,
    full_observable,
    project,
    project_forced,
    projector_diagonal,
)
from tsq.qcore import (
    BRANCH_MASS_TOL,
    BasisLabel,
    CERTAINTY_EPS,
    CORRELATION_TOL,
    OP_TOL,
    RENDER_TOL,
    STATE_TOL,
    CopyUnitary,
    InvariantError,
    RegisterLayout,
    StateVector,
    UnitaryOp,
    apply,
    apply_adjoint,
    hadamard,
    identity_unitary,
    max_abs_diff,
    proportionality,
    uniform_setting_state,
    unitarity_deviation,
)
from tsq.tsym import copy_process, xor_process
from conftest import (
    basis_label,
    basis_state,
    bitwise_equal,
    copy_blocks,
    dense,
    outcome_for,
    random_independent_masks,
    random_state,
    reduced_density,
    setting_values,
    state_from_terms,
    states_close,
)

L2 = RegisterLayout(2, 2)


def brute_force_reduced(s: StateVector, register: str) -> np.ndarray:
    """Independent partial-trace oracle: explicit double index sum."""
    db, da = s.layout.dim_b, s.layout.dim_a
    if register == "B":
        rho = np.zeros((db, db), dtype=np.complex128)
        for i in range(db):
            for k in range(db):
                rho[i, k] = sum(
                    s.amps[i * da + j] * np.conj(s.amps[k * da + j]) for j in range(da)
                )
    else:
        rho = np.zeros((da, da), dtype=np.complex128)
        for i in range(da):
            for k in range(da):
                rho[i, k] = sum(
                    s.amps[j * da + i] * np.conj(s.amps[j * da + k]) for j in range(db)
                )
    return rho


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real / rho.trace().real ** 2)


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout(0, 2)
    assert L2.dim == 16
    assert L2.index("01", "00") == 4
    assert basis_label(L2, 4) == ("01", "00")


def test_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("TSQ_DIM_CAP", "16")
    RegisterLayout(2, 2)
    with pytest.raises(ValueError):
        RegisterLayout(3, 2)


def test_uniform_setting_state_n2():
    s = uniform_setting_state(L2)
    for b in ("00", "01", "10", "11"):
        assert s.amplitude(b, "00") == 1
    assert s.norm() ** 2 == pytest.approx(4)
    assert sum(1 for _ in s.terms()) == 4


def test_uniform_setting_state_n1_and_n3():
    s1 = uniform_setting_state(RegisterLayout(1, 1))
    assert [t for t, _ in s1.terms()] == [("0", "0"), ("1", "0")]
    s3 = uniform_setting_state(RegisterLayout(3, 3))
    assert sum(1 for _ in s3.terms()) == 8
    assert all(a == 1 for _, a in s3.terms())


def test_apply_xor_copy_single_setting():
    u = CopyUnitary(L2)
    out = apply(u, basis_state(L2, "01", "00"))
    assert states_close(out, basis_state(L2, "01", "01"))


def test_apply_identity():
    s = uniform_setting_state(L2)
    assert max_abs_diff(apply(identity_unitary(L2), s), s) == 0


def test_apply_xor_copy_uniform_input():
    out = apply(CopyUnitary(L2), uniform_setting_state(L2))
    expected = state_from_terms(L2, [(b, b, 1) for b in ("00", "01", "10", "11")])
    assert states_close(out, expected)


def test_apply_adjoint_round_trip(rng):
    u = CopyUnitary(L2)
    s = random_state(L2, rng)
    assert max_abs_diff(apply_adjoint(u, apply(u, s)), s) <= 1e-10 * s.norm()


def test_apply_adjoint_examples():
    u = CopyUnitary(L2)
    assert states_close(
        apply_adjoint(u, basis_state(L2, "01", "01")), basis_state(L2, "01", "00")
    )
    two_branch = state_from_terms(L2, [("01", "01", 1), ("11", "11", 1)])
    expected = state_from_terms(L2, [("01", "00", 1), ("11", "00", 1)])
    assert states_close(apply_adjoint(u, two_branch), expected)


def test_xor_copy_is_an_involution():
    u = CopyUnitary(L2)
    assert states_close(apply(u, basis_state(L2, "11", "00")), basis_state(L2, "11", "11"))
    for b in ("00", "01", "10", "11"):
        assert states_close(apply(u, basis_state(L2, b, b)), basis_state(L2, b, "00"))
    m = dense(u)
    assert np.array_equal(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(L2.dim))


def test_xor_copy_rejects_uneven_registers():
    with pytest.raises(ValueError):
        CopyUnitary(RegisterLayout(2, 1))


def test_unitarity_enforced():
    with pytest.raises(InvariantError):
        UnitaryOp(L2, np.eye(L2.dim) * 1.5)


def test_norm_preservation(rng):
    u = CopyUnitary(L2)
    s = random_state(L2, rng)
    assert apply(u, s).norm() == pytest.approx(s.norm(), abs=1e-10)
    assert apply_adjoint(u, s).norm() == pytest.approx(s.norm(), abs=1e-10)


def test_reduced_density_of_correlated_state():
    s = state_from_terms(L2, [(b, b, 1) for b in ("00", "01", "10", "11")])
    rho = reduced_density(s, "B")
    assert np.allclose(rho, np.eye(4))
    assert purity(rho) == pytest.approx(0.25)


def test_reduced_density_of_sharp_state():
    rho = reduced_density(basis_state(L2, "01", "01"), "B")
    expected = np.zeros((4, 4))
    expected[1, 1] = 1
    assert np.allclose(rho, expected)


def test_product_state_is_pure(rng):
    b_part = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a_part = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = StateVector(L2, np.kron(b_part, a_part))
    assert purity(reduced_density(s, "B")) == pytest.approx(1.0)
    assert purity(reduced_density(s, "A")) == pytest.approx(1.0)


@pytest.mark.parametrize("n_b,n_a", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("register", ["B", "A"])
def test_reduced_density_matches_brute_force(n_b, n_a, register, rng):
    layout = RegisterLayout(n_b, n_a)
    s = random_state(layout, rng)
    rho = reduced_density(s, register)
    assert np.max(np.abs(rho - brute_force_reduced(s, register))) <= 1e-12 * s.norm() ** 2
    # a theorem of the partial trace: rho is Hermitian and positive semidefinite
    tol = OP_TOL * max(float(np.max(np.abs(rho))), 1.0)
    assert np.max(np.abs(rho - rho.conj().T)) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -tol


def test_proportionality():
    s = uniform_setting_state(L2)
    scaled = StateVector(L2, s.amps * (2 + 1j))
    factor, resid = proportionality(scaled, s)
    assert factor == pytest.approx(2 + 1j)
    assert resid <= 1e-12


def one_amplitude(i: int, value: complex) -> np.ndarray:
    amps = np.zeros(L2.dim, dtype=np.complex128)
    amps[i] = value
    return amps


def test_state_validation():
    refused = [
        np.zeros(5),
        np.zeros((4, 4)),  # the right size in the wrong shape
        np.full(L2.dim, np.nan),
        one_amplitude(3, np.nan),
        one_amplitude(3, np.inf),
        one_amplitude(5, complex(0, -np.inf)),
        np.full(L2.dim, 1e154),  # finite, but the squared norm overflows
    ]
    for amps in refused:
        with pytest.raises(ValueError):
            StateVector(L2, amps)


def test_public_constructor_copies_and_freezes():
    amps = np.arange(L2.dim, dtype=np.complex128)
    s = StateVector(L2, amps)
    amps[0] = 7
    assert s.amps[0] == 0 and not s.amps.flags.writeable


def test_operators_refuse_nan():
    m = np.eye(4, dtype=np.complex128)
    m[0, 0] = np.nan
    with pytest.raises(InvariantError, match="not unitary"):
        UnitaryOp(RegisterLayout(1, 1), m)
    network = np.eye(L2.dim_a, dtype=np.complex128)
    network[1, 2] = np.nan
    with pytest.raises(InvariantError, match="not unitary"):
        CopyUnitary(L2, network)


# Both operator forms against their slow references: the dense matrix, and
# the copying form's block stack built entry by entry (conftest.copy_blocks).

def random_unitary_matrix(k: int, rng) -> np.ndarray:
    """A random k x k unitary: the Q factor of a complex Gaussian matrix."""
    return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]


ns = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def process_unitary(kind: str, n: int) -> CopyUnitary:
    return (xor_process if kind == "xor" else grover_process)(n).u12


def random_copy_unitary(n: int, seed: int) -> CopyUnitary:
    network = random_unitary_matrix(1 << n, np.random.default_rng(seed))
    return CopyUnitary(RegisterLayout(n, n), network)


def random_dense_unitary(n: int, seed: int) -> UnitaryOp:
    layout = RegisterLayout(n, n)
    return UnitaryOp(layout, random_unitary_matrix(layout.dim, np.random.default_rng(seed)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["xor", "grover"]), st.integers(1, 6), seeds, st.sampled_from([0.0, 0.5]))
def test_copy_unitary_matches_block_stack_reference(kind, n, seed, zero_fraction):
    u = process_unitary(kind, n)
    blocks = copy_blocks(u.layout, u.matrix)
    m, k, _ = blocks.shape
    rng = np.random.default_rng(seed)
    amps = random_state(u.layout, rng).amps * (rng.random(u.layout.dim) >= zero_fraction)
    s = StateVector(u.layout, amps)
    forward = (blocks @ s.amps.reshape(m, k, 1)).reshape(-1)
    backward = (blocks.conj().transpose(0, 2, 1) @ s.amps.reshape(m, k, 1)).reshape(-1)
    for got, expected in ((apply(u, s), forward), (apply_adjoint(u, s), backward)):
        if kind == "xor":
            assert np.array_equal(got.amps, expected)
        else:
            assert np.max(np.abs(got.amps - expected)) <= STATE_TOL * max(s.norm(), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), seeds)
def test_random_operators_match_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    for u in (random_copy_unitary(n, seed), random_dense_unitary(n, seed)):
        s = random_state(u.layout, rng)
        du = dense(u)
        assert states_close(apply(u, s), StateVector(u.layout, du @ s.amps))
        assert states_close(apply_adjoint(u, s), StateVector(u.layout, du.conj().T @ s.amps))


@settings(max_examples=20, deadline=None)
@given(ns, seeds, st.sampled_from([0.0, 1e-12, 1e-9, 0.5]))
def test_blockwise_unitarity_deviation_equals_dense(n, seed, shear):
    # a copying unitary checks N alone: X_b and Z_b are exact, so the whole
    # operator deviates from unitarity by exactly as much as N
    layout = RegisterLayout(n, n)
    network = random_unitary_matrix(layout.dim_a, np.random.default_rng(seed))
    if n > 1:  # mixing column 1 into column 0 puts the deviation off the diagonal of N^H N
        network[:, 0] += shear * network[:, 1]
    m = block_diag(*copy_blocks(layout, network))
    dense_dev = float(np.max(np.abs(m.conj().T @ m - np.eye(layout.dim))))
    # equal up to rounding, far below OP_TOL
    assert abs(unitarity_deviation(network) - dense_dev) <= 1e-14 * max(dense_dev, 1.0)


@settings(max_examples=20, deadline=None)
@given(ns, seeds, st.integers(0, 255), st.booleans())
def test_single_non_unitary_block_raises(n, seed, which, dense_form):
    layout = RegisterLayout(n, n)
    k = layout.dim if dense_form else layout.dim_a
    m = random_unitary_matrix(k, np.random.default_rng(seed))
    build = (lambda m: UnitaryOp(layout, m)) if dense_form else (lambda m: CopyUnitary(layout, m))
    build(m)
    m[which % k, 0] += 1e-8
    with pytest.raises(InvariantError):
        build(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), seeds, st.integers(0, 3))
def test_copy_unitary_commutes_with_every_projection_on_b(n, seed, rank):
    # a copying unitary maps each setting row to itself, so U P_B = P_B U and
    # U^H P_B = P_B U^H: the identity the external zigzag reads its t2 state by
    rng = np.random.default_rng(seed)
    u = random_copy_unitary(n, seed)
    s = random_state(u.layout, rng)
    masks = random_independent_masks(rng, n, min(rank, n))
    obs = ParityObservable("B", tuple(gf2.mask_to_bits(m, n) for m in masks))
    for code in range(1 << obs.rank):
        for op in (apply, apply_adjoint):
            got = op(u, project(obs, code, s))
            want = project(obs, code, op(u, s))
            assert max_abs_diff(got, want) <= STATE_TOL * max(s.norm(), 1.0)


def test_copy_unitary_stores_the_conjugate_network_once():
    u = random_copy_unitary(3, 3)
    assert np.array_equal(u._conj, u.matrix.conj())
    assert not u._conj.flags.writeable
    assert CopyUnitary(L2)._conj is None
    # a dense unitary stores its conjugate too, and its adjoint is a fresh array
    for n in (1, 2):
        u = random_dense_unitary(n, n)
        assert np.array_equal(u._conj, u.matrix.conj())
        assert not u._conj.flags.writeable
        s = random_state(u.layout, np.random.default_rng(n))
        assert not np.shares_memory(apply_adjoint(u, s).amps, u._conj)


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        UnitaryOp(L2, np.eye(L2.dim_a))  # a network is not a joint operator
    with pytest.raises(ValueError):
        UnitaryOp(L2, np.ones((4, 4, 4)))  # no block stacks
    with pytest.raises(ValueError):
        CopyUnitary(L2, np.eye(L2.dim))  # the network acts on register A alone
    assert UnitaryOp(L2, np.eye(L2.dim)).matrix.shape == (L2.dim, L2.dim)


# apply_adjoint against the product with the materialized conjugate

def setting_rows(u: CopyUnitary, amps: np.ndarray) -> np.ndarray:
    """The amplitudes as one row per setting b."""
    return amps.reshape(u.layout.dim_b, u.layout.dim_a)


def xor_gather(rows: np.ndarray) -> np.ndarray:
    """X_b on row b: entry a of row b becomes entry a xor b."""
    a = np.arange(rows.shape[1])
    return np.take_along_axis(rows, a ^ a[:, np.newaxis], axis=1)


def signs(u: CopyUnitary, rows: np.ndarray) -> np.ndarray:
    """Z_b on row b, an exact negation of the odd-parity entries, where ``u``
    has a network."""
    return rows if u.matrix is None else np.where(hadamard(rows.shape[1]) < 0, -rows, rows)


def reference_apply(u, s: StateVector) -> np.ndarray:
    """U s by the formula: the dense product, or X_b N Z_b on each setting row."""
    if isinstance(u, UnitaryOp):
        return u.matrix @ s.amps
    rows = signs(u, setting_rows(u, s.amps))
    if u.matrix is not None:
        rows = rows @ u.matrix.T
    return xor_gather(rows).reshape(-1)


def reference_adjoint(u, s: StateVector) -> np.ndarray:
    """U^H s through the materialized conjugate: U^H, or Z_b N^H X_b on each setting row."""
    if isinstance(u, UnitaryOp):
        return u.matrix.conj().T @ s.amps
    rows = xor_gather(setting_rows(u, s.amps))
    if u.matrix is not None:
        rows = rows @ u.matrix.conj()
    return signs(u, rows).reshape(-1)


operators = st.one_of(
    st.builds(process_unitary, st.sampled_from(["xor", "grover"]), st.integers(1, 5)),
    st.builds(random_copy_unitary, ns, seeds),
    st.builds(random_dense_unitary, st.integers(1, 3), seeds),
)


@settings(max_examples=60, deadline=None)
@given(operators, seeds, st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.booleans())
# N has entries with a zero real part here, and the conjugate of the row
# product with N gave -0.0 where the conjugated product gives +0.0
@example(process_unitary("grover", 1), 123, 0.5, True)
def test_apply_adjoint_matches_conjugate_stack_bit_for_bit(u, seed, zero_fraction, real_only):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(u.layout.dim)
    if not real_only:
        amps = amps + 1j * rng.standard_normal(u.layout.dim)
    amps[rng.random(u.layout.dim) < zero_fraction] = 0
    s = StateVector(u.layout, amps)
    assert bitwise_equal(apply_adjoint(u, s).amps, reference_adjoint(u, s))


def test_apply_adjoint_allocates_no_block_stack():
    # the block stack at n=6 would be 64 states; one call may hold a few
    for kind in ("xor", "grover"):
        u = process_unitary(kind, 6)
        s = random_state(u.layout, np.random.default_rng(6))
        apply_adjoint(u, s)  # warm up numpy's first-call allocations
        tracemalloc.start()
        try:
            apply_adjoint(u, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * s.amps.nbytes


@pytest.mark.parametrize("n", range(1, 7))
def test_backward_rows_are_the_grid_rows_bit_for_bit(n):
    # the backward leg of some setting rows, as the zigzag builders take it,
    # is those rows of the full grid's at every row count: one row too, which
    # a bare product would send to gemv, rounding otherwise than gemm
    u = process_unitary("grover", n)
    rng = np.random.default_rng(n)
    psi = random_state(u.layout, rng).amps
    grid = setting_rows(u, u._apply_adjoint(psi))
    for k in range(1, u.layout.dim_b + 1):
        for _ in range(3):
            rows = np.sort(rng.choice(u.layout.dim_b, k, replace=False))
            assert np.array_equal(u._adjoint_rows(u._gather(psi, rows), rows), grid[rows])


# apply, apply_adjoint and the projections build their states without the
# public constructor's copy and checks; the public path is the reference.

def fresh_and_frozen(out: StateVector, *inputs: np.ndarray) -> bool:
    return not out.amps.flags.writeable and not any(np.shares_memory(out.amps, x) for x in inputs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["xor", "grover"]), st.integers(1, 5), seeds)
def test_fast_path_states_equal_public_constructor_bit_for_bit(kind, n, seed):
    u = process_unitary(kind, n)
    layout = u.layout
    stored = () if u.matrix is None else (u.matrix, u._conj)
    rng = np.random.default_rng(seed)
    amps = random_state(layout, rng).amps.copy()
    amps[rng.random(layout.dim) < 0.3] = 0
    s = StateVector(layout, amps)

    out = apply(u, s)
    assert bitwise_equal(out.amps, StateVector(layout, reference_apply(u, s)).amps)
    assert fresh_and_frozen(out, s.amps, *stored)
    back = apply_adjoint(u, out)
    assert bitwise_equal(back.amps, StateVector(layout, reference_adjoint(u, out)).amps)
    assert fresh_and_frozen(back, out.amps, *stored)

    for register in ("B", "A"):
        for r in range(n + 1):
            masks = random_independent_masks(rng, n, r)
            obs = ParityObservable(register, tuple(gf2.mask_to_bits(x, n) for x in masks))
            for v in setting_values(n):
                outcome = outcome_for(obs, v)
                expected = StateVector(layout, projector_diagonal(outcome, layout) * out.amps)
                projected = project(obs, outcome.code, out)
                assert bitwise_equal(projected.amps, expected.amps)
                assert fresh_and_frozen(projected, out.amps)
                if expected.is_zero():
                    with pytest.raises(InvariantError, match="impossible outcome"):
                        project_forced(obs, v, out)
                    continue
                forced = project_forced(obs, v, out)
                assert bitwise_equal(forced.amps, expected.amps)
                assert fresh_and_frozen(forced, out.amps)


# States at the norm bound of the public constructor, and term listing.

def hadamard_b(layout: RegisterLayout) -> UnitaryOp:
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    return UnitaryOp(layout, np.kron(np.kron(h, np.eye(layout.dim_b // 2)), np.eye(layout.dim_a)))


def test_overflowing_amplitudes_never_leave_apply_non_finite():
    # finite amplitudes whose Hadamard image overflows: refused on the way in
    layout = RegisterLayout(1, 1)
    u = hadamard_b(layout)
    with pytest.raises(ValueError):
        s = StateVector(layout, [1.5e308, 1.5e308, 0, 0])
        for out in (apply(u, s), apply_adjoint(u, s)):
            assert np.all(np.isfinite(out.amps))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), seeds, st.sampled_from(["hadamard", "xor", "grover"]))
def test_largest_admitted_states_stay_finite(n, seed, kind):
    # scaled so that the squared norm sits just below the largest float
    layout = RegisterLayout(n, n)
    u = hadamard_b(layout) if kind == "hadamard" else process_unitary(kind, n)
    rng = np.random.default_rng(seed)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[rng.integers(layout.dim, size=2)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if not amps.any():
        amps[0] = 1
    s = StateVector(layout, amps * (1.3e154 / np.linalg.norm(amps)))
    for out in (apply(u, s), apply_adjoint(u, s), apply(u, apply(u, s))):
        assert np.all(np.isfinite(out.amps))


def slow_terms(s: StateVector):
    """The element-by-element loop StateVector.terms replaces."""
    scale = max(s.norm(), 1.0)
    return [(basis_label(s.layout, i), complex(a)) for i, a in enumerate(s.amps) if abs(a) > RENDER_TOL * scale]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), seeds, st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 2e-9, 1e-8]))
def test_terms_match_elementwise_loop(n, seed, small):
    layout = RegisterLayout(n, n)
    rng = np.random.default_rng(seed)
    amps = random_state(layout, rng).amps * (rng.random(layout.dim) < 0.5)
    amps[rng.random(layout.dim) < 0.3] = small
    s = StateVector(layout, amps)
    terms = list(s.terms())
    assert terms == slow_terms(s)
    assert all(type(amp) is complex for _, amp in terms)


@pytest.mark.parametrize("n_b, n_a", [(n_b, n_a) for n_b in range(1, 5) for n_a in range(1, 5)])
def test_terms_labels_match_layout_label(n_b, n_a):
    # the per-width bit-string tables against the per-index label
    layout = RegisterLayout(n_b, n_a)
    rng = np.random.default_rng(100 * n_b + n_a)
    s = StateVector(layout, random_state(layout, rng).amps * (rng.random(layout.dim) < 0.6))
    terms = list(s.terms())
    assert terms == slow_terms(s)
    assert all(type(label) is BasisLabel for label, _ in terms)


# Every InvariantError states its residual and the threshold it broke.

def _not_unitary(monkeypatch):
    UnitaryOp(L2, np.eye(L2.dim) * 1.5)


def _not_correlating(monkeypatch):
    copy_process(CopyUnitary(L2, hadamard(L2.dim_a) / 2))


def _phase_drift(monkeypatch):
    monkeypatch.setattr("tsq.grover.matched_phase", lambda n, j: matched_phase(n, j) + 0.01)
    run_long(SearchOracle(3, "000"))


def _annihilated(monkeypatch):
    project_forced(full_observable(L2, "B"), "01", basis_state(L2, "00", "00"))


def _not_sharp(monkeypatch):
    tsym._check_sharp(uniform_setting_state(L2), "01")


def _count_grows(monkeypatch):
    def fake(problem, k):
        r = round(k * problem.n)
        return ComplexityReport(r, k, (), (), r)

    monkeypatch.setattr(complexity, "advanced_knowledge_prediction", fake)
    k_sweep(grover_problem(2), [0, 1])


INVARIANT_ERRORS = [
    (_not_unitary, f"> OP_TOL = {OP_TOL:.0e}"),
    (_not_correlating, f"> CORRELATION_TOL = {CORRELATION_TOL:.0e}"),
    (_phase_drift, f"> CERTAINTY_EPS = {CERTAINTY_EPS:.0e}"),
    (_annihilated, f"<= STATE_TOL = {STATE_TOL:.0e}"),
    (_not_sharp, f"BRANCH_MASS_TOL = {BRANCH_MASS_TOL:.0e}"),
    (_count_grows, "2 at k=1 > 0 at k=0"),
]


@pytest.mark.parametrize(
    "trigger,threshold", INVARIANT_ERRORS, ids=[t.__name__.lstrip("_") for t, _ in INVARIANT_ERRORS]
)
def test_invariant_error_states_residual_and_threshold(trigger, threshold, monkeypatch):
    with pytest.raises(InvariantError) as err:
        trigger(monkeypatch)
    assert threshold in str(err.value)
