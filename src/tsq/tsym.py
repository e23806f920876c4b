"""Time-symmetrization engine: selection splits and zigzag instances.

A process runs between two one-to-one correlated measurement outcomes: the
initial measurement of the setting register B and the final measurement of
the solution register A.  It is its solving unitary, which copies the setting
into a blank A register, so the solution of setting b is b.
Time-symmetrizing the process means sharing the selection of the outcome
pair between the two measurements.  A selection
split assigns a parity observable on B to the initial measurement and a
complementary parity observable on A to the final one; a final part alone
is completed by the unit vectors off its pivots, its first complement in
sorted basis order, with no search.  For each split and each setting value
there is one zigzag instance with a forward leg, the final partial
projection, and a backward leg whose ends form the instance's bottom line.

Two perspectives are generated.  The external one also applies the initial
partial projection, and its bottom line always collapses back to the sharp
process.  The solver one postpones the initial projection entirely, so the
bottom-line input is a superposition of the setting branches compatible
with the final partial outcome: the solver's advance knowledge.

U_12 is controlled on B: it acts on A one setting row at a time, and a
projection on B keeps or zeroes whole rows, so U_12 P_B = P_B U_12.  Both
perspectives therefore read their t2 state off the process's one forward
leg: the solver one as it is, the external one masked by P_B.  An external
instance selects once: its t2 selection P_A P_B U_12 s0 is the forward leg
times one 0/1 grid, the B sector's rows by the A sector's columns.  Its t1
selection and t2 state feed no check and no bottom line; ``measure.project``
makes them the first time the instance's walk is read.

Each builder takes its backward leg in one pass, with no state in between,
reading b's sector codes, keeps and (for B) values off its split's sector
tables (``measure._table``), and the gather, product and signs off
``CopyUnitary``.  Both select b's A sector alike (``_a_selection``): the
forward leg's rows gathered, each times b's A keep moved by its setting.
A solver instance selects every row.  An external one selects the 2^(n - r)
rows of b's B sector alone (r the initial part's rank), since U_12 maps
each row to itself and the B selection zeroes the others; the rest of its
leg is zero.

An instance stores one dense state, its backward leg.  Its t2 selection is
a 0/1 mask of the forward leg that its process holds: the A sector's columns
for a solver instance, the grid for an external one.  It is masked afresh
each time it is read and never stored, until the walk is read, which holds
it.  Recovery and ``branch_settings`` read the backward leg alone, and the
bottom line is ``backward`` with ``t2_selected``.  A selection that
annihilates the state is told by ``qcore._is_zero``, the zero test that
``measure.project_forced`` makes too.

The external bottom line is checked to be sharp on b.  Its invariant's
margin is the off-branch fraction (total - mass_b) / total, the mass off
setting row b over the total: at most BRANCH_MASS_TOL / 2 accepts the
line from two sums, with no per-row pass; above it, the per-row branch
mask decides, as ``branch_settings`` reads it (``_check_sharp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import gf2, measure
from .measure import ParityObservable, _observable, project_forced
from .qcore import (
    BRANCH_MASS_TOL,
    CORRELATION_TOL,
    RESIDUAL_TOL,
    CopyUnitary,
    InvariantError,
    RegisterLayout,
    StateVector,
    _is_zero,
    apply,
    proportionality,
    uniform_setting_state,
)


@dataclass(frozen=True, eq=False)
class ProcessDescription:
    """A process is its solving unitary, which copies the setting into a blank
    A register (|b>|0...0> to |b>|b>: the solution of b is b), and its initial state.
    ``==`` is identity; ``_same_process`` compares two processes by value."""

    u12: CopyUnitary
    initial_state: StateVector

    def __post_init__(self):
        u_layout, s_layout = self.u12.layout, self.initial_state.layout
        if s_layout != u_layout:
            raise ValueError(
                f"initial state layout ({s_layout.n_b},{s_layout.n_a}) does not match"
                f" the unitary's layout ({u_layout.n_b},{u_layout.n_a})"
            )
        # |b>|0...0> goes to |b> X_b N |0...0>: every setting leaks as much as 0...0
        if self.u12.matrix is None:
            return
        out = self.u12.matrix[:, 0]
        total = np.linalg.norm(out) ** 2
        leaked = total - abs(out[0]) ** 2
        if leaked > CORRELATION_TOL * total:
            bits = "0" * self.n
            raise InvariantError(
                f"unitary does not correlate setting {bits} sharply with solution {bits}:"
                f" leaked fraction {leaked / total:.3e}"
                f" > CORRELATION_TOL = {CORRELATION_TOL:.0e}"
            )

    @cached_property
    def forward(self) -> StateVector:
        """U_12 applied to the initial state: the forward leg that every
        instance of the process shares, computed once (the external ones mask
        it on B)."""
        return apply(self.u12, self.initial_state)

    @property
    def layout(self) -> RegisterLayout:
        return self.u12.layout

    @property
    def n(self) -> int:
        return self.layout.n_b


def copy_process(u12: CopyUnitary) -> ProcessDescription:
    """Process of the copying unitary ``u12`` from the uniform setting state."""
    return ProcessDescription(u12=u12, initial_state=uniform_setting_state(u12.layout))


def xor_process(n: int) -> ProcessDescription:
    """Canonical process: XOR-copy unitary, solution = setting."""
    return copy_process(CopyUnitary(RegisterLayout(n, n)))


@dataclass(frozen=True)
class SelectionSplit:
    """Complementary partial measurements sharing the selection of the pair."""

    initial_part: ParityObservable
    final_part: ParityObservable

    def __post_init__(self):
        if self.initial_part.register != "B" or self.final_part.register != "A":
            raise ValueError("initial part must act on B, final part on A")

    def name(self) -> str:
        b = ",".join(self.initial_part.masks) or "-"
        a = ",".join(self.final_part.masks) or "-"
        return f"B:[{b}]/A:[{a}]"


def selection_is_injective(process: ProcessDescription, split: SelectionSplit) -> bool:
    """Non-redundancy: the combined partial outcomes pin down the setting.

    The outcome pair of setting b is the parities of b under the masks of both
    parts, since the solution of b is b; they pin b down iff the masks span
    F_2^n.  This is the one rank test of the package: it serves a split whose
    initial part is given, since a completed split is injective by
    construction.
    """
    return gf2.rank(split.initial_part.int_masks + split.final_part.int_masks) == process.n


def _first_complement(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """First complement, in sorted basis order, of the span of the echelon
    ``rows``: the unit vectors at the bits that are no row's pivot, descending.

    Let q_1 > ... > q_m be those bits.  Cut to the bits >= q_i, the rows
    span n - q_i - i dimensions (their pivots there), so a complement's
    reduced rows w_1 > ... > w_m supply i dimensions there: w_i has its
    pivot at q_i or above, and w_i >= 2^{q_i}.  The unit vectors meet every
    one of these bounds, and with the rows they span F_2^n.  It depends on
    the pivots alone.
    """
    pivots = 0
    for row in rows:
        pivots |= 1 << (row.bit_length() - 1)
    return tuple(1 << q for q in range(n - 1, -1, -1) if not pivots >> q & 1)


def complete_split(process: ProcessDescription, final_part: ParityObservable) -> SelectionSplit:
    """Pair ``final_part`` with its first complement in sorted basis order
    (``_first_complement`` of its reduced basis), so the selection is
    injective with no rank test."""
    n = process.n
    rows = gf2.reduced_basis(final_part.int_masks)
    return SelectionSplit(_observable("B", _first_complement(rows, n), n), final_part)


def enumerate_splits(process: ProcessDescription, even_rank: int) -> list[SelectionSplit]:
    """All splits with initial-part rank ``even_rank``, canonically ordered.

    One split per distinct final-part subspace, in the sorted order of
    ``gf2.subspaces``: the final part determines the instance structure, and
    each is paired with its first complement in sorted basis order, which
    depends only on the pivots of the subspace's reduced basis.  Every
    subspace has one, so there are [n choose n - even_rank]_2 splits; the
    splits of one pivot set share one initial-part object, so C(n,
    even_rank) are built.
    """
    n = process.n
    if not 0 <= even_rank <= n:
        raise ValueError(f"rank {even_rank} out of range for n={n}")
    initial_parts: dict[tuple[int, ...], ParityObservable] = {}
    splits = []
    for final in gf2.subspaces(n, n - even_rank):
        pivots = tuple(map(int.bit_length, final))  # one past each row's pivot
        initial = initial_parts.get(pivots)
        if initial is None:
            initial = initial_parts[pivots] = _observable("B", _first_complement(final, n), n)
        splits.append(SelectionSplit(initial, _observable("A", final, n)))
    return splits


@dataclass(frozen=True)
class ZigzagInstance:
    """The zigzag of one setting and split of a process.  Its ``walk`` is
    the t1 state, its selection (None for a solver instance), the t2 state,
    its selection and the backward t1 state.  It stores one dense state, the
    backward t1 state; the t2 selection is masked off the process's forward
    leg when read, and the walk is built on its first read."""

    process: ProcessDescription
    split: SelectionSplit
    outcome: str  # the setting, which is also the solution
    perspective: str  # "external" | "solver"
    backward: StateVector

    def name(self) -> str:
        return f"{self.split.name()}@{self.outcome}"

    @property
    def t2_selected(self) -> StateVector:
        """The t2 selection: the walk's once the walk is read, so that a
        report shows one state; else masked afresh by ``_t2_selection`` on
        each read and not stored, so a kept instance holds its backward leg
        alone."""
        walk = self.__dict__.get("walk")
        if walk is None:
            return _t2_selection(self.process, self.split, self.outcome, self.perspective)
        return walk[3]

    @property
    def bottom_line(self) -> tuple[StateVector, StateVector]:
        """Ends of the backward leg, which every instance has: ``backward``
        and ``t2_selected``."""
        return self.backward, self.t2_selected

    @cached_property
    def walk(self) -> tuple[Optional[StateVector], ...]:
        """The walk, built once: a solver instance takes the process's
        states; an external one also selects setting ``outcome``'s B sector
        in the initial state and in the forward leg, by ``measure.project``."""
        s0, forward = self.process.initial_state, self.process.forward
        s3 = _t2_selection(self.process, self.split, self.outcome, self.perspective)
        if self.perspective == "solver":
            return s0, None, forward, s3, self.backward
        initial = self.split.initial_part
        code_b = measure._value_code(initial, self.outcome, s0.layout)[1]
        s1, s2 = (measure.project(initial, code_b, s) for s in (s0, forward))
        return s0, s1, s2, s3, self.backward

    @property
    def trajectory(self) -> tuple[tuple[str, StateVector], ...]:
        """The states of the walk, labelled."""
        labels = (
            "t1 initial",
            f"t1 after meas. of {self.split.initial_part.name()}",
            "t2 forward",
            f"t2 after meas. of {self.split.final_part.name()}",
            "t1 backward",
        )
        return tuple((label, s) for label, s in zip(labels, self.walk) if s is not None)

    def branch_settings(self) -> tuple[str, ...]:
        """Setting values surviving in the bottom-line input state."""
        return _branch_settings(self.backward)


def _t2_selection(process: ProcessDescription, split: SelectionSplit, b: str, perspective: str) -> StateVector:
    """The t2 selection of setting ``b``: the process's forward leg times the
    keep of b's A sector, and for an external instance of its B sector too,
    one grid of B rows by A columns, in one multiply."""
    layout = process.layout
    keep = measure._value_keep(split.final_part, b, layout)
    if perspective == "external":
        keep = measure._value_keep(split.initial_part, b, layout) & keep
    return measure._masked(process.forward, keep)


def _branch_mask(s: StateVector) -> np.ndarray:
    """Which setting rows of ``s`` carry more than BRANCH_MASS_TOL of its mass."""
    parts = s.amps.view(np.float64).reshape(s.layout.dim_b, 2 * s.layout.dim_a)
    mass = np.einsum("ij,ij->i", parts, parts)  # squared modulus summed per setting
    return mass > BRANCH_MASS_TOL * mass.sum()


def _branch_settings(s: StateVector) -> tuple[str, ...]:
    """The settings of the rows ``_branch_mask`` keeps, as bit strings."""
    n = s.layout.n_b
    return tuple(format(b, f"0{n}b") for b in np.nonzero(_branch_mask(s))[0])


def _a_selection(
    process: ProcessDescription, final: ParityObservable, b: str, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """The rows of the t2 selection P_A U_12 s0 that the backward leg takes,
    on the setting rows ``rows`` (None: every row): the forward leg gathered
    at (b', a xor b'), times b's A keep moved by b' (the keep of code_A(b)
    xor code_A(b'), as codes are linear), read off the final part's table."""
    table_a, code_a = measure._value_code(final, b, process.layout)
    codes = table_a.codes if rows is None else table_a.codes[rows]
    x = process.u12._gather(process.forward.amps, rows)
    x *= table_a.keeps.take(code_a ^ codes, axis=0)
    return x


def external_instance(process: ProcessDescription, b: str, split: SelectionSplit) -> ZigzagInstance:
    """Zigzag with both partial projections applied (external observer view).

    The t2 selection P_A U_12 P_B s0 is P_A P_B U_12 s0, since U_12 is
    controlled on B (module docstring): the forward leg on the rows of b's B
    sector, the rest zero, times the keep of its A sector.  The backward leg
    acts row by row, so it is taken of those 2^(n - r) rows alone (r the
    initial part's rank), in one pass: the rows are selected on A as a
    solver instance selects them (``_a_selection``), zero-tested, multiplied
    by conj(N) and signed, and written into a zero grid.  The t2 selection
    is not kept, and the t1 selection and t2 state are left to the first
    read of the walk.  When the selection annihilates the state, the two
    selections are made one at a time, as ``project_forced`` makes them, so
    the error names B or A.  The bottom line is checked by ``_check_sharp``.
    """
    layout, u12 = process.layout, process.u12
    initial, final = split.initial_part, split.final_part
    table_b, code_b = measure._value_code(initial, b, layout)
    rows = table_b.values[code_b]
    x = _a_selection(process, final, b, rows)
    if _is_zero(x):  # the zero test of project_forced
        # the selections one at a time: the second keeps the amplitudes the
        # grid keeps, so one of the two raises
        project_forced(initial, b, process.initial_state)
        b_rows = measure._masked(process.forward, measure._value_keep(initial, b, layout))
        project_forced(final, b, b_rows)
    backward = np.zeros((layout.dim_b, layout.dim_a), dtype=np.complex128)
    backward[rows] = u12._adjoint_rows(x, rows)
    s4 = StateVector._fresh(layout, backward.reshape(-1))
    _check_sharp(s4, b)
    return ZigzagInstance(process, split, b, "external", s4)


def _check_sharp(s4: StateVector, b: str) -> None:
    """Raise InvariantError unless the external bottom line s4 is the sharp
    setting branch b: row b, and no other row, carries more than
    BRANCH_MASS_TOL = t of its total mass S.

    It is accepted from two sums when the off-branch mass S - m_b is at
    most t S / 2.  Then every other row has m_r <= S - m_b <= t S / 2 < t S,
    and m_b >= (1 - t / 2) S > t S since t < 2 / 3 and S > 0.  Each sum of k
    squares is within about k ulps of its exact value (k <= 2^17 under the
    dimension cap, so below 2e-11 S), many orders under the t S / 2 margin,
    so the computed per-row predicate agrees.  Otherwise the per-row branch
    mask decides, so a borderline or failing line gets its verdict and its
    message from ``_branch_mask`` alone.
    """
    value = int(b, 2)
    parts = s4.amps.view(np.float64)
    row_b = parts.reshape(s4.layout.dim_b, -1)[value]
    total = parts.dot(parts)
    if total > 0 and total - row_b.dot(row_b) <= 0.5 * BRANCH_MASS_TOL * total:
        return
    keep = _branch_mask(s4)
    if not keep[value] or np.count_nonzero(keep) != 1:
        raise InvariantError(
            f"external bottom line is not the sharp setting branch {b}:"
            f" settings {', '.join(_branch_settings(s4))} carry more than"
            f" BRANCH_MASS_TOL = {BRANCH_MASS_TOL:.0e} of the mass"
        )


def solver_instance(process: ProcessDescription, b: str, split: SelectionSplit) -> ZigzagInstance:
    """Zigzag with the initial projection postponed (problem-solver view).

    Every setting row is selected on A as an external instance selects its
    B sector's rows (``_a_selection``: the forward leg gathered, times b's A
    keep moved by each row's setting) and zero-tested, as ``project_forced``
    selects (which, on an annihilated selection, raises its message), then
    multiplied by conj(N) and signed, with no state in between.  The t2
    selection is not kept."""
    final = split.final_part
    x = _a_selection(process, final, b)
    if _is_zero(x):
        project_forced(final, b, process.forward)
    backward = process.u12._adjoint_rows(x).reshape(-1)
    return ZigzagInstance(process, split, b, "solver", StateVector._fresh(process.layout, backward))


def uneven_instance(process: ProcessDescription, b: str, final_rank: int) -> ZigzagInstance:
    """Solver instance with an arbitrary final-part rank (the k-fraction dial).

    Uses the canonical low-bit masks for the final part; rank n means full
    advance knowledge of the solution, rank 0 none at all.
    """
    n = process.n
    if not 0 <= final_rank <= n:
        raise ValueError(f"final rank {final_rank} out of range for n={n}")
    final_part = _observable("A", tuple(1 << i for i in range(final_rank)), n)
    initial_part = _observable("B", tuple(1 << i for i in range(final_rank, n)), n)
    return solver_instance(process, b, SelectionSplit(initial_part, final_part))


def _same_process(p: ProcessDescription, q: ProcessDescription) -> bool:
    """Whether ``p`` and ``q`` have one layout, one network (or none) and one
    initial state, compared by value."""
    m, k = p.u12.matrix, q.u12.matrix
    return (
        p.layout == q.layout
        and (m is None) == (k is None)
        and (m is None or np.array_equal(m, k))
        and np.array_equal(p.initial_state.amps, q.initial_state.amps)
    )


@dataclass(frozen=True)
class RecoveryReport:
    factor: complex
    max_deviation: float
    proportional: bool


def recover_superposition(instances) -> RecoveryReport:
    """Sum the bottom-line inputs and compare against the process input state.

    The superposition of all instances must give back the unitary part of the
    original description; the proportionality constant is reported rather
    than assumed.  ``instances`` may be any iterable: each backward leg is
    added in place as it comes, and its perspective and process checked
    against the first instance's, so no list of instances is kept.  A
    process passes if it is the first one or equal to it by value
    (``_same_process``).
    """
    total = process = perspective = None
    for inst in instances:
        if total is None:
            process, perspective = inst.process, inst.perspective
            total = np.zeros_like(process.initial_state.amps)
        elif inst.perspective != perspective:
            raise ValueError("instances mix perspectives")
        elif inst.process is not process and not _same_process(inst.process, process):
            raise ValueError("instances mix processes")
        total += inst.backward.amps
    if total is None:
        raise ValueError("no instances to superpose")
    reference = process.initial_state
    summed = StateVector(reference.layout, total)
    factor, resid = proportionality(summed, reference)
    return RecoveryReport(factor, resid, resid <= RESIDUAL_TOL * max(summed.norm(), 1.0))
