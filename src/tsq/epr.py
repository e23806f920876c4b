"""Nonlocality traces: direct propagation, the full-retrocausality (via-t0)
explanation, and the time-symmetrized mutual-causality zigzag.

The entangled pair is written redundantly on two 2-bit registers so the
single correlated bit can be split evenly between the two measurements;
XOR-decoding each register recovers the familiar 1-bit correlated state.
The registers separate between t0 and t1 by a unitary u01 and evolve to
the second measurement at t2 by u02: both the identity, or with a seed two
Haar-random unitaries.  Because u12 = u02 u01_dag, projecting at t1 and
propagating directly is indistinguishable from back-propagating to t0,
projecting locally there, and propagating forward: the local emulation of
action at a distance, whose largest deviation ``emulation_check`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .measure import full_observable, project_forced
from .qcore import (
    RegisterLayout,
    StateVector,
    UnitaryOp,
    apply,
    apply_adjoint,
    identity_unitary,
    max_abs_diff,
)
from .tsym import SelectionSplit


def redundant_encode(layout: RegisterLayout) -> StateVector:
    """The 4-term correlated state sum_b |b>_B |b>_A on a (2, 2) layout."""
    if (layout.n_b, layout.n_a) != (2, 2):
        raise ValueError("redundant encoding is defined on the (2, 2) layout")
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for b in range(4):
        amps[b * 4 + b] = 1.0
    return StateVector(layout, amps)


@dataclass(frozen=True)
class EprScenario:
    """Entangled t0 state plus the separation (u01) and t0->t2 (u02) unitaries."""

    layout: RegisterLayout
    psi_t0: StateVector
    u01: UnitaryOp
    u02: UnitaryOp

    @cached_property
    def u12(self) -> UnitaryOp:
        return UnitaryOp(self.layout, self.u02.matrix @ self.u01._conj.T)

    def psi_t1(self) -> StateVector:
        return apply(self.u01, self.psi_t0)


def make_scenario(seed: Optional[int] = None) -> EprScenario:
    """Scenario on the redundant encoding: with a seed, u01 and u02 are
    independent Haar-random unitaries, drawn in that order; otherwise both
    are the identity."""
    layout = RegisterLayout(2, 2)
    rng = np.random.default_rng(seed) if seed is not None else None
    def draw():
        if rng is None:
            return identity_unitary(layout)
        # Haar (Mezzadri 2007): the same draws as scipy.stats.unitary_group.rvs
        shape = (layout.dim, layout.dim)
        z = (1 / math.sqrt(2)) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        q, r = np.linalg.qr(z)
        return UnitaryOp(layout, q * (r.diagonal() / abs(r.diagonal())))
    return EprScenario(
        layout=layout,
        psi_t0=redundant_encode(layout),
        u01=draw(),
        u02=draw(),
    )


@dataclass(frozen=True)
class CausalTrace:
    """One walk between the two measurements, ``walk``: the t1 state, its
    selection, the t2 state, its selection and the backward t1 state, an
    absent selection or backward leg being None; ``states`` labels every
    state passed, t0 ones included."""

    walk: tuple[Optional[StateVector], ...]
    kind: str  # "direct" | "costa" | "ts-direct" | "ts-via-t0"
    states: tuple[tuple[str, StateVector], ...]

    @property
    def bottom_line(self) -> tuple[StateVector, StateVector]:
        """Ends of the last leg: the backward one, else the forward one from
        the t1 selection, which every trace makes."""
        _, t1_selected, t2, t2_selected, backward = self.walk
        return (t1_selected, t2) if backward is None else (backward, t2_selected)


def _carry(
    scenario: EprScenario, s: StateVector, via_t0: bool, backward: bool = False
) -> tuple[StateVector, Optional[StateVector]]:
    """Carry ``s`` from t1 to t2 (from t2 to t1 when ``backward``) directly by
    u12, or through t0 by u01 and u02; returns the state at the far end and
    the t0 state passed (None on the direct path)."""
    if not via_t0:
        return (apply_adjoint if backward else apply)(scenario.u12, s), None
    first, second = (scenario.u02, scenario.u01) if backward else (scenario.u01, scenario.u02)
    t0 = apply_adjoint(first, s)
    return apply(second, t0), t0


def direct_trace(scenario: EprScenario, b_outcome: str, via_t0: bool = False) -> CausalTrace:
    """Full B measurement at t1 whose outcome reaches t2 directly, or via t0
    when ``via_t0`` (full retrocausality, kind "costa").

    On the via-t0 path the B measurement projects only the B-side support;
    back-propagated by u01_dag it locally changes the t0 state of both
    registers, which then runs forward by u02.
    """
    t1_pre = scenario.psi_t1()
    t1_post = project_forced(full_observable(scenario.layout, "B"), b_outcome, t1_pre)
    t2, t0 = _carry(scenario, t1_post, via_t0)
    t0_states = [("t0 changed", t0)] if via_t0 else []
    return CausalTrace(
        walk=(t1_pre, t1_post, t2, None, None),
        kind="costa" if via_t0 else "direct",
        states=(("t1 pre", t1_pre), ("t1 post", t1_post), *t0_states, ("t2", t2)),
    )


def ts_trace(scenario: EprScenario, outcome: str, split: SelectionSplit, via_t0: bool = True) -> CausalTrace:
    """Mutual causality: both partial outcomes propagate toward the other
    measurement (via t0 when ``via_t0``), each hosting one causal loop."""
    t1_pre = scenario.psi_t1()
    t1_post = project_forced(split.initial_part, outcome, t1_pre)
    t2_pre, t0_b = _carry(scenario, t1_post, via_t0)
    t2_post = project_forced(split.final_part, outcome, t2_pre)
    t1_final, t0_a = _carry(scenario, t2_post, via_t0, backward=True)
    loop_b = [("t0 after B loop", t0_b)] if via_t0 else []
    loop_a = [("t0 after A loop", t0_a)] if via_t0 else []
    return CausalTrace(
        walk=(t1_pre, t1_post, t2_pre, t2_post, t1_final),
        kind="ts-via-t0" if via_t0 else "ts-direct",
        states=(
            ("t1 pre", t1_pre),
            ("t1 post", t1_post),
            *loop_b,
            ("t2 pre", t2_pre),
            ("t2 post", t2_post),
            *loop_a,
            ("t1 final", t1_final),
        ),
    )


def emulation_check(scenario: EprScenario, b_outcome: str) -> float:
    """Largest amplitude difference at t2 between the nonlocal route (the full
    B measurement at t1, then u12) and the local one (back-propagate to t0,
    project there, propagate forward)."""
    t1_post = project_forced(full_observable(scenario.layout, "B"), b_outcome, scenario.psi_t1())
    nonlocal_t2, _ = _carry(scenario, t1_post, via_t0=False)
    local_t2, _ = _carry(scenario, t1_post, via_t0=True)
    return max_abs_diff(nonlocal_t2, local_t2)
