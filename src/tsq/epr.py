"""Nonlocality traces: direct propagation, the full-retrocausality (via-t0)
explanation, and the time-symmetrized mutual-causality zigzag.

The entangled pair is written redundantly on two 2-bit registers so the
single correlated bit can be split evenly between the two measurements;
XOR-decoding each register recovers the familiar 1-bit correlated state.
The registers separate between t0 and t1 by a unitary u01 (identity by
default, configurable, also exercised with seeded random unitaries) and
evolve to the second measurement at t2 by u02.  Because u12 = u02 u01_dag,
projecting at t1 and propagating directly is indistinguishable from
back-propagating to t0, projecting locally there, and propagating forward:
the local emulation of action at a distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.stats import unitary_group

from . import gf2
from .measure import (
    ParityObservable,
    ParityOutcome,
    full_observable,
    project_forced,
    sector_masses,
)
from .qcore import (
    SHARP_TOL,
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


@dataclass(frozen=True)
class EprScenario:
    """Entangled t0 state plus the separation (u01) and t0->t2 (u02) unitaries."""

    layout: RegisterLayout
    psi_t0: StateVector
    u01: UnitaryOp
    u02: UnitaryOp

    @cached_property
    def u12(self) -> UnitaryOp:
        return self.u02.compose(self.u01.adjoint())

    def psi_t1(self) -> StateVector:
        return apply(self.u01, self.psi_t0)


def make_scenario(
    u01: Optional[UnitaryOp] = None,
    u02: Optional[UnitaryOp] = None,
    seed: Optional[int] = None,
) -> EprScenario:
    """Default scenario on the redundant encoding.

    With a seed, u01 and u02 (when not given explicitly) are independent
    Haar-random unitaries; otherwise both default to the identity.
    """
    layout = RegisterLayout(2, 2)
    rng = np.random.default_rng(seed) if seed is not None else None
    def draw():
        if rng is None:
            return identity_unitary(layout)
        return UnitaryOp(layout, unitary_group.rvs(layout.dim, random_state=rng))
    return EprScenario(
        layout=layout,
        psi_t0=redundant_encode(layout),
        u01=u01 if u01 is not None else draw(),
        u02=u02 if u02 is not None else draw(),
    )


@dataclass(frozen=True)
class MeasurementEvent:
    time_tag: str
    outcome: ParityOutcome


@dataclass(frozen=True)
class Leg:
    direction: str  # "forward" | "backward"
    interval: str   # e.g. "t1->t2", "t1->t0"
    input_state: StateVector
    output_state: StateVector


@dataclass(frozen=True)
class CausalTrace:
    scenario: EprScenario
    kind: str  # "direct" | "costa" | "ts-direct" | "ts-via-t0"
    events: tuple[MeasurementEvent, ...]
    legs: tuple[Leg, ...]
    states: tuple[tuple[str, StateVector], ...]
    bottom_line: tuple[StateVector, StateVector]

    def state(self, label: str) -> StateVector:
        for name, s in self.states:
            if name == label:
                return s
        raise KeyError(label)


def _to_t2(
    scenario: EprScenario, t1_post: StateVector, via_t0: bool
) -> tuple[StateVector, list[Leg]]:
    """Carry ``t1_post`` to t2 directly by u12, or back to t0 by u01_dag and
    forward by u02; returns the t2 state and the legs taken."""
    if not via_t0:
        t2 = apply(scenario.u12, t1_post)
        return t2, [Leg("forward", "t1->t2", t1_post, t2)]
    t0 = apply_adjoint(scenario.u01, t1_post)
    t2 = apply(scenario.u02, t0)
    return t2, [Leg("backward", "t1->t0", t1_post, t0), Leg("forward", "t0->t2", t0, t2)]


def direct_trace(scenario: EprScenario, b_outcome: str, via_t0: bool = False) -> CausalTrace:
    """Full B measurement at t1 whose outcome reaches t2 directly, or via t0
    when ``via_t0`` (full retrocausality, kind "costa").

    On the via-t0 path the B measurement projects only the B-side support;
    back-propagated by u01_dag it locally changes the t0 state of both
    registers, which then runs forward by u02.
    """
    obs_b = full_observable(scenario.layout, "B")
    obs_a = full_observable(scenario.layout, "A")
    t1_pre = scenario.psi_t1()
    t1_post = project_forced(obs_b, b_outcome, t1_pre)
    t2, legs = _to_t2(scenario, t1_post, via_t0)
    a_outcome = _sharp_value(t2, obs_a)
    events = [MeasurementEvent("t1", obs_b.outcome_for(b_outcome))]
    if a_outcome is not None:
        events.append(MeasurementEvent("t2", obs_a.outcome_for(a_outcome)))
    t0_states = [("t0 changed", legs[0].output_state)] if via_t0 else []
    return CausalTrace(
        scenario=scenario,
        kind="costa" if via_t0 else "direct",
        events=tuple(events),
        legs=tuple(legs),
        states=(("t1 pre", t1_pre), ("t1 post", t1_post), *t0_states, ("t2", t2)),
        bottom_line=(t1_post, t2),
    )


def ts_trace(scenario: EprScenario, outcome: str, split: SelectionSplit, via_t0: bool = True) -> CausalTrace:
    """Mutual causality: both partial outcomes propagate toward the other
    measurement (via t0 when ``via_t0``), each hosting one causal loop."""
    t1_pre = scenario.psi_t1()
    t1_post = project_forced(split.initial_part, outcome, t1_pre)
    t2_pre, legs = _to_t2(scenario, t1_post, via_t0)
    states = [("t1 pre", t1_pre), ("t1 post", t1_post)]
    if via_t0:
        states.append(("t0 after B loop", legs[0].output_state))
    t2_post = project_forced(split.final_part, outcome, t2_pre)
    states += [("t2 pre", t2_pre), ("t2 post", t2_post)]
    if via_t0:
        t0_loop_a = apply_adjoint(scenario.u02, t2_post)
        t1_final = apply(scenario.u01, t0_loop_a)
        states.append(("t0 after A loop", t0_loop_a))
        legs += [
            Leg("backward", "t2->t0", t2_post, t0_loop_a),
            Leg("forward", "t0->t1", t0_loop_a, t1_final),
        ]
    else:
        t1_final = apply_adjoint(scenario.u12, t2_post)
        legs.append(Leg("backward", "t2->t1", t2_post, t1_final))
    states.append(("t1 final", t1_final))
    return CausalTrace(
        scenario=scenario,
        kind="ts-via-t0" if via_t0 else "ts-direct",
        events=(
            MeasurementEvent("t1", split.initial_part.outcome_for(outcome)),
            MeasurementEvent("t2", split.final_part.outcome_for(outcome)),
        ),
        legs=tuple(legs),
        states=tuple(states),
        bottom_line=(t1_final, t2_post),
    )


def _sharp_value(s: StateVector, obs: ParityObservable) -> Optional[str]:
    """Register value carrying the whole mass of ``s``, or None if the
    outcome is not deterministic (generic separation unitaries)."""
    masses = sector_masses(s, obs)
    total = sum(masses.values())
    bits, mass = max(masses.items(), key=lambda kv: kv[1])
    if total - mass > SHARP_TOL * total:
        return None
    return "".join(str(b) for b in bits)


@dataclass(frozen=True)
class EmulationReport:
    max_deviation: float
    nonlocal_state: StateVector
    local_state: StateVector


def emulation_check(
    scenario: EprScenario, b_outcome: str, observable: Optional[ParityObservable] = None
) -> EmulationReport:
    """Compare the nonlocal projection-then-propagate route with the local
    back-propagate, project at t0, propagate-forward route."""
    obs = observable if observable is not None else full_observable(scenario.layout, "B")
    t1_post = project_forced(obs, b_outcome, scenario.psi_t1())
    nonlocal_t2, _ = _to_t2(scenario, t1_post, via_t0=False)
    local_t2, _ = _to_t2(scenario, t1_post, via_t0=True)
    return EmulationReport(max_abs_diff(nonlocal_t2, local_t2), nonlocal_t2, local_t2)
