"""Text rendering of states and zigzag tables.

States print as ket sums with integer-relative amplitudes whenever every
amplitude is an integer multiple of the smallest one (normalization is
disregarded throughout, so the interesting tables are all integral); other
states fall back to floating point coefficients.  Tables are rendered in a
fixed three-column layout: states at t1, the propagation arrows, states at
t2, with "vv" marking a projective selection inside a column.
"""

from __future__ import annotations

import numpy as np

from .qcore import RENDER_TOL, StateVector


def _integer_relative(amps: list[complex]) -> list[complex] | None:
    smallest = min(abs(a) for a in amps)
    rel = [a / smallest for a in amps]
    for r in rel:
        if abs(r.imag) > RENDER_TOL or abs(r.real - round(r.real)) > RENDER_TOL:
            return None
    return [complex(round(r.real), 0) for r in rel]


def _coeff_str(c: complex) -> str:
    if abs(c.imag) <= RENDER_TOL:
        x = c.real
        if abs(x - round(x)) <= RENDER_TOL:
            return str(int(round(x)))
        return f"{x:.6g}"
    return f"({c.real:.6g}{c.imag:+.6g}j)"


def _join_terms(pairs: list[tuple[complex, str]]) -> str:
    out = ""
    for i, (c, ket) in enumerate(pairs):
        cs = _coeff_str(c)
        if cs == "1":
            cs = ""
        if i == 0:
            out = (f"-{cs.lstrip('-')}" if cs.startswith("-") else cs) + ket
        elif cs.startswith("-"):
            out += f" - {cs[1:]}{ket}"
        else:
            out += f" + {cs}{ket}"
    return out


def format_state(s: StateVector) -> str:
    """Human-readable ket sum; factors a shared A-register ket when possible."""
    terms = list(s.terms(RENDER_TOL))
    if not terms:
        return "0"
    amps = _integer_relative([amp for _, amp in terms])
    if amps is None:
        amps = [amp for _, amp in terms]
    a_values = {label.a_bits for label, _ in terms}
    if len(a_values) == 1 and len(terms) > 1:
        a_bits = a_values.pop()
        inner = _join_terms([(c, f"|{label.b_bits}>_B") for (label, _), c in zip(terms, amps)])
        return f"({inner})|{a_bits}>_A"
    return _join_terms(
        [(c, f"|{label.b_bits}>_B|{label.a_bits}>_A") for (label, _), c in zip(terms, amps)]
    )


def state_rows(s: StateVector) -> list[dict]:
    """Lossless amplitude rows for JSON reports."""
    return [
        {"b": label.b_bits, "a": label.a_bits, "re": amp.real, "im": amp.imag}
        for label, amp in s.terms(RENDER_TOL)
    ]


def three_column(header: tuple[str, str, str], rows: list[tuple[str, str, str]]) -> list[str]:
    all_rows = [header] + rows
    widths = [max(len(r[i]) for r in all_rows) for i in range(3)]
    lines = []
    for r in all_rows:
        line = "   ".join(r[i].ljust(widths[i]) for i in range(3)).rstrip()
        lines.append(line)
    lines.insert(1, "-" * max(len(l) for l in lines))
    return lines


FWD = "=> U_12 =>"
BWD = "<= U_12+ <="
FWD_VIA = "=> U_102 =>"
BWD_VIA = "<= U_102+ <="


def external_ordinary_table(initial, selected, output, obs_b="B", obs_a="A") -> list[str]:
    return three_column(
        (f"time t1, meas. of {obs_b}", "t1 -> t2", f"time t2, meas. of {obs_a}"),
        [
            (format_state(initial), "", ""),
            ("vv", "", ""),
            (format_state(selected), FWD, format_state(output)),
        ],
    )


def solver_ordinary_table(initial, correlated, selected) -> list[str]:
    return three_column(
        ("time t1, meas. of B", "t1 -> t2", "time t2, meas. of A"),
        [
            (format_state(initial), FWD, format_state(correlated)),
            ("", "", "vv"),
            ("", "", format_state(selected)),
        ],
    )


def external_zigzag_table(instance) -> list[str]:
    (_, s0), (_, s1), (_, s2), (_, s3), (_, s4) = instance.trajectory
    left = instance.split.initial_part.name()
    right = instance.split.final_part.name()
    return three_column(
        (f"time t1, meas. of {left}", "t1 <=> t2", f"time t2, meas. of {right}"),
        [
            (format_state(s0), "", ""),
            ("vv", "", ""),
            (format_state(s1), FWD, format_state(s2)),
            ("", "", "vv"),
            (format_state(s4), BWD, format_state(s3)),
        ],
    )


def solver_zigzag_table(instance) -> list[str]:
    (_, s0), (_, s1), (_, s2), (_, s3) = instance.trajectory
    left = instance.split.initial_part.name()
    right = instance.split.final_part.name()
    return three_column(
        (f"time t1, meas. of {left}", "t1 <=> t2", f"time t2, meas. of {right}"),
        [
            (format_state(s0), FWD, format_state(s1)),
            ("", "", "vv"),
            (format_state(s3), BWD, format_state(s2)),
        ],
    )


def bottom_line_table(instance, direction: str = "backward") -> list[str]:
    inp, out = instance.bottom_line
    if direction == "backward":
        return three_column(
            ("time t1", "t1 <- t2", "time t2"),
            [(format_state(inp), BWD, format_state(out))],
        )
    return three_column(
        ("time t1", "t1 -> t2", "time t2"),
        [(format_state(inp), FWD, format_state(out))],
    )


def epr_trace_table(trace) -> list[str]:
    via = trace.kind in ("costa", "ts-via-t0")
    fwd = FWD_VIA if via else FWD
    bwd = BWD_VIA if via else BWD
    if trace.kind in ("direct", "costa"):
        mid = "t1 -> t0 -> t2" if via else "t1 -> t2"
        t2 = trace.state("t2")
        return three_column(
            (f"time t1, meas. of B", mid, f"time t2, meas. of A"),
            [
                (format_state(trace.state("t1 pre")), "", ""),
                ("vv", "", ""),
                (format_state(trace.state("t1 post")), fwd, format_state(t2)),
            ],
        )
    mid = "t1 <=> t0 <=> t2" if via else "t1 <=> t2"
    left = trace.events[0].outcome.observable.name()
    right = trace.events[1].outcome.observable.name()
    return three_column(
        (f"time t1, meas. of {left}", mid, f"time t2, meas. of {right}"),
        [
            (format_state(trace.state("t1 pre")), "", ""),
            ("vv", "", ""),
            (format_state(trace.state("t1 post")), fwd, format_state(trace.state("t2 pre"))),
            ("", "", "vv"),
            (format_state(trace.state("t1 final")), bwd, format_state(trace.state("t2 post"))),
        ],
    )
