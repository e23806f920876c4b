"""Text rendering of states and zigzag tables.

States print as ket sums with integer-relative amplitudes whenever every
amplitude is an integer multiple of the smallest one (normalization is
disregarded throughout, so the interesting tables are all integral); other
states fall back to floating point coefficients.  Every scenario table is
one zigzag walk in a fixed three-column layout: states at t1, the
propagation arrows, states at t2, with "vv" marking a projective selection
inside a column.
"""

from __future__ import annotations

from typing import Callable

from .qcore import RENDER_TOL, StateVector

Show = Callable[[StateVector], str]  # writes one state in a table


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
    terms = list(s.terms())
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


def state_rows(s: StateVector) -> str:
    """Lossless amplitude rows for JSON reports, as finished JSON text at the
    depth of a report table: the bytes ``json.dumps(..., indent=2,
    sort_keys=True)`` writes for the list of {"a", "b", "im", "re"} rows.
    Floats go through ``float.__repr__``, as ``json`` writes finite floats;
    amplitudes are finite because ``StateVector`` refuses NaN and inf."""
    num = float.__repr__
    rows = ",\n      ".join(
        f'{{\n        "a": "{label.a_bits}",\n        "b": "{label.b_bits}",\n'
        f'        "im": {num(amp.imag)},\n        "re": {num(amp.real)}\n      }}'
        for label, amp in s.terms()
    )
    return f"[\n      {rows}\n    ]" if rows else "[]"


def three_column(header: tuple[str, str, str], rows: list[tuple[str, str, str]]) -> list[str]:
    all_rows = [header] + rows
    widths = [max(len(r[i]) for r in all_rows) for i in range(3)]
    lines = []
    for r in all_rows:
        line = "   ".join(r[i].ljust(widths[i]) for i in range(3)).rstrip()
        lines.append(line)
    lines.insert(1, "-" * max(len(l) for l in lines))
    return lines


def _arrows(via: bool) -> tuple[str, str]:
    """Forward and backward leg arrows, through t0 (U_102 = U_02 U_01+) when ``via``."""
    u = "U_102" if via else "U_12"
    return f"=> {u} =>", f"<= {u}+ <="


def zigzag_table(left: str, right: str, walk, show: Show, via: bool = False) -> list[str]:
    """The table of one walk: the t1 state, its selection (meas. of ``left``),
    the t2 state, its selection (meas. of ``right``) and the backward t1
    state, each written by ``show``.  An absent selection or backward leg is
    None and leaves out its rows; a walk with a backward leg is a zigzag,
    "<=>" in the header."""
    t1, t1_selected, t2, t2_selected, backward = walk
    fwd, bwd = _arrows(via)
    rows = []
    if t1_selected is not None:
        rows += [(show(t1), "", ""), ("vv", "", "")]
        t1 = t1_selected
    rows.append((show(t1), fwd, show(t2)))
    if t2_selected is not None:
        back = ("", "") if backward is None else (show(backward), bwd)
        rows += [("", "", "vv"), (*back, show(t2_selected))]
    step = " -> " if backward is None else " <=> "
    times = ("t1", "t0", "t2") if via else ("t1", "t2")
    return three_column(
        (f"time t1, meas. of {left}", step.join(times), f"time t2, meas. of {right}"), rows
    )


def bottom_line_table(instance, show: Show, direction: str = "backward") -> list[str]:
    inp, out = instance.bottom_line
    fwd, bwd = _arrows(via=False)
    mid, arrow = ("t1 <- t2", bwd) if direction == "backward" else ("t1 -> t2", fwd)
    row = (show(inp), arrow, show(out))
    return three_column(("time t1", mid, "time t2"), [row])
