"""CSV output for round traces and experiment summaries.

All amounts are rendered as exact decimal strings (dyadic values always
have one), so a trace can be parsed back without any rounding ambiguity.
The converged flag renders as "true"/"false"; check columns use "0" for
pass, "1" for fail, and empty for rounds where the check did not run
(round zero, or rounds skipped by the check stride).

Amounts of any length render exactly, with no digit limit (see
`dynbal.dyadic` for how).  Trace rows are written without the `csv`
module: every row field is an int, decimal text made of digits, "-" and
".", "true"/"false", or "0"/"1"/empty, so no field can need quoting, and
joining the fields with "," and ending the line with "\r\n" gives the
bytes `csv.writer` would, without its per-character quoting scan over
amounts thousands of digits long.  The header, written once, keeps
`csv.writer`, as does the experiment summary, whose `aborted` message can
contain a comma.
"""

from __future__ import annotations

import csv
from typing import Sequence

from .dyadic import Dyadic, decimal_text

TRACE_COLUMNS = ("round", "phi", "max_gap", "d_r", "connections", "converged")

SUMMARY_COLUMNS = (
    "seed",
    "converged",
    "converged_at",
    "rounds",
    "budget",
    "final_gap",
    "min_max_gap",
    "invariant_failures",
    "aborted",
)


def render_amount(value, exp: int = 0) -> str:
    """Exact decimal text for a dyadic amount, or for an int numerator over
    2**exp."""
    if isinstance(value, Dyadic):
        return value.decimal_str()
    return decimal_text(value, exp)


class TraceCsvWriter:
    """Writes one row per retained round of a single trial.

    A row's amounts are dyadic values, or int numerators: `phi` and
    `max_gap` over 2**exp, `d_r` over 2**d_r_exp.  The engine passes
    numerators, so no row builds a Dyadic.
    """

    def __init__(self, stream, checks: Sequence[str] = (), close_stream: bool = False):
        self.checks = tuple(checks)
        self._stream = stream
        self._close_stream = close_stream
        csv.writer(stream).writerow(TRACE_COLUMNS + self.checks)

    def round_row(
        self,
        *,
        round_index: int,
        phi,
        max_gap,
        d_r,
        connections: int,
        converged: bool,
        report=None,
        exp: int = 0,
        d_r_exp: int = 0,
    ) -> None:
        row = [
            str(round_index),
            render_amount(phi, exp),
            render_amount(max_gap, exp),
            render_amount(d_r, d_r_exp),
            str(connections),
            "true" if converged else "false",
        ]
        for name in self.checks:
            if report is None or name not in report.checks:
                row.append("")
            else:
                row.append("0" if report.checks[name] else "1")
        self._stream.write(",".join(row) + "\r\n")

    def close(self) -> None:
        if self._close_stream:
            self._stream.close()


def open_trace_writer(path, checks: Sequence[str] = ()) -> TraceCsvWriter:
    """Open `path` for writing and wrap it in a TraceCsvWriter that owns it."""
    stream = open(path, "w", newline="")
    return TraceCsvWriter(stream, checks, close_stream=True)


def write_experiment_summary(stream, trials) -> None:
    """One row per trial: convergence, rounds used, failures, abort reason."""
    writer = csv.writer(stream)
    writer.writerow(SUMMARY_COLUMNS)
    for t in trials:
        writer.writerow(
            [
                t.seed,
                "true" if t.converged else "false",
                "" if t.converged_at is None else t.converged_at,
                t.rounds_played,
                t.budget,
                render_amount(t.final_gap),
                render_amount(t.min_max_gap),
                t.invariant_failures,
                t.aborted or "",
            ]
        )
