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
from typing import Optional, Sequence

from .dyadic import Dyadic, decimal_text

TRACE_COLUMNS = ("round", "phi", "max_gap", "d_r", "connections", "converged")

# How many recent rows' text a trace writer keeps for reuse, and the
# longest text it keeps (a longer row's amounts are not held either).
ROW_TEXTS = 16
ROW_TEXT_CHARS = 256

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
    numerators, so no row builds a Dyadic.  `checks` is the round's verdict
    dict (check name -> passed), None when no check ran.

    A row whose amounts, exponents, `connections`, `converged` and `checks`
    are the very objects of a kept row reuses its text after the round
    index.  Objects match by identity, never by value, so
    equal values that render differently (`Dyadic(2)` and the numerator 2
    at exp=1) never share text; the table holds the objects it keys, so
    their ids stay theirs.  So a `checks` dict must not change once a row
    has read it.  The table keeps up to `ROW_TEXTS` rows of at most
    `ROW_TEXT_CHARS` characters each, then empties.
    """

    def __init__(self, stream, checks: Sequence[str] = (), close_stream: bool = False):
        self.checks = tuple(checks)
        self._stream = stream
        self._close_stream = close_stream
        # ids of a row's objects -> (the objects, the text after the index)
        self._texts: dict[tuple, tuple[tuple, str]] = {}
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
        checks: Optional[dict] = None,
        exp: int = 0,
        d_r_exp: int = 0,
    ) -> None:
        # Spelled out: tuple(map(id, ...)) grows its result as it goes,
        # which left a traced trial's peak RSS a quarter MiB higher.
        ids = (
            id(phi), id(max_gap), id(d_r), id(connections), id(converged), id(checks),
            id(exp), id(d_r_exp),
        )
        kept = self._texts.get(ids)
        if kept is not None:
            tail = kept[1]
        else:
            row = [
                render_amount(phi, exp),
                render_amount(max_gap, exp),
                render_amount(d_r, d_r_exp),
                str(connections),
                "true" if converged else "false",
            ]
            for name in self.checks:
                if checks is None or name not in checks:
                    row.append("")
                else:
                    row.append("0" if checks[name] else "1")
            tail = ",".join(row)
            if len(tail) <= ROW_TEXT_CHARS:
                if len(self._texts) >= ROW_TEXTS:
                    self._texts.clear()
                objects = (phi, max_gap, d_r, connections, converged, checks, exp, d_r_exp)
                self._texts[ids] = objects, tail
        self._stream.write(f"{round_index},{tail}\r\n")

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
