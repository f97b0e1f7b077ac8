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

A trace row reaches the writer as one tuple, and the writer renders each
row object's text once: a replayed round hands it the very row the engine
kept on the round record (see engine.py), and only its index is new.
"""

from __future__ import annotations

import csv
from typing import Sequence

from .dyadic import Dyadic, decimal_text

TRACE_COLUMNS = ("round", "phi", "max_gap", "d_r", "connections", "converged")

# How many rows' text a trace writer keeps for reuse, and the longest text
# it keeps (a longer row is not held either).  The table holds every row a
# trial can cycle through: `randMaxNeighbor` replays up to 1024 records
# (`algorithms.randomized.REPLAY_LIMIT`), each written from its kept row.
ROW_TEXTS = 1024
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

    A row is one tuple `(phi, max_gap, d_r, connections, converged, checks,
    exp, d_r_exp)`.  Its amounts are dyadic values, or int numerators:
    `phi` and `max_gap` over 2**exp, `d_r` over 2**d_r_exp.  The engine
    passes numerators, so no row builds a Dyadic.  `checks` is the round's
    verdict dict (check name -> passed), None when no check ran.

    The writer renders a row object's text once: when the very same tuple
    comes back (the engine hands a replayed round's kept row again), its
    text after the round index is reused.  Rows match by identity, never by
    value, so equal values that render differently (`Dyadic(2)` and the
    numerator 2 at exp=1) never share text; the table holds the rows it
    keys, so their ids stay theirs.  So a row's `checks` dict must not
    change once the row has been written.  The table keeps up to
    `ROW_TEXTS` rows of at most `ROW_TEXT_CHARS` characters each, then
    empties.
    """

    def __init__(self, stream, checks: Sequence[str] = (), close_stream: bool = False):
        self.checks = tuple(checks)
        self._stream = stream
        self._close_stream = close_stream
        # id of a row -> (the row, its text after the index)
        self._texts: dict[int, tuple[tuple, str]] = {}
        csv.writer(stream).writerow(TRACE_COLUMNS + self.checks)

    def round_row(self, *, round_index: int, row: tuple) -> None:
        kept = self._texts.get(id(row))
        if kept is not None:
            tail = kept[1]
        else:
            phi, max_gap, d_r, connections, converged, checks, exp, d_r_exp = row
            fields = [
                render_amount(phi, exp),
                render_amount(max_gap, exp),
                render_amount(d_r, d_r_exp),
                str(connections),
                "true" if converged else "false",
            ]
            for name in self.checks:
                if checks is None or name not in checks:
                    fields.append("")
                else:
                    fields.append("0" if checks[name] else "1")
            tail = ",".join(fields)
            if len(tail) <= ROW_TEXT_CHARS:
                if len(self._texts) >= ROW_TEXTS:
                    self._texts.clear()
                self._texts[id(row)] = row, tail
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
